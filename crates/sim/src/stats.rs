//! Observability counters of the compiled fault-simulation engine.
//!
//! The event-driven engine earns its speedup from three mechanisms — skipped
//! dirty levels, 256-lane wide words and cone-deduplicated fault batching —
//! and every one of them can silently regress to its slow fallback without
//! changing a single campaign outcome. [`SimStats`] counts what actually
//! happened so benches, table binaries and CI can assert the fast paths were
//! taken instead of trusting wall-clock anecdotes.

use std::fmt;

/// Counters accumulated while evaluating packed fault-experiment words.
///
/// Every counter is a plain sum (except [`SimStats::max_lanes_per_word`],
/// a maximum), so per-shard blocks merge with [`SimStats::merge`] in any
/// order — sharded campaigns report the same totals as sequential ones.
///
/// The campaign layer deliberately excludes this block from result
/// equality: two backends that produce bit-identical outcomes compare equal
/// even though their evaluation strategies (and therefore their counters)
/// differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Dirty levels actually evaluated across all word-cycles of the
    /// incremental (cone) mode.
    pub levels_evaluated: u64,
    /// Clean levels skipped because no operand word had changed against the
    /// golden frame.
    pub levels_skipped: u64,
    /// Instructions actually evaluated across all word-cycle-passes.
    pub ops_evaluated: u64,
    /// Instructions skipped by the per-instruction divergence check: every
    /// operand lane was golden-equal (and no overlay targeted the
    /// instruction), so its output is provably the golden value.
    pub ops_skipped: u64,
    /// Word batches evaluated at the narrow 1×u64 (64-lane) width.
    pub words_narrow: u64,
    /// Word batches evaluated at the wide 4×u64 (256-lane) width.
    pub words_wide: u64,
    /// Word batches that took the full-netlist multi-pass mode (bridged
    /// lanes), at either width.
    pub words_full_eval: u64,
    /// The largest number of experiment lanes any single word batch carried.
    pub max_lanes_per_word: u64,
    /// Experiment lanes simulated in packed words.
    pub lanes_simulated: u64,
    /// Lanes whose outcome was decided before the final stimulus cycle
    /// (voted outputs diverged early, or a pure state fault re-converged
    /// with golden).
    pub lanes_retired_early: u64,
    /// Simulable faults that shared a fan-out-cone fingerprint with the
    /// previous fault of their batching order — the cone-dedup hit count.
    pub cone_dedup_hits: u64,
    /// Simulable faults grouped by the cone batcher (the dedup denominator).
    pub cone_grouped: u64,
}

impl SimStats {
    /// Merges another counter block into this one (sums, except the lane
    /// maximum). Order-independent, so shard merge order never shows.
    pub fn merge(&mut self, other: &SimStats) {
        self.levels_evaluated += other.levels_evaluated;
        self.levels_skipped += other.levels_skipped;
        self.ops_evaluated += other.ops_evaluated;
        self.ops_skipped += other.ops_skipped;
        self.words_narrow += other.words_narrow;
        self.words_wide += other.words_wide;
        self.words_full_eval += other.words_full_eval;
        self.max_lanes_per_word = self.max_lanes_per_word.max(other.max_lanes_per_word);
        self.lanes_simulated += other.lanes_simulated;
        self.lanes_retired_early += other.lanes_retired_early;
        self.cone_dedup_hits += other.cone_dedup_hits;
        self.cone_grouped += other.cone_grouped;
    }

    /// Fraction of incremental-mode levels that were skipped (0 when the
    /// incremental mode never ran).
    pub fn level_skip_rate(&self) -> f64 {
        let total = self.levels_evaluated + self.levels_skipped;
        if total == 0 {
            return 0.0;
        }
        self.levels_skipped as f64 / total as f64
    }

    /// Fraction of visited instructions that were skipped by the
    /// per-instruction divergence check (0 when nothing was visited).
    pub fn op_skip_rate(&self) -> f64 {
        let total = self.ops_evaluated + self.ops_skipped;
        if total == 0 {
            return 0.0;
        }
        self.ops_skipped as f64 / total as f64
    }

    /// Fraction of cone-batched faults that shared a cone fingerprint with
    /// their predecessor (0 when nothing was batched).
    pub fn cone_dedup_rate(&self) -> f64 {
        if self.cone_grouped == 0 {
            return 0.0;
        }
        self.cone_dedup_hits as f64 / self.cone_grouped as f64
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "levels {} eval / {} skip ({:.0} % skipped); ops {} eval / {} \
             skip ({:.0} % skipped); words {}x64 + {}x256 \
             ({} full-eval, max {} lanes); {} lanes ({} retired early); \
             cone dedup {}/{} ({:.0} %)",
            self.levels_evaluated,
            self.levels_skipped,
            100.0 * self.level_skip_rate(),
            self.ops_evaluated,
            self.ops_skipped,
            100.0 * self.op_skip_rate(),
            self.words_narrow,
            self.words_wide,
            self.words_full_eval,
            self.max_lanes_per_word,
            self.lanes_simulated,
            self.lanes_retired_early,
            self.cone_dedup_hits,
            self.cone_grouped,
            100.0 * self.cone_dedup_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_lanes() {
        let mut a = SimStats {
            levels_evaluated: 10,
            levels_skipped: 30,
            ops_evaluated: 100,
            ops_skipped: 900,
            words_narrow: 1,
            words_wide: 2,
            words_full_eval: 1,
            max_lanes_per_word: 64,
            lanes_simulated: 100,
            lanes_retired_early: 40,
            cone_dedup_hits: 5,
            cone_grouped: 20,
        };
        let b = SimStats {
            levels_evaluated: 1,
            levels_skipped: 1,
            ops_evaluated: 1,
            ops_skipped: 1,
            words_narrow: 0,
            words_wide: 1,
            words_full_eval: 0,
            max_lanes_per_word: 256,
            lanes_simulated: 200,
            lanes_retired_early: 1,
            cone_dedup_hits: 1,
            cone_grouped: 2,
        };
        a.merge(&b);
        assert_eq!(a.levels_evaluated, 11);
        assert_eq!(a.levels_skipped, 31);
        assert_eq!(a.ops_evaluated, 101);
        assert_eq!(a.ops_skipped, 901);
        assert!(a.op_skip_rate() > 0.8);
        assert_eq!(a.words_wide, 3);
        assert_eq!(a.max_lanes_per_word, 256);
        assert_eq!(a.lanes_simulated, 300);
        assert_eq!(a.cone_dedup_hits, 6);
        assert!(a.level_skip_rate() > 0.7);
        assert!(a.cone_dedup_rate() > 0.25);
        let rendered = a.to_string();
        assert!(rendered.contains("levels 11 eval"));
        assert!(rendered.contains("max 256 lanes"));
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let stats = SimStats::default();
        assert_eq!(stats.level_skip_rate(), 0.0);
        assert_eq!(stats.cone_dedup_rate(), 0.0);
    }
}
