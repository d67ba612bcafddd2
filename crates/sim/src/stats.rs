//! Observability counters of the compiled fault-simulation engine.
//!
//! The compiled engine earns its speed from cone restriction, the
//! per-instruction divergence check, lane retirement and cone-deduplicated
//! fault batching, and each of them can silently regress to its slow
//! fallback without changing a single campaign outcome. [`SimStats`] counts
//! what actually happened so tests, table binaries and the benchmark can see
//! the fast paths were taken instead of trusting wall-clock anecdotes.

use std::fmt;

/// Counters accumulated while evaluating packed fault-experiment words.
///
/// Every counter is a plain sum, so per-shard blocks merge with
/// [`SimStats::merge`] in any order — sharded campaigns report the same
/// totals as sequential ones.
///
/// The campaign layer deliberately excludes this block from result
/// equality: two backends that produce bit-identical outcomes compare equal
/// even though their evaluation strategies (and therefore their counters)
/// differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Instructions actually evaluated across all word-cycle-passes.
    pub ops_evaluated: u64,
    /// Instructions skipped by the per-instruction divergence check: every
    /// operand lane was golden-equal (and no overlay targeted the
    /// instruction), so its output is provably the golden value.
    pub ops_skipped: u64,
    /// 64-lane words evaluated.
    pub words: u64,
    /// Words that took the multi-pass settling mode (bridged lanes).
    pub words_full_eval: u64,
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
    /// Merges another counter block into this one. Order-independent, so
    /// shard merge order never shows.
    pub fn merge(&mut self, other: &SimStats) {
        self.ops_evaluated += other.ops_evaluated;
        self.ops_skipped += other.ops_skipped;
        self.words += other.words;
        self.words_full_eval += other.words_full_eval;
        self.lanes_simulated += other.lanes_simulated;
        self.lanes_retired_early += other.lanes_retired_early;
        self.cone_dedup_hits += other.cone_dedup_hits;
        self.cone_grouped += other.cone_grouped;
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
            "ops {} eval / {} skip ({:.0} % skipped); {} words ({} full-eval); \
             {} lanes ({} retired early); cone dedup {}/{} ({:.0} %)",
            self.ops_evaluated,
            self.ops_skipped,
            100.0 * self.op_skip_rate(),
            self.words,
            self.words_full_eval,
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
    fn merge_sums_counters() {
        let mut a = SimStats {
            ops_evaluated: 100,
            ops_skipped: 900,
            words: 3,
            words_full_eval: 1,
            lanes_simulated: 100,
            lanes_retired_early: 40,
            cone_dedup_hits: 5,
            cone_grouped: 20,
        };
        let b = SimStats {
            ops_evaluated: 1,
            ops_skipped: 1,
            words: 4,
            words_full_eval: 0,
            lanes_simulated: 200,
            lanes_retired_early: 1,
            cone_dedup_hits: 1,
            cone_grouped: 2,
        };
        a.merge(&b);
        assert_eq!(a.ops_evaluated, 101);
        assert_eq!(a.ops_skipped, 901);
        assert!(a.op_skip_rate() > 0.8);
        assert_eq!(a.words, 7);
        assert_eq!(a.words_full_eval, 1);
        assert_eq!(a.lanes_simulated, 300);
        assert_eq!(a.lanes_retired_early, 41);
        assert_eq!(a.cone_dedup_hits, 6);
        assert!(a.cone_dedup_rate() > 0.25);
        let rendered = a.to_string();
        assert!(rendered.contains("ops 101 eval"));
        assert!(rendered.contains("7 words (1 full-eval)"));
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let stats = SimStats::default();
        assert_eq!(stats.op_skip_rate(), 0.0);
        assert_eq!(stats.cone_dedup_rate(), 0.0);
    }
}
