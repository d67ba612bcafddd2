//! The streaming campaign session: incremental batches, progress reporting
//! and statistical early stop.
//!
//! A [`CampaignSession`] is the one way a campaign runs: it walks the
//! sampled fault list in order, against one golden run, and yields outcomes
//! in contiguous batches ([`CampaignBuilder::run`](crate::CampaignBuilder::run)
//! just drains it). Because every per-fault outcome is a pure function of
//! `(bit, golden run)`, the outcomes produced by a session are
//! **bit-identical to the matching prefix of the full run**, no matter where
//! the session stops, how it is batched or how many worker shards it uses.
//! That prefix property is what makes early stopping sound: halting after
//! `n` faults gives exactly the first `n` outcomes the full campaign would
//! have produced.
//!
//! Early stopping itself is statistical: the campaign estimates the
//! wrong-answer rate, and once the confidence interval around that estimate
//! is tighter than a configured bound ([`EarlyStop`]) the remaining faults
//! add no decision-relevant information — the paper's Table 3 compares rates
//! like 0.98 % vs 4.03 %, which separate long before the full fault list is
//! exhausted.

use crate::campaign::{run_shard, ShardContext};
use crate::{CampaignResult, FaultOutcome};
use std::fmt;
use tmr_core::par_map;
use tmr_sim::SimStats;

/// The normal quantile of the 95 % confidence interval every early-stop
/// rule and progress report uses.
const CONFIDENCE_Z: f64 = 1.96;

/// A statistical stopping rule for streaming campaigns: halt once the
/// confidence interval of the wrong-answer rate is tighter than a bound.
///
/// The interval uses the Agresti–Coull adjustment (add `z²` pseudo-trials,
/// half of them successes — "+2 successes, +2 failures" at 95 % — before
/// computing the Wald interval), which keeps the width honest when no wrong
/// answer has been observed yet — the plain Wald interval collapses to zero
/// width at `p̂ = 0` and would stop a TMR campaign after its very first
/// batch.
///
/// ```
/// use tmr_faultsim::EarlyStop;
///
/// // Stop once the 95 % CI of the wrong-answer rate is within ±1 %.
/// let rule = EarlyStop::at_half_width(0.01);
/// assert_eq!(rule.half_width(), 0.01);
/// assert!(!rule.satisfied(10, 2)); // far too few injections
/// assert!(rule.satisfied(10_000, 100));
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct EarlyStop {
    half_width: f64,
    min_injected: usize,
}

/// Renders the fixed `confidence_z` too: the rendering is part of the
/// campaign fingerprint, so it must stay what it was when `z` was a field.
impl fmt::Debug for EarlyStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EarlyStop")
            .field("half_width", &self.half_width)
            .field("confidence_z", &CONFIDENCE_Z)
            .field("min_injected", &self.min_injected)
            .finish()
    }
}

impl EarlyStop {
    /// Stops once the confidence-interval half-width of the wrong-answer
    /// *rate* (a fraction in `[0, 1]`) drops to `half_width` or below, on a
    /// 95 % interval (`z = 1.96`) and after at least 100 injected faults.
    pub fn at_half_width(half_width: f64) -> Self {
        Self {
            half_width,
            min_injected: 100,
        }
    }

    /// Replaces the minimum number of injected faults before the rule may
    /// fire (guards against stopping on the noise of the first batches).
    #[must_use]
    pub fn with_min_injected(mut self, min_injected: usize) -> Self {
        self.min_injected = min_injected;
        self
    }

    /// The target half-width.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// The minimum injections before stopping is allowed.
    pub fn min_injected(&self) -> usize {
        self.min_injected
    }

    /// The Agresti–Coull half-width of the wrong-answer-rate interval after
    /// observing `wrong` wrong answers in `injected` injections.
    pub fn interval_half_width(&self, injected: usize, wrong: usize) -> f64 {
        adjusted_half_width(injected, wrong)
    }

    /// Whether the rule fires for the given tally.
    pub fn satisfied(&self, injected: usize, wrong: usize) -> bool {
        injected >= self.min_injected
            && self.interval_half_width(injected, wrong) <= self.half_width
    }
}

/// Agresti–Coull (adjusted Wald) 95 % confidence-interval half-width for a
/// binomial proportion: `z²` pseudo-trials, half successes, are added
/// before computing the Wald interval (the familiar "+2 successes, +2
/// failures").
fn adjusted_half_width(injected: usize, wrong: usize) -> f64 {
    if injected == 0 {
        return f64::INFINITY;
    }
    let z = CONFIDENCE_Z;
    let n = injected as f64 + z * z;
    let p = (wrong as f64 + z * z / 2.0) / n;
    z * (p * (1.0 - p) / n).sqrt()
}

/// A point-in-time summary of a running session, for progress reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProgress {
    /// Faults injected so far.
    pub injected: usize,
    /// Total faults the session would inject if never stopped.
    pub planned: usize,
    /// Wrong answers observed so far.
    pub wrong_answers: usize,
    /// Simulations actually run so far (see
    /// [`CampaignResult::simulated`]).
    pub simulated: usize,
    /// Current wrong-answer rate estimate (0 before the first injection).
    pub wrong_answer_rate: f64,
}

/// A fault-injection campaign that yields outcomes incrementally.
///
/// Created by [`CampaignBuilder::session`](crate::CampaignBuilder::session).
/// Drive it with [`CampaignSession::next_batch`] (progress bars, dashboards,
/// custom stopping rules) or let [`CampaignSession::run`] drain it; either
/// way the accumulated outcomes are the exact prefix of the full run.
///
/// ```no_run
/// use tmr_arch::Device;
/// # fn routed() -> tmr_pnr::RoutedDesign { unimplemented!() }
/// use tmr_faultsim::{CampaignBuilder, EarlyStop};
///
/// let device = Device::small(8, 8);
/// let routed = routed();
/// let mut session = CampaignBuilder::new()
///     .faults(4000)
///     .batch_size(200)
///     .early_stop(EarlyStop::at_half_width(0.01))
///     .session(&device, &routed)
///     .expect("flow netlists are always simulable");
/// while let Some(batch) = session.next_batch() {
///     let injected = batch.len();
///     eprintln!("{injected} more faults, {:?}", session.progress());
/// }
/// let result = session.into_result();
/// println!("{result}");
/// ```
pub struct CampaignSession<'a> {
    ctx: ShardContext<'a>,
    fault_list_size: usize,
    sample: Vec<Vec<usize>>,
    shards: usize,
    batch_size: usize,
    early_stop: Option<EarlyStop>,
    cursor: usize,
    stopped_early: bool,
    outcomes: Vec<FaultOutcome>,
    wrong_answers: usize,
    simulated: usize,
    stats: SimStats,
}

impl<'a> CampaignSession<'a> {
    pub(crate) fn new(
        ctx: ShardContext<'a>,
        fault_list_size: usize,
        sample: Vec<Vec<usize>>,
        shards: usize,
        batch_size: usize,
        early_stop: Option<EarlyStop>,
    ) -> Self {
        Self {
            ctx,
            fault_list_size,
            sample,
            shards,
            batch_size,
            early_stop,
            cursor: 0,
            stopped_early: false,
            outcomes: Vec::new(),
            wrong_answers: 0,
            simulated: 0,
            stats: SimStats::default(),
        }
    }

    /// Seeds the session with the outcomes of a previous, interrupted run of
    /// the *same* campaign: the cursor skips the already-injected prefix and
    /// the next batch continues exactly where the previous session stopped.
    ///
    /// Because outcomes are a pure function of fault-list position (the
    /// exact-prefix guarantee), a session resumed from a persisted prefix is
    /// bit-identical to one that ran uninterrupted — this is the primitive
    /// under crash-resumable campaign services. The caller is responsible for
    /// only replaying a prefix produced by identical campaign options (the
    /// store keys prefixes by the campaign fingerprint for exactly this
    /// reason).
    ///
    /// # Panics
    ///
    /// Panics if the prefix is longer than the sampled fault list, or if
    /// batches have already been run on this session.
    #[must_use]
    pub fn with_prefix(
        mut self,
        outcomes: Vec<FaultOutcome>,
        simulated: usize,
        stats: SimStats,
    ) -> Self {
        assert_eq!(
            self.cursor, 0,
            "prefix must be installed before batches run"
        );
        assert!(
            outcomes.len() <= self.sample.len(),
            "prefix ({} outcomes) exceeds the sampled fault list ({})",
            outcomes.len(),
            self.sample.len()
        );
        self.cursor = outcomes.len();
        self.wrong_answers = outcomes.iter().filter(|o| o.wrong_answer).count();
        self.simulated = simulated;
        self.stats = stats;
        self.outcomes = outcomes;
        self
    }

    /// Injects the next batch of faults and returns their outcomes (a slice
    /// into the accumulated outcome vector), or `None` when the session is
    /// finished — either because the sampled fault list is exhausted or
    /// because the early-stop rule fired.
    pub fn next_batch(&mut self) -> Option<&[FaultOutcome]> {
        if self.cursor >= self.sample.len() || self.stopped_early {
            return None;
        }
        if let Some(rule) = &self.early_stop {
            if rule.satisfied(self.outcomes.len(), self.wrong_answers) {
                self.stopped_early = true;
                if tmr_trace::enabled() {
                    tmr_trace::event("campaign.early_stop")
                        .attr("design", self.ctx.routed.netlist().name())
                        .attr("injected", self.outcomes.len())
                        .attr("wrong_answers", self.wrong_answers)
                        .attr("ci_half_width", self.ci_half_width())
                        .attr("target_half_width", rule.half_width());
                }
                return None;
            }
        }
        let start = self.cursor;
        let end = (start + self.batch_size).min(self.sample.len());
        self.cursor = end;
        let mut batch_span = tmr_trace::span("campaign.batch");
        let (outcomes, simulated, stats) =
            run_faults(&self.ctx, self.shards, &self.sample[start..end]);
        self.wrong_answers += outcomes.iter().filter(|o| o.wrong_answer).count();
        self.simulated += simulated;
        self.stats.merge(&stats);
        self.outcomes.extend(outcomes);
        if tmr_trace::enabled() {
            batch_span.attr("design", self.ctx.routed.netlist().name());
            batch_span.attr("faults", end - start);
            batch_span.attr("injected", self.outcomes.len());
            batch_span.attr("wrong_answers", self.wrong_answers);
            batch_span.attr("ci_half_width", self.ci_half_width());
        }
        Some(&self.outcomes[start..end])
    }

    /// Drains the session (respecting the early-stop rule, if any) and
    /// returns the accumulated result.
    pub fn run(mut self) -> CampaignResult {
        while self.next_batch().is_some() {}
        self.into_result()
    }

    /// Wraps whatever has been injected so far into a [`CampaignResult`]
    /// without running further batches. The outcomes are the exact prefix of
    /// the full run over the same options.
    pub fn into_result(self) -> CampaignResult {
        CampaignResult {
            design: self.ctx.routed.netlist().name().to_string(),
            fault_list_size: self.fault_list_size,
            simulated: self.simulated,
            outcomes: self.outcomes,
            stats: self.stats,
        }
    }

    /// Progress so far.
    pub fn progress(&self) -> SessionProgress {
        let injected = self.outcomes.len();
        SessionProgress {
            injected,
            planned: self.sample.len(),
            wrong_answers: self.wrong_answers,
            simulated: self.simulated,
            wrong_answer_rate: if injected == 0 {
                0.0
            } else {
                self.wrong_answers as f64 / injected as f64
            },
        }
    }

    /// The current 95 % confidence-interval half-width of the wrong-answer
    /// rate.
    pub fn ci_half_width(&self) -> f64 {
        adjusted_half_width(self.outcomes.len(), self.wrong_answers)
    }

    /// `true` if the early-stop rule ended the session before the sample was
    /// exhausted.
    pub fn stopped_early(&self) -> bool {
        self.stopped_early
    }
}

/// Injects `faults` (a contiguous slice of the sampled fault list) as
/// `shards` contiguous chunks run through [`par_map`], and merges the
/// outcomes in slice order.
///
/// This is the sharding core shared by every fault model: chunk boundaries
/// depend only on the slice length and shard count, and `par_map` returns
/// the per-chunk outcome vectors in chunk order, which is slice order (=
/// fault-list order), so the merged outcomes are independent of the thread
/// schedule. Every shard reads the same immutable [`ShardContext`]. Each
/// shard additionally packs its faults into cone-grouped lane words on the
/// compiled backend; word boundaries live entirely inside a shard, so they
/// never affect the merged order either. The per-shard [`SimStats`] blocks
/// merge commutatively, so the counters are shard-schedule-independent too.
fn run_faults(
    ctx: &ShardContext<'_>,
    shards: usize,
    faults: &[Vec<usize>],
) -> (Vec<FaultOutcome>, usize, SimStats) {
    let chunk = faults.len().div_ceil(shards).max(1);
    // Captured on the coordinating thread so every shard's spans merge under
    // the span open here (the session's `campaign.batch`).
    let trace_parent = tmr_trace::current_span();
    let shard_results = par_map(
        faults.chunks(chunk).enumerate().collect(),
        |(index, part)| {
            let _task = tmr_trace::enabled()
                .then(|| tmr_trace::task(format!("shard-{index:02}"), trace_parent));
            traced_shard(index, ctx, part)
        },
    );
    let mut merged = Vec::with_capacity(faults.len());
    let mut simulated = 0;
    let mut stats = SimStats::default();
    for (mut shard, shard_simulated, shard_stats) in shard_results {
        merged.append(&mut shard);
        simulated += shard_simulated;
        stats.merge(&shard_stats);
    }
    attach_merged_stats(simulated, &stats);
    (merged, simulated, stats)
}

/// Runs one shard inside a `campaign.shard` span carrying the shard index,
/// fault count and achieved faults/sec.
fn traced_shard(
    index: usize,
    ctx: &ShardContext<'_>,
    faults: &[Vec<usize>],
) -> (Vec<FaultOutcome>, usize, SimStats) {
    if !tmr_trace::enabled() {
        return run_shard(ctx, faults);
    }
    let mut span = tmr_trace::span("campaign.shard");
    span.attr("shard", index);
    span.attr("faults", faults.len());
    let started = std::time::Instant::now();
    let result = run_shard(ctx, faults);
    let seconds = started.elapsed().as_secs_f64();
    if seconds > 0.0 {
        span.attr("faults_per_sec", faults.len() as f64 / seconds);
    }
    span.attr("simulated", result.1);
    span.attr("lanes_simulated", result.2.lanes_simulated);
    result
}

/// Attaches the merged engine counters of one `run_faults` call to the
/// innermost open span — the session's `campaign.batch` — so a trace shows
/// the merged `SimStats` next to the batch that produced them.
fn attach_merged_stats(simulated: usize, stats: &SimStats) {
    if !tmr_trace::enabled() {
        return;
    }
    tmr_trace::attr_current("simulated", simulated);
    tmr_trace::attr_current("sim.ops_evaluated", stats.ops_evaluated);
    tmr_trace::attr_current("sim.ops_skipped", stats.ops_skipped);
    tmr_trace::attr_current("sim.lanes_simulated", stats.lanes_simulated);
    tmr_trace::attr_current("sim.lanes_retired_early", stats.lanes_retired_early);
    tmr_trace::attr_current("sim.cone_dedup_hits", stats.cone_dedup_hits);
    tmr_trace::counter_add("campaign.faults_simulated", simulated as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignBuilder;
    use tmr_arch::Device;
    use tmr_core::{apply_tmr, TmrConfig};
    use tmr_designs::counter;
    use tmr_pnr::{place_and_route, RoutedDesign};
    use tmr_synth::{lower, optimize, techmap};

    fn routed_counter(protect: bool) -> (Device, RoutedDesign) {
        let device = Device::small(8, 8);
        let design = if protect {
            apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap()
        } else {
            counter(4)
        };
        let netlist = techmap(&optimize(&lower(&design).unwrap())).unwrap();
        let routed = place_and_route(&device, &netlist, 5).unwrap();
        (device, routed)
    }

    #[test]
    fn batches_accumulate_to_the_single_batch_result() {
        let (device, routed) = routed_counter(false);
        let campaign = CampaignBuilder::new().faults(120).cycles(8);
        let reference = campaign.clone().sequential().run(&device, &routed).unwrap();

        let mut session = campaign.batch_size(17).session(&device, &routed).unwrap();
        let mut batches = 0;
        while let Some(batch) = session.next_batch() {
            assert!(batch.len() <= 17);
            batches += 1;
        }
        assert!(batches >= 7, "120 faults / 17 per batch needs 8 batches");
        assert!(
            session.next_batch().is_none(),
            "a finished session stays finished"
        );
        assert!(!session.stopped_early());
        assert_eq!(session.progress().injected, session.progress().planned);
        assert_eq!(session.into_result(), reference);
    }

    #[test]
    fn early_stop_yields_an_exact_prefix() {
        let (device, routed) = routed_counter(false);
        let campaign = CampaignBuilder::new().faults(400).cycles(8);
        let full = campaign.clone().sequential().run(&device, &routed).unwrap();

        // A loose bound on a vulnerable design stops well before exhaustion.
        let result = campaign
            .batch_size(40)
            .early_stop(EarlyStop::at_half_width(0.08).with_min_injected(40))
            .sequential()
            .run(&device, &routed)
            .unwrap();
        assert!(
            result.injected() < full.injected(),
            "the loose bound must stop early ({} of {})",
            result.injected(),
            full.injected()
        );
        assert_eq!(
            result.outcomes[..],
            full.outcomes[..result.injected()],
            "an early-stopped session must equal the matching prefix of the full run"
        );
        assert!(
            result.injected().is_multiple_of(40),
            "stops on batch boundaries"
        );
    }

    #[test]
    fn early_stop_needs_the_minimum_injections() {
        let rule = EarlyStop::at_half_width(0.5);
        assert!(!rule.satisfied(99, 0), "min_injected gate");
        assert!(rule.satisfied(100, 0));
        // Tighter bounds need more data even at a rate of zero.
        let tight = EarlyStop::at_half_width(0.001);
        assert!(!tight.satisfied(100, 0));
        // The adjusted interval never reports zero width.
        assert!(tight.interval_half_width(1_000_000, 0) > 0.0);
        assert_eq!(tight.interval_half_width(0, 0), f64::INFINITY);
        // The minimum is configurable.
        let custom = EarlyStop::at_half_width(0.5).with_min_injected(10);
        assert_eq!(custom.min_injected(), 10);
        assert!(custom.satisfied(10, 0));
    }

    #[test]
    fn sharded_batches_match_sequential_batches() {
        let (device, routed) = routed_counter(true);
        let campaign = CampaignBuilder::new().faults(150).cycles(8).batch_size(32);
        let sequential = campaign
            .clone()
            .sequential()
            .session(&device, &routed)
            .unwrap()
            .run();
        for shards in [2, 3, 8] {
            let sharded = campaign
                .clone()
                .shards(shards)
                .session(&device, &routed)
                .unwrap()
                .run();
            assert_eq!(sequential, sharded, "shards = {shards}");
        }
    }

    #[test]
    fn resumed_session_matches_uninterrupted_run() {
        let (device, routed) = routed_counter(true);
        let campaign = CampaignBuilder::new().faults(90).cycles(8).batch_size(20);
        let reference = campaign.clone().session(&device, &routed).unwrap().run();

        // Run two batches, "crash", and resume a fresh session from the
        // accumulated prefix.
        let mut first = campaign.clone().session(&device, &routed).unwrap();
        first.next_batch().unwrap();
        first.next_batch().unwrap();
        let partial = first.into_result();
        assert_eq!(partial.injected(), 40);

        let resumed = campaign
            .session(&device, &routed)
            .unwrap()
            .with_prefix(partial.outcomes, partial.simulated, partial.stats)
            .run();
        assert_eq!(resumed, reference);
        assert_eq!(resumed.stats, reference.stats, "counters resume too");
    }

    #[test]
    fn full_prefix_yields_no_further_batches() {
        let (device, routed) = routed_counter(false);
        let campaign = CampaignBuilder::new().faults(50).cycles(6);
        let full = campaign.clone().session(&device, &routed).unwrap().run();
        let mut session = campaign
            .batch_size(10)
            .session(&device, &routed)
            .unwrap()
            .with_prefix(full.outcomes.clone(), full.simulated, full.stats);
        assert!(session.next_batch().is_none());
        assert_eq!(session.into_result(), full);
    }

    #[test]
    fn progress_tracks_injections() {
        let (device, routed) = routed_counter(false);
        let mut session = CampaignBuilder::new()
            .faults(60)
            .cycles(6)
            .batch_size(25)
            .sequential()
            .session(&device, &routed)
            .unwrap();
        assert_eq!(session.progress().injected, 0);
        assert!(session.ci_half_width().is_infinite());
        session.next_batch().unwrap();
        let progress = session.progress();
        assert_eq!(progress.injected, 25);
        assert_eq!(progress.planned, 60);
        assert!(progress.wrong_answer_rate >= 0.0);
        assert!(session.ci_half_width() < 0.5);
    }
}
