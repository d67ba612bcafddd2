//! The streaming campaign session: incremental batches, progress reporting
//! and statistical early stop.
//!
//! A [`CampaignSession`] runs the *same* experiment sequence as the batch
//! [`CampaignEngine`](crate::CampaignEngine) — the same sampled fault list,
//! in the same order, against the same golden run — but yields outcomes in
//! contiguous batches instead of one final result. Because every per-fault
//! outcome is a pure function of `(bit, golden run)`, the outcomes produced
//! by a session are **bit-identical to the matching prefix of the full batch
//! run**, no matter where the session stops or how many worker shards it
//! uses. That prefix property is what makes early stopping sound: halting
//! after `n` faults gives exactly the first `n` outcomes the full campaign
//! would have produced.
//!
//! Early stopping itself is statistical: the campaign estimates the
//! wrong-answer rate, and once the confidence interval around that estimate
//! is tighter than a configured bound ([`EarlyStop`]) the remaining faults
//! add no decision-relevant information — the paper's Table 3 compares rates
//! like 0.98 % vs 4.03 %, which separate long before the full fault list is
//! exhausted.

use crate::campaign::{run_shard, ShardContext};
use crate::{CampaignResult, FaultOutcome, SimBackend};
use std::sync::Arc;
use tmr_arch::Device;
use tmr_core::par_map;
use tmr_netlist::Domain;
use tmr_pnr::RoutedDesign;
use tmr_sim::{CompiledNetlist, GoldenRun, PackedGolden, SimStats, Simulator};

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    half_width: f64,
    confidence_z: f64,
    min_injected: usize,
}

impl EarlyStop {
    /// Stops once the confidence-interval half-width of the wrong-answer
    /// *rate* (a fraction in `[0, 1]`) drops to `half_width` or below, with
    /// the defaults of a 95 % interval (`z = 1.96`) and at least 100
    /// injected faults.
    pub fn at_half_width(half_width: f64) -> Self {
        Self {
            half_width,
            confidence_z: 1.96,
            min_injected: 100,
        }
    }

    /// Replaces the normal-quantile `z` of the interval (1.96 ≈ 95 %,
    /// 2.58 ≈ 99 %).
    #[must_use]
    pub fn with_confidence_z(mut self, z: f64) -> Self {
        self.confidence_z = z;
        self
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

    /// The normal quantile of the interval.
    pub fn confidence_z(&self) -> f64 {
        self.confidence_z
    }

    /// The minimum injections before stopping is allowed.
    pub fn min_injected(&self) -> usize {
        self.min_injected
    }

    /// The Agresti–Coull half-width of the wrong-answer-rate interval after
    /// observing `wrong` wrong answers in `injected` injections.
    pub fn interval_half_width(&self, injected: usize, wrong: usize) -> f64 {
        adjusted_half_width(self.confidence_z, injected, wrong)
    }

    /// Whether the rule fires for the given tally.
    pub fn satisfied(&self, injected: usize, wrong: usize) -> bool {
        injected >= self.min_injected
            && self.interval_half_width(injected, wrong) <= self.half_width
    }
}

/// Agresti–Coull (adjusted Wald) confidence-interval half-width for a
/// binomial proportion: `z²` pseudo-trials, half successes, are added
/// before computing the Wald interval (the familiar "+2 successes, +2
/// failures" is the `z = 1.96` case).
fn adjusted_half_width(z: f64, injected: usize, wrong: usize) -> f64 {
    if injected == 0 {
        return f64::INFINITY;
    }
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
/// Created by [`CampaignBuilder::session`](crate::CampaignBuilder::session)
/// or [`CampaignEngine::session`](crate::CampaignEngine::session). Drive it
/// with [`CampaignSession::next_batch`] (progress bars, dashboards, custom
/// stopping rules) or let [`CampaignSession::run`] drain it; either way the
/// accumulated outcomes are the exact prefix the batch engine would produce.
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
    device: &'a Device,
    routed: &'a RoutedDesign,
    simulator: Option<Simulator<'a>>,
    golden: Arc<GoldenRun>,
    backend: SimBackend,
    compiled: Option<Arc<CompiledNetlist>>,
    packed: Option<Arc<PackedGolden>>,
    simulate_only: Option<Arc<[usize]>>,
    maskable: Option<Arc<[(usize, Domain)]>>,
    design: String,
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        device: &'a Device,
        routed: &'a RoutedDesign,
        simulator: Option<Simulator<'a>>,
        golden: Arc<GoldenRun>,
        backend: SimBackend,
        compiled: Option<Arc<CompiledNetlist>>,
        packed: Option<Arc<PackedGolden>>,
        simulate_only: Option<Arc<[usize]>>,
        maskable: Option<Arc<[(usize, Domain)]>>,
        fault_list_size: usize,
        sample: Vec<Vec<usize>>,
        shards: usize,
    ) -> Self {
        let batch_size = sample.len().max(1);
        Self {
            device,
            routed,
            simulator,
            golden,
            backend,
            compiled,
            packed,
            simulate_only,
            maskable,
            design: routed.netlist().name().to_string(),
            fault_list_size,
            sample,
            shards: shards.max(1),
            batch_size,
            early_stop: None,
            cursor: 0,
            stopped_early: false,
            outcomes: Vec::new(),
            wrong_answers: 0,
            simulated: 0,
            stats: SimStats::default(),
        }
    }

    /// Sets the number of faults injected per [`CampaignSession::next_batch`]
    /// call (clamped to at least 1). The default is the whole remaining
    /// sample — one batch, like the batch engine.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Installs a statistical stopping rule, checked between batches.
    #[must_use]
    pub fn with_early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
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
                        .attr("design", self.design.as_str())
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
        let backends = BackendRefs {
            backend: self.backend,
            compiled: self.compiled.as_deref(),
            packed: self.packed.as_deref(),
        };
        let (outcomes, simulated, stats) = run_faults(
            self.device,
            self.routed,
            self.simulator.as_ref(),
            &self.golden,
            backends,
            self.simulate_only.as_deref(),
            self.maskable.as_deref(),
            self.shards,
            &self.sample[start..end],
        );
        self.wrong_answers += outcomes.iter().filter(|o| o.wrong_answer).count();
        self.simulated += simulated;
        self.stats.merge(&stats);
        self.outcomes.extend(outcomes);
        if tmr_trace::enabled() {
            batch_span.attr("design", self.design.as_str());
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
    /// the full batch run over the same options.
    pub fn into_result(self) -> CampaignResult {
        CampaignResult {
            design: self.design,
            fault_list_size: self.fault_list_size,
            simulated: self.simulated,
            outcomes: self.outcomes,
            stats: self.stats,
        }
    }

    /// The engine observability counters accumulated so far (all zero on the
    /// interpreter backend).
    pub fn sim_stats(&self) -> SimStats {
        self.stats
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

    /// The current confidence-interval half-width of the wrong-answer rate
    /// under the session's early-stop rule (or a default 95 % rule when none
    /// is installed).
    pub fn ci_half_width(&self) -> f64 {
        let z = self
            .early_stop
            .map(|rule| rule.confidence_z())
            .unwrap_or(1.96);
        adjusted_half_width(z, self.outcomes.len(), self.wrong_answers)
    }

    /// `true` once the session will yield no further batches.
    pub fn is_finished(&self) -> bool {
        self.stopped_early || self.cursor >= self.sample.len()
    }

    /// `true` if the early-stop rule ended the session before the sample was
    /// exhausted.
    pub fn stopped_early(&self) -> bool {
        self.stopped_early
    }

    /// Faults remaining in the sampled list.
    pub fn remaining(&self) -> usize {
        self.sample.len() - self.cursor
    }
}

/// The shared simulation-backend state handed to every shard.
#[derive(Clone, Copy)]
struct BackendRefs<'a> {
    backend: SimBackend,
    compiled: Option<&'a CompiledNetlist>,
    packed: Option<&'a PackedGolden>,
}

/// Injects `faults` (a contiguous slice of the sampled fault list) as
/// `shards` contiguous chunks run through [`par_map`], and merges the
/// outcomes in slice order.
///
/// This is the sharding core shared by every execution mode and every fault
/// model: chunk boundaries depend only on the slice length and shard count,
/// and `par_map` returns the per-chunk outcome vectors in chunk order, which
/// is slice order (= fault-list order), so the merged outcomes are
/// independent of the thread schedule. Each shard additionally packs its
/// faults into cone-grouped lane words on the compiled backend; word
/// boundaries live entirely inside a shard, so they never affect the merged
/// order either. The per-shard [`SimStats`] blocks merge commutatively, so
/// the counters are shard-schedule-independent too.
#[allow(clippy::too_many_arguments)]
fn run_faults(
    device: &Device,
    routed: &RoutedDesign,
    simulator: Option<&Simulator<'_>>,
    golden: &GoldenRun,
    backends: BackendRefs<'_>,
    simulate_only: Option<&[usize]>,
    maskable: Option<&[(usize, Domain)]>,
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
            let ctx = ShardContext {
                device,
                routed,
                simulator: simulator.cloned(),
                golden,
                simulate_only,
                maskable,
                backend: backends.backend,
                compiled: backends.compiled,
                packed: backends.packed,
            };
            traced_shard(index, &ctx, part)
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
    tmr_trace::attr_current("sim.levels_evaluated", stats.levels_evaluated);
    tmr_trace::attr_current("sim.levels_skipped", stats.levels_skipped);
    tmr_trace::attr_current("sim.ops_evaluated", stats.ops_evaluated);
    tmr_trace::attr_current("sim.lanes_simulated", stats.lanes_simulated);
    tmr_trace::attr_current("sim.lanes_retired_early", stats.lanes_retired_early);
    tmr_trace::attr_current("sim.cone_dedup_hits", stats.cone_dedup_hits);
    tmr_trace::counter_add("campaign.faults_simulated", simulated as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignBuilder;
    use tmr_core::{apply_tmr, TmrConfig};
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
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
    fn batches_accumulate_to_the_batch_engine_result() {
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
        assert!(session.is_finished());
        assert!(!session.stopped_early());
        assert_eq!(session.remaining(), 0);
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
        // Confidence and minimum are configurable.
        let custom = EarlyStop::at_half_width(0.01)
            .with_confidence_z(2.58)
            .with_min_injected(10);
        assert_eq!(custom.confidence_z(), 2.58);
        assert_eq!(custom.min_injected(), 10);
        assert!(custom.interval_half_width(500, 5) > rule.interval_half_width(500, 5) * 1.2);
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
        let stats = first.sim_stats();
        let partial = first.into_result();
        assert_eq!(partial.injected(), 40);

        let resumed = campaign
            .session(&device, &routed)
            .unwrap()
            .with_prefix(partial.outcomes, partial.simulated, stats)
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
            .session(&device, &routed)
            .unwrap()
            .with_prefix(full.outcomes.clone(), full.simulated, full.stats)
            .with_batch_size(10);
        assert!(session.is_finished());
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
        assert_eq!(progress.planned, 60.min(session.remaining() + 25));
        assert!(progress.wrong_answer_rate >= 0.0);
        assert!(session.ci_half_width() < 0.5);
    }
}
