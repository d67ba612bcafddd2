//! The campaign builder: the one way to configure and start a
//! fault-injection campaign.
//!
//! [`CampaignBuilder`] carries the [`CampaignOptions`] (everything that can
//! change a campaign's outcomes) plus the execution knobs that never do:
//! shard count, simulation backend and precomputed golden-run / compiled
//! artifacts. [`CampaignBuilder::session`] prepares the shared state once and
//! returns a streaming [`CampaignSession`]; [`CampaignBuilder::run`] drains
//! one.

use crate::campaign::{Backend, ShardContext};
use crate::{CampaignOptions, CampaignResult, CampaignSession, EarlyStop, FaultList, FaultModel};
use std::num::NonZeroUsize;
use std::sync::Arc;
use tmr_arch::{Device, MbuPattern};
use tmr_netlist::Domain;
use tmr_pnr::RoutedDesign;
use tmr_sim::{CompiledNetlist, GoldenRun, SimError, Simulator};

/// Which engine evaluates the faulty device inside a campaign.
///
/// The compiled backend is the default: the netlist is levelized once into a
/// flat instruction stream and 64 experiments are evaluated per packed
/// machine word, incrementally over the fan-out cone of each fault — with
/// outcomes **bit-identical** to the interpreter (the differential harness
/// in `tests/compiled_sim.rs` pins this). The interpreting oracle stays
/// selectable through [`CampaignBuilder::backend`] for differential testing
/// and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// The levelized, bit-parallel compiled engine with event-driven
    /// dirty-level scheduling (the default).
    #[default]
    Compiled,
    /// The cell-by-cell interpreting simulator — the semantics oracle.
    Interpreter,
}

impl SimBackend {
    /// A stable short label, used in traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SimBackend::Compiled => "compiled",
            SimBackend::Interpreter => "interp",
        }
    }
}

/// Fluent configuration for fault-injection campaigns.
///
/// ```no_run
/// use tmr_arch::Device;
/// # fn routed() -> tmr_pnr::RoutedDesign { unimplemented!() }
/// use tmr_faultsim::{CampaignBuilder, EarlyStop};
///
/// let device = Device::small(8, 8);
/// let routed = routed();
/// let result = CampaignBuilder::new()
///     .faults(4000)
///     .cycles(24)
///     .shards(4)
///     .early_stop(EarlyStop::at_half_width(0.01))
///     .run(&device, &routed)
///     .expect("flow netlists are always simulable");
/// println!("{result}");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CampaignBuilder {
    options: CampaignOptions,
    shards: Option<usize>,
    batch_size: Option<usize>,
    early_stop: Option<EarlyStop>,
    golden: Option<Arc<GoldenRun>>,
    compiled: Option<Arc<CompiledNetlist>>,
    backend: SimBackend,
}

impl CampaignBuilder {
    /// Starts from the default options (2000 faults, 24 cycles, the paper
    /// seeds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of faults to inject (drawn randomly from the fault list).
    #[must_use]
    pub fn faults(mut self, faults: usize) -> Self {
        self.options.faults = faults;
        self
    }

    /// Number of clock cycles of stimulus applied per fault.
    #[must_use]
    pub fn cycles(mut self, cycles: usize) -> Self {
        self.options.cycles = cycles;
        self
    }

    /// Seed of the pseudo-random input stimulus.
    #[must_use]
    pub fn stimulus_seed(mut self, seed: u64) -> Self {
        self.options.stimulus_seed = seed;
        self
    }

    /// Seed of the fault-sampling shuffle.
    #[must_use]
    pub fn sampling_seed(mut self, seed: u64) -> Self {
        self.options.sampling_seed = seed;
        self
    }

    /// The fault model: what one injected fault is — a single-bit upset (the
    /// default), a geometric multi-bit cluster, or the upsets accumulated
    /// over one scrub interval. See [`FaultModel`].
    ///
    /// Degenerate 1-bit spellings (`Mbu { Single }`,
    /// `Accumulate { upsets_per_scrub: 1 }`) are canonicalized to
    /// [`FaultModel::SingleBit`]: they provably produce bit-identical
    /// campaigns (the differential harness pins this on the raw sampling
    /// path), so canonical options let caches serve all three spellings
    /// from one entry.
    #[must_use]
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.options.model = if model.is_single_bit() {
            FaultModel::SingleBit
        } else {
            model
        };
        self
    }

    /// Shorthand for [`CampaignBuilder::fault_model`] with
    /// [`FaultModel::Mbu`]: every fault is one geometry-aware multi-bit
    /// upset of this cluster shape.
    #[must_use]
    pub fn mbu(self, pattern: MbuPattern) -> Self {
        self.fault_model(FaultModel::Mbu { pattern })
    }

    /// Shorthand for [`CampaignBuilder::fault_model`] with
    /// [`FaultModel::Accumulate`]: every fault is one scrub interval
    /// accumulating this many upsets before the device is evaluated and
    /// scrubbed.
    #[must_use]
    pub fn accumulate(self, upsets_per_scrub: usize) -> Self {
        self.fault_model(FaultModel::Accumulate { upsets_per_scrub })
    }

    /// Restricts simulation to the given bits (sorted and deduplicated
    /// here); see [`CampaignOptions::simulate_only`]. The static analyzer's
    /// `prune_with` (in `tmr-analyze`) is the usual caller.
    #[must_use]
    pub fn restrict_to(mut self, bits: impl IntoIterator<Item = usize>) -> Self {
        let mut bits: Vec<usize> = bits.into_iter().collect();
        bits.sort_unstable();
        bits.dedup();
        self.options.simulate_only = Some(bits.into());
        self
    }

    /// Installs single-domain tags justifying multi-bit pruning (sorted and
    /// deduplicated by bit here); see [`CampaignOptions::maskable_domains`].
    #[must_use]
    pub fn maskable_domains(mut self, tags: impl IntoIterator<Item = (usize, Domain)>) -> Self {
        let mut tags: Vec<(usize, Domain)> = tags.into_iter().collect();
        tags.sort_unstable();
        tags.dedup_by_key(|&mut (bit, _)| bit);
        self.options.maskable = Some(tags.into());
        self
    }

    /// Explicit worker-shard count, clamped to at least 1 (default: one
    /// shard per CPU core). Results are bit-identical for any shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Forces single-shard execution on the calling thread (the sequential
    /// reference path).
    #[must_use]
    pub fn sequential(self) -> Self {
        self.shards(1)
    }

    /// Number of faults per streaming batch (default: the whole sample in
    /// one batch). Smaller batches give finer progress reporting and
    /// earlier stopping at the cost of more cross-batch synchronisation.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Installs a statistical stopping rule, checked between batches; see
    /// [`EarlyStop`]. Implies a default batch size of 128 when none is set
    /// (a whole-sample batch would never get to stop early).
    #[must_use]
    pub fn early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
    }

    /// Reuses a precomputed golden run (stimulus, fault-free trace, output
    /// voting) instead of recomputing it. The run must belong to this
    /// design's netlist and match the options' `cycles` and `stimulus_seed`
    /// — both are asserted when the session is built (the seed only for runs
    /// built by [`GoldenRun::compute`], which records it; a
    /// [`GoldenRun::from_parts`] stimulus has no seed to check).
    #[must_use]
    pub fn golden(mut self, golden: Arc<GoldenRun>) -> Self {
        self.golden = Some(golden);
        self
    }

    /// Reuses a precompiled instruction stream (the facade's cached
    /// `compiled` pipeline stage) instead of levelizing the netlist per
    /// session. Must have been compiled from this design's netlist (checked
    /// against the net count when the session is built).
    #[must_use]
    pub fn compiled(mut self, compiled: Arc<CompiledNetlist>) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// Selects the simulation backend (default: [`SimBackend::Compiled`]).
    /// Outcomes are bit-identical either way; only throughput differs.
    #[must_use]
    pub fn backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The accumulated campaign options.
    pub fn options(&self) -> &CampaignOptions {
        &self.options
    }

    /// The installed early-stop rule, if any.
    pub fn early_stop_rule(&self) -> Option<&EarlyStop> {
        self.early_stop.as_ref()
    }

    /// The selected simulation backend. The facade uses this to skip
    /// compiling the instruction stream for interpreter runs.
    pub fn sim_backend(&self) -> SimBackend {
        self.backend
    }

    /// The configured streaming batch size, if any. Together with the
    /// options and the early-stop rule this is everything that can change a
    /// campaign's *outcomes* (an early stop lands on a batch boundary);
    /// shard count, backend and golden-run reuse never do.
    pub fn batch_size_hint(&self) -> Option<usize> {
        self.batch_size
    }

    /// Builds a streaming [`CampaignSession`] over one routed design.
    ///
    /// The expensive shared state is computed here, once: the golden run
    /// (unless injected with [`CampaignBuilder::golden`]), the backend's
    /// evaluation engine — the compiled instruction stream and its packed
    /// golden frames, or the levelized interpreter — and the sampled fault
    /// list. Batches then run on demand.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist cannot be simulated
    /// (combinational loop), which cannot happen for designs produced by the
    /// `tmr-synth` flow.
    ///
    /// # Panics
    ///
    /// Panics if an injected golden run does not match the options' cycle
    /// count or stimulus seed, or an injected compiled netlist was built for
    /// a different design.
    pub fn session<'a>(
        &self,
        device: &'a Device,
        routed: &'a RoutedDesign,
    ) -> Result<CampaignSession<'a>, SimError> {
        let options = &self.options;
        let netlist = routed.netlist();
        let shards = self
            .shards
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        let mut trace_span = tmr_trace::span("campaign.prepare");
        trace_span.attr("design", netlist.name());
        trace_span.attr("backend", self.backend.label());
        let golden = match &self.golden {
            Some(golden) => {
                assert_eq!(
                    golden.cycles(),
                    options.cycles,
                    "injected golden run was computed for a different stimulus length"
                );
                if let Some(seed) = golden.stimulus_seed() {
                    assert_eq!(
                        seed, options.stimulus_seed,
                        "injected golden run was computed for a different stimulus seed"
                    );
                }
                golden.clone()
            }
            None => Arc::new(GoldenRun::compute(
                netlist,
                options.cycles,
                options.stimulus_seed,
            )?),
        };
        // Each backend builds only its own evaluation state: the compiled
        // engine its instruction stream + golden pack, the interpreter its
        // levelized `Simulator` — neither pays for the other.
        let backend = match self.backend {
            SimBackend::Interpreter => Backend::Interpreter(Simulator::new(netlist)?),
            SimBackend::Compiled => {
                let compiled = match &self.compiled {
                    Some(compiled) => {
                        assert_eq!(
                            compiled.net_count(),
                            netlist.net_count(),
                            "injected compiled netlist was built for a different design"
                        );
                        compiled.clone()
                    }
                    None => Arc::new(CompiledNetlist::compile(netlist)?),
                };
                let packed = compiled.pack_golden(&golden);
                Backend::Compiled { compiled, packed }
            }
        };
        let fault_list = FaultList::build(device, routed);
        let sample = fault_list.sample_faults(
            device,
            &options.model,
            options.faults,
            options.sampling_seed,
        );
        trace_span.attr("fault_list", fault_list.len());
        trace_span.attr("sampled", sample.len());
        trace_span.attr("shards", shards);
        let ctx = ShardContext {
            device,
            routed,
            golden,
            backend,
            simulate_only: options.simulate_only.clone(),
            maskable: options.maskable.clone(),
        };
        // A whole-sample batch would never get to stop early, so a stopping
        // rule without an explicit batch size batches by 128.
        let batch_size = match (self.batch_size, self.early_stop) {
            (Some(batch_size), _) => batch_size,
            (None, Some(_)) => 128,
            (None, None) => sample.len().max(1),
        };
        Ok(CampaignSession::new(
            ctx,
            fault_list.len(),
            sample,
            shards,
            batch_size,
            self.early_stop,
        ))
    }

    /// Runs the campaign to completion (or to the early-stop point) and
    /// returns the result: a drain of [`CampaignBuilder::session`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist cannot be simulated
    /// (combinational loop).
    ///
    /// # Panics
    ///
    /// See [`CampaignBuilder::session`]; a panicking shard is re-raised.
    pub fn run(&self, device: &Device, routed: &RoutedDesign) -> Result<CampaignResult, SimError> {
        Ok(self.session(device, routed)?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_core::{apply_tmr, TmrConfig};
    use tmr_designs::counter;
    use tmr_pnr::place_and_route;
    use tmr_synth::{lower, optimize, techmap};

    fn routed_tmr_counter() -> (Device, RoutedDesign) {
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let netlist = techmap(&optimize(&lower(&design).unwrap())).unwrap();
        let routed = place_and_route(&device, &netlist, 5).unwrap();
        (device, routed)
    }

    #[test]
    fn builder_accumulates_options() {
        let builder = CampaignBuilder::new()
            .faults(9)
            .cycles(5)
            .stimulus_seed(2)
            .sampling_seed(3)
            .restrict_to([8, 1, 8]);
        let options = builder.options();
        assert_eq!(options.faults(), 9);
        assert_eq!(options.cycles(), 5);
        assert_eq!(options.stimulus_seed(), 2);
        assert_eq!(options.sampling_seed(), 3);
        assert_eq!(options.simulate_only(), Some(&[1, 8][..]));
    }

    #[test]
    fn early_stop_rule_is_exposed() {
        let rule = EarlyStop::at_half_width(0.02);
        let builder = CampaignBuilder::new().early_stop(rule);
        assert_eq!(builder.early_stop_rule(), Some(&rule));
        assert_eq!(CampaignBuilder::new().early_stop_rule(), None);
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(CampaignBuilder::new().shards, None, "one per core");
        assert_eq!(CampaignBuilder::new().shards(0).shards, Some(1));
        assert_eq!(
            CampaignBuilder::new().shards(8).sequential().shards,
            Some(1)
        );
    }

    #[test]
    fn parallel_equals_sequential_for_any_shard_count() {
        let (device, routed) = routed_tmr_counter();
        let campaign = CampaignBuilder::new().faults(300).cycles(10);
        let reference = campaign.clone().sequential().run(&device, &routed).unwrap();
        for shards in [2, 3, 8] {
            let parallel = campaign.clone().shards(shards).run(&device, &routed);
            assert_eq!(reference, parallel.unwrap(), "shards = {shards}");
        }
    }

    #[test]
    fn more_shards_than_faults_is_harmless() {
        let (device, routed) = routed_tmr_counter();
        let campaign = CampaignBuilder::new().faults(5).cycles(4);
        let few = campaign.clone().shards(64).run(&device, &routed).unwrap();
        assert_eq!(few.injected(), 5);
        assert_eq!(few, campaign.sequential().run(&device, &routed).unwrap());
    }

    #[test]
    fn precomputed_golden_run_is_bit_identical() {
        let (device, routed) = routed_tmr_counter();
        let campaign = CampaignBuilder::new().faults(120).cycles(10).sequential();
        let reference = campaign.run(&device, &routed).unwrap();
        let golden = GoldenRun::compute(
            routed.netlist(),
            campaign.options().cycles(),
            campaign.options().stimulus_seed(),
        )
        .unwrap();
        let reused = campaign
            .golden(Arc::new(golden))
            .run(&device, &routed)
            .unwrap();
        assert_eq!(reference, reused);
    }

    #[test]
    #[should_panic(expected = "different stimulus length")]
    fn mismatched_golden_run_is_rejected() {
        let (device, routed) = routed_tmr_counter();
        let golden = Arc::new(GoldenRun::compute(routed.netlist(), 4, 1).unwrap());
        let _ = CampaignBuilder::new()
            .faults(10)
            .cycles(10)
            .golden(golden)
            .run(&device, &routed);
    }

    #[test]
    #[should_panic(expected = "different stimulus seed")]
    fn seed_mismatched_golden_run_is_rejected() {
        let (device, routed) = routed_tmr_counter();
        let golden = Arc::new(GoldenRun::compute(routed.netlist(), 10, 7).unwrap());
        let _ = CampaignBuilder::new()
            .faults(10)
            .cycles(10)
            .stimulus_seed(1)
            .golden(golden)
            .run(&device, &routed);
    }
}
