//! The parallel, sharded campaign engine.
//!
//! The paper's fault-injection campaign is embarrassingly parallel: every
//! experiment downloads a faulty bitstream into a freshly configured device,
//! runs the same stimulus and compares against the same golden trace — no
//! experiment depends on another. [`CampaignEngine`] exploits that:
//!
//! 1. the expensive shared state is computed **once** — the backend's
//!    evaluation engine (the compiled bit-parallel instruction stream and
//!    its packed golden frames on [`SimBackend::Compiled`], the levelized
//!    interpreting [`Simulator`] on [`SimBackend::Interpreter`]), the golden
//!    [`GoldenRun`] (replayable stimulus, fault-free trace, output voting)
//!    and the sampled fault list; artifacts computed elsewhere (e.g. by the
//!    facade's cache) can be injected with [`CampaignEngine::with_golden`] /
//!    [`CampaignEngine::with_compiled`] and skip even that;
//! 2. the sampled fault list is split into deterministic contiguous
//!    **shards**;
//! 3. the shards run through [`tmr_core::par_map`], on up to one worker per
//!    CPU (inline when the campaign itself runs inside a `par_map` worker,
//!    such as a sweep variant), sharing the routed design, golden run and
//!    compiled stream immutably (the interpreter backend hands each shard
//!    its own `Simulator` clone);
//! 4. per-shard outcome vectors come back in shard order, which *is*
//!    fault-list order — so the merged [`CampaignResult`] is bit-identical
//!    to the sequential one regardless of the shard count.
//!
//! Determinism is a hard requirement, not a nicety: Table 3/4 reproductions
//! and the regression tests compare whole result tables, and partition sweeps
//! must attribute differences to the design variant, never to the thread
//! schedule. The engine's [`CampaignEngine::run`] is itself implemented as a
//! single-batch [`CampaignSession`] drain, so the batch and streaming paths
//! share one per-fault code path by construction.

use crate::{CampaignOptions, CampaignResult, CampaignSession, FaultList};
use std::num::NonZeroUsize;
use std::sync::Arc;
use tmr_arch::Device;
use tmr_pnr::RoutedDesign;
use tmr_sim::{CompiledNetlist, GoldenRun, SimError, Simulator};

/// Which engine evaluates the faulty device inside a campaign.
///
/// The compiled backend is the default: the netlist is levelized once into a
/// flat instruction stream and 64 experiments are evaluated per packed
/// machine word, incrementally over the fan-out cone of each fault — with
/// outcomes **bit-identical** to the interpreter (the differential harness
/// in `tests/compiled_sim.rs` pins this). The interpreting oracle stays
/// selectable for differential testing and debugging, either through
/// [`CampaignBuilder::backend`](crate::CampaignBuilder::backend) or with
/// `TMR_SIM=interp` in the environment.
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
    /// Resolves the backend from the `TMR_SIM` environment variable:
    /// `interp`/`interpreter` selects the oracle, and `compiled`/`packed`
    /// (or an unset/unknown value) the default compiled engine.
    pub fn from_env() -> Self {
        match std::env::var("TMR_SIM").as_deref() {
            Ok("interp" | "interpreter") => SimBackend::Interpreter,
            _ => SimBackend::Compiled,
        }
    }

    /// A stable short label (the `TMR_SIM` spelling), used in traces and
    /// reports.
    pub fn label(&self) -> &'static str {
        match self {
            SimBackend::Compiled => "compiled",
            SimBackend::Interpreter => "interp",
        }
    }
}

/// A configured fault-injection campaign over one routed design.
///
/// ```no_run
/// use tmr_arch::Device;
/// # fn routed() -> tmr_pnr::RoutedDesign { unimplemented!() }
/// use tmr_faultsim::{CampaignBuilder, CampaignEngine};
///
/// let device = Device::small(8, 8);
/// let routed = routed();
/// let result = CampaignBuilder::new()
///     .engine(&device, &routed)
///     .with_shards(4)
///     .run()
///     .expect("flow netlists are always simulable");
/// println!("{result}");
/// ```
#[derive(Debug, Clone)]
pub struct CampaignEngine<'a> {
    device: &'a Device,
    routed: &'a RoutedDesign,
    options: CampaignOptions,
    shards: usize,
    golden: Option<Arc<GoldenRun>>,
    compiled: Option<Arc<CompiledNetlist>>,
    backend: Option<SimBackend>,
}

impl<'a> CampaignEngine<'a> {
    /// Creates an engine with one shard per available CPU core.
    pub fn new(device: &'a Device, routed: &'a RoutedDesign, options: CampaignOptions) -> Self {
        let shards = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            device,
            routed,
            options,
            shards,
            golden: None,
            compiled: None,
            backend: None,
        }
    }

    /// Sets an explicit shard count (clamped to at least 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Forces single-shard execution on the calling thread (the sequential
    /// reference path).
    #[must_use]
    pub fn sequential(self) -> Self {
        self.with_shards(1)
    }

    /// Reuses a precomputed golden run instead of recomputing the stimulus,
    /// fault-free trace and output grouping. The run must belong to this
    /// design's netlist and match the options' `cycles` and `stimulus_seed`
    /// — both are asserted at session construction (the seed only for runs
    /// built by [`GoldenRun::compute`], which records it; a
    /// [`GoldenRun::from_parts`] stimulus has no seed to check).
    #[must_use]
    pub fn with_golden(mut self, golden: Arc<GoldenRun>) -> Self {
        self.golden = Some(golden);
        self
    }

    /// Reuses a precompiled instruction stream instead of levelizing the
    /// netlist again — the facade's `compiled` pipeline stage injects its
    /// cached artifact here. The stream must have been compiled from this
    /// design's netlist (checked against the net count at session build).
    #[must_use]
    pub fn with_compiled(mut self, compiled: Arc<CompiledNetlist>) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// Overrides the simulation backend (default: [`SimBackend::from_env`],
    /// i.e. the compiled engine unless `TMR_SIM=interp` is set).
    #[must_use]
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The campaign options.
    pub fn options(&self) -> &CampaignOptions {
        &self.options
    }

    /// Builds a streaming [`CampaignSession`] over the engine's
    /// configuration: the shared state is computed here, then batches run on
    /// demand.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist cannot be simulated (combinational
    /// loop), which cannot happen for designs produced by the `tmr-synth`
    /// flow.
    ///
    /// # Panics
    ///
    /// Panics if a golden run injected with [`CampaignEngine::with_golden`]
    /// does not match the options' cycle count or stimulus seed.
    pub fn session(&self) -> Result<CampaignSession<'a>, SimError> {
        let netlist = self.routed.netlist();
        let backend = self.backend.unwrap_or_else(SimBackend::from_env);
        let mut trace_span = tmr_trace::span("campaign.prepare");
        trace_span.attr("design", netlist.name());
        trace_span.attr("backend", backend.label());
        // Each backend builds only its own evaluation state: the compiled
        // engine its instruction stream + golden pack, the interpreter its
        // levelized `Simulator` — neither pays for the other.
        let simulator = match backend {
            SimBackend::Interpreter => Some(Simulator::new(netlist)?),
            SimBackend::Compiled => None,
        };
        let golden = match &self.golden {
            Some(golden) => {
                assert_eq!(
                    golden.cycles(),
                    self.options.cycles,
                    "injected golden run was computed for a different stimulus length"
                );
                if let Some(seed) = golden.stimulus_seed() {
                    assert_eq!(
                        seed, self.options.stimulus_seed,
                        "injected golden run was computed for a different stimulus seed"
                    );
                }
                golden.clone()
            }
            None => Arc::new(GoldenRun::compute(
                netlist,
                self.options.cycles,
                self.options.stimulus_seed,
            )?),
        };
        let (compiled, packed) = match backend {
            SimBackend::Interpreter => (None, None),
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
                let packed = Arc::new(compiled.pack_golden(&golden));
                (Some(compiled), Some(packed))
            }
        };
        let fault_list = FaultList::build(self.device, self.routed);
        let sample = fault_list.sample_faults(
            self.device,
            &self.options.model,
            self.options.faults,
            self.options.sampling_seed,
        );
        trace_span.attr("fault_list", fault_list.len());
        trace_span.attr("sampled", sample.len());
        trace_span.attr("shards", self.shards);
        Ok(CampaignSession::new(
            self.device,
            self.routed,
            simulator,
            golden,
            backend,
            compiled,
            packed,
            self.options.simulate_only.clone(),
            self.options.maskable.clone(),
            fault_list.len(),
            sample,
            self.shards,
        ))
    }

    /// Runs the campaign and merges the per-shard outcomes in fault-list
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist cannot be simulated (combinational
    /// loop), which cannot happen for designs produced by the `tmr-synth`
    /// flow.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (propagating the worker's panic).
    pub fn run(&self) -> Result<CampaignResult, SimError> {
        Ok(self.session()?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignBuilder;
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
    fn parallel_equals_sequential_for_any_shard_count() {
        let (device, routed) = routed_tmr_counter();
        let campaign = CampaignBuilder::new().faults(300).cycles(10);
        let reference = campaign.clone().sequential().run(&device, &routed).unwrap();
        for shards in [1, 2, 3, 8] {
            let parallel = campaign
                .engine(&device, &routed)
                .with_shards(shards)
                .run()
                .unwrap();
            assert_eq!(reference, parallel, "shards = {shards}");
        }
    }

    #[test]
    fn shard_count_is_clamped_and_reported() {
        let (device, routed) = routed_tmr_counter();
        let engine = CampaignEngine::new(&device, &routed, CampaignOptions::default());
        assert!(engine.shards() >= 1);
        assert_eq!(engine.clone().with_shards(0).shards(), 1);
        assert_eq!(engine.clone().sequential().shards(), 1);
        assert_eq!(
            engine.options().faults(),
            CampaignOptions::default().faults()
        );
    }

    #[test]
    fn more_shards_than_faults_is_harmless() {
        let (device, routed) = routed_tmr_counter();
        let campaign = CampaignBuilder::new().faults(5).cycles(4);
        let few = campaign
            .engine(&device, &routed)
            .with_shards(64)
            .run()
            .unwrap();
        assert_eq!(few.injected(), 5);
        assert_eq!(few, campaign.sequential().run(&device, &routed).unwrap());
    }

    #[test]
    fn precomputed_golden_run_is_bit_identical() {
        let (device, routed) = routed_tmr_counter();
        let campaign = CampaignBuilder::new().faults(120).cycles(10);
        let reference = campaign.clone().sequential().run(&device, &routed).unwrap();

        let golden = Arc::new(
            GoldenRun::compute(
                routed.netlist(),
                campaign.options().cycles(),
                campaign.options().stimulus_seed(),
            )
            .unwrap(),
        );
        let reused = campaign
            .clone()
            .golden(golden.clone())
            .sequential()
            .run(&device, &routed)
            .unwrap();
        assert_eq!(reference, reused);
        // The engine path accepts the same hook.
        let engine_reused = campaign
            .engine(&device, &routed)
            .with_golden(golden)
            .sequential()
            .run()
            .unwrap();
        assert_eq!(reference, engine_reused);
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
