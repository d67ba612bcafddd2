//! Differential harness for the compiled bit-parallel fault simulator.
//!
//! The contract under test: the compiled engine (levelized instruction
//! stream, event-driven dirty-level scheduling, 64- and 256-lane packed
//! words, cone-deduplicated fault batching, fan-out-cone incremental
//! re-simulation, full multi-pass mode for bridging faults) produces
//! **bit-for-bit identical** [`CampaignResult`]s to the interpreting
//! simulator — the semantics oracle, selected with
//! `CampaignBuilder::backend(SimBackend::Interpreter)` — for:
//!
//! * all five paper variants (`standard`, `tmr_p1`, `tmr_p2`, `tmr_p3`,
//!   `tmr_p3_nv`),
//! * all three fault models (single-bit, geometric MBU clusters,
//!   accumulated upsets per scrub interval),
//! * 1 / 2 / 8 worker shards,
//! * batch runs, streaming sessions and the flow facade, and
//! * arbitrary fault-sample sizes and orderings, including counts that
//!   cross the 64- and 256-lane word boundaries and random sampling seeds
//!   that reshuffle which faults share a cone-batched word (property
//!   tests).
//!
//! Everything here compares whole `CampaignResult` values, so any
//! divergence in outcome, first-error cycle, classification or simulated
//! count fails loudly.

use proptest::prelude::*;
use std::sync::OnceLock;
use tmr_fpga::arch::{Device, MbuPattern};
use tmr_fpga::designs::counter;
use tmr_fpga::faultsim::{CampaignBuilder, CampaignResult, FaultModel, SimBackend};
use tmr_fpga::flow::{FlowBuilder, Sweep};
use tmr_fpga::pnr::RoutedDesign;
use tmr_fpga::tmr::TmrConfig;
use tmr_fpga::ArtifactCache;

/// The three fault-model families at a non-degenerate setting each.
fn models() -> [FaultModel; 3] {
    [
        FaultModel::SingleBit,
        FaultModel::Mbu {
            pattern: MbuPattern::Tile2x2,
        },
        FaultModel::Accumulate {
            upsets_per_scrub: 3,
        },
    ]
}

/// The five paper variants of the 4-bit counter, routed once and shared by
/// every test in this harness.
fn routed_variants() -> &'static (Device, Vec<(String, RoutedDesign)>) {
    static ROUTED: OnceLock<(Device, Vec<(String, RoutedDesign)>)> = OnceLock::new();
    ROUTED.get_or_init(|| {
        let device = Device::small(12, 12);
        let cache = ArtifactCache::shared();
        let sweep = Sweep::paper(&counter(4)).on_device(&device).cache(cache);
        let (_, flows) = sweep.flows().expect("synthesis");
        let variants = flows
            .into_iter()
            .map(|(name, flow)| {
                let routed = flow.routed().expect("implementation").design().clone();
                (name, routed)
            })
            .collect();
        (device, variants)
    })
}

/// Runs one campaign on the chosen backend.
fn run(
    device: &Device,
    routed: &RoutedDesign,
    model: FaultModel,
    faults: usize,
    shards: usize,
    backend: SimBackend,
) -> CampaignResult {
    run_seeded(device, routed, model, faults, shards, backend, 1)
}

/// Runs one campaign on the chosen backend with an explicit sampling seed
/// (the seed shuffles which bits are drawn, and with them the fault order
/// the cone batcher regroups).
#[allow(clippy::too_many_arguments)]
fn run_seeded(
    device: &Device,
    routed: &RoutedDesign,
    model: FaultModel,
    faults: usize,
    shards: usize,
    backend: SimBackend,
    sampling_seed: u64,
) -> CampaignResult {
    CampaignBuilder::new()
        .faults(faults)
        .cycles(8)
        .fault_model(model)
        .shards(shards)
        .backend(backend)
        .sampling_seed(sampling_seed)
        .run(device, routed)
        .expect("flow netlists are always simulable")
}

/// The headline differential matrix: five paper variants × three fault
/// models × 1/2/8 shards, compiled ≡ interpreter bit for bit.
#[test]
fn compiled_matches_interpreter_on_all_variants_models_and_shards() {
    let (device, variants) = routed_variants();
    for (name, routed) in variants {
        for model in models() {
            let oracle = run(device, routed, model, 120, 1, SimBackend::Interpreter);
            assert!(oracle.injected() > 0, "{name}/{model}: empty campaign");
            for shards in [1usize, 2, 8] {
                let compiled = run(device, routed, model, 120, shards, SimBackend::Compiled);
                assert_eq!(
                    compiled, oracle,
                    "{name}/{model}: compiled (shards = {shards}) diverged from the interpreter"
                );
            }
        }
    }
}

/// The TMR variants must actually exercise the masking logic: the compiled
/// engine agrees with the oracle on campaigns that contain both wrong
/// answers and voted-out faults.
#[test]
fn differential_coverage_includes_wrong_answers_and_masked_faults() {
    let (device, variants) = routed_variants();
    let standard = &variants[0];
    assert_eq!(standard.0, "standard");
    let oracle = run(
        device,
        &standard.1,
        FaultModel::SingleBit,
        200,
        1,
        SimBackend::Interpreter,
    );
    let wrong = oracle.wrong_answers();
    assert!(
        wrong > 0 && wrong < oracle.injected(),
        "the unprotected design must mix wrong answers ({wrong}) and masked faults"
    );
    let tmr = variants.iter().find(|(name, _)| name == "tmr_p2").unwrap();
    let tmr_oracle = run(
        device,
        &tmr.1,
        FaultModel::SingleBit,
        200,
        1,
        SimBackend::Interpreter,
    );
    assert!(
        tmr_oracle.wrong_answer_percent() < oracle.wrong_answer_percent(),
        "TMR must mask more faults than the unprotected design"
    );
}

/// The compiled engine is the documented default backend.
#[test]
fn backend_default_is_compiled() {
    assert_eq!(SimBackend::default(), SimBackend::Compiled);
    assert_eq!(CampaignBuilder::new().sim_backend(), SimBackend::Compiled);
}

/// Streaming sessions and batch runs stay identical across backends: the
/// batched 64-lane words never leak across batch boundaries.
#[test]
fn streaming_batches_match_across_backends() {
    let (device, variants) = routed_variants();
    let (_, routed) = variants.iter().find(|(n, _)| n == "tmr_p2").unwrap();
    let campaign = CampaignBuilder::new().faults(150).cycles(8).batch_size(17);
    let compiled = campaign
        .clone()
        .backend(SimBackend::Compiled)
        .session(device, routed)
        .unwrap()
        .run();
    let interpreted = campaign
        .backend(SimBackend::Interpreter)
        .session(device, routed)
        .unwrap()
        .run();
    assert_eq!(compiled, interpreted);
}

/// The flow facade wires the cached compiled artifact into its campaigns;
/// the memoized result equals a from-scratch interpreter run.
#[test]
fn facade_campaigns_use_the_compiled_stage_and_stay_bit_identical() {
    let device = Device::small(8, 8);
    let flow = FlowBuilder::new(&device, &counter(4))
        .tmr(TmrConfig::paper_p2())
        .seed(5)
        .build();
    let campaign = CampaignBuilder::new().faults(100).cycles(8);
    let via_flow = flow.campaign(&campaign).unwrap();
    // The compiled stage is a first-class cached artifact.
    let compiled = flow.compiled().unwrap();
    assert!(compiled.netlist().op_count() > 0);
    let again = flow.compiled().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&compiled, &again),
        "repeated compiled-stage requests must be served from the cache"
    );

    let routed = flow.routed().unwrap();
    let oracle = campaign
        .backend(SimBackend::Interpreter)
        .sequential()
        .run(&device, routed.design())
        .unwrap();
    assert_eq!(*via_flow, oracle);
}

/// The facade's interpreter path: a flow campaign on the interpreter equals
/// the compiled one and never builds the `compiled` stage. The two runs use
/// two fresh flows, because the campaign key ignores the backend and a
/// shared cache would answer the second request with the first result.
#[test]
fn facade_interpreter_campaigns_skip_the_compiled_stage_and_match() {
    let device = Device::small(8, 8);
    let flow = || {
        FlowBuilder::new(&device, &counter(4))
            .tmr(TmrConfig::paper_p2())
            .seed(5)
            .build()
    };
    let campaign = CampaignBuilder::new().faults(100).cycles(8);
    let interpreter_flow = flow();
    let interpreted = interpreter_flow
        .campaign(&campaign.clone().backend(SimBackend::Interpreter))
        .unwrap();
    assert_eq!(*interpreted, *flow().campaign(&campaign).unwrap());
    let stages = interpreter_flow.cache().stage_stats();
    assert!(
        stages.iter().all(|&(stage, _)| stage != "compiled"),
        "an interpreter campaign must not compile the netlist: {stages:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault-sample sizes — spanning sub-word counts, counts that
    /// leave the last packed word partially filled, and counts that cross
    /// both the 64-lane and the 256-lane word boundaries — match the
    /// sequential interpreter on every fault model family.
    #[test]
    fn random_lane_counts_match_the_sequential_interpreter(
        faults in 1usize..=300,
        model_index in 0usize..3,
        shards_index in 0usize..3,
    ) {
        let (device, variants) = routed_variants();
        let (_, routed) = &variants[2]; // tmr_p2: mixes masked and observable faults
        let model = models()[model_index];
        let shards = [1usize, 3, 8][shards_index];
        let oracle = run(device, routed, model, faults, 1, SimBackend::Interpreter);
        let compiled = run(device, routed, model, faults, shards, SimBackend::Compiled);
        prop_assert_eq!(compiled, oracle);
    }

    /// Random sampling seeds reshuffle the fault order — and with it which
    /// faults the cone batcher packs into one word, how much their fan-out
    /// cones overlap, and which lanes sit next to faults with empty or
    /// disjoint cones. The per-lane outcomes must come back in fault-list
    /// order regardless, bit-identical to the interpreter.
    #[test]
    fn random_fault_order_and_cone_overlap_match_the_interpreter(
        sampling_seed in 0u64..1_000_000,
        faults in 32usize..=160,
        shards_index in 0usize..3,
    ) {
        let (device, variants) = routed_variants();
        let (_, routed) = &variants[2]; // tmr_p2
        let shards = [1usize, 2, 8][shards_index];
        let model = FaultModel::SingleBit;
        let oracle = run_seeded(
            device, routed, model, faults, 1, SimBackend::Interpreter, sampling_seed,
        );
        let compiled = run_seeded(
            device, routed, model, faults, shards, SimBackend::Compiled, sampling_seed,
        );
        prop_assert_eq!(compiled, oracle);
    }

    /// Clustered MBU faults are the cone-overlap stress case: every cluster
    /// perturbs several adjacent configuration bits, so neighbouring faults
    /// share large parts of their fan-out cones (and bridging members force
    /// words into the multi-pass mode). All geometric patterns must stay
    /// bit-identical to the interpreter across shard counts.
    #[test]
    fn clustered_mbu_cone_overlap_matches_the_interpreter(
        pattern_index in 0usize..3,
        sampling_seed in 0u64..1_000_000,
        faults in 16usize..=120,
        shards_index in 0usize..3,
    ) {
        let (device, variants) = routed_variants();
        let (_, routed) = &variants[2]; // tmr_p2
        let pattern = [
            MbuPattern::PairInFrame,
            MbuPattern::PairAcrossFrames,
            MbuPattern::Tile2x2,
        ][pattern_index];
        let model = FaultModel::Mbu { pattern };
        let shards = [1usize, 2, 8][shards_index];
        let oracle = run_seeded(
            device, routed, model, faults, 1, SimBackend::Interpreter, sampling_seed,
        );
        let compiled = run_seeded(
            device, routed, model, faults, shards, SimBackend::Compiled, sampling_seed,
        );
        prop_assert_eq!(compiled, oracle);
    }
}
