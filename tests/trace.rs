//! The tracing hard contract, at the facade level: campaign results are
//! byte-identical with tracing off, on, or at any sink — for every fault
//! model — and a traced flow records the full stage-span taxonomy.
//!
//! The tracer is a process singleton, so the tests in this binary serialize
//! on one mutex and reset the configuration between runs.

use std::sync::{Mutex, MutexGuard};
use tmr_fpga::arch::{Device, MbuPattern};
use tmr_fpga::faultsim::CampaignBuilder;
use tmr_fpga::flow::FlowBuilder;
use tmr_fpga::tmr::TmrConfig;
use tmr_fpga::trace::{self, TraceConfig};

/// Serializes tests touching the process-global tracer and leaves it in a
/// clean in-memory state.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    trace::configure(TraceConfig::memory());
    let _ = trace::drain_tree();
    guard
}

/// Runs one small campaign on a fresh flow (fresh cache — nothing memoized
/// across runs) and returns the byte-exact `Debug` rendering of its result.
fn run_campaign(campaign: &CampaignBuilder, config: TraceConfig) -> String {
    trace::configure(config);
    let device = Device::small(16, 16);
    let design = tmr_fpga::designs::counter(6);
    let flow = FlowBuilder::new(&device, &design)
        .tmr(TmrConfig::paper_p2())
        .build();
    let result = flow
        .campaign(campaign)
        .expect("flow designs are always simulable");
    trace::configure(TraceConfig::off());
    format!("{result:?}")
}

#[test]
fn results_are_byte_identical_with_tracing_on_or_off_for_every_fault_model() {
    let _guard = lock();
    let models: [(&str, CampaignBuilder); 3] = [
        ("single-bit", CampaignBuilder::new()),
        ("mbu", CampaignBuilder::new().mbu(MbuPattern::PairInFrame)),
        ("accumulate", CampaignBuilder::new().accumulate(3)),
    ];
    for (label, base) in models {
        let campaign = base.faults(200).cycles(8);
        let untraced = run_campaign(&campaign, TraceConfig::off());
        let traced = run_campaign(&campaign, TraceConfig::memory());
        let _ = trace::drain_tree();
        assert_eq!(
            untraced, traced,
            "{label}: tracing must not perturb campaign results"
        );
    }
}

#[test]
fn a_traced_flow_records_the_full_stage_span_taxonomy() {
    let _guard = lock();
    let device = Device::small(16, 16);
    let design = tmr_fpga::designs::counter(6);
    trace::configure(TraceConfig::memory());
    let flow = FlowBuilder::new(&device, &design)
        .tmr(TmrConfig::paper_p2())
        .build();
    flow.analyzed().expect("analysis succeeds");
    let result = flow
        .campaign(&CampaignBuilder::new().faults(120).cycles(8).shards(3))
        .expect("flow designs are always simulable");
    trace::configure(TraceConfig::off());
    let tree = trace::drain_tree();

    for stage in [
        "stage.tmr",
        "stage.synth",
        "stage.place",
        "stage.route",
        "stage.analyze",
        "stage.compiled",
        "stage.golden",
        "stage.campaign",
    ] {
        assert_eq!(tree.count(stage), 1, "expected exactly one {stage} span");
    }

    // The campaign stage carries the result attributes, the shard spans
    // merged deterministically under it, and the inner synthesis spans
    // nested under the synth stage.
    let campaign_span = tree.find("stage.campaign").expect("campaign stage span");
    assert_eq!(
        campaign_span.attr("injected").and_then(|a| a.as_u64()),
        Some(result.injected() as u64)
    );
    assert_eq!(tree.count("campaign.shard"), 3, "one span per worker shard");
    assert!(tree.count("synth.lower") == 1 && tree.count("synth.techmap") == 1);
    assert!(
        tree.count("route.iteration") >= 1,
        "router telemetry events present"
    );
    assert!(tree
        .counters
        .iter()
        .any(|(name, value)| name == "campaign.faults_simulated" && *value > 0));
}
