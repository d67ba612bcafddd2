//! Disk-backed cache integration: flows and sweeps warm-start from a
//! `Store`, skipping synthesis, placement, routing and simulation entirely
//! on the second run — with byte-identical artifacts.

use std::path::PathBuf;
use std::sync::Arc;
use tmr_fpga::arch::Device;
use tmr_fpga::faultsim::{CampaignBuilder, EarlyStop};
use tmr_fpga::flow::{FlowBuilder, Sweep};
use tmr_fpga::tmr::TmrConfig;
use tmr_fpga::Store;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmr-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_flow_skips_every_stage_and_matches() {
    let dir = temp_dir("flow");
    let device = Device::small(8, 8);
    let design = tmr_fpga::designs::counter(4);
    let campaign = CampaignBuilder::new().faults(60).cycles(8);

    let build = || {
        FlowBuilder::new(&device, &design)
            .tmr(TmrConfig::paper_p2())
            .seed(1)
            .shards(1)
            .store(Arc::new(Store::open(&dir).unwrap()))
            .build()
    };

    let cold = build();
    let cold_result = cold.campaign(&campaign).unwrap();
    let cold_routed = cold.routed().unwrap();
    let store = cold.store().expect("the flow has a store attached");
    assert!(store.stats().writes > 0, "cold run persists artifacts");

    // A fresh flow (fresh memory cache, fresh store handle over the same
    // directory) must serve everything from disk: a disk hit on `campaign`
    // answers without ever running a stage, and `routed` decodes the stored
    // design without synthesizing or placing.
    let warm = build();
    let warm_result = warm.campaign(&campaign).unwrap();
    assert_eq!(*warm_result, *cold_result);
    let warm_routed = warm.routed().unwrap();
    assert_eq!(
        warm_routed.bitstream().words(),
        cold_routed.bitstream().words()
    );

    let warm_store = warm.store().unwrap();
    assert_eq!(warm_store.stats().writes, 0, "warm run recomputes nothing");
    let mem = warm.cache().stage_stats();
    for stage in ["tmr", "place"] {
        let ran = mem.iter().any(|&(name, _)| name == stage);
        assert!(!ran, "warm run must not reach the {stage} stage");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign fingerprint is the store key of every persisted campaign
/// result and resumable prefix: a refactor that changes it silently orphans
/// them all, so the keys of two representative campaigns are pinned. A bump
/// of `tmr_pnr::ROUTE_EPOCH` (a placer or router change that moves routes)
/// changes both on purpose and re-pins them.
#[test]
fn campaign_fingerprints_are_pinned() {
    let device = Device::small(8, 8);
    let flow = FlowBuilder::new(&device, &tmr_fpga::designs::counter(4))
        .tmr(TmrConfig::paper_p2())
        .seed(1)
        .build();
    let plain = CampaignBuilder::new().faults(60).cycles(8);
    assert_eq!(flow.campaign_fingerprint(&plain), 0xcff6_5219_f34b_78f1);
    let streaming = CampaignBuilder::new()
        .faults(200)
        .cycles(8)
        .batch_size(64)
        .early_stop(EarlyStop::at_half_width(0.01));
    assert_eq!(flow.campaign_fingerprint(&streaming), 0x7014_1217_5182_27be);
}

#[test]
fn warm_sweep_reports_disk_hits() {
    let dir = temp_dir("sweep");
    let design = tmr_fpga::designs::counter(3);
    let store = Arc::new(Store::open(&dir).unwrap());
    let run = |store: &Arc<Store>| {
        Sweep::new(&design)
            .variant("standard", None)
            .variant("tmr_p2", Some(TmrConfig::paper_p2()))
            .on_device(&Device::small(8, 8))
            .campaign(CampaignBuilder::new().faults(40).cycles(8).shards(1))
            .store(store.clone())
            .run()
            .unwrap()
    };

    let cold = run(&store);
    let disk = cold.disk.expect("sweep with a store reports disk stats");
    assert!(disk.writes > 0);

    // Same directory, fresh store handle and fresh memory cache: every
    // variant's campaign comes straight from disk.
    let warm_store = Arc::new(Store::open(&dir).unwrap());
    let warm = run(&warm_store);
    let disk = warm.disk.unwrap();
    assert_eq!(disk.writes, 0, "warm sweep recomputes nothing");
    assert!(disk.hits > 0);
    for (name, campaign) in cold.campaigns() {
        assert_eq!(
            campaign,
            warm.campaigns().find(|(n, _)| *n == name).unwrap().1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
