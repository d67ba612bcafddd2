//! Determinism tests of the staged pipeline and the streaming campaign
//! session:
//!
//! * cached and cold pipeline runs produce **bit-identical** bitstreams and
//!   campaign results across placement seeds and shard counts (property
//!   test) — the artifact cache may change *when* work happens, never what
//!   it produces;
//! * an early-stopped session's outcomes equal the matching **prefix** of
//!   the full batch run;
//! * the unified error type chains to the failing layer;
//! * sweeps sharing a cache share their auto-sized device.

use proptest::prelude::*;
use std::sync::Arc;
use tmr_fpga::arch::Device;
use tmr_fpga::designs::counter;
use tmr_fpga::faultsim::{CampaignBuilder, EarlyStop};
use tmr_fpga::flow::{FlowBuilder, Sweep};
use tmr_fpga::tmr::TmrConfig;
use tmr_fpga::{ArtifactCache, Error};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For arbitrary placement seeds, shard counts and fault counts, a flow
    /// backed by a shared (warm) cache and a flow recomputing everything
    /// from scratch produce the same bitstream and the same campaign
    /// result, and re-requesting an artifact returns the cached `Arc`.
    #[test]
    fn cached_and_cold_flows_are_bit_identical(
        seed in 1u64..4,
        shards in 1usize..4,
        faults in 40usize..90
    ) {
        let device = Device::small(8, 8);
        let design = counter(4);
        let cache = ArtifactCache::shared();

        let warm = FlowBuilder::new(&device, &design)
            .tmr(TmrConfig::paper_p2())
            .seed(seed)
            .shards(shards)
            .cache(cache.clone())
            .build();
        let cold = FlowBuilder::new(&device, &design)
            .tmr(TmrConfig::paper_p2())
            .seed(seed)
            .shards(shards)
            .build();

        let warm_routed = warm.routed().unwrap();
        let cold_routed = cold.routed().unwrap();
        prop_assert_eq!(warm_routed.bitstream(), cold_routed.bitstream());

        let campaign = CampaignBuilder::new().faults(faults).cycles(8);
        let warm_result = warm.campaign(&campaign).unwrap();
        let cold_result = cold.campaign(&campaign).unwrap();
        prop_assert_eq!(&*warm_result, &*cold_result);

        // Second requests are served from the cache: the same allocation
        // comes back and the hit counters move.
        let again = warm.routed().unwrap();
        prop_assert!(Arc::ptr_eq(&warm_routed, &again));
        let result_again = warm.campaign(&campaign).unwrap();
        prop_assert!(Arc::ptr_eq(&warm_result, &result_again));
        prop_assert!(cache.stats().hits > 0);
    }

    /// Flows over *different* inputs never alias in the cache: changing the
    /// placement seed changes the implementation artifacts but not the
    /// sampled fault population.
    #[test]
    fn distinct_seeds_do_not_alias_in_a_shared_cache(seed_a in 1u64..3, offset in 1u64..3) {
        let seed_b = seed_a + offset;
        let device = Device::small(8, 8);
        let design = counter(4);
        let cache = ArtifactCache::shared();
        let flow = |seed| {
            FlowBuilder::new(&device, &design)
                .tmr(TmrConfig::paper_p2())
                .seed(seed)
                .cache(cache.clone())
                .build()
        };
        let a = flow(seed_a).routed().unwrap();
        let b = flow(seed_b).routed().unwrap();
        prop_assert!(!Arc::ptr_eq(&a, &b));
        // Different placements, same netlist: the synthesis artifact was
        // shared (one miss), the implementation artifacts were not.
        prop_assert_eq!(a.netlist().stats(), b.netlist().stats());
    }
}

#[test]
fn early_stopped_session_is_a_prefix_of_the_batch_campaign() {
    // The unprotected counter has a high wrong-answer rate, so a loose
    // confidence bound stops long before the sample is exhausted.
    let device = Device::small(8, 8);
    let design = counter(4);
    let flow = FlowBuilder::new(&device, &design).build();
    let routed = flow.routed().expect("implementation");

    let campaign = CampaignBuilder::new().faults(500).cycles(8).sequential();
    let full = flow.campaign(&campaign).expect("campaign");

    let streaming = campaign
        .batch_size(50)
        .early_stop(EarlyStop::at_half_width(0.08).with_min_injected(50));
    let mut session = flow.campaign_session(&routed, &streaming).expect("session");
    while session.next_batch().is_some() {}
    assert!(session.stopped_early(), "the loose bound must fire");
    let streamed = session.into_result();

    assert!(streamed.injected() < full.injected());
    assert_eq!(
        streamed.outcomes[..],
        full.outcomes[..streamed.injected()],
        "an early-stopped session must equal the matching prefix of the batch run"
    );
}

#[test]
fn flow_errors_chain_to_the_failing_layer() {
    use std::error::Error as _;

    // A 3x3 grid cannot hold a TMR'd counter: placement must fail, and the
    // unified error must carry the layer error in its source chain.
    let device = Device::small(3, 3);
    let design = counter(4);
    let flow = FlowBuilder::new(&device, &design)
        .tmr(TmrConfig::paper_p2())
        .build();
    let error = flow.routed().expect_err("the device is far too small");
    assert!(matches!(error, Error::Pnr(_)));
    assert_eq!(error.to_string(), "place-and-route failed");
    let source = error.source().expect("source chain").to_string();
    assert!(
        source.contains("sites"),
        "the placement diagnostic must surface: {source}"
    );
    // A failed stage is not cached: retrying on a big enough device works
    // even with the same inputs (fresh flow, shared failure-free cache).
    assert_eq!(flow.cache().stats().entries, 2, "tmr + synth only");
}

/// An auto-sized device is a stage of the shared cache: a second sweep over
/// the cache gets the first one's device instead of building its own.
#[test]
fn sweeps_sharing_a_cache_build_one_auto_sized_device() {
    let cache = ArtifactCache::shared();
    let sweep = Sweep::new(&counter(3))
        .variant("standard", None)
        .cache(cache.clone());
    let (first, _) = sweep.flows().unwrap();
    let (second, _) = sweep.clone().flows().unwrap();
    assert_eq!(first.params(), second.params());
    let stages = cache.stage_stats();
    let (_, device) = stages.iter().find(|(stage, _)| *stage == "device").unwrap();
    assert_eq!((device.misses, device.hits, device.entries), (1, 1, 1));
}
