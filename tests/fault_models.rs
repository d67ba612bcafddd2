//! Differential test harness for the generalized fault models.
//!
//! Three families of guarantees are pinned here:
//!
//! 1. **Shard transparency** — for *every* fault model (single-bit,
//!    geometric MBU clusters, accumulated upsets per scrub interval) the
//!    sharded campaign outcomes are bit-identical to the sequential
//!    reference, for 1/2/3/8 shards; the merged result follows fault-list
//!    order, never shard-completion order (the accumulated-fault regression
//!    test pins the exact outcome sequence under 8 shards).
//! 2. **Degenerate equivalence** — `Mbu` with a 1-bit pattern and
//!    `Accumulate { upsets_per_scrub: 1 }` reproduce the `SingleBit` results
//!    *exactly* on the paper's P2 TMR configuration.
//! 3. **Sampling laws** (property-based) — fault sampling under any model is
//!    deterministic per seed, cluster bits are always in bounds, distinct
//!    and sorted, and flipping a set of bits twice (one scrub interval and
//!    its repair) restores the pristine bitstream.

use proptest::prelude::*;
use std::sync::OnceLock;
use tmr_fpga::arch::{Bitstream, Device, MbuPattern};
use tmr_fpga::designs::counter;
use tmr_fpga::faultsim::{CampaignBuilder, FaultList, FaultModel};
use tmr_fpga::flow::{FlowBuilder, Sweep};
use tmr_fpga::pnr::RoutedDesign;
use tmr_fpga::tmr::TmrConfig;
use tmr_fpga::ArtifactCache;

/// The routed paper-P2 TMR counter shared by every test in this harness
/// (implementing it once keeps the proptest cases cheap).
fn routed_p2() -> &'static (Device, RoutedDesign) {
    static ROUTED: OnceLock<(Device, RoutedDesign)> = OnceLock::new();
    ROUTED.get_or_init(|| {
        let device = Device::small(8, 8);
        let flow = FlowBuilder::new(&device, &counter(4))
            .tmr(TmrConfig::paper_p2())
            .seed(5)
            .build();
        let routed = flow.routed().expect("implementation").design().clone();
        (device, routed)
    })
}

/// One representative of every fault-model family, plus the degenerate
/// 1-bit variants.
fn all_models() -> Vec<FaultModel> {
    let mut models = vec![FaultModel::SingleBit];
    for pattern in MbuPattern::ALL {
        models.push(FaultModel::Mbu { pattern });
    }
    for upsets_per_scrub in [1, 3] {
        models.push(FaultModel::Accumulate { upsets_per_scrub });
    }
    models
}

#[test]
fn sharded_campaigns_match_sequential_for_every_model() {
    let (device, routed) = routed_p2();
    for model in all_models() {
        let campaign = CampaignBuilder::new()
            .faults(150)
            .cycles(8)
            .fault_model(model);
        let reference = campaign.clone().sequential().run(device, routed).unwrap();
        assert_eq!(reference.injected(), 150, "{model}");
        for shards in [1, 2, 3, 8] {
            let sharded = campaign.clone().shards(shards).run(device, routed).unwrap();
            assert_eq!(reference, sharded, "{model}, shards = {shards}");
        }
    }
}

#[test]
fn degenerate_models_reproduce_single_bit_results_exactly() {
    let (device, routed) = routed_p2();
    let campaign = CampaignBuilder::new().faults(300).cycles(10).sequential();
    let single = campaign.clone().run(device, routed).unwrap();
    let mbu_single = campaign
        .clone()
        .mbu(MbuPattern::Single)
        .run(device, routed)
        .unwrap();
    assert_eq!(single, mbu_single, "a 1-bit MBU cluster is a single upset");
    let accumulate_one = campaign.clone().accumulate(1).run(device, routed).unwrap();
    assert_eq!(
        single, accumulate_one,
        "one upset per scrub interval is the single-bit model"
    );
    for outcome in &single.outcomes {
        assert_eq!(outcome.bits, vec![outcome.bit]);
    }
    // Degenerate spellings canonicalize, so all three share one store key.
    for degenerate in [
        campaign.clone().mbu(MbuPattern::Single),
        campaign.clone().accumulate(1),
    ] {
        assert_eq!(degenerate.options(), campaign.options());
    }
}

#[test]
fn multi_bit_models_flip_their_sampled_clusters() {
    let (device, routed) = routed_p2();
    let list = FaultList::build(device, routed);
    let model = FaultModel::Mbu {
        pattern: MbuPattern::Tile2x2,
    };
    let campaign = CampaignBuilder::new()
        .faults(120)
        .cycles(8)
        .fault_model(model);
    let expected = list.sample_faults(device, &model, 120, campaign.options().sampling_seed());
    let result = campaign.sequential().run(device, routed).unwrap();
    assert_eq!(result.injected(), expected.len().min(120));
    let geometry = device.config_layout().geometry();
    for (outcome, fault) in result.outcomes.iter().zip(&expected) {
        assert_eq!(&outcome.bits, fault);
        assert_eq!(outcome.bit, fault[0]);
        assert_eq!(
            outcome.bits,
            geometry.cluster(outcome.bit, MbuPattern::Tile2x2)
        );
    }
}

/// Regression test for the merge order of accumulated-fault campaigns: the
/// result sequence is defined by fault-list order (ascending anchor bits,
/// exactly the dealt scrub intervals), not by shard completion order — under
/// 8 shards the last shard regularly finishes before the first.
#[test]
fn accumulated_outcomes_keep_fault_list_order_under_8_shards() {
    let (device, routed) = routed_p2();
    let model = FaultModel::Accumulate {
        upsets_per_scrub: 4,
    };
    let campaign = CampaignBuilder::new()
        .faults(96)
        .cycles(8)
        .fault_model(model);

    let sequential = campaign.clone().sequential().run(device, routed).unwrap();
    let sharded = campaign.clone().shards(8).run(device, routed).unwrap();
    assert_eq!(sequential, sharded);

    // The exact sequence: outcome i is scrub interval i of the dealt sample.
    let list = FaultList::build(device, routed);
    let expected = list.sample_faults(device, &model, 96, campaign.options().sampling_seed());
    assert_eq!(sharded.injected(), expected.len());
    for (index, (outcome, fault)) in sharded.outcomes.iter().zip(&expected).enumerate() {
        assert_eq!(&outcome.bits, fault, "outcome {index}");
        assert_eq!(outcome.bits.len(), 4, "outcome {index}");
        assert_eq!(outcome.bit, fault[0], "outcome {index}");
    }
    // Anchors strictly ascend — the visible fingerprint of fault-list order
    // (any completion-order merge would interleave the shards' ranges).
    assert!(sharded
        .outcomes
        .windows(2)
        .all(|pair| pair[0].bit < pair[1].bit));
}

/// The staged pipeline serves all three fault-model families from one shared
/// artifact cache over the five paper variants, and the single-bit results
/// are exactly what the default (pre-fault-model) campaign produces.
#[test]
fn sweep_runs_all_three_models_from_one_cache() {
    let device = Device::small(12, 12);
    let base = counter(4);
    let cache = ArtifactCache::shared();
    let campaign = CampaignBuilder::new().faults(80).cycles(8).sequential();

    let sweep_for = |model: FaultModel| {
        Sweep::paper(&base)
            .on_device(&device)
            .cache(cache.clone())
            .campaign(campaign.clone().fault_model(model))
    };

    let single = sweep_for(FaultModel::SingleBit).run().unwrap();
    assert_eq!(single.variants.len(), 5);
    let misses_after_first = cache.stats().misses;

    let mbu = sweep_for(FaultModel::Mbu {
        pattern: MbuPattern::PairInFrame,
    })
    .run()
    .unwrap();
    let accumulated = sweep_for(FaultModel::Accumulate {
        upsets_per_scrub: 3,
    })
    .run()
    .unwrap();

    // Later sweeps re-run only their campaigns: every implementation stage
    // and golden trace comes from the shared cache.
    let stats = cache.stats();
    assert_eq!(
        stats.misses,
        misses_after_first + 2 * 5,
        "only the 5 campaigns per additional model may miss: {stats}"
    );

    for report in [&mbu, &accumulated] {
        for (variant, reference) in report.variants.iter().zip(&single.variants) {
            assert_eq!(variant.name, reference.name);
            assert_eq!(
                variant.routed.bitstream(),
                reference.routed.bitstream(),
                "{}: implementations are model-independent",
                variant.name
            );
        }
    }

    // The single-bit sweep is bit-identical to the pre-fault-model API: a
    // default campaign (no fault_model call) over the same flow.
    for variant in &single.variants {
        let flow = {
            let mut builder = FlowBuilder::new(&device, &base).cache(cache.clone());
            if let Some(config) = variant.config.clone() {
                builder = builder.tmr(config);
            }
            builder.build()
        };
        let default_result = flow.campaign(&campaign).unwrap();
        assert_eq!(
            variant.campaign.as_deref(),
            Some(&*default_result),
            "{}: SingleBit is the default model",
            variant.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault sampling under any model is deterministic per seed, and every
    /// fault is a sorted set of distinct in-bounds bits with the sampled
    /// count honoured.
    #[test]
    fn sampling_is_deterministic_sorted_and_in_bounds(
        seed in 0u64..1_000,
        count in 1usize..160,
        choice in 0usize..3,
        pattern_index in 0usize..4,
        upsets in 1usize..6
    ) {
        let (device, routed) = routed_p2();
        let model = match choice {
            0 => FaultModel::SingleBit,
            1 => FaultModel::Mbu { pattern: MbuPattern::ALL[pattern_index] },
            _ => FaultModel::Accumulate { upsets_per_scrub: upsets },
        };
        let list = FaultList::build(device, routed);
        let faults = list.sample_faults(device, &model, count, seed);
        prop_assert_eq!(&faults, &list.sample_faults(device, &model, count, seed));
        prop_assert!(faults.len() <= count);
        let bit_count = device.config_layout().bit_count();
        for fault in &faults {
            prop_assert!(!fault.is_empty());
            prop_assert!(fault.len() <= model.bits_per_fault());
            prop_assert!(fault.windows(2).all(|pair| pair[0] < pair[1]));
            prop_assert!(fault.iter().all(|&bit| bit < bit_count));
        }
        // Fault order is anchor order: ascending lowest bits.
        prop_assert!(faults.windows(2).all(|pair| pair[0][0] < pair[1][0]));
    }

    /// Flipping the accumulated upsets of a scrub interval twice — or
    /// scrubbing from the pristine reference — restores the configuration
    /// exactly: the multi-bit fault model never leaks state between
    /// experiments.
    #[test]
    fn multi_flip_and_scrub_restore_the_pristine_bitstream(
        len in 1usize..2048,
        programmed in prop::collection::vec(0usize..2048, 0..32),
        upsets in prop::collection::vec(0usize..2048, 1..32)
    ) {
        let mut pristine = Bitstream::zeros(len);
        for &bit in programmed.iter().filter(|&&b| b < len) {
            pristine.set(bit, true);
        }
        let mut upsets: Vec<usize> = upsets.into_iter().filter(|&b| b < len).collect();
        upsets.sort_unstable();
        upsets.dedup();

        let mut faulty = pristine.clone();
        faulty.flip_all(&upsets);
        prop_assert_eq!(pristine.diff(&faulty).len(), upsets.len());
        for &bit in &upsets {
            prop_assert_eq!(faulty.get(bit), !pristine.get(bit));
        }

        let mut repaired = faulty.clone();
        repaired.flip_all(&upsets);
        prop_assert_eq!(&repaired, &pristine, "flip_all is an involution over sets");

        faulty.scrub(&pristine);
        prop_assert_eq!(&faulty, &pristine, "a scrub restores any accumulation");
    }
}
