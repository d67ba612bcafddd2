//! Criterion benchmarks of the individual flow stages on reduced designs:
//! TMR transformation, synthesis, placement, routing, bitstream generation and
//! fault-injection throughput. One group per paper table/figure family.
//!
//! The `campaign_throughput` group is the headline number: it measures
//! faults/second on the FIR `TMR_p2` design for the sequential engine and for
//! the sharded parallel engine at 2, 4 and 8 shards. To record a baseline:
//!
//! ```text
//! cargo bench -p tmr-bench --bench flow | tee target/bench-baseline.txt
//! ```
//!
//! and compare the `thrpt:` columns of `campaign_throughput/*` lines between
//! runs (the parallel/4-shard row is expected to be ≥ 2× the sequential row
//! on a 4-core machine).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tmr_analyze::{PruneWith, StaticAnalysis};
use tmr_arch::{Device, MbuPattern};
use tmr_core::pipeline::ArtifactCache;
use tmr_core::{apply_tmr, estimate_resources, partition_report, TmrConfig};
use tmr_designs::FirFilter;
use tmr_faultsim::{classify_bit, CampaignBuilder, FaultList, SimBackend};
use tmr_fpga::Sweep;
use tmr_pnr::{place, place_and_route, route, PlacerOptions, RoutedDesign, RouterOptions};
use tmr_sim::{FaultOverlay, Simulator, Stimulus};

/// The reduced FIR used by all benches (5 taps, 6-bit) keeps `cargo bench`
/// runtimes in seconds while exercising every code path of the full flow.
fn small_tmr_netlist(config: &TmrConfig) -> tmr_netlist::Netlist {
    let design = FirFilter::small_filter().to_design();
    let tmr = apply_tmr(&design, config).expect("unprotected input design");
    tmr_synth::techmap(&tmr_synth::optimize(
        &tmr_synth::lower(&tmr).expect("lowering"),
    ))
    .expect("mapping")
}

/// Figure 4 family: the TMR transformation and partition analysis.
fn bench_transform(c: &mut Criterion) {
    let design = FirFilter::paper_filter().to_design();
    let mut group = c.benchmark_group("figure4_transform");
    for config in TmrConfig::paper_presets() {
        group.bench_function(format!("apply_tmr_{}", config.label), |b| {
            b.iter(|| apply_tmr(&design, &config).expect("transform"))
        });
    }
    let tmr = apply_tmr(&design, &TmrConfig::paper_p2()).expect("transform");
    group.bench_function("partition_report_p2", |b| b.iter(|| partition_report(&tmr)));
    group.finish();
}

/// Table 2 family: synthesis, placement, routing and area estimation.
fn bench_implementation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_implementation");
    group.sample_size(10);
    let design = FirFilter::small_filter().to_design();
    let tmr = apply_tmr(&design, &TmrConfig::paper_p2()).expect("transform");
    group.bench_function("synthesize_small_tmr_p2", |b| {
        b.iter(|| {
            tmr_synth::techmap(&tmr_synth::optimize(
                &tmr_synth::lower(&tmr).expect("lowering"),
            ))
            .expect("mapping")
        })
    });

    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20); // 800 LUT sites; small TMR_p2 needs 777
    group.bench_function("place_small_tmr_p2", |b| {
        b.iter(|| place(&device, &netlist, &PlacerOptions::default()).expect("placement"))
    });
    let placement = place(&device, &netlist, &PlacerOptions::default()).expect("placement");
    group.bench_function("route_small_tmr_p2", |b| {
        b.iter(|| route(&device, &netlist, &placement, &RouterOptions::default()).expect("routing"))
    });
    group.bench_function("estimate_resources", |b| {
        b.iter(|| estimate_resources(&netlist))
    });
    group.finish();
}

/// PnR throughput: end-to-end place+route on the small FIR `TMR_p2`, with
/// one run's negotiation counters logged first.
fn bench_pnr_throughput(c: &mut Criterion) {
    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20); // 800 LUT sites; small TMR_p2 needs 777
    let options = RouterOptions::default();

    let placement = place(&device, &netlist, &PlacerOptions::default()).expect("placement");
    let (routes, telemetry) =
        tmr_pnr::route_with_telemetry(&device, &netlist, &placement, &options);
    eprintln!(
        "pnr_throughput: {} nets routed in {} iterations, {} nodes expanded, {:.1} ms",
        routes.expect("routing").len(),
        telemetry.iteration_count(),
        telemetry.total_nodes_expanded(),
        telemetry.total_elapsed().as_secs_f64() * 1e3,
    );

    let mut group = c.benchmark_group("pnr_throughput");
    group.sample_size(10);
    group.bench_function("place_route", |b| {
        b.iter(|| {
            let placement = place(&device, &netlist, &PlacerOptions::default()).expect("placement");
            route(&device, &netlist, &placement, &options).expect("routing")
        })
    });
    group.finish();
}

/// Table 3 / Table 4 family: fault-list construction, classification and
/// simulation building blocks.
fn bench_fault_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_fault_injection");
    group.sample_size(10);
    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20); // 800 LUT sites; small TMR_p2 needs 777
    let routed = place_and_route(&device, &netlist, 1).expect("place and route");

    group.bench_function("fault_list_build", |b| {
        b.iter(|| FaultList::build(&device, &routed))
    });

    let list = FaultList::build(&device, &routed);
    let sample = list.sample(256, 1);
    group.bench_function("classify_256_bits", |b| {
        b.iter(|| {
            sample
                .iter()
                .filter(|&&bit| !classify_bit(&device, &routed, bit).overlay.is_empty())
                .count()
        })
    });

    let simulator = Simulator::new(routed.netlist()).expect("acyclic");
    let stimulus = Stimulus::random(routed.netlist(), 24, 7);
    group.bench_function("simulate_24_cycles", |b| {
        b.iter(|| simulator.run_stimulus(&stimulus, &FaultOverlay::none()))
    });
    group.finish();
}

/// Campaign throughput (faults/second): the sequential engine against the
/// sharded parallel engine on the FIR `TMR_p2` design.
fn bench_campaign_throughput(c: &mut Criterion) {
    const FAULTS: usize = 600;
    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20);
    let routed: RoutedDesign = place_and_route(&device, &netlist, 1).expect("place and route");
    let campaign = CampaignBuilder::new().faults(FAULTS).cycles(12);

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FAULTS as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            campaign
                .clone()
                .sequential()
                .run(&device, &routed)
                .expect("campaign")
        })
    });
    for shards in [2usize, 4, 8] {
        group.bench_function(format!("parallel_{shards}_shards"), |b| {
            b.iter(|| {
                campaign
                    .clone()
                    .shards(shards)
                    .run(&device, &routed)
                    .expect("campaign")
            })
        });
    }

    // Statically pruned campaign: the same sampled faults, but only the
    // statically-possibly-observable bits are simulated. The eprintln records
    // the reduction so bench logs document the pruning factor alongside the
    // throughput numbers.
    let analysis = StaticAnalysis::run(&device, &routed);
    let pruned_campaign = campaign.clone().sequential().prune_with(&analysis);
    let unpruned = campaign
        .sequential()
        .run(&device, &routed)
        .expect("campaign");
    let pruned = pruned_campaign.run(&device, &routed).expect("campaign");
    assert_eq!(
        pruned.outcomes, unpruned.outcomes,
        "static pruning must not change campaign outcomes"
    );
    eprintln!(
        "campaign_throughput/pruned: {} of {} sampled faults simulated \
         (unpruned simulates {}; {} observable of {} design-related bits)",
        pruned.simulated,
        pruned.injected(),
        unpruned.simulated,
        analysis.observable_bits().len(),
        analysis.design_related(),
    );
    group.bench_function("pruned_sequential", |b| {
        b.iter(|| pruned_campaign.run(&device, &routed).expect("campaign"))
    });
    group.finish();
}

/// Simulator-backend throughput (faults/second): the interpreting oracle
/// and the event-driven compiled engine on the *same* sequential 600-fault
/// campaign over the FIR `TMR_p2` design. Both backends are asserted to
/// produce bit-identical `CampaignResult`s before anything is measured,
/// the `SimStats` counters are asserted to show the fast paths actually ran
/// (levels skipped, >64-lane words), and the one-shot speedups are logged
/// for the CI bench output.
fn bench_sim_throughput(c: &mut Criterion) {
    const FAULTS: usize = 600;
    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20);
    let routed: RoutedDesign = place_and_route(&device, &netlist, 1).expect("place and route");
    let campaign = CampaignBuilder::new()
        .faults(FAULTS)
        .cycles(12)
        .sequential();
    let interpreter = campaign.clone().backend(SimBackend::Interpreter);
    let compiled = campaign.backend(SimBackend::Compiled);

    let start = std::time::Instant::now();
    let interpreter_result = interpreter.run(&device, &routed).expect("campaign");
    let interpreter_elapsed = start.elapsed();
    let start = std::time::Instant::now();
    let compiled_result = compiled.run(&device, &routed).expect("campaign");
    let compiled_elapsed = start.elapsed();
    assert_eq!(
        compiled_result, interpreter_result,
        "the compiled engine must be bit-identical to the interpreter"
    );
    // The observability counters prove the fast paths ran instead of
    // trusting wall-clock anecdotes: the event-driven scheduler skipped
    // clean levels, and at least one word batch ran wider than 64 lanes.
    let stats = compiled_result.stats;
    assert!(
        stats.levels_skipped > 0,
        "event-driven scheduling must skip clean levels: {stats}"
    );
    assert!(
        stats.max_lanes_per_word > 64,
        "at least one word batch must run wider than 64 lanes: {stats}"
    );
    eprintln!(
        "sim_throughput: interpreter {:.3} s, compiled {:.3} s ({:.1}x) — {} faults, {} simulated",
        interpreter_elapsed.as_secs_f64(),
        compiled_elapsed.as_secs_f64(),
        interpreter_elapsed.as_secs_f64() / compiled_elapsed.as_secs_f64(),
        FAULTS,
        compiled_result.simulated,
    );
    eprintln!("sim_throughput/compiled stats: {stats}");

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FAULTS as u64));
    group.bench_function("interpreter", |b| {
        b.iter(|| interpreter.run(&device, &routed).expect("campaign"))
    });
    group.bench_function("compiled_packed", |b| {
        b.iter(|| compiled.run(&device, &routed).expect("campaign"))
    });
    group.finish();
}

/// Multi-bit fault-model throughput (faults/second): the generalized fault
/// models on the FIR `TMR_p2` design — one row per MBU cluster shape and per
/// accumulated-upsets depth, against the single-bit baseline of
/// `campaign_throughput`. The pruned row documents that the analyzer's
/// cluster-aware pruning stays transparent for multi-bit faults (asserted
/// bit-identical before measuring).
fn bench_mbu_throughput(c: &mut Criterion) {
    const FAULTS: usize = 400;
    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20);
    let routed: RoutedDesign = place_and_route(&device, &netlist, 1).expect("place and route");
    let campaign = CampaignBuilder::new().faults(FAULTS).cycles(12);

    let mut group = c.benchmark_group("mbu_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FAULTS as u64));
    for pattern in [
        MbuPattern::PairInFrame,
        MbuPattern::PairAcrossFrames,
        MbuPattern::Tile2x2,
    ] {
        let configured = campaign.clone().mbu(pattern);
        group.bench_function(format!("mbu_{pattern}"), |b| {
            b.iter(|| configured.run(&device, &routed).expect("campaign"))
        });
    }
    for upsets_per_scrub in [2usize, 4, 8] {
        let configured = campaign.clone().accumulate(upsets_per_scrub);
        group.bench_function(format!("accumulate_{upsets_per_scrub}"), |b| {
            b.iter(|| configured.run(&device, &routed).expect("campaign"))
        });
    }

    // Cluster-aware pruning: same outcomes, fewer simulations, faster. Both
    // rows below run sequentially so the pruning speedup is like-for-like
    // (the parallel mbu_2x2 row above is a different axis).
    let analysis = StaticAnalysis::run(&device, &routed);
    let mbu = campaign.clone().mbu(MbuPattern::Tile2x2).sequential();
    let unpruned = mbu.clone().run(&device, &routed).expect("campaign");
    let pruned_campaign = mbu.clone().prune_with(&analysis);
    let pruned = pruned_campaign.run(&device, &routed).expect("campaign");
    assert_eq!(
        pruned.outcomes, unpruned.outcomes,
        "cluster-aware pruning must not change campaign outcomes"
    );
    eprintln!(
        "mbu_throughput/pruned: {} of {} 2x2-cluster faults simulated (unpruned simulates {})",
        pruned.simulated,
        pruned.injected(),
        unpruned.simulated,
    );
    group.bench_function("sequential_mbu_2x2", |b| {
        b.iter(|| mbu.run(&device, &routed).expect("campaign"))
    });
    group.bench_function("pruned_sequential_mbu_2x2", |b| {
        b.iter(|| pruned_campaign.run(&device, &routed).expect("campaign"))
    });
    group.finish();
}

/// Sweep throughput: the staged pipeline over two variants of the reduced
/// FIR, cold (fresh artifact cache every iteration) against warm (shared
/// cache primed once) — the warm row documents what the cache saves on
/// repeated sweeps, and the eprintln records the hit counters for the CI
/// bench log.
fn bench_sweep_throughput(c: &mut Criterion) {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(20, 20); // 800 LUT sites; small TMR_p2 needs 777
    let campaign = CampaignBuilder::new().faults(150).cycles(8);
    let sweep = Sweep::new(&base)
        .variant("standard", None)
        .variant("tmr_p2", Some(TmrConfig::paper_p2()))
        .on_device(&device)
        .campaign(campaign);

    let mut group = c.benchmark_group("sweep_throughput");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            sweep
                .clone()
                .cache(ArtifactCache::shared())
                .run()
                .expect("sweep")
        })
    });

    let warm_cache = ArtifactCache::shared();
    let warm_sweep = sweep.cache(warm_cache.clone());
    let primed = warm_sweep.run().expect("sweep");
    assert!(
        primed.cache.misses > 0,
        "the priming run must compute artifacts"
    );
    group.bench_function("warm", |b| b.iter(|| warm_sweep.run().expect("sweep")));
    let stats = warm_cache.stats();
    assert!(
        stats.hits > stats.misses,
        "repeated sweeps must be served from the cache ({stats})"
    );
    eprintln!("sweep_throughput/warm artifact cache: {stats}");
    group.finish();
}

/// Static-analysis throughput (configuration bits/second): the whole-
/// bitstream criticality classification of `tmr-analyze` on the FIR `TMR_p2`
/// design.
fn bench_analyze_throughput(c: &mut Criterion) {
    let netlist = small_tmr_netlist(&TmrConfig::paper_p2());
    let device = Device::small(20, 20);
    let routed = place_and_route(&device, &netlist, 1).expect("place and route");
    let bits = device.config_layout().bit_count();

    let mut group = c.benchmark_group("analyze_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(bits as u64));
    group.bench_function("static_analysis_full_bitstream", |b| {
        b.iter(|| StaticAnalysis::run(&device, &routed))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_transform,
    bench_implementation,
    bench_pnr_throughput,
    bench_fault_injection,
    bench_campaign_throughput,
    bench_sim_throughput,
    bench_mbu_throughput,
    bench_sweep_throughput,
    bench_analyze_throughput
);
criterion_main!(benches);
