//! Routing census over placement seeds: negotiation iterations and A*
//! expansions of the five paper FIR variants at every placement seed of a
//! range, so a router change is judged on many placements, not on the one
//! the pins in `tests/routing_convergence.rs` fix.
//!
//! ```text
//! cargo run --release -p tmr-bench --bin route_census -- small 1 8
//! cargo run --release -p tmr-bench --bin route_census -- paper 1 8
//! ```
//!
//! * `small` — the reduced 5-tap FIR on the tight 24x24 device.
//! * `paper` — the 11-tap FIR on the auto-sized XC2S200E-like device.
//!
//! Seeds run from `<first-seed>` to `<last-seed>` inclusive. Each table cell
//! reads `iterations / expansions`; the last row and column hold totals.
//! Routes are sequential and deterministic, so the output does not depend
//! on the CPU count. Exit status is 1 if any variant fails to converge.

use std::process::ExitCode;
use tmr_arch::Device;
use tmr_bench::markdown_table;
use tmr_core::par_map;
use tmr_designs::FirFilter;
use tmr_fpga::{ArtifactCache, Sweep};
use tmr_pnr::{route_with_telemetry, RouterOptions};

/// One variant's negotiation at one placement seed.
struct Census {
    iterations: usize,
    expansions: u64,
    converged: bool,
}

fn main() -> ExitCode {
    let arguments: Vec<String> = std::env::args().skip(1).collect();
    let [scale, first, last] = arguments.as_slice() else {
        return usage();
    };
    let (Ok(first), Ok(last)) = (first.parse::<u64>(), last.parse::<u64>()) else {
        return usage();
    };
    let (base, fixed_device) = match scale.as_str() {
        "small" => (
            FirFilter::small_filter().to_design(),
            Some(Device::small(24, 24)),
        ),
        "paper" => (FirFilter::paper_filter().to_design(), None),
        _ => return usage(),
    };
    let seeds: Vec<u64> = (first..=last).collect();
    if seeds.is_empty() {
        return usage();
    }

    // One cache across seeds: synthesis does not depend on the seed.
    let cache = ArtifactCache::shared();
    let mut names = Vec::new();
    let mut jobs = Vec::new();
    for &seed in &seeds {
        let mut sweep = Sweep::paper(&base).seed(seed).cache(cache.clone());
        if let Some(device) = &fixed_device {
            sweep = sweep.on_device(device);
        }
        let (device, flows) = sweep
            .flows()
            .expect("the paper variants synthesize and fit the device");
        names = flows.iter().map(|(name, _)| name.clone()).collect();
        jobs.extend(flows.into_iter().map(|(_, flow)| (device.clone(), flow)));
    }
    let (device, _) = jobs.first().expect("at least one seed");
    let grid = format!("{}x{}", device.cols(), device.rows());
    let census = par_map(jobs, |(device, flow)| {
        let netlist = flow.synthesized().expect("synthesis succeeds");
        let placement = flow.placed().expect("placement succeeds");
        let (routes, telemetry) =
            route_with_telemetry(&device, &netlist, &placement, &RouterOptions::default());
        Census {
            iterations: telemetry.iteration_count(),
            expansions: telemetry.total_nodes_expanded(),
            converged: routes.is_ok(),
        }
    });

    let cell = |iterations: usize, expansions: u64| format!("{iterations} / {expansions}");
    let mut rows = Vec::new();
    let mut column_totals = vec![(0usize, 0u64); names.len()];
    for (seed, runs) in seeds.iter().zip(census.chunks(names.len())) {
        let mut row = vec![seed.to_string()];
        for (run, total) in runs.iter().zip(column_totals.iter_mut()) {
            total.0 += run.iterations;
            total.1 += run.expansions;
            let mark = if run.converged { "" } else { " FAILED" };
            row.push(format!("{}{mark}", cell(run.iterations, run.expansions)));
        }
        let iterations = runs.iter().map(|run| run.iterations).sum();
        let expansions = runs.iter().map(|run| run.expansions).sum();
        row.push(cell(iterations, expansions));
        rows.push(row);
    }
    let mut totals = vec!["total".to_string()];
    totals.extend(column_totals.iter().map(|&(i, e)| cell(i, e)));
    let (iterations, expansions) = column_totals
        .iter()
        .fold((0, 0), |(i, e), &(ci, ce)| (i + ci, e + ce));
    totals.push(cell(iterations, expansions));
    rows.push(totals);

    println!("Routing census, {scale} FIR on {grid}: iterations / A* expansions\n");
    let mut headers = vec!["seed"];
    headers.extend(names.iter().map(String::as_str));
    headers.push("all variants");
    print!("{}", markdown_table(&headers, &rows));

    let failed = census.iter().filter(|run| !run.converged).count();
    if failed > 0 {
        eprintln!("{failed} route(s) failed to converge");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: route_census <small|paper> <first-seed> <last-seed>");
    ExitCode::from(2)
}
