//! PathFinder negotiation-schedule regression (per-iteration router
//! telemetry).
//!
//! The five small-FIR paper variants must route on the reference 24x24
//! device at placement seed 1 with exactly the pinned number of negotiation
//! iterations and A* node expansions. Both counters are machine-independent,
//! so any change to the negotiation schedule (the order nets are rerouted
//! in, the cost schedule, the search itself) shows up here as a pin
//! mismatch long before it becomes a routing failure.

use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::Sweep;
use tmr_fpga::pnr::{route_with_telemetry, RouterOptions};

/// `(variant, negotiation iterations, A* nodes expanded)`, measured with the
/// A* lookahead router and its contention-adaptive heuristic weight.
/// `tmr_p1` is the most congested variant on the deliberately tight 24x24
/// device.
const SCHEDULE: [(&str, usize, u64); 5] = [
    ("standard", 9, 35_849),
    ("tmr_p1", 114, 8_395_458),
    ("tmr_p2", 22, 1_121_078),
    ("tmr_p3", 28, 891_128),
    ("tmr_p3_nv", 12, 534_405),
];

/// Headroom below the router's hard limit of 250 iterations, where `tmr_p1`
/// would start failing.
const ITERATION_BUDGET: usize = 150;

#[test]
fn paper_variants_route_within_the_iteration_budget() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (device, flows) = Sweep::paper(&base)
        .on_device(&device)
        .flows()
        .expect("the paper variants implement on the 24x24 device");

    let mut measured = Vec::new();
    for (name, flow) in flows {
        let synthesized = flow.synthesized().expect("synthesis succeeds");
        let placed = flow.placed().expect("placement succeeds");
        let (routes, telemetry) = route_with_telemetry(
            &device,
            synthesized.netlist(),
            placed.placement(),
            &RouterOptions::default(),
        );
        routes.unwrap_or_else(|error| panic!("variant {name} failed to route: {error}"));

        assert!(
            telemetry.converged(),
            "variant {name}: successful route must end with zero overused nodes"
        );
        assert!(
            telemetry.iteration_count() <= ITERATION_BUDGET,
            "variant {name}: router took {} negotiation iterations (budget {ITERATION_BUDGET})",
            telemetry.iteration_count()
        );

        // The telemetry is self-consistent: iterations are numbered from 1,
        // the present-congestion factor never decreases, and only the first
        // iteration may route without any rip-ups.
        for (index, iteration) in telemetry.iterations.iter().enumerate() {
            assert_eq!(iteration.iteration, index + 1, "variant {name}");
            if index > 0 {
                assert!(
                    iteration.present_factor >= telemetry.iterations[index - 1].present_factor,
                    "variant {name}: present factor must be non-decreasing"
                );
                assert!(
                    iteration.ripped_up > 0,
                    "variant {name}: a non-first iteration only runs to resolve overuse"
                );
            }
        }
        measured.push((
            name,
            telemetry.iteration_count(),
            telemetry.total_nodes_expanded(),
        ));
    }
    let expected: Vec<(String, usize, u64)> = SCHEDULE
        .iter()
        .map(|&(name, iterations, nodes)| (name.to_string(), iterations, nodes))
        .collect();
    assert_eq!(
        measured, expected,
        "the negotiation schedule changed: (variant, iterations, nodes expanded)"
    );
}
