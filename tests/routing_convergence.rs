//! PathFinder negotiation-schedule regression (per-iteration router
//! telemetry and the routed trees themselves).
//!
//! The five paper variants must route at placement seed 1 with exactly the
//! pinned number of negotiation iterations and A* node expansions, into
//! exactly the pinned route trees. Two scales are pinned: the small FIR on
//! the tight 24x24 device, where `tmr_p1` fills 957 of 1,152 LUT sites, and
//! the paper's 11-tap FIR on the auto-sized 54x40 device, where each
//! iteration is expensive. The counters and digests are machine-independent,
//! so any change to the placer or the negotiation schedule (the order nets
//! are rerouted in, the cost schedule, the search itself) shows up here as a
//! pin mismatch long before it becomes a routing failure, and a change that
//! keeps both counts but moves a route (and so the bitstream) still changes
//! a digest. Every run must also converge within [`ITERATION_BUDGET`], here
//! and for small `tmr_p1` on the neighbouring 22x22, 26x26 and 28x28
//! devices.

use std::collections::HashMap;
use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::{Flow, FlowBuilder, Sweep};
use tmr_fpga::netlist::NetId;
use tmr_fpga::pnr::{route_with_telemetry, RouteTree, RouterOptions};
use tmr_fpga::tmr::{par_map, TmrConfig};
use tmr_fpga::ArtifactCache;

/// `(variant, negotiation iterations, A* nodes expanded, route digest)` of
/// the small FIR on the 24x24 device, measured with the A* router at one
/// heuristic weight over its admissible sink-specific floor. `tmr_p1` is the
/// most congested variant on this tight device.
const SCHEDULE: [(&str, usize, u64, u64); 5] = [
    ("standard", 5, 5_405, 0x2718_dae7_9fab_224f),
    ("tmr_p1", 7, 66_076, 0x0497_b959_015c_601c),
    ("tmr_p2", 6, 43_469, 0xdfb7_77f8_71ca_f1e3),
    ("tmr_p3", 6, 29_983, 0x8021_b545_ab8b_152b),
    ("tmr_p3_nv", 5, 24_045, 0xb721_8111_4c4c_d69a),
];

/// The same pins for the paper's 11-tap FIR on the auto-sized 54x40
/// XC2S200E-like device.
const PAPER_SCHEDULE: [(&str, usize, u64, u64); 5] = [
    ("standard", 4, 38_238, 0x4e5d_54c7_94db_ab02),
    ("tmr_p1", 5, 263_282, 0x116c_e6f3_1726_3cb8),
    ("tmr_p2", 5, 215_335, 0x7f26_abf8_9de0_9724),
    ("tmr_p3", 5, 179_798, 0x53e0_0739_baf4_f86f),
    ("tmr_p3_nv", 5, 137_230, 0x3bd8_911f_3baf_3e9d),
];

/// The most negotiation iterations any pinned or neighbouring-device run may
/// take, far below the router's hard limit of 250. Small `tmr_p1` on 24x24
/// routes in at most 9 iterations over placement seeds 1-16; a placer or
/// router change that needs more than this budget is a regression.
const ITERATION_BUDGET: usize = 30;

/// FNV-1a over the routed trees: nets in `NetId` order, and each tree's
/// nodes and PIPs in tree order.
fn route_digest(routes: &HashMap<NetId, RouteTree>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |value: usize| {
        for byte in (value as u32).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut nets: Vec<_> = routes.iter().collect();
    nets.sort_unstable_by_key(|(net, _)| **net);
    for (net, tree) in nets {
        word(net.index());
        word(tree.nodes.len());
        tree.nodes.iter().for_each(|node| word(node.index()));
        word(tree.pips.len());
        tree.pips.iter().for_each(|pip| word(pip.index()));
    }
    hash
}

/// Routes every variant of `sweep` (variants in parallel, each route
/// sequential and deterministic), checks its telemetry and returns the
/// measured `(variant, iterations, nodes expanded, route digest)` rows.
fn measure(sweep: Sweep) -> (Device, Vec<(String, usize, u64, u64)>) {
    let (device, flows) = sweep
        .flows()
        .expect("the paper variants implement on the device");
    let measured = par_map(flows, |(name, flow)| {
        let (iterations, expanded, digest) = route_checked(&name, &device, &flow);
        (name, iterations, expanded, digest)
    });
    (device, measured)
}

/// Routes one flow's placement, checks its telemetry and returns its
/// `(iterations, nodes expanded, route digest)`.
fn route_checked(name: &str, device: &Device, flow: &Flow) -> (usize, u64, u64) {
    let netlist = flow.synthesized().expect("synthesis succeeds");
    let placement = flow.placed().expect("placement succeeds");
    let (routes, telemetry) =
        route_with_telemetry(device, &netlist, &placement, &RouterOptions::default());
    let routes = routes.unwrap_or_else(|error| panic!("variant {name} failed to route: {error}"));

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
    // only the first iteration may route without any rip-ups, and the
    // present-congestion factor follows the ramp rule. It grows ×2
    // (capped at 32) after an iteration from the second on while
    // overuse has fallen in every iteration since the first, and ×1.2
    // otherwise, so it never decreases.
    let mut falling = true;
    for (index, iteration) in telemetry.iterations.iter().enumerate() {
        assert_eq!(iteration.iteration, index + 1, "variant {name}");
        if index == 0 {
            continue;
        }
        assert!(
            iteration.ripped_up > 0,
            "variant {name}: a non-first iteration only runs to resolve overuse"
        );
        let previous = &telemetry.iterations[index - 1];
        if index > 1 {
            let before = &telemetry.iterations[index - 2];
            falling &= previous.overused_nodes < before.overused_nodes;
        }
        let growth = if index > 1 && falling { 2.0 } else { 1.2 };
        assert_eq!(
            iteration.present_factor,
            (previous.present_factor * growth).min(32.0),
            "variant {name}: present factor of iteration {}",
            index + 1
        );
    }
    (
        telemetry.iteration_count(),
        telemetry.total_nodes_expanded(),
        route_digest(&routes),
    )
}

fn assert_schedule(measured: &[(String, usize, u64, u64)], schedule: &[(&str, usize, u64, u64)]) {
    let expected: Vec<(String, usize, u64, u64)> = schedule
        .iter()
        .map(|&(name, iterations, nodes, digest)| (name.to_string(), iterations, nodes, digest))
        .collect();
    assert_eq!(
        measured, expected,
        "the negotiation schedule changed: (variant, iterations, nodes expanded, route digest)"
    );
}

#[test]
fn paper_variants_route_within_the_iteration_budget() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (_, measured) = measure(Sweep::paper(&base).on_device(&device));
    assert_schedule(&measured, &SCHEDULE);
}

#[test]
fn paper_fir_routes_on_the_auto_sized_device() {
    let base = FirFilter::paper_filter().to_design();
    let (device, measured) = measure(Sweep::paper(&base).seed(1));
    assert_eq!((device.cols(), device.rows()), (54, 40));
    assert_schedule(&measured, &PAPER_SCHEDULE);
}

/// Small `tmr_p1` on the devices around 24x24, at the placement seeds where
/// whole-device move targets left it unroutable after 250 iterations.
#[test]
fn small_tmr_p1_routes_on_neighbouring_devices() {
    let base = FirFilter::small_filter().to_design();
    let cache = ArtifactCache::shared();
    let runs = vec![(22, 1), (22, 2), (22, 3), (26, 1), (28, 2)];
    par_map(runs, |(size, seed)| {
        let device = Device::small(size, size);
        let flow = FlowBuilder::new(&device, &base)
            .tmr(TmrConfig::paper_p1())
            .seed(seed)
            .cache(cache.clone())
            .build();
        route_checked(
            &format!("tmr_p1 on {size}x{size}, seed {seed}"),
            &device,
            &flow,
        );
    });
}
