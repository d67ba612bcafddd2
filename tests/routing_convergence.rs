//! PathFinder negotiation-schedule regression (per-iteration router
//! telemetry and the routed trees themselves).
//!
//! The five paper variants must route at placement seed 1 with exactly the
//! pinned number of negotiation iterations and A* node expansions, into
//! exactly the pinned route trees. Two scales are pinned: the small FIR on
//! the deliberately tight 24x24 device, where negotiation needs many
//! iterations, and the paper's 11-tap FIR on the auto-sized 54x40 device,
//! where each iteration is expensive. The counters and digests are
//! machine-independent, so any change to the negotiation schedule (the order
//! nets are rerouted in, the cost schedule, the search itself) shows up here
//! as a pin mismatch long before it becomes a routing failure, and a change
//! that keeps both counts but moves a route (and so the bitstream) still
//! changes a digest.

use std::collections::HashMap;
use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::Sweep;
use tmr_fpga::netlist::NetId;
use tmr_fpga::pnr::{route_with_telemetry, RouteTree, RouterOptions};
use tmr_fpga::tmr::par_map;

/// `(variant, negotiation iterations, A* nodes expanded, route digest)` of
/// the small FIR on the 24x24 device, measured with the A* lookahead router
/// and its contention-adaptive heuristic weight. `tmr_p1` is the most
/// congested variant on this deliberately tight device.
const SCHEDULE: [(&str, usize, u64, u64); 5] = [
    ("standard", 8, 20_001, 0xd9e6_f31c_89db_fb55),
    ("tmr_p1", 114, 8_395_458, 0xc84e_0019_ddbc_2ce5),
    ("tmr_p2", 22, 1_121_078, 0x9966_c1a0_3451_afb5),
    ("tmr_p3", 28, 891_128, 0x065d_0e81_c805_b13d),
    ("tmr_p3_nv", 12, 534_405, 0x7cd9_b63a_450f_24cf),
];

/// The same pins for the paper's 11-tap FIR on the auto-sized 54x40
/// XC2S200E-like device.
const PAPER_SCHEDULE: [(&str, usize, u64, u64); 5] = [
    ("standard", 4, 281_042, 0xcade_210b_304e_ad40),
    ("tmr_p1", 6, 1_949_165, 0xfcad_8c5c_d272_ff9e),
    ("tmr_p2", 5, 1_454_212, 0x38d8_a1ed_fc33_16e2),
    ("tmr_p3", 5, 1_214_950, 0x5c7c_b4f3_107c_edf6),
    ("tmr_p3_nv", 5, 1_022_390, 0x018e_c93d_be94_c6e1),
];

/// Headroom below the router's hard limit of 250 iterations, where `tmr_p1`
/// would start failing on the small device.
const ITERATION_BUDGET: usize = 150;

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
        let synthesized = flow.synthesized().expect("synthesis succeeds");
        let placed = flow.placed().expect("placement succeeds");
        let (routes, telemetry) = route_with_telemetry(
            &device,
            synthesized.netlist(),
            placed.placement(),
            &RouterOptions::default(),
        );
        let routes =
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
            name,
            telemetry.iteration_count(),
            telemetry.total_nodes_expanded(),
            route_digest(&routes),
        )
    });
    (device, measured)
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
