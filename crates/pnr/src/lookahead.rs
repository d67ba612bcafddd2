//! Admissible distance lookahead for the A* router.
//!
//! [`cost_floor`] maps the tile Manhattan distance between a node and the
//! target sink to a lower bound on the cost of the node sequence that can
//! still lie ahead:
//!
//! * every PIP moves at most one tile (the switchbox connects cardinal
//!   neighbours only), so a node `d` tiles away needs at least `d` more
//!   distance-reducing hops;
//! * intermediate hops land on wires, each costing at least the wire base
//!   cost;
//! * the final hop enters the sink pin, costing the pin base cost, and the
//!   input muxes accept a wire from each neighbouring tile (the
//!   architecture's "long input" PIPs), so that last hop already covers one
//!   tile of distance and saves one wire from the bound.
//!
//! The bound holds on every device the builder makes: a device without
//! long-input PIPs only has costlier paths.

use crate::route::{PIN_COST, WIRE_COST};

/// Lower bound on the remaining route cost from a node `distance` tiles away
/// from the target sink: 0 in the sink's own tile, and `distance − 1` wires
/// plus the final pin entry beyond it.
#[inline]
pub(crate) fn cost_floor(distance: u32) -> f32 {
    if distance == 0 {
        0.0
    } else {
        (distance - 1) as f32 * WIRE_COST + PIN_COST
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::base_cost;
    use tmr_arch::{Device, DeviceParams, NodeId};

    /// Every distance a node can have from a sink on either preset.
    fn preset_distances() -> impl Iterator<Item = u32> {
        [DeviceParams::small(24, 24), DeviceParams::xc2s200e_like()]
            .into_iter()
            .flat_map(|params| 0..=u32::from(params.cols) + u32::from(params.rows))
    }

    #[test]
    fn floors_are_monotone_and_start_at_zero() {
        // Exactly 0 at the sink, so a sink's estimate equals its path cost.
        assert_eq!(cost_floor(0), 0.0);
        for d in preset_distances().filter(|&d| d > 0) {
            assert!(cost_floor(d) >= cost_floor(d - 1), "floor falls at {d}");
        }
    }

    #[test]
    fn floors_never_exceed_unit_distance_cost() {
        // Intermediate hops cost at least a wire (1.0) and the final pin
        // entry less, so the floor stays at or below the raw Manhattan
        // distance.
        for d in preset_distances() {
            let floor = cost_floor(d);
            assert!(floor <= d as f32, "floor {floor} exceeds distance {d}");
        }
    }

    /// Exact cheapest remaining cost from every node to `sink`: a backward
    /// Dijkstra over incoming PIPs in which entering a node costs its
    /// `base_cost` and no path enters an input pin other than the sink.
    /// `None` marks a node that cannot reach the sink.
    fn exact_costs_to(device: &Device, incoming: &[Vec<NodeId>], sink: NodeId) -> Vec<Option<f64>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cost: Vec<Option<f64>> = vec![None; device.node_count()];
        // Non-negative finite f64s order like their bit patterns.
        let mut queue = BinaryHeap::from([Reverse((0f64.to_bits(), sink.index()))]);
        cost[sink.index()] = Some(0.0);
        while let Some(Reverse((bits, index))) = queue.pop() {
            let reached = f64::from_bits(bits);
            if cost[index].is_some_and(|best| best < reached) {
                continue;
            }
            let node = NodeId::from_index(index);
            let through = reached + f64::from(base_cost(&device.node(node)));
            for &src in &incoming[index] {
                if device.node(src).is_in_pin() {
                    continue;
                }
                if cost[src.index()].is_none_or(|best| through < best) {
                    cost[src.index()] = Some(through);
                    queue.push(Reverse((through.to_bits(), src.index())));
                }
            }
        }
        cost
    }

    /// Checks `cost_floor(manhattan)` against the exact remaining cost for
    /// every node that reaches one of `samples` evenly spaced input pins,
    /// and returns the number of node–pin pairs checked.
    fn assert_floor_is_admissible(device: &Device, samples: usize) -> usize {
        let mut incoming: Vec<Vec<NodeId>> = vec![Vec::new(); device.node_count()];
        for index in 0..device.pip_count() {
            let pip = device.pip(tmr_arch::PipId::from_index(index));
            incoming[pip.dst.index()].push(pip.src);
        }
        let pins: Vec<NodeId> = (0..device.node_count())
            .map(NodeId::from_index)
            .filter(|&node| device.node(node).is_in_pin())
            .collect();
        let mut pairs = 0;
        for &sink in pins.iter().step_by(pins.len().div_ceil(samples)) {
            let sink_tile = device.node_tile(sink);
            for (index, exact) in exact_costs_to(device, &incoming, sink)
                .into_iter()
                .enumerate()
            {
                let Some(exact) = exact else { continue };
                let node = NodeId::from_index(index);
                let floor = cost_floor(device.node_tile(node).manhattan(sink_tile));
                // The tolerance absorbs the f32 rounding of the floors; every
                // cost step is at least 0.95.
                assert!(
                    f64::from(floor) <= exact + 1e-4,
                    "floor {floor} exceeds the exact cost {exact} from node {node} to pin {sink}"
                );
                pairs += 1;
            }
        }
        pairs
    }

    #[test]
    fn floors_never_exceed_the_exact_cost_to_a_pin() {
        let small = assert_floor_is_admissible(&Device::small(6, 6), 32);
        // The lean preset the fuzzer rotates in: starved channels and pin
        // candidates, so pins are reached over few, long detours.
        let mut lean = DeviceParams::small(6, 6);
        lean.tracks = 8;
        lean.out_pin_candidates = 4;
        lean.in_pin_candidates = 2;
        lean.sb_same_tile = 2;
        lean.sb_neighbor = 2;
        let lean = assert_floor_is_admissible(&Device::new(lean), 32);
        assert!(
            small > 0 && lean > 0,
            "the oracle checked {small} / {lean} pairs"
        );
    }
}
