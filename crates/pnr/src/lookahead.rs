//! Admissible distance lookahead for the A* router.
//!
//! The router's heuristic must never overestimate the remaining cost of
//! reaching a sink, or the directed search stops being best-first and the
//! negotiation outcome starts depending on expansion order. This module
//! precomputes, once per [`Device`] geometry, a table mapping *tile Manhattan
//! distance* to a provable lower bound on the cost of the cheapest node
//! sequence that can still lie ahead:
//!
//! * every PIP moves at most one tile (the switchbox connects cardinal
//!   neighbours only), so a node `d` tiles away needs at least `d` more
//!   distance-reducing hops;
//! * intermediate hops land on wires, each costing at least the cheapest
//!   wire base cost;
//! * the final hop enters the sink pin, costing at least the cheapest pin
//!   base cost — and if the input muxes accept wires from a neighbouring
//!   tile (the architecture's "long input" PIPs), that last hop already
//!   covers one tile of distance, saving one wire from the bound.
//!
//! The table depends only on [`DeviceParams`] (device construction is
//! deterministic), so it is cached process-wide and shared by every router
//! instance.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use tmr_arch::{Device, DeviceParams, RouteNode};

use crate::route::base_cost;

/// Per-device admissible cost floors indexed by tile Manhattan distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Lookahead {
    table: Vec<f32>,
}

impl Lookahead {
    /// Computes the lookahead table for `device` without consulting the
    /// process-wide cache (used by the cache itself and by tests).
    pub fn compute(device: &Device) -> Self {
        let mut min_wire = f32::INFINITY;
        let mut min_pin = f32::INFINITY;
        for index in 0..device.node_count() {
            let node = device.node(tmr_arch::NodeId::from_index(index));
            let cost = base_cost(&node);
            match node {
                RouteNode::Wire { .. } => min_wire = min_wire.min(cost),
                RouteNode::InPin { .. } => min_pin = min_pin.min(cost),
                RouteNode::OutPin { .. } => {}
            }
        }
        if !min_wire.is_finite() {
            min_wire = 0.0;
        }
        if !min_pin.is_finite() {
            min_pin = 0.0;
        }

        // How many tiles of distance can the final pin-entering hop cover?
        // Scan the input-mux PIPs: a source wire in a neighbouring tile means
        // the bound may drop one intermediate wire.
        let mut pin_entry_reach = 0u32;
        for index in 0..device.pip_count() {
            let pip = device.pip(tmr_arch::PipId::from_index(index));
            if device.node(pip.dst).is_in_pin() {
                let reach = device
                    .node_tile(pip.src)
                    .manhattan(device.node_tile(pip.dst));
                pin_entry_reach = pin_entry_reach.max(reach);
                if pin_entry_reach >= 1 {
                    break;
                }
            }
        }

        let params = device.params();
        let max_distance = usize::from(params.cols) + usize::from(params.rows);
        let mut table = Vec::with_capacity(max_distance + 1);
        table.push(0.0f32);
        for distance in 1..=max_distance {
            let intermediate = if pin_entry_reach >= 1 {
                distance - 1
            } else {
                distance
            };
            table.push(intermediate as f32 * min_wire + min_pin);
        }
        Self { table }
    }

    /// The process-wide cached table for `device`, keyed by its
    /// [`DeviceParams`]; computed on first use.
    pub fn for_device(device: &Device) -> Arc<Self> {
        static CACHE: OnceLock<Mutex<HashMap<DeviceParams, Arc<Lookahead>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut cache = cache.lock().expect("lookahead cache poisoned");
        Arc::clone(
            cache
                .entry(*device.params())
                .or_insert_with(|| Arc::new(Self::compute(device))),
        )
    }

    /// Lower bound on the remaining route cost from a node `distance` tiles
    /// away from the target sink. Saturates at the table end (distances can
    /// never exceed the grid perimeter).
    #[inline]
    pub fn cost_floor(&self, distance: u32) -> f32 {
        let index = (distance as usize).min(self.table.len() - 1);
        self.table[index]
    }

    /// Number of distance entries in the table.
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_arch::NodeId;

    #[test]
    fn floors_are_monotone_and_start_at_zero() {
        let device = Device::small(6, 6);
        let lookahead = Lookahead::compute(&device);
        assert_eq!(lookahead.cost_floor(0), 0.0);
        let mut previous = 0.0f32;
        for d in 0..lookahead.entries() as u32 {
            let floor = lookahead.cost_floor(d);
            assert!(floor >= previous);
            previous = floor;
        }
        // Distances past the table end saturate instead of panicking.
        assert_eq!(lookahead.cost_floor(u32::MAX), previous);
    }

    #[test]
    fn floors_never_exceed_unit_distance_cost() {
        // Intermediate hops cost at least the cheapest wire (1.0) and the
        // final pin entry is cheaper still, so the floor must stay at or
        // below `distance` — the old router's raw-Manhattan heuristic.
        let device = Device::small(8, 8);
        let lookahead = Lookahead::compute(&device);
        for d in 1..lookahead.entries() as u32 {
            assert!(lookahead.cost_floor(d) <= d as f32);
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
        let lookahead = Lookahead::compute(device);
        let mut pairs = 0;
        for &sink in pins.iter().step_by(pins.len().div_ceil(samples)) {
            let sink_tile = device.node_tile(sink);
            for (index, exact) in exact_costs_to(device, &incoming, sink)
                .into_iter()
                .enumerate()
            {
                let Some(exact) = exact else { continue };
                let node = NodeId::from_index(index);
                let floor = lookahead.cost_floor(device.node_tile(node).manhattan(sink_tile));
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

    #[test]
    fn cache_returns_shared_table() {
        let device = Device::small(5, 5);
        let a = Lookahead::for_device(&device);
        let b = Lookahead::for_device(&device);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, Lookahead::compute(&device));
    }
}
