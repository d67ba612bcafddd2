//! Admissible lookahead for the A* router.
//!
//! Two lower bounds on the cost of the node sequence that can still lie
//! between a node and the target sink pin.
//!
//! [`cost_floor`] knows only the tile Manhattan distance `d`:
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
//! long-input PIPs only has costlier paths. But it is 0 on every wire of the
//! sink's own tile, although only a handful of those wires, plus one wire in
//! each neighbouring tile, drive the pin.
//!
//! The sink-specific map lookahead ([`Lookahead`]) knows which wires those
//! are. Every wire's switchbox PIPs lead to the same relative
//! `(dx, dy, track offset)` targets, its *stencil*
//! ([`Device::switchbox_stencil`]): the device applies one switch-matrix
//! rule in every tile, and edge tiles only lose neighbours. A sink's
//! wire drivers, taken relative to the sink's tile and to the first driver's
//! track, form its *driver pattern*, and most sinks share one of a few
//! patterns. A breadth-first search backward from a pattern over the
//! stencil counts, for every wire near the sink, the switchbox hops it needs
//! to reach a driver: a lower bound on the real device, which offers each
//! wire a subset of the stencil. The floor is then
//!
//! * 0 at the sink,
//! * the pin base cost at a driver (a wire driver reads 0 hops, and an
//!   output pin that feeds the sink through the FF mux is priced by the
//!   router),
//! * the pin base cost plus one wire base cost per hop for a wire within
//!   [`REACH`] tiles of the sink in both axes,
//! * [`cost_floor`] everywhere else.
//!
//! The hop tables are built per route call, for the patterns its sinks use:
//! on the auto-sized 54 × 40 paper device a variant's sinks use at most six,
//! of 19 × 19 × 182 bytes each. A device without a tile that has four
//! neighbours, such as a 2 × 2 grid, has no full stencil and keeps
//! [`cost_floor`] everywhere.

use crate::route::{PIN_COST, WIRE_COST};
use std::collections::HashMap;
use tmr_arch::{Device, NodeId, RouteNode, TileCoord};

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

/// Switchbox hops a hop table searches; farther wires read `DEPTH + 1`.
const DEPTH: u8 = 8;

/// Wires at most this many tiles from the sink in both axes read their hop
/// table; the others read [`cost_floor`].
const REACH: i32 = 4;

/// A wire relative to a sink or to another wire: `(dx, dy, track offset)`,
/// the offset taken modulo the track count.
type Offset = (i8, i8, u16);

/// The switchbox hops from every wire around a sink to the nearest of its
/// driver wires, one byte per `(dx, dy, relative track)` of a square window.
struct HopTable {
    /// Half-width of the window: the farthest driver's tile offset plus
    /// [`DEPTH`], which a search of that depth cannot leave.
    radius: i32,
    tracks: usize,
    hops: Box<[u8]>,
}

impl HopTable {
    /// Position of `(dx, dy, track)` in `hops`; both offsets must lie in the
    /// window.
    #[inline]
    fn slot(&self, dx: i32, dy: i32, track: usize) -> usize {
        let side = (2 * self.radius + 1) as usize;
        ((dx + self.radius) as usize * side + (dy + self.radius) as usize) * self.tracks + track
    }
}

/// The map lookahead of one route call: the device's switchbox stencil and
/// one hop table per driver pattern of the call's sinks.
pub(crate) struct Lookahead {
    tracks: u16,
    /// Every switchbox PIP's target relative to its source wire; empty on a
    /// device without a four-neighbour tile.
    stencil: Vec<Offset>,
    patterns: HashMap<Vec<Offset>, u32>,
    tables: Vec<HopTable>,
}

/// What the router needs to price nodes against one sink: the sink's tile,
/// its pattern's hop table and the track its pattern is relative to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    tile: TileCoord,
    /// Index into the lookahead's tables; `None` without a stencil or a
    /// wire driver.
    table: Option<u32>,
    reference: u16,
}

impl Lookahead {
    /// The lookahead of `device`, with the device's stencil and no hop table
    /// yet.
    pub(crate) fn new(device: &Device) -> Self {
        let mut stencil = device.switchbox_stencil();
        stencil.sort_unstable();
        stencil.dedup();
        Self {
            tracks: device.params().tracks,
            stencil,
            patterns: HashMap::new(),
            tables: Vec::new(),
        }
    }

    /// The target for the input pin `sink`, building its driver pattern's
    /// hop table on first use.
    pub(crate) fn target(&mut self, device: &Device, sink: NodeId) -> Target {
        let tile = device.node_tile(sink);
        let drivers = device.pin_drivers(sink);
        let first_track = drivers
            .iter()
            .find_map(|&driver| match device.node(driver) {
                RouteNode::Wire { track, .. } => Some(track),
                _ => None,
            });
        let Some(reference) = first_track.filter(|_| !self.stencil.is_empty()) else {
            return Target {
                tile,
                table: None,
                reference: 0,
            };
        };
        let mut pattern: Vec<Offset> = drivers
            .iter()
            .filter_map(|&driver| relative(device, driver, tile, reference, self.tracks))
            .collect();
        pattern.sort_unstable();
        let table = match self.patterns.get(&pattern) {
            Some(&table) => table,
            None => {
                let table = self.tables.len() as u32;
                self.tables.push(self.hop_table(&pattern));
                self.patterns.insert(pattern, table);
                table
            }
        };
        Target {
            tile,
            table: Some(table),
            reference,
        }
    }

    /// The floor function of one target.
    pub(crate) fn floor(&self, target: Target) -> SinkFloor<'_> {
        SinkFloor {
            x: target.tile.x,
            y: target.tile.y,
            table: target.table.map(|table| &self.tables[table as usize]),
            reference: target.reference,
            tracks: self.tracks,
        }
    }

    /// Breadth-first search backward from `pattern` over the stencil, to
    /// [`DEPTH`] hops.
    fn hop_table(&self, pattern: &[Offset]) -> HopTable {
        let tracks = usize::from(self.tracks);
        let reach = pattern
            .iter()
            .map(|&(dx, dy, _)| i32::from(dx.unsigned_abs().max(dy.unsigned_abs())))
            .max()
            .unwrap_or(0);
        let radius = reach + i32::from(DEPTH);
        let side = (2 * radius + 1) as usize;
        let mut table = HopTable {
            radius,
            tracks,
            hops: vec![DEPTH + 1; side * side * tracks].into_boxed_slice(),
        };
        let mut frontier: Vec<(i32, i32, usize)> = Vec::new();
        for &(dx, dy, track) in pattern {
            let entry = (i32::from(dx), i32::from(dy), usize::from(track));
            table.hops[table.slot(entry.0, entry.1, entry.2)] = 0;
            frontier.push(entry);
        }
        let mut next = Vec::new();
        for depth in 1..=DEPTH {
            for &(dx, dy, track) in &frontier {
                // A wire reaches `(dx, dy, track)` in one hop if it sits one
                // stencil step before it.
                for &(sx, sy, offset) in &self.stencil {
                    let (px, py) = (dx - i32::from(sx), dy - i32::from(sy));
                    if px.abs() > radius || py.abs() > radius {
                        continue;
                    }
                    let pt = (track + tracks - usize::from(offset)) % tracks;
                    let slot = table.slot(px, py, pt);
                    if table.hops[slot] == DEPTH + 1 {
                        table.hops[slot] = depth;
                        next.push((px, py, pt));
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        table
    }
}

/// `wire` relative to the wire `track` of `tile`, if it is a wire: a sink's
/// driver relative to the sink's tile and a reference track.
fn relative(
    device: &Device,
    wire: NodeId,
    tile: TileCoord,
    track: u16,
    tracks: u16,
) -> Option<Offset> {
    match device.node(wire) {
        RouteNode::Wire {
            tile: to,
            track: to_track,
        } => Some((
            (i32::from(to.x) - i32::from(tile.x)) as i8,
            (i32::from(to.y) - i32::from(tile.y)) as i8,
            track_offset(track, to_track, tracks),
        )),
        _ => None,
    }
}

/// How many tracks `to` lies past `from`, modulo `tracks`; both are tracks,
/// so below `tracks`.
#[inline]
fn track_offset(from: u16, to: u16, tracks: u16) -> u16 {
    let past = u32::from(to) + u32::from(tracks) - u32::from(from);
    past.checked_sub(u32::from(tracks)).unwrap_or(past) as u16
}

/// The lower bound on the remaining cost to one sink, from any wire.
pub(crate) struct SinkFloor<'a> {
    x: u16,
    y: u16,
    table: Option<&'a HopTable>,
    reference: u16,
    tracks: u16,
}

impl SinkFloor<'_> {
    /// Tile Manhattan distance from `(x, y)` to the sink.
    #[inline]
    pub(crate) fn distance(&self, x: u16, y: u16) -> u32 {
        u32::from(x.abs_diff(self.x)) + u32::from(y.abs_diff(self.y))
    }

    /// Lower bound on the remaining cost from the wire `track` of tile
    /// `(x, y)`.
    #[inline]
    pub(crate) fn wire(&self, x: u16, y: u16, track: u16) -> f32 {
        let dx = i32::from(x) - i32::from(self.x);
        let dy = i32::from(y) - i32::from(self.y);
        if let Some(table) = self.table {
            if dx.abs() <= REACH && dy.abs() <= REACH {
                let relative = usize::from(track_offset(self.reference, track, self.tracks));
                let hops = table.hops[table.slot(dx, dy, relative)];
                return PIN_COST + f32::from(hops) * WIRE_COST;
            }
        }
        cost_floor(dx.unsigned_abs() + dy.unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::base_cost;
    use tmr_arch::{DeviceParams, PipId};

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

    /// The lean preset the fuzzer rotates in: starved channels and pin
    /// candidates, so pins are reached over few, long detours.
    fn lean() -> DeviceParams {
        DeviceParams {
            tracks: 8,
            out_pin_candidates: 4,
            in_pin_candidates: 2,
            sb_same_tile: 2,
            sb_neighbor: 2,
            ..DeviceParams::small(6, 6)
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

    /// The sink-specific floor from `node` to `sink`, priced as the router
    /// prices it: 0 at the sink, the pin cost at an output pin that drives
    /// the sink, the hop floor on wires and the distance floor elsewhere.
    fn sink_floor(device: &Device, floor: &SinkFloor<'_>, node: NodeId, sink: NodeId) -> f32 {
        let tile = device.node_tile(node);
        match device.node(node) {
            _ if node == sink => 0.0,
            RouteNode::Wire { track, .. } => floor.wire(tile.x, tile.y, track),
            _ if device.pin_drivers(sink).contains(&node) => PIN_COST,
            _ => cost_floor(floor.distance(tile.x, tile.y)),
        }
    }

    /// Checks `cost_floor` and the sink-specific floor against the exact
    /// remaining cost for every node that reaches one of `samples` evenly
    /// spaced input pins. Returns the number of node–pin pairs checked and
    /// how many of them the sink-specific floor prices exactly.
    fn assert_floors_are_admissible(device: &Device, samples: usize) -> (usize, usize) {
        let mut incoming: Vec<Vec<NodeId>> = vec![Vec::new(); device.node_count()];
        for index in 0..device.pip_count() {
            let (src, dst) = device.pip_endpoints(PipId::from_index(index));
            incoming[dst.index()].push(src);
        }
        let pins: Vec<NodeId> = (0..device.node_count())
            .map(NodeId::from_index)
            .filter(|&node| device.node(node).is_in_pin())
            .collect();
        let mut lookahead = Lookahead::new(device);
        let (mut pairs, mut exact_pairs) = (0, 0);
        for &sink in pins.iter().step_by(pins.len().div_ceil(samples)) {
            let sink_tile = device.node_tile(sink);
            let target = lookahead.target(device, sink);
            let floor = lookahead.floor(target);
            for (index, exact) in exact_costs_to(device, &incoming, sink)
                .into_iter()
                .enumerate()
            {
                let Some(exact) = exact else { continue };
                let node = NodeId::from_index(index);
                // The tolerance absorbs the f32 rounding of the floors; every
                // cost step is at least 0.95.
                let distance = cost_floor(device.node_tile(node).manhattan(sink_tile));
                assert!(
                    f64::from(distance) <= exact + 1e-4,
                    "distance floor {distance} exceeds the exact cost {exact} from node {node} to pin {sink}"
                );
                let specific = f64::from(sink_floor(device, &floor, node, sink));
                assert!(
                    specific <= exact + 1e-4,
                    "sink floor {specific} exceeds the exact cost {exact} from node {node} to pin {sink}"
                );
                pairs += 1;
                exact_pairs += usize::from(specific + 1e-4 >= exact);
            }
        }
        (pairs, exact_pairs)
    }

    #[test]
    fn floors_never_exceed_the_exact_cost_to_a_pin() {
        for (name, params, samples) in [
            ("small(6, 6)", DeviceParams::small(6, 6), 32),
            ("lean", lean(), 32),
            ("xc2s200e_like", DeviceParams::xc2s200e_like(), 6),
        ] {
            let (pairs, exact) = assert_floors_are_admissible(&Device::new(params), samples);
            println!(
                "{name}: {pairs} node-pin pairs, {exact} ({:.0} %) priced exactly by the sink floor",
                100.0 * exact as f64 / pairs.max(1) as f64
            );
            assert!(pairs > 0, "{name}: the oracle checked no pair");
        }
    }

    /// Every tile of an 8 × 2 grid lies on its perimeter, so there is no
    /// stencil and no hop table: wires read the distance floor, and nets
    /// still route.
    #[test]
    fn a_device_without_a_four_neighbour_tile_routes_on_the_distance_floor() {
        use crate::{place, route_with_telemetry, PlacerOptions, RouterOptions};
        use tmr_synth::{lower, optimize, techmap};
        let device = Device::small(8, 2);
        let mut lookahead = Lookahead::new(&device);
        assert!(lookahead.stencil.is_empty());
        for (site, _) in device.sites() {
            for &pin in device.in_pins(site) {
                let target = lookahead.target(&device, pin);
                let floor = lookahead.floor(target);
                for &driver in device.pin_drivers(pin) {
                    if let RouteNode::Wire { tile, track } = device.node(driver) {
                        let distance = floor.distance(tile.x, tile.y);
                        assert_eq!(floor.wire(tile.x, tile.y, track), cost_floor(distance));
                    }
                }
            }
        }
        assert!(lookahead.tables.is_empty());
        let netlist = techmap(&optimize(&lower(&tmr_designs::counter(4)).unwrap())).unwrap();
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let (routes, telemetry) =
            route_with_telemetry(&device, &netlist, &placement, &RouterOptions::default());
        assert!(routes.is_ok_and(|routes| !routes.is_empty()));
        assert!(telemetry.converged());
    }

    /// Sinks share driver patterns, so a route call builds a handful of hop
    /// tables: every input pin of an interior tile shares one.
    #[test]
    fn interior_pins_share_one_driver_pattern() {
        let device = Device::small(24, 24);
        let mut lookahead = Lookahead::new(&device);
        let interior = TileCoord::new(10, 10);
        for (site, _) in device.sites().filter(|(_, s)| s.tile == interior) {
            for &pin in device.in_pins(site) {
                let target = lookahead.target(&device, pin);
                let floor = lookahead.floor(target);
                // A wire driver is one pin entry from the sink.
                for &driver in device.pin_drivers(pin) {
                    if let RouteNode::Wire { tile, track } = device.node(driver) {
                        assert_eq!(floor.wire(tile.x, tile.y, track), PIN_COST);
                    }
                }
            }
        }
        assert_eq!(lookahead.tables.len(), 1, "interior pins share one pattern");
    }
}
