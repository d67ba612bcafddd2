//! Negotiated-congestion A* maze routing (PathFinder style).
//!
//! The router combines four mechanisms:
//!
//! * **Directed search.** Every sink is found with A* over the device's
//!   routing graph, at heuristic weight `ASTAR_WEIGHT` (2.25) over an
//!   admissible floor: near the sink, the switchbox hops from each wire to
//!   the pin's own drivers (`lookahead::Lookahead`, built per call for the
//!   driver patterns of its sinks), elsewhere the distance floor
//!   `lookahead::cost_floor`. Expansions walk the device's fanout
//!   ([`Device::fanout`]): each node's stored pin PIPs, then a wire's
//!   switchbox PIPs, computed from the switch-matrix rule. The open list is
//!   a 4-ary heap over packed keys that the partial tree seeds with one
//!   heapify. All search state lives in generation-stamped scratch arrays
//!   indexed by node id, so routing a net allocates nothing.
//! * **Net-by-net negotiation.** Each PathFinder iteration walks the nets
//!   in order. A net whose tree is missing or touches an overused node is
//!   ripped up, rerouted against the live occupancy and committed before the
//!   walk moves on, so every later check and reroute sees it.
//! * **Partial rip-up.** A congested net keeps the subtree serving the sinks
//!   whose paths avoid every overused node and re-searches only the rest.
//! * **Congestion pricing.** Node costs follow the PathFinder schedule: a
//!   present-congestion factor plus an accumulated history cost on every
//!   overused node. The factor reacts to the router's own overuse counts:
//!   after the first iteration it grows ×1.2, after each later one ×2 as
//!   long as overuse has fallen in every iteration since the first. That
//!   halves the iterations on the large paper device, where congestion is
//!   sparse. The first iteration whose overuse does not fall switches the
//!   run to ×1.2 growth for good, the gentle schedule that tight devices
//!   need to converge; a run whose overuse does not fall in iteration 2
//!   never leaves it.

use crate::lookahead::{cost_floor, Lookahead, Target};
use crate::queue::OpenList;
use crate::routed::RouteTree;
use crate::{Placement, PnrError};
use std::collections::HashMap;
use std::time::Instant;
use tmr_arch::{Device, NodeId, PipId, RouteNode};
use tmr_netlist::{NetDriver, NetId, NetSink, Netlist};

/// The place-and-route semantics epoch: bump it in any change that can move
/// a route, a placer change included, so every route-dependent cache key
/// changes with it.
///
/// Stores outlive builds. A store filled by an older placer or router would
/// otherwise serve its placements, routes, bitstreams and campaign results
/// to a newer one. The flow layer mixes this constant into the key of every
/// stage downstream of synthesis (place, route, analyze and campaign
/// results), so bumping it invalidates exactly those entries; synthesis
/// entries survive.
///
/// History: `1` is the overuse-reactive present-factor ramp; `2` is
/// range-limited placement; `3` routes every net at one heuristic weight,
/// unconfined, in one in-order walk; `4` prices the wires near each sink by
/// their switchbox hops to the sink's own drivers.
pub const ROUTE_EPOCH: u64 = 4;

/// A* heuristic weight (1.0 = admissible, larger = faster but greedier).
const ASTAR_WEIGHT: f32 = 2.25;

/// Congestion-free cost of occupying a wire.
pub(crate) const WIRE_COST: f32 = 1.0;

/// Congestion-free cost of occupying a cell pin.
pub(crate) const PIN_COST: f32 = 0.95;

/// Router options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// Maximum negotiation iterations before giving up.
    pub max_iterations: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            max_iterations: 250,
        }
    }
}

/// The terminals of one routable net, with its pre-sorted sinks.
struct NetTerminals {
    net: NetId,
    source: NodeId,
    /// Sinks sorted by Manhattan distance from the source tile, so the
    /// closest sinks are routed first and later sinks reuse the growing tree.
    sinks: Vec<Sink>,
}

/// One input pin a net must reach.
struct Sink {
    node: NodeId,
    cell: tmr_netlist::CellId,
    pin: usize,
    /// The sink's lookahead target.
    target: Target,
    /// Whether the net's source output pin drives the sink directly (an FF
    /// mux PIP), so the source is one pin entry away from it.
    fed_by_source: bool,
}

/// One negotiation iteration's congestion signals.
///
/// These are the numbers the router's present-factor schedule reads, and
/// the ones that expose a diverging run. A healthy run shows
/// `overused_nodes` trending to zero. While it falls in every iteration,
/// `present_factor` doubles from iteration to iteration (capped at 32);
/// after the first iteration that does not reduce overuse it grows ×1.2.
/// An oscillating run shows overuse flat or growing as the factor
/// explodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteIteration {
    /// 1-based negotiation iteration number.
    pub iteration: usize,
    /// Nets ripped up (previous tree discarded) this iteration.
    pub ripped_up: usize,
    /// Nets routed (first-time or re-routed) this iteration.
    pub rerouted: usize,
    /// Nodes with more than one occupant after this iteration.
    pub overused_nodes: usize,
    /// Present-congestion penalty factor used during this iteration.
    pub present_factor: f64,
    /// A* queue pops across every net routed this iteration. Deterministic:
    /// a function of the design, device and options alone.
    pub nodes_expanded: u64,
    /// Wall-clock time of this iteration in nanoseconds.
    pub elapsed_ns: u64,
}

/// Per-iteration telemetry of one [`route_with_telemetry`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteTelemetry {
    /// One entry per negotiation iteration, in order.
    pub iterations: Vec<RouteIteration>,
}

impl RouteTelemetry {
    /// Number of negotiation iterations performed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Whether the run ended with zero overused nodes.
    pub fn converged(&self) -> bool {
        self.iterations
            .last()
            .is_some_and(|last| last.overused_nodes == 0)
    }

    /// Total A* queue pops across all iterations.
    pub fn total_nodes_expanded(&self) -> u64 {
        self.iterations.iter().map(|it| it.nodes_expanded).sum()
    }

    /// Total wall-clock routing time across all iterations.
    pub fn total_elapsed(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.iterations.iter().map(|it| it.elapsed_ns).sum())
    }
}

/// Routes every cell-to-cell net of a placed netlist.
///
/// # Errors
///
/// Returns [`PnrError::NoPath`] if a sink is unreachable from its source and
/// [`PnrError::Unroutable`] if congestion cannot be resolved within the
/// iteration budget.
pub fn route(
    device: &Device,
    netlist: &Netlist,
    placement: &Placement,
    options: &RouterOptions,
) -> Result<HashMap<NetId, RouteTree>, PnrError> {
    route_with_telemetry(device, netlist, placement, options).0
}

/// [`route`], additionally returning the per-iteration negotiation
/// telemetry — which is populated (and emitted as `route.iteration` trace
/// events when tracing is enabled) even when routing fails, so a diverging
/// run leaves its congestion history behind for inspection.
pub fn route_with_telemetry(
    device: &Device,
    netlist: &Netlist,
    placement: &Placement,
    options: &RouterOptions,
) -> (Result<HashMap<NetId, RouteTree>, PnrError>, RouteTelemetry) {
    let mut telemetry = RouteTelemetry::default();
    let result = route_inner(device, netlist, placement, options, &mut telemetry);
    (result, telemetry)
}

/// Read-only per-call routing context.
struct RouteContext<'a> {
    device: &'a Device,
    netlist: &'a Netlist,
    lookahead: Lookahead,
}

/// Everything the expansion loop needs to price and locate one node, packed
/// into a single 12-byte record so each neighbour touch costs one cache line
/// instead of five (`cost_static`, `occupancy`, `track`, `tile_x`, `tile_y`
/// used to live in separate arrays). `cost_static` starts at the base cost
/// and gains each overused node's history cost once per iteration;
/// `occupancy` changes at every rip-up and commit.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Congestion-free cost of the node this iteration: base + history.
    cost_static: f32,
    /// Current committed occupant count.
    occupancy: u16,
    /// A wire's track, [`IN_PIN`] for a cell input pin (enterable only as the
    /// target sink) or [`OUT_PIN`] for a cell output pin.
    track: u16,
    tile_x: u16,
    tile_y: u16,
}

/// [`NodeState::track`] of a cell input pin.
const IN_PIN: u16 = u16::MAX;

/// [`NodeState::track`] of a cell output pin.
const OUT_PIN: u16 = u16::MAX - 1;

/// Per-node A* search record (cost, visit stamp, arriving PIP), packed for
/// the same reason as [`NodeState`].
#[derive(Debug, Clone, Copy)]
struct SearchRec {
    best_cost: f32,
    generation: u32,
    prev_pip: u32,
}

/// Reusable search state, all indexed by node id and invalidated in O(1)
/// with generation stamps.
struct RouterScratch {
    search: Vec<SearchRec>,
    /// Tree-membership stamps: `in_tree[i] == tree_generation` iff node `i`
    /// is part of the net currently being routed.
    in_tree: Vec<u32>,
    queue: OpenList,
    current_generation: u32,
    tree_generation: u32,
    nodes_expanded: u64,
}

impl RouterScratch {
    fn new(node_count: usize) -> Self {
        Self {
            search: vec![
                SearchRec {
                    best_cost: f32::INFINITY,
                    generation: 0,
                    prev_pip: u32::MAX,
                };
                node_count
            ],
            in_tree: vec![0; node_count],
            queue: OpenList::default(),
            current_generation: 0,
            tree_generation: 0,
            nodes_expanded: 0,
        }
    }
}

fn route_inner(
    device: &Device,
    netlist: &Netlist,
    placement: &Placement,
    options: &RouterOptions,
    telemetry: &mut RouteTelemetry,
) -> Result<HashMap<NetId, RouteTree>, PnrError> {
    // The PathFinder schedule. The present-congestion factor starts at
    // `PRESENT_FACTOR` and never decreases. After iteration 1 it grows by
    // `PRESENT_FACTOR_GROWTH`. After each later iteration it grows by
    // `PRESENT_FACTOR_FAST_GROWTH` as long as overuse has fallen in every
    // iteration since the first: sparse congestion, as on the paper device,
    // then resolves in about half the iterations. The first iteration whose
    // overuse does not fall puts the run back on the gentle growth for
    // good, because tight devices need it: with a fast-growing factor (a
    // flat 1.8 per iteration, say) the penalty explodes after a few dozen
    // iterations, the router degenerates into pure avoidance of any
    // occupied node and negotiation oscillates instead of converging —
    // overuse *increases* with more iterations. A run whose overuse does
    // not fall in iteration 2 never sees the fast growth. Past
    // `PRESENT_FACTOR_MAX` the accumulated history cost (`HISTORY_INCREMENT`
    // per extra occupant of an overused node, every iteration) does the
    // arbitration; an uncapped factor makes every must-displace search
    // explore a cost ball as wide as the penalty.
    const PRESENT_FACTOR: f64 = 0.6;
    const PRESENT_FACTOR_GROWTH: f64 = 1.2;
    const PRESENT_FACTOR_FAST_GROWTH: f64 = 2.0;
    const PRESENT_FACTOR_MAX: f64 = 32.0;
    const HISTORY_INCREMENT: f64 = 1.5;
    let node_count = device.node_count();
    assert!(
        device.params().tracks < OUT_PIN,
        "track ids fit below the pin sentinels"
    );
    let mut states = Vec::with_capacity(node_count);
    for index in 0..node_count {
        let id = NodeId::from_index(index);
        let tile = device.node_tile(id);
        let node = device.node(id);
        states.push(NodeState {
            cost_static: base_cost(&node),
            occupancy: 0,
            track: match node {
                RouteNode::Wire { track, .. } => track,
                RouteNode::InPin { .. } => IN_PIN,
                RouteNode::OutPin { .. } => OUT_PIN,
            },
            tile_x: tile.x,
            tile_y: tile.y,
        });
    }
    let mut lookahead = Lookahead::new(device);
    let nets = collect_terminals(device, netlist, placement, &mut lookahead);
    let ctx = RouteContext {
        device,
        netlist,
        lookahead,
    };

    let mut scratch = RouterScratch::new(node_count);
    let mut trees: Vec<Option<RouteTree>> = (0..nets.len()).map(|_| None).collect();
    let mut present_factor = PRESENT_FACTOR;
    let mut overused = 0;
    // Whether overuse has fallen in every iteration since the first.
    let mut falling = true;

    for iteration in 1..=options.max_iterations {
        let iter_start = Instant::now();
        let present_f32 = present_factor as f32;
        let mut rerouted = 0usize;
        let mut ripped_up = 0usize;
        for (terminals, tree) in nets.iter().zip(&mut trees) {
            if needs_reroute(tree.as_ref(), &states) {
                reroute(
                    &ctx,
                    terminals,
                    tree,
                    &mut states,
                    present_f32,
                    &mut scratch,
                    &mut ripped_up,
                )?;
                rerouted += 1;
            }
        }

        // Count the overused nodes and charge each its history cost.
        let previous = overused;
        overused = 0;
        for state in &mut states {
            if state.occupancy > 1 {
                overused += 1;
                state.cost_static += (HISTORY_INCREMENT * f64::from(state.occupancy - 1)) as f32;
            }
        }
        let nodes_expanded = std::mem::take(&mut scratch.nodes_expanded);
        telemetry.iterations.push(RouteIteration {
            iteration,
            ripped_up,
            rerouted,
            overused_nodes: overused,
            present_factor,
            nodes_expanded,
            elapsed_ns: iter_start.elapsed().as_nanos() as u64,
        });
        if tmr_trace::enabled() {
            tmr_trace::event("route.iteration")
                .attr("iteration", iteration)
                .attr("overused", overused)
                .attr("ripped_up", ripped_up)
                .attr("rerouted", rerouted)
                .attr("present_factor", present_factor)
                .attr("nodes_expanded", nodes_expanded);
        }
        if overused == 0 {
            return Ok(nets
                .iter()
                .zip(trees)
                .map(|(terminals, tree)| {
                    (
                        terminals.net,
                        tree.expect("every net routed at convergence"),
                    )
                })
                .collect());
        }
        if iteration == options.max_iterations {
            break;
        }
        falling &= iteration == 1 || overused < previous;
        let growth = if iteration > 1 && falling {
            PRESENT_FACTOR_FAST_GROWTH
        } else {
            PRESENT_FACTOR_GROWTH
        };
        present_factor = (present_factor * growth).min(PRESENT_FACTOR_MAX);
    }
    // The budget is spent (a zero budget routes nothing).
    Err(PnrError::Unroutable {
        overused_nodes: overused,
        iterations: options.max_iterations,
    })
}

/// Whether a net must be (re)routed: it has no tree yet, or its tree
/// touches an overused node.
fn needs_reroute(tree: Option<&RouteTree>, states: &[NodeState]) -> bool {
    tree.is_none_or(|tree| tree.nodes.iter().any(|n| states[n.index()].occupancy > 1))
}

/// Rips up one net's tree, routes it again against the live occupancy and
/// commits the new tree. The rip-up is partial: the subtree serving sinks
/// whose paths avoid every overused node seeds the search, so a high-fanout
/// net with one congested branch re-searches one branch, not all of them.
/// Occupancy is still released for the whole old tree and re-acquired at
/// commit; the kept subtree is a search seed, not a committed claim.
fn reroute(
    ctx: &RouteContext<'_>,
    terminals: &NetTerminals,
    tree: &mut Option<RouteTree>,
    states: &mut [NodeState],
    present_factor: f32,
    scratch: &mut RouterScratch,
    ripped_up: &mut usize,
) -> Result<(), PnrError> {
    let start = match tree.take() {
        Some(old) => {
            *ripped_up += 1;
            let start = prune_tree(ctx.device, &old, states);
            for node in &old.nodes {
                states[node.index()].occupancy -= 1;
            }
            start
        }
        None => RouteTree {
            source: terminals.source,
            nodes: vec![terminals.source],
            pips: Vec::new(),
            sinks: Vec::new(),
        },
    };
    let new_tree = route_net(ctx, terminals, start, states, present_factor, scratch)?;
    for node in &new_tree.nodes {
        states[node.index()].occupancy += 1;
    }
    *tree = Some(new_tree);
    Ok(())
}

/// Splits a committed tree into the subtree serving sinks whose paths avoid
/// every overused node. The pruned tree (sinks cleared — [`route_net`]
/// re-collects them) becomes the search seed for the net's reroute, so only
/// the congested branches are searched again.
fn prune_tree(device: &Device, old: &RouteTree, states: &[NodeState]) -> RouteTree {
    // Each non-source tree node is entered by exactly one tree PIP; index
    // them by destination for the backwalks below.
    let mut parent: Vec<(u32, PipId)> = old
        .pips
        .iter()
        .map(|&pip| (device.pip_endpoints(pip).1.index() as u32, pip))
        .collect();
    parent.sort_unstable_by_key(|&(dst, _)| dst);

    let mut keep_nodes: Vec<u32> = vec![old.source.index() as u32];
    let mut keep_pips: Vec<u32> = Vec::new();
    let mut path_nodes: Vec<u32> = Vec::new();
    let mut path_pips: Vec<u32> = Vec::new();
    for &(sink, _, _) in &old.sinks {
        path_nodes.clear();
        path_pips.clear();
        let mut node = sink;
        let clean = loop {
            if states[node.index()].occupancy > 1 {
                break false;
            }
            path_nodes.push(node.index() as u32);
            let entry = parent
                .binary_search_by_key(&(node.index() as u32), |&(dst, _)| dst)
                .ok()
                .map(|found| parent[found].1);
            match entry {
                Some(pip) => {
                    path_pips.push(pip.index() as u32);
                    node = device.pip_endpoints(pip).0;
                }
                None => break true,
            }
        };
        if clean {
            keep_nodes.extend_from_slice(&path_nodes);
            keep_pips.extend_from_slice(&path_pips);
        }
    }
    keep_nodes.sort_unstable();
    keep_nodes.dedup();
    keep_pips.sort_unstable();
    keep_pips.dedup();

    RouteTree {
        source: old.source,
        nodes: old
            .nodes
            .iter()
            .copied()
            .filter(|n| keep_nodes.binary_search(&(n.index() as u32)).is_ok())
            .collect(),
        pips: old
            .pips
            .iter()
            .copied()
            .filter(|p| keep_pips.binary_search(&(p.index() as u32)).is_ok())
            .collect(),
        sinks: Vec::new(),
    }
}

/// Gathers source and sink routing nodes for every net that must be routed:
/// nets driven by a placed cell and read by at least one placed cell.
fn collect_terminals(
    device: &Device,
    netlist: &Netlist,
    placement: &Placement,
    lookahead: &mut Lookahead,
) -> Vec<NetTerminals> {
    let mut nets = Vec::new();
    for (net_id, net) in netlist.nets() {
        let driver = match net.driver {
            Some(NetDriver::Cell(c)) => c,
            _ => continue,
        };
        let source = device.out_pin(placement.site(driver));
        let mut sinks: Vec<Sink> = net
            .sinks
            .iter()
            .filter_map(|sink| match sink {
                NetSink::CellPin { cell, pin } => {
                    let node = device.in_pins(placement.site(*cell))[*pin];
                    Some(Sink {
                        node,
                        cell: *cell,
                        pin: *pin,
                        target: lookahead.target(device, node),
                        fed_by_source: device.pin_drivers(node).contains(&source),
                    })
                }
                NetSink::Output(_) => None,
            })
            .collect();
        if sinks.is_empty() {
            continue;
        }
        let source_tile = device.node_tile(source);
        // Route the closest sinks first so later sinks reuse the growing
        // tree (stable sort: equal distances keep netlist pin order).
        sinks.sort_by_key(|sink| device.node_tile(sink.node).manhattan(source_tile));
        nets.push(NetTerminals {
            net: net_id,
            source,
            sinks,
        });
    }
    // Route high-fanout nets first: they are the hardest to place well.
    nets.sort_by_key(|t| std::cmp::Reverse(t.sinks.len()));
    nets
}

/// Congestion-free base cost of occupying `node`.
pub(crate) fn base_cost(node: &RouteNode) -> f32 {
    match node {
        RouteNode::Wire { .. } => WIRE_COST,
        RouteNode::InPin { .. } | RouteNode::OutPin { .. } => PIN_COST,
    }
}

fn route_net(
    ctx: &RouteContext<'_>,
    terminals: &NetTerminals,
    start: RouteTree,
    states: &[NodeState],
    present_factor: f32,
    scratch: &mut RouterScratch,
) -> Result<RouteTree, PnrError> {
    let device = ctx.device;
    // `start` is either a fresh source-only tree or the clean subtree a
    // partial rip-up preserved; either way its sinks are re-collected below.
    let mut tree = start;
    scratch.tree_generation += 1;
    let tree_generation = scratch.tree_generation;
    for node in &tree.nodes {
        scratch.in_tree[node.index()] = tree_generation;
    }

    for sink in &terminals.sinks {
        let (sink_node, sink_cell, sink_pin) = (sink.node, sink.cell, sink.pin);
        if scratch.in_tree[sink_node.index()] == tree_generation {
            tree.sinks.push((sink_node, sink_cell, sink_pin));
            continue;
        }
        let floor = ctx.lookahead.floor(sink.target);

        scratch.current_generation += 1;
        let generation_id = scratch.current_generation;
        // Seed the search with every tree node: distinct nodes, so distinct
        // keys, and one heapify pops them in the same order as pushing them
        // one by one. Besides wires the tree holds the source output pin,
        // one pin entry from the sink if it feeds it directly, and sinks
        // already reached, which drive nothing.
        scratch.queue.clear();
        for &node in &tree.nodes {
            let index = node.index();
            let state = states[index];
            scratch.search[index] = SearchRec {
                best_cost: 0.0,
                generation: generation_id,
                prev_pip: u32::MAX,
            };
            let remaining = match state.track {
                OUT_PIN if sink.fed_by_source => PIN_COST,
                IN_PIN | OUT_PIN => cost_floor(floor.distance(state.tile_x, state.tile_y)),
                track => floor.wire(state.tile_x, state.tile_y, track),
            };
            scratch
                .queue
                .push_unordered(remaining * ASTAR_WEIGHT, 0.0, node);
        }
        scratch.queue.heapify();

        let sink_index = sink_node.index();
        // Incumbent bound: once the sink has been relaxed to cost `b`, its
        // queue entry has estimate `b` (the heuristic is zero there), so any
        // entry with a larger estimate would pop only after the sink ends the
        // search. Skipping those pushes is therefore result-preserving — it
        // only spares the heap traffic.
        let mut sink_bound = f32::INFINITY;
        let mut reached = false;
        while let Some((node, cost)) = scratch.queue.pop() {
            scratch.nodes_expanded += 1;
            let rec = scratch.search[node.index()];
            if rec.generation == generation_id && cost > rec.best_cost + f32::EPSILON {
                continue;
            }
            if node == sink_node {
                reached = true;
                break;
            }
            // `for_each` walks the stored pin PIPs and the switchbox steps in
            // two plain loops.
            device.fanout(node).for_each(|edge| {
                let index = edge.dst.index();
                let state = states[index];
                // Never route through another cell's input pin; only the
                // target sink pin is enterable. No PIP enters an output pin,
                // so every other node is a wire.
                if state.track == IN_PIN && index != sink_index {
                    return;
                }
                let step = state.cost_static * (1.0 + present_factor * f32::from(state.occupancy));
                let next_cost = cost + step;
                let rec = &mut scratch.search[index];
                if rec.generation != generation_id || next_cost + f32::EPSILON < rec.best_cost {
                    let estimate = if index == sink_index {
                        next_cost
                    } else {
                        next_cost
                            + floor.wire(state.tile_x, state.tile_y, state.track) * ASTAR_WEIGHT
                    };
                    if estimate > sink_bound {
                        return;
                    }
                    *rec = SearchRec {
                        best_cost: next_cost,
                        generation: generation_id,
                        prev_pip: edge.pip.index() as u32,
                    };
                    if index == sink_index {
                        sink_bound = next_cost;
                    }
                    scratch.queue.push(estimate, next_cost, edge.dst);
                }
            });
        }

        if !reached {
            return Err(PnrError::NoPath {
                net: ctx.netlist.net(terminals.net).name.clone(),
                sink: format!(
                    "pin {sink_pin} of cell `{}`",
                    ctx.netlist.cell(sink_cell).name
                ),
            });
        }

        // Backtrack from the sink until we meet the existing tree.
        let mut node = sink_node;
        let mut new_nodes = Vec::new();
        let mut new_pips = Vec::new();
        loop {
            new_nodes.push(node);
            let pip_raw = scratch.search[node.index()].prev_pip;
            if pip_raw == u32::MAX {
                // Reached a node that was seeded from the existing tree.
                new_nodes.pop();
                break;
            }
            let pip_id = PipId::from_index(pip_raw as usize);
            new_pips.push(pip_id);
            node = device.pip_endpoints(pip_id).0;
            if scratch.in_tree[node.index()] == tree_generation {
                break;
            }
        }
        for &new_node in &new_nodes {
            scratch.in_tree[new_node.index()] = tree_generation;
        }
        tree.nodes.extend(new_nodes);
        tree.pips.extend(new_pips);
        tree.sinks.push((sink_node, sink_cell, sink_pin));
    }

    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacerOptions};
    use tmr_arch::DeviceParams;
    use tmr_designs::{counter, moving_sum};
    use tmr_netlist::CellKind;
    use tmr_synth::{lower, optimize, techmap};

    fn routed_counter() -> (Device, Netlist, Placement, HashMap<NetId, RouteTree>) {
        let device = Device::small(5, 5);
        let netlist = techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap();
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let routes = route(&device, &netlist, &placement, &RouterOptions::default()).unwrap();
        (device, netlist, placement, routes)
    }

    #[test]
    fn routes_every_cell_to_cell_net() {
        let (_, netlist, _, routes) = routed_counter();
        let expected: usize = netlist
            .nets()
            .filter(|(_, n)| {
                matches!(n.driver, Some(NetDriver::Cell(_)))
                    && n.sinks.iter().any(|s| matches!(s, NetSink::CellPin { .. }))
            })
            .count();
        assert_eq!(routes.len(), expected);
    }

    #[test]
    fn routes_form_connected_trees() {
        let (device, _, _, routes) = routed_counter();
        for tree in routes.values() {
            // Every PIP's source must already be reachable (tree property) and
            // every sink must be in the node set.
            let mut reachable: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
            reachable.insert(tree.source);
            let mut pips_left: Vec<PipId> = tree.pips.clone();
            let mut progress = true;
            while progress {
                progress = false;
                pips_left.retain(|&pip_id| {
                    let pip = device.pip(pip_id);
                    if reachable.contains(&pip.src) {
                        reachable.insert(pip.dst);
                        progress = true;
                        false
                    } else {
                        true
                    }
                });
            }
            assert!(pips_left.is_empty(), "disconnected PIPs in route tree");
            for (sink, _, _) in &tree.sinks {
                assert!(reachable.contains(sink), "sink not reached by tree");
            }
        }
    }

    #[test]
    fn no_node_is_shared_between_nets() {
        let (_, _, _, routes) = routed_counter();
        let mut seen: std::collections::HashMap<NodeId, NetId> = std::collections::HashMap::new();
        for (net, tree) in &routes {
            for &node in &tree.nodes {
                if let Some(other) = seen.insert(node, *net) {
                    assert_eq!(other, *net, "node {node} used by two nets");
                }
            }
        }
    }

    #[test]
    fn telemetry_records_every_iteration_and_convergence() {
        let device = Device::small(5, 5);
        let netlist = techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap();
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let (result, telemetry) =
            route_with_telemetry(&device, &netlist, &placement, &RouterOptions::default());
        assert!(result.is_ok());
        assert!(telemetry.converged());
        assert!(telemetry.iteration_count() >= 1);
        let first = &telemetry.iterations[0];
        assert_eq!((first.iteration, first.ripped_up), (1, 0));
        assert!(first.rerouted > 0, "every net is routed in iteration 1");
        assert!(first.nodes_expanded > 0, "A* expands nodes in iteration 1");
        assert_eq!(telemetry.iterations.last().unwrap().overused_nodes, 0);
        // route() must agree with the telemetry variant it delegates to.
        let direct = route(&device, &netlist, &placement, &RouterOptions::default()).unwrap();
        assert_eq!(direct.len(), result.unwrap().len());
    }

    #[test]
    fn zero_iteration_budget_is_unroutable() {
        let device = Device::small(5, 5);
        let netlist = techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap();
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let options = RouterOptions { max_iterations: 0 };
        let unroutable = PnrError::Unroutable {
            overused_nodes: 0,
            iterations: 0,
        };
        let (result, telemetry) = route_with_telemetry(&device, &netlist, &placement, &options);
        assert_eq!(result, Err(unroutable.clone()));
        assert_eq!(telemetry.iteration_count(), 0);
        assert_eq!(
            route(&device, &netlist, &placement, &options),
            Err(unroutable)
        );
    }

    #[test]
    fn an_unreachable_sink_pin_is_no_path() {
        // Without input-mux candidates, and on a 1x1 grid without a
        // neighbouring tile for a long-input PIP, no PIP enters an input pin.
        let mut params = DeviceParams::small(1, 1);
        params.in_pin_candidates = 0;
        let device = Device::new(params);
        let mut netlist = Netlist::new("unreachable");
        let a = netlist.add_input("a");
        let a_f = netlist.add_net("a_f");
        let x = netlist.add_net("x");
        let y = netlist.add_net("y");
        let lut = CellKind::Lut { k: 1, init: 0b10 };
        netlist
            .add_cell("ib", CellKind::Ibuf, vec![a], a_f)
            .unwrap();
        netlist.add_cell("lut", lut, vec![a_f], x).unwrap();
        netlist.add_cell("ob", CellKind::Obuf, vec![x], y).unwrap();
        netlist.add_output("y", y);
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        assert_eq!(
            route(&device, &netlist, &placement, &RouterOptions::default()),
            Err(PnrError::NoPath {
                net: "a_f".to_string(),
                sink: "pin 0 of cell `lut`".to_string(),
            })
        );
    }

    #[test]
    fn sparse_congestion_takes_the_fast_ramp() {
        // A 4-tap moving sum on a 5x5 device (placement seed 3) leaves 18
        // nodes overused after iteration 1 and 2 after iteration 2. Overuse
        // fell, so the factor doubles for iteration 3 instead of growing ×1.2.
        let device = Device::small(5, 5);
        let netlist = techmap(&optimize(&lower(&moving_sum(4, 4, 8)).unwrap())).unwrap();
        let placement = place(&device, &netlist, &PlacerOptions { seed: 3 }).unwrap();
        let (result, telemetry) =
            route_with_telemetry(&device, &netlist, &placement, &RouterOptions::default());
        assert!(result.is_ok());
        let steps: Vec<(usize, f64)> = telemetry
            .iterations
            .iter()
            .map(|it| (it.overused_nodes, it.present_factor))
            .collect();
        assert_eq!(steps, [(18, 0.6), (2, 0.6 * 1.2), (0, 0.6 * 1.2 * 2.0)]);
    }

    #[test]
    fn routing_is_deterministic() {
        let (_, _, _, a) = routed_counter();
        let (_, _, _, b) = routed_counter();
        assert_eq!(a.len(), b.len());
        for (net, tree) in &a {
            assert_eq!(tree.pips, b[net].pips);
        }
    }
}
