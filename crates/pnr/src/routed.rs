//! The routed-design database: placement + routing + configuration bitstream.

use crate::{place, route, Placement, PlacerOptions, PnrError, RouterOptions};
use std::collections::HashMap;
use tmr_arch::{BitCategory, Bitstream, ConfigResource, Device, NodeId, PipId};
use tmr_netlist::{CellId, CellKind, Domain, NetId, Netlist};

/// The routing tree of one net: the set of routing-graph nodes and enabled
/// PIPs that connect the net's source pin to all of its sink pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTree {
    /// The source node (the driving cell's output pin).
    pub source: NodeId,
    /// All nodes of the tree, source included.
    pub nodes: Vec<NodeId>,
    /// The enabled PIPs (each PIP's configuration bit is set in the bitstream).
    pub pips: Vec<PipId>,
    /// The sink pins reached, with the consuming cell and pin index.
    pub sinks: Vec<(NodeId, CellId, usize)>,
}

/// Counts of design-related configuration bits per category — the "bitstream"
/// columns of Table 2 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitReport {
    /// General-routing bits related to the design (PIPs touching a used node).
    pub routing_bits: usize,
    /// CLB-customization bits related to the design (input-mux PIPs touching a
    /// used node).
    pub clb_mux_bits: usize,
    /// LUT truth-table bits of used LUTs.
    pub lut_bits: usize,
    /// Flip-flop configuration bits of used flip-flops.
    pub ff_bits: usize,
}

impl BitReport {
    /// Total design-related configuration bits.
    pub fn total(&self) -> usize {
        self.routing_bits + self.clb_mux_bits + self.lut_bits + self.ff_bits
    }

    /// Fraction of the design-related bits that control routing (general
    /// routing + CLB customization), the quantity the paper reports as
    /// "roughly 80 % of the total customizable bits".
    pub fn routing_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.routing_bits + self.clb_mux_bits) as f64 / self.total() as f64
    }
}

/// A fully placed, routed and configured design.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    netlist: Netlist,
    placement: Placement,
    routes: HashMap<NetId, RouteTree>,
    bitstream: Bitstream,
    /// The net occupying each routing node, indexed by node up to the
    /// highest node any tree uses; [`NO_NET`] marks a free node.
    node_net: Vec<u32>,
    design_bits: std::sync::OnceLock<Vec<u32>>,
}

/// The [`RoutedDesign`] node-table entry of a node no net uses.
const NO_NET: u32 = u32::MAX;

impl RoutedDesign {
    /// The mapped netlist this design was built from.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The routing tree of a net, if that net is routed through the fabric.
    pub fn route_of(&self, net: NetId) -> Option<&RouteTree> {
        self.routes.get(&net)
    }

    /// Iterates over all routed nets.
    pub fn routes(&self) -> impl Iterator<Item = (NetId, &RouteTree)> {
        self.routes.iter().map(|(&net, tree)| (net, tree))
    }

    /// The configuration bitstream.
    pub fn bitstream(&self) -> &Bitstream {
        &self.bitstream
    }

    /// The net using a routing node, if any: one read of the dense node
    /// table.
    pub fn net_of_node(&self, node: NodeId) -> Option<NetId> {
        match self.node_net.get(node.index()) {
            Some(&net) if net != NO_NET => Some(NetId::from_index(net as usize)),
            _ => None,
        }
    }

    /// The TMR domain of the signal carried by a net.
    pub fn net_domain(&self, net: NetId) -> Domain {
        self.netlist.net(net).domain
    }

    /// Counts the design-related configuration bits per category: every PIP
    /// touching a node used by the design, the truth-table bits of every used
    /// LUT and the configuration bit of every used flip-flop. These are the
    /// bits the paper's Fault List Manager extracts from its bitstream
    /// database, and the columns of Table 2. Counts over the cached
    /// [`RoutedDesign::design_related_bits`].
    pub fn bit_report(&self, device: &Device) -> BitReport {
        let mut report = BitReport::default();
        let layout = device.config_layout();
        for &bit in self.design_related_bits(device) {
            match layout.category_at(bit as usize) {
                BitCategory::GeneralRouting => report.routing_bits += 1,
                BitCategory::ClbCustomization => report.clb_mux_bits += 1,
                BitCategory::LutContents => report.lut_bits += 1,
                BitCategory::FlipFlop => report.ff_bits += 1,
            }
        }
        report
    }

    /// Returns `true` if a configuration resource is related to the design:
    /// PIPs with a used endpoint, LUT bits of used LUT sites, FF bits of used
    /// FF sites. This is the fault-injection population of the paper.
    pub fn resource_is_design_related(&self, device: &Device, resource: &ConfigResource) -> bool {
        match *resource {
            ConfigResource::Pip(pip) => {
                let (src, dst) = device.pip_endpoints(pip);
                self.net_of_node(src).is_some() || self.net_of_node(dst).is_some()
            }
            ConfigResource::LutBit { site, .. } | ConfigResource::FfInit { site } => {
                self.placement.cell_at(site).is_some()
            }
        }
    }

    /// The configuration bits related to the design, in configuration-memory
    /// order: every bit whose resource satisfies
    /// [`RoutedDesign::resource_is_design_related`]. This is the fault-list
    /// population of the paper's Fault List Manager.
    ///
    /// The scan is computed once per routed design and cached, and repeated
    /// campaigns on the same design (sweeps, streaming benches, static
    /// analysis) reuse the list for free. It walks the configuration memory
    /// in bit order. A wire's switchbox PIPs take consecutive bits
    /// ([`Device::switchbox_fanout`]), so the scan takes each such block at
    /// once: every bit of it if the wire is used, else the bits of the PIPs
    /// whose target is. Any other bit costs a few array probes.
    pub fn design_related_bits(&self, device: &Device) -> &[u32] {
        self.design_bits.get_or_init(|| {
            let layout = device.config_layout();
            let used = |node: NodeId| self.net_of_node(node).is_some();
            let mut bits = Vec::new();
            let mut bit = 0;
            while bit < layout.bit_count() {
                let related = match layout.resource_at(bit).expect("bit in range") {
                    ConfigResource::Pip(pip) => {
                        let (src, dst) = device.pip_endpoints(pip);
                        if device.node(src).is_wire() && device.node(dst).is_wire() {
                            // A switchbox PIP: the walk meets the first of
                            // its source's block.
                            let block = device.switchbox_fanout(src);
                            debug_assert_eq!(block.clone().next().map(|edge| edge.pip), Some(pip));
                            let len = block.len();
                            if used(src) {
                                bits.extend(bit as u32..(bit + len) as u32);
                            } else {
                                // Without a branch: write every bit, keep
                                // those whose target is used.
                                let start = bits.len();
                                bits.resize(start + len, 0);
                                let mut kept = start;
                                for (next, edge) in (bit as u32..).zip(block) {
                                    bits[kept] = next;
                                    kept += usize::from(used(edge.dst));
                                }
                                bits.truncate(kept);
                            }
                            bit += len;
                            continue;
                        }
                        used(src) || used(dst)
                    }
                    ConfigResource::LutBit { site, .. } | ConfigResource::FfInit { site } => {
                        self.placement.cell_at(site).is_some()
                    }
                };
                if related {
                    bits.push(bit as u32);
                }
                bit += 1;
            }
            bits
        })
    }

    /// Generates the configuration bitstream for this placed-and-routed design.
    fn generate_bitstream(
        device: &Device,
        netlist: &Netlist,
        placement: &Placement,
        routes: &HashMap<NetId, RouteTree>,
    ) -> Bitstream {
        let layout = device.config_layout();
        let mut bitstream = Bitstream::zeros(layout.bit_count());

        // Routing PIPs.
        for tree in routes.values() {
            for &pip in &tree.pips {
                bitstream.set(layout.pip_bit(pip), true);
            }
        }

        // LUT truth tables and FF initial values.
        for (cell_id, cell) in netlist.cells() {
            let site = placement.site(cell_id);
            match cell.kind {
                CellKind::Lut { k, init } => {
                    let mask = (1usize << k) - 1;
                    for entry in 0..16u8 {
                        let folded = usize::from(entry) & mask;
                        if (init >> folded) & 1 == 1 {
                            let bit = layout
                                .bit_of(&ConfigResource::LutBit { site, bit: entry })
                                .expect("LUT cells are placed on LUT sites");
                            bitstream.set(bit, true);
                        }
                    }
                }
                CellKind::Vcc => {
                    for entry in 0..16u8 {
                        let bit = layout
                            .bit_of(&ConfigResource::LutBit { site, bit: entry })
                            .expect("constant cells are placed on LUT sites");
                        bitstream.set(bit, true);
                    }
                }
                CellKind::Gnd => {} // all-zero truth table
                CellKind::Dff { init } => {
                    if init {
                        let bit = layout
                            .bit_of(&ConfigResource::FfInit { site })
                            .expect("DFF cells are placed on FF sites");
                        bitstream.set(bit, true);
                    }
                }
                CellKind::Ibuf | CellKind::Obuf => {} // IOBs carry no bits in this model
                _ => unreachable!("placement rejects unmapped cells"),
            }
        }

        bitstream
    }
}

/// Runs placement, routing and bitstream generation with default options and
/// the given seed.
///
/// # Errors
///
/// Propagates placement errors (unmapped cells, device too small) and routing
/// errors (unroutable congestion, unreachable sinks).
pub fn place_and_route(
    device: &Device,
    netlist: &Netlist,
    seed: u64,
) -> Result<RoutedDesign, PnrError> {
    let placement = place(device, netlist, &PlacerOptions { seed })?;
    let routes = route(device, netlist, &placement, &RouterOptions::default())?;
    Ok(RoutedDesign::assemble(device, netlist, placement, routes))
}

impl RoutedDesign {
    /// Assembles the routed-design database from the outputs of the
    /// individual [`place`] and [`route`] stages: generates the
    /// configuration bitstream and indexes which routing node belongs to
    /// which logical net.
    ///
    /// This is the final, infallible step of [`place_and_route`], exposed
    /// separately so staged pipelines can cache a [`Placement`] and re-enter
    /// the flow at the routing stage.
    pub fn assemble(
        device: &Device,
        netlist: &Netlist,
        placement: Placement,
        routes: HashMap<NetId, RouteTree>,
    ) -> RoutedDesign {
        let bitstream = RoutedDesign::generate_bitstream(device, netlist, &placement, &routes);
        RoutedDesign::from_parts(netlist.clone(), placement, routes, bitstream)
    }

    /// Rebuilds the database from persisted parts — netlist, placement,
    /// routing trees and the already-generated bitstream — without a
    /// [`Device`]: unlike [`RoutedDesign::assemble`] the bitstream is taken
    /// as given (it was generated when the design was first assembled), and
    /// only the node-occupancy table is rebuilt from the routes, sized from
    /// the highest node the trees use. Used by the `tmr-store` codec.
    pub fn from_parts(
        netlist: Netlist,
        placement: Placement,
        routes: HashMap<NetId, RouteTree>,
        bitstream: Bitstream,
    ) -> RoutedDesign {
        let nodes = routes
            .values()
            .flat_map(|tree| &tree.nodes)
            .map(|node| node.index() + 1)
            .max();
        let mut node_net = vec![NO_NET; nodes.unwrap_or(0)];
        for (&net, tree) in &routes {
            for &node in &tree.nodes {
                node_net[node.index()] = net.index() as u32;
            }
        }
        RoutedDesign {
            netlist,
            placement,
            routes,
            bitstream,
            node_net,
            design_bits: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_designs::{counter, moving_sum};
    use tmr_synth::{lower, optimize, techmap};

    fn mapped(design: &tmr_synth::Design) -> Netlist {
        techmap(&optimize(&lower(design).unwrap())).unwrap()
    }

    #[test]
    fn bitstream_bits_match_enabled_pips_and_luts() {
        let device = Device::small(5, 5);
        let netlist = mapped(&counter(4));
        let routed = place_and_route(&device, &netlist, 7).unwrap();
        let layout = device.config_layout();

        // Every enabled PIP bit must be set.
        let mut expected_pip_bits = 0;
        for (_, tree) in routed.routes() {
            expected_pip_bits += tree.pips.len();
            for &pip in &tree.pips {
                assert!(routed.bitstream().get(layout.pip_bit(pip)));
            }
        }
        // Count set bits that are PIP bits.
        let set_pip_bits = routed
            .bitstream()
            .iter_ones()
            .filter(|&bit| matches!(layout.resource_at(bit), Some(ConfigResource::Pip(_))))
            .count();
        assert_eq!(set_pip_bits, expected_pip_bits);
    }

    #[test]
    fn node_table_matches_the_route_trees() {
        let device = Device::small(5, 5);
        let netlist = mapped(&counter(4));
        let routed = place_and_route(&device, &netlist, 7).unwrap();
        let mut used = 0;
        for (net, tree) in routed.routes() {
            used += tree.nodes.len();
            for &node in &tree.nodes {
                assert_eq!(routed.net_of_node(node), Some(net));
            }
            // A tree PIP's destination belongs to the PIP's net alone.
            for &pip in &tree.pips {
                assert_eq!(routed.net_of_node(device.pip(pip).dst), Some(net));
            }
        }
        let table_hits = (0..device.node_count())
            .filter(|&node| routed.net_of_node(NodeId::from_index(node)).is_some())
            .count();
        assert_eq!(table_hits, used, "routed trees share no node");
        assert_eq!(
            routed.net_of_node(NodeId::from_index(usize::MAX as u32 as usize - 1)),
            None
        );
    }

    #[test]
    fn bit_report_is_dominated_by_routing() {
        let device = Device::small(6, 6);
        let netlist = mapped(&moving_sum(3, 4, 6));
        let routed = place_and_route(&device, &netlist, 3).unwrap();
        let report = routed.bit_report(&device);
        assert!(report.total() > 0);
        assert!(report.lut_bits > 0);
        assert!(
            report.routing_fraction() > 0.6,
            "routing bits should dominate, got {:.2}",
            report.routing_fraction()
        );
        assert_eq!(report.lut_bits % 16, 0, "16 bits per used LUT");
    }

    #[test]
    fn bit_report_matches_a_per_bit_count() {
        let device = Device::small(6, 6);
        let netlist = mapped(&moving_sum(3, 4, 6));
        let routed = place_and_route(&device, &netlist, 3).unwrap();
        let layout = device.config_layout();
        let mut expected = BitReport::default();
        for bit in 0..layout.bit_count() {
            let resource = layout.resource_at(bit).unwrap();
            if routed.resource_is_design_related(&device, &resource) {
                *match layout.category_at(bit) {
                    BitCategory::GeneralRouting => &mut expected.routing_bits,
                    BitCategory::ClbCustomization => &mut expected.clb_mux_bits,
                    BitCategory::LutContents => &mut expected.lut_bits,
                    BitCategory::FlipFlop => &mut expected.ff_bits,
                } += 1;
            }
        }
        assert!(expected.routing_bits > 0 && expected.clb_mux_bits > 0);
        assert!(expected.lut_bits > 0 && expected.ff_bits > 0);
        assert_eq!(routed.bit_report(&device), expected);
    }

    /// The scan the block walk replaced: every bit's resource, one at a
    /// time.
    fn per_bit_scan(device: &Device, routed: &RoutedDesign) -> Vec<u32> {
        let layout = device.config_layout();
        (0..layout.bit_count())
            .filter(|&bit| {
                let resource = layout.resource_at(bit).expect("bit in range");
                routed.resource_is_design_related(device, &resource)
            })
            .map(|bit| bit as u32)
            .collect()
    }

    #[test]
    fn the_block_walk_finds_the_bits_of_a_per_bit_scan() {
        use tmr_arch::DeviceParams;
        use tmr_core::{apply_tmr, TmrConfig};
        // The lean preset the fuzzer rotates in, and the auto-sized device
        // every paper number is computed on.
        let lean = DeviceParams {
            tracks: 8,
            out_pin_candidates: 4,
            in_pin_candidates: 2,
            sb_same_tile: 2,
            sb_neighbor: 2,
            ..DeviceParams::small(8, 8)
        };
        let paper = DeviceParams {
            cols: 54,
            rows: 40,
            tracks: 182,
            ..DeviceParams::xc2s200e_like()
        };
        let tmr = apply_tmr(&moving_sum(3, 4, 6), &TmrConfig::paper_p2()).unwrap();
        for (params, design) in [
            (DeviceParams::small(24, 24), &tmr),
            (lean, &counter(4)),
            (paper, &tmr),
        ] {
            let device = Device::new(params);
            let routed = place_and_route(&device, &mapped(design), 3).unwrap();
            let bits = routed.design_related_bits(&device);
            assert_eq!(bits, per_bit_scan(&device, &routed), "{params:?}");
            assert!(routed.bit_report(&device).routing_bits > 0, "{params:?}");
        }
    }

    #[test]
    fn domain_lookups_follow_the_netlist_tags() {
        use tmr_core::{apply_tmr, TmrConfig};
        use tmr_designs::counter;
        let device = Device::small(8, 8);
        let design = apply_tmr(&counter(4), &TmrConfig::paper_p2()).unwrap();
        let netlist = mapped(&design);
        let routed = place_and_route(&device, &netlist, 5).unwrap();

        let mut redundant_nets = 0;
        for (net, tree) in routed.routes() {
            let domain = routed.net_domain(net);
            if domain.is_redundant() {
                redundant_nets += 1;
            }
            for &node in &tree.nodes {
                assert_eq!(routed.net_of_node(node), Some(net));
            }
        }
        assert!(
            redundant_nets > 0,
            "TMR designs route redundant-domain nets"
        );
        assert_eq!(
            routed.net_of_node(NodeId::from_index(usize::MAX as u32 as usize - 1)),
            None
        );
    }

    #[test]
    fn larger_designs_route_on_adequate_devices() {
        let device = Device::small(8, 8);
        let netlist = mapped(&moving_sum(4, 5, 8));
        let routed = place_and_route(&device, &netlist, 11).unwrap();
        assert!(routed.routes().count() > 10);
        assert!(routed.bitstream().count_ones() > 100);
    }
}
