//! The device model: tile grid, sites, routing graph and presets.

use crate::config::ConfigLayout;
use crate::rows::Rows;
use crate::switchbox::{Switchbox, SwitchboxFanout};
use crate::{
    Fanout, NodeId, Pip, PipCategory, PipId, RouteNode, Site, SiteId, SiteKind, TileCoord,
};
use std::sync::Arc;

/// Architectural parameters of a device family.
///
/// The defaults produced by [`DeviceParams::xc2s200e_like`] are calibrated so
/// that the proportion of configuration bits per category matches the numbers
/// the paper reports for the Spartan-II XC2S200E (≈83 % general routing,
/// ≈6 % CLB customization, ≈7 % LUT contents, <1 % flip-flops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceParams {
    /// Number of tile columns.
    pub cols: u16,
    /// Number of tile rows.
    pub rows: u16,
    /// Slices per CLB tile; each slice provides 2 LUT sites and 2 FF sites.
    pub slices_per_tile: u8,
    /// General routing wires (tracks) owned by each tile.
    pub tracks: u16,
    /// Number of tracks reachable from each site output pin (output PIPs).
    pub out_pin_candidates: u16,
    /// Number of tracks that can feed each site input pin (input-mux PIPs).
    pub in_pin_candidates: u16,
    /// Same-tile track-to-track hops per track in the switch matrix.
    pub sb_same_tile: u16,
    /// Track-to-track hops per track towards each cardinal neighbour.
    pub sb_neighbor: u16,
    /// I/O blocks available on each perimeter tile.
    pub iobs_per_perimeter_tile: u8,
    /// Configuration-frame size in bits (the XC2S200E uses 576-bit frames).
    pub frame_bits: u32,
}

impl DeviceParams {
    /// Parameters approximating the Spartan-II XC2S200E of the paper:
    /// a 42 × 28 CLB array, two slices per CLB (4 LUT4 + 4 FF per tile).
    pub fn xc2s200e_like() -> Self {
        Self {
            cols: 42,
            rows: 28,
            slices_per_tile: 2,
            tracks: 36,
            out_pin_candidates: 8,
            in_pin_candidates: 4,
            sb_same_tile: 3,
            sb_neighbor: 4,
            iobs_per_perimeter_tile: 2,
            frame_bits: 576,
        }
    }

    /// Small parameters for unit tests and examples: fewer tracks and a single
    /// slice per tile, so graphs stay tiny.
    ///
    /// The channel width and pin connectivity are provisioned so that even a
    /// near-fully-utilised tile grid remains routable: TMR designs pack three
    /// redundant copies plus voters into the fabric, and with fewer track or
    /// pin candidates the PathFinder negotiation cannot resolve the resulting
    /// congestion no matter how large the grid is.
    pub fn small(cols: u16, rows: u16) -> Self {
        Self {
            cols,
            rows,
            slices_per_tile: 1,
            tracks: 32,
            out_pin_candidates: 8,
            in_pin_candidates: 6,
            sb_same_tile: 3,
            sb_neighbor: 3,
            iobs_per_perimeter_tile: 2,
            frame_bits: 64,
        }
    }

    /// LUT sites per tile (2 per slice).
    pub fn luts_per_tile(&self) -> usize {
        self.slices_per_tile as usize * 2
    }

    /// FF sites per tile (2 per slice).
    pub fn ffs_per_tile(&self) -> usize {
        self.slices_per_tile as usize * 2
    }

    /// Raster index of a tile: rows of `cols` tiles, south to north.
    pub(crate) fn tile_index(&self, tile: TileCoord) -> usize {
        usize::from(tile.y) * usize::from(self.cols) + usize::from(tile.x)
    }
}

/// An island-style SRAM FPGA device: sites, routing graph and configuration
/// layout.
///
/// Construction enumerates every site and routing node of the device and
/// numbers every PIP, and builds the forward adjacency
/// ([`fanout`](Self::fanout)) the router walks, plus the [`ConfigLayout`]
/// that assigns one configuration bit to every programmable resource.
///
/// The graph keeps only what nothing can derive. It stores a pin or FF-mux
/// PIP as its two endpoints, and no switchbox PIP at all: those follow the
/// one switch-matrix rule every tile repeats, so their endpoints and fanout
/// are computed from their ids. A PIP's category and configuration tile
/// follow from its endpoints ([`pip`](Self::pip)).
///
/// The built graph is immutable and lives behind a reference count, so a
/// `Device` is a handle: a clone shares the graph rather than copying it (the
/// auto-sized 54 × 40 paper device holds about 47 MiB). Flows, sweeps and
/// the campaign service keep and pass clones instead of rebuilding or
/// copying.
#[derive(Debug, Clone)]
pub struct Device {
    graph: Arc<Graph>,
}

/// The immutable data behind a [`Device`] handle.
#[derive(Debug)]
struct Graph {
    params: DeviceParams,
    sites: Vec<Site>,
    nodes: Vec<RouteNode>,
    /// Each pin and FF-mux PIP's `(src, dst)`: every PIP below the first
    /// switchbox PIP.
    pip_ends: Vec<(NodeId, NodeId)>,
    /// The switch-matrix rule, which numbers the switchbox PIPs.
    switchbox: Switchbox,
    /// Id of each tile's first node, its track-0 wire, in raster order: a
    /// tile's wires are consecutive nodes.
    tile_first_node: Vec<u32>,
    /// Each node's outgoing pin and FF-mux PIPs with the nodes they drive,
    /// in increasing PIP id order.
    fanout: Rows<Fanout>,
    out_pin_of_site: Vec<NodeId>,
    in_pins_of_site: Rows<NodeId>,
    /// The nodes driving each input pin, one row per pin in the order of
    /// `in_pins_of_site`'s items.
    pin_drivers: Rows<NodeId>,
    lut_sites: Vec<SiteId>,
    ff_sites: Vec<SiteId>,
    iob_sites: Vec<SiteId>,
    layout: ConfigLayout,
}

impl Device {
    /// Builds a device from explicit parameters.
    pub fn new(params: DeviceParams) -> Self {
        Self {
            graph: Arc::new(DeviceBuilder::new(params).build()),
        }
    }

    /// Builds the XC2S200E-like device used for the paper's tables.
    pub fn xc2s200e_like() -> Self {
        Self::new(DeviceParams::xc2s200e_like())
    }

    /// Builds a small test device.
    pub fn small(cols: u16, rows: u16) -> Self {
        Self::new(DeviceParams::small(cols, rows))
    }

    /// The parameters this device was built from.
    pub fn params(&self) -> &DeviceParams {
        &self.graph.params
    }

    /// Number of tile columns.
    pub fn cols(&self) -> u16 {
        self.graph.params.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> u16 {
        self.graph.params.rows
    }

    /// Iterates over every tile coordinate of the grid.
    pub fn tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        let cols = self.cols();
        let rows = self.rows();
        (0..rows).flat_map(move |y| (0..cols).map(move |x| TileCoord::new(x, y)))
    }

    /// All sites of the device.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &Site)> {
        self.graph
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| (SiteId::from_index(i), s))
    }

    /// The site with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.graph.sites[id.index()]
    }

    /// All LUT sites.
    pub fn lut_sites(&self) -> &[SiteId] {
        &self.graph.lut_sites
    }

    /// All flip-flop sites.
    pub fn ff_sites(&self) -> &[SiteId] {
        &self.graph.ff_sites
    }

    /// All I/O block sites (on the perimeter).
    pub fn iob_sites(&self) -> &[SiteId] {
        &self.graph.iob_sites
    }

    /// Sites of a given kind.
    pub fn sites_of_kind(&self, kind: SiteKind) -> &[SiteId] {
        match kind {
            SiteKind::Lut => self.lut_sites(),
            SiteKind::Ff => self.ff_sites(),
            SiteKind::Iob => self.iob_sites(),
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.graph.sites.len()
    }

    /// Number of routing-graph nodes.
    pub fn node_count(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Number of PIPs.
    pub fn pip_count(&self) -> usize {
        self.graph.switchbox.pip_count()
    }

    /// The routing node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> RouteNode {
        self.graph.nodes[id.index()]
    }

    /// Looks up the id of a routing node; `None` when the device has no such
    /// node.
    pub fn node_id(&self, node: RouteNode) -> Option<NodeId> {
        let graph = &*self.graph;
        match node {
            RouteNode::Wire { tile, track } => {
                let p = &graph.params;
                (tile.x < p.cols && tile.y < p.rows && track < p.tracks).then(|| {
                    let first = graph.tile_first_node[p.tile_index(tile)] as usize;
                    NodeId::from_index(first + usize::from(track))
                })
            }
            RouteNode::OutPin { site } => graph.out_pin_of_site.get(site.index()).copied(),
            RouteNode::InPin { site, pin } => (site.index() < self.site_count())
                .then(|| self.in_pins(site).get(usize::from(pin)).copied())
                .flatten(),
        }
    }

    /// The PIP with the given id. Its category and tile are derived from
    /// its endpoints; paths that need only those read
    /// [`pip_endpoints`](Self::pip_endpoints).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pip(&self, id: PipId) -> Pip {
        let (src, dst) = self.pip_endpoints(id);
        let (category, tile) = classify_pip(&self.graph.nodes, &self.graph.sites, src, dst);
        Pip {
            src,
            dst,
            category,
            tile,
        }
    }

    /// The driving and driven node of a PIP: `(src, dst)`. A pin or FF-mux
    /// PIP's are stored; a switchbox PIP's are derived from its id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn pip_endpoints(&self, id: PipId) -> (NodeId, NodeId) {
        let graph = &*self.graph;
        match graph.pip_ends.get(id.index()) {
            Some(&ends) => ends,
            None => graph.switchbox.endpoints(id),
        }
    }

    /// The PIPs leaving `node`, each with the node it drives, in increasing
    /// PIP id order: the stored pin PIPs, then, for a wire, its
    /// [`switchbox_fanout`](Self::switchbox_fanout), whose ids are all
    /// higher.
    #[inline]
    pub fn fanout(&self, node: NodeId) -> FanoutIter<'_> {
        FanoutIter {
            stored: self.graph.fanout.row(node.index()).iter(),
            switchbox: self.switchbox_fanout(node),
        }
    }

    /// The switchbox PIPs leaving `node`, each with the wire it drives, in
    /// increasing PIP id order: one block of consecutive ids, whose
    /// configuration bits are consecutive too. Empty for a pin.
    #[inline]
    pub fn switchbox_fanout(&self, node: NodeId) -> SwitchboxFanout<'_> {
        let graph = &*self.graph;
        match graph.nodes[node.index()] {
            RouteNode::Wire { tile, track } => graph.switchbox.fanout(tile, track),
            RouteNode::OutPin { .. } | RouteNode::InPin { .. } => SwitchboxFanout::empty(),
        }
    }

    /// Every switchbox PIP of a wire in a tile with four neighbours, in PIP
    /// order, as the `(dx, dy, track offset)` of its target relative to the
    /// wire, the offset modulo the track count. Every tile uses this one
    /// stencil; a tile on the edge only lacks the steps of its missing
    /// neighbours. Empty on a device without a tile that has four
    /// neighbours.
    pub fn switchbox_stencil(&self) -> Vec<(i8, i8, u16)> {
        self.graph.switchbox.stencil()
    }

    /// The output-pin node of a site.
    pub fn out_pin(&self, site: SiteId) -> NodeId {
        self.graph.out_pin_of_site[site.index()]
    }

    /// The input-pin nodes of a site, indexed by pin.
    pub fn in_pins(&self, site: SiteId) -> &[NodeId] {
        self.graph.in_pins_of_site.row(site.index())
    }

    /// The nodes that drive the input pin `pin`, one per PIP entering it, in
    /// increasing PIP id order: its tile's input-mux wires, one wire of each
    /// neighbouring tile and, on a flip-flop's pin, the output pin of the
    /// LUT that feeds it through the FF mux.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is not an input pin.
    pub fn pin_drivers(&self, pin: NodeId) -> &[NodeId] {
        let RouteNode::InPin { site, pin: index } = self.node(pin) else {
            panic!("node {pin} is not an input pin");
        };
        let row = self.graph.in_pins_of_site.offset(site.index()) + usize::from(index);
        self.graph.pin_drivers.row(row)
    }

    /// The tile a routing node geometrically belongs to (used by the router's
    /// A* heuristic and by congestion maps).
    pub fn node_tile(&self, id: NodeId) -> TileCoord {
        match self.node(id) {
            RouteNode::Wire { tile, .. } => tile,
            RouteNode::OutPin { site } | RouteNode::InPin { site, .. } => self.site(site).tile,
        }
    }

    /// The configuration-memory layout of this device.
    pub fn config_layout(&self) -> &ConfigLayout {
        &self.graph.layout
    }
}

/// The PIPs leaving one node, each with the node it drives, in increasing PIP
/// id order ([`Device::fanout`]).
#[derive(Debug, Clone)]
pub struct FanoutIter<'a> {
    stored: std::slice::Iter<'a, Fanout>,
    switchbox: SwitchboxFanout<'a>,
}

impl Iterator for FanoutIter<'_> {
    type Item = Fanout;

    #[inline]
    fn next(&mut self) -> Option<Fanout> {
        match self.stored.next() {
            Some(&edge) => Some(edge),
            None => self.switchbox.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.stored.len() + self.switchbox.len();
        (len, Some(len))
    }

    /// Two plain loops, one per part.
    #[inline]
    fn fold<B, F: FnMut(B, Fanout) -> B>(self, init: B, mut f: F) -> B {
        let acc = self.stored.copied().fold(init, &mut f);
        self.switchbox.fold(acc, f)
    }
}

impl ExactSizeIterator for FanoutIter<'_> {}

/// The category and configuration tile of the PIP `src → dst`. The builder
/// generates four endpoint shapes, and each fixes both:
/// - output pin → wire: an output mux, in the wire's tile;
/// - output pin → input pin: the FF mux, an input mux in the pin's tile;
/// - wire → input pin: an input mux if the wire is in the pin's tile, else a
///   long input; in the pin's tile;
/// - wire → wire: a switchbox PIP, in the source wire's tile.
fn classify_pip(
    nodes: &[RouteNode],
    sites: &[Site],
    src: NodeId,
    dst: NodeId,
) -> (PipCategory, TileCoord) {
    match (nodes[src.index()], nodes[dst.index()]) {
        (RouteNode::OutPin { .. }, RouteNode::Wire { tile, .. }) => (PipCategory::OutputMux, tile),
        (RouteNode::OutPin { .. }, RouteNode::InPin { site, .. }) => {
            (PipCategory::InputMux, sites[site.index()].tile)
        }
        (RouteNode::Wire { tile, .. }, RouteNode::InPin { site, .. }) => {
            let pin_tile = sites[site.index()].tile;
            if tile == pin_tile {
                (PipCategory::InputMux, pin_tile)
            } else {
                (PipCategory::LongInput, pin_tile)
            }
        }
        (RouteNode::Wire { tile, .. }, RouteNode::Wire { .. }) => (PipCategory::Switchbox, tile),
        (from, to) => unreachable!("the builder generates no PIP {from:?} -> {to:?}"),
    }
}

/// Builds a [`Graph`]. Nodes are created tile by tile and never looked up
/// by value: a tile's wires follow its first node, and a site's input pins
/// follow its output pin, so every endpoint id is computed.
struct DeviceBuilder {
    params: DeviceParams,
    sites: Vec<Site>,
    nodes: Vec<RouteNode>,
    pip_ends: Vec<(NodeId, NodeId)>,
    /// First PIP id of every tile's pin run, then of every tile's FF-mux
    /// run, then of every tile's switchbox run, then the PIP count: the two
    /// generation passes below each emit their PIPs tile by tile, and the
    /// [`Switchbox`] numbers the rest the same way.
    pip_runs: Vec<u32>,
    tile_first_node: Vec<u32>,
    /// Id of each tile's first site, plus the site count: tile `t` owns
    /// sites `tile_first_site[t]..tile_first_site[t + 1]`.
    tile_first_site: Vec<u32>,
    out_pin_of_site: Vec<NodeId>,
    in_pins_of_site: Rows<NodeId>,
    lut_sites: Vec<SiteId>,
    ff_sites: Vec<SiteId>,
    iob_sites: Vec<SiteId>,
}

impl DeviceBuilder {
    fn new(params: DeviceParams) -> Self {
        Self {
            params,
            sites: Vec::new(),
            nodes: Vec::new(),
            pip_ends: Vec::new(),
            pip_runs: Vec::new(),
            tile_first_node: Vec::new(),
            tile_first_site: Vec::new(),
            out_pin_of_site: Vec::new(),
            in_pins_of_site: Rows::new(),
            lut_sites: Vec::new(),
            ff_sites: Vec::new(),
            iob_sites: Vec::new(),
        }
    }

    fn add_site(&mut self, kind: SiteKind, tile: TileCoord, index_in_tile: u8) {
        let id = SiteId::from_index(self.sites.len());
        self.sites.push(Site {
            kind,
            tile,
            index_in_tile,
        });
        self.out_pin_of_site
            .push(NodeId::from_index(self.nodes.len()));
        self.nodes.push(RouteNode::OutPin { site: id });
        let first_pin = self.nodes.len();
        self.nodes
            .extend((0..kind.input_pins()).map(|pin| RouteNode::InPin {
                site: id,
                pin: pin as u8,
            }));
        self.in_pins_of_site
            .push_row((first_pin..self.nodes.len()).map(NodeId::from_index));
        match kind {
            SiteKind::Lut => self.lut_sites.push(id),
            SiteKind::Ff => self.ff_sites.push(id),
            SiteKind::Iob => self.iob_sites.push(id),
        }
    }

    fn add_pip(&mut self, src: NodeId, dst: NodeId) {
        self.pip_ends.push((src, dst));
    }

    /// Opens the current tile's run of the current generation pass.
    fn start_run(&mut self) {
        self.pip_runs.push(self.pip_ends.len() as u32);
    }

    fn wire(&self, tile: TileCoord, track: u16) -> NodeId {
        let first = self.tile_first_node[self.params.tile_index(tile)] as usize;
        NodeId::from_index(first + usize::from(track))
    }

    /// The pin PIPs of one site: its output pin onto a spread of its tile's
    /// tracks, then, per input pin, a few of its tile's tracks and one track
    /// of each neighbouring tile.
    fn add_site_pips(&mut self, site_index: usize) {
        let p = self.params;
        let site = self.sites[site_index];
        let tile = site.tile;
        let tracks = p.tracks as usize;

        // Output PIPs (output muxes): output pin -> a spread of tracks in the
        // same tile.
        let out_node = self.out_pin_of_site[site_index];
        let base = (site_index * 7 + usize::from(tile.x) + usize::from(tile.y) * 3) % tracks;
        let step = (tracks / p.out_pin_candidates.max(1) as usize).max(1);
        for i in 0..p.out_pin_candidates as usize {
            let track = ((base + i * step) % tracks) as u16;
            let wire = self.wire(tile, track);
            self.add_pip(out_node, wire);
        }

        // Input-mux PIPs: a small set of tracks -> each input pin.
        for pin in 0..site.kind.input_pins() {
            let pin_node = self.in_pins_of_site.row(site_index)[pin];
            let pin_base =
                (site_index * 5 + pin * 11 + usize::from(tile.x) * 2 + usize::from(tile.y))
                    % tracks;
            let pin_step = (tracks / p.in_pin_candidates.max(1) as usize).max(1);
            for i in 0..p.in_pin_candidates as usize {
                let track = ((pin_base + i * pin_step + i) % tracks) as u16;
                let wire = self.wire(tile, track);
                self.add_pip(wire, pin_node);
            }
            // One additional candidate from each neighbouring tile (long
            // inputs: wire segments spanning into the CLB) — part of the
            // general routing, and essential for routability.
            for (n, neighbor) in tile.neighbors(p.cols, p.rows).enumerate() {
                let track = ((pin_base + n * 7 + 2) % tracks) as u16;
                let wire = self.wire(neighbor, track);
                self.add_pip(wire, pin_node);
            }
        }
    }

    fn build(mut self) -> Graph {
        let p = self.params;

        // 1. Sites and wires, tile by tile.
        for y in 0..p.rows {
            for x in 0..p.cols {
                let tile = TileCoord::new(x, y);
                self.tile_first_node.push(self.nodes.len() as u32);
                self.tile_first_site.push(self.sites.len() as u32);
                self.nodes
                    .extend((0..p.tracks).map(|track| RouteNode::Wire { tile, track }));
                for slice in 0..p.slices_per_tile {
                    for i in 0..2u8 {
                        self.add_site(SiteKind::Lut, tile, slice * 2 + i);
                    }
                    for i in 0..2u8 {
                        self.add_site(SiteKind::Ff, tile, slice * 2 + i);
                    }
                }
                if tile.is_perimeter(p.cols, p.rows) {
                    for i in 0..p.iobs_per_perimeter_tile {
                        self.add_site(SiteKind::Iob, tile, i);
                    }
                }
            }
        }
        self.tile_first_site.push(self.sites.len() as u32);

        // 2. PIPs, in three passes over the tiles in raster order, so PIP
        //    ids (and therefore configuration-bit addresses) are stable and
        //    each pass takes one run of ids per tile. First the sites' pin
        //    PIPs: sites were created tile by tile.
        let tile_count = self.tile_first_node.len();
        for t in 0..tile_count {
            self.start_run();
            for site_index in self.tile_first_site[t] as usize..self.tile_first_site[t + 1] as usize
            {
                self.add_site_pips(site_index);
            }
        }

        // Dedicated LUT -> FF connections inside a slice (the "FF mux" of the
        // CLB, input-mux PIPs): LUT `i` of a tile can drive FF `i` of the
        // same tile directly.
        let (mut luts, mut ffs) = (Vec::new(), Vec::new());
        for t in 0..tile_count {
            self.start_run();
            luts.clear();
            ffs.clear();
            for s in self.tile_first_site[t] as usize..self.tile_first_site[t + 1] as usize {
                match self.sites[s].kind {
                    SiteKind::Lut => luts.push(s),
                    SiteKind::Ff => ffs.push(s),
                    SiteKind::Iob => {}
                }
            }
            for (&lut, &ff) in luts.iter().zip(&ffs) {
                let src = self.out_pin_of_site[lut];
                let dst = self.in_pins_of_site.row(ff)[0];
                self.add_pip(src, dst);
            }
        }

        // 3. Switch matrices: same-tile and neighbour track-to-track PIPs,
        //    numbered by their rule and not stored.
        let first_switchbox = self.pip_ends.len();
        let switchbox = Switchbox::new(&p, first_switchbox as u32, &self.tile_first_node);
        self.pip_runs.extend(switchbox.run_starts());

        // 4. Forward adjacency of the stored PIPs.
        let ends = &self.pip_ends;
        let fanout = Rows::group(
            self.nodes.len(),
            ends.iter().map(|&(src, _)| src.index()),
            |i| Fanout {
                dst: ends[i].1,
                pip: PipId::from_index(i),
            },
        );

        // 5. Each input pin's drivers, grouped by the pin's position among
        //    the sites' input pins. Only the pin and FF-mux passes emit PIPs
        //    into input pins; the switchbox joins wires.
        let first_ff_mux = self.pip_runs[tile_count] as usize;
        let pin_drivers = {
            let (nodes, in_pins) = (&self.nodes, &self.in_pins_of_site);
            let entering: Vec<(u32, NodeId)> = ends
                .iter()
                .filter_map(|&(src, dst)| match nodes[dst.index()] {
                    RouteNode::InPin { site, pin } => Some((
                        (in_pins.offset(site.index()) + usize::from(pin)) as u32,
                        src,
                    )),
                    _ => None,
                })
                .collect();
            Rows::group(
                in_pins.offset(self.sites.len()),
                entering.iter().map(|&(row, _)| row as usize),
                |i| entering[i].1,
            )
        };

        // 6. Configuration layout. The FF-mux pass emits input muxes and the
        //    switchbox numbers switchbox PIPs, so only a pin PIP's category
        //    needs its endpoints.
        let (nodes, sites) = (&self.nodes, &self.sites);
        let layout = ConfigLayout::build(
            &self.params,
            sites,
            &self.tile_first_site,
            self.pip_runs,
            |pip| {
                if pip >= first_ff_mux {
                    pip >= first_switchbox
                } else {
                    let (src, dst) = ends[pip];
                    classify_pip(nodes, sites, src, dst).0.is_general_routing()
                }
            },
        );

        Graph {
            params: self.params,
            sites: self.sites,
            nodes: self.nodes,
            pip_ends: self.pip_ends,
            switchbox,
            tile_first_node: self.tile_first_node,
            fanout,
            out_pin_of_site: self.out_pin_of_site,
            in_pins_of_site: self.in_pins_of_site,
            pin_drivers,
            lut_sites: self.lut_sites,
            ff_sites: self.ff_sites,
            iob_sites: self.iob_sites,
            layout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitCategory, ConfigResource};
    use std::collections::HashSet;

    #[test]
    fn small_device_has_expected_site_counts() {
        let d = Device::small(4, 3);
        // 12 tiles, 1 slice each: 2 LUTs + 2 FFs per tile.
        assert_eq!(d.lut_sites().len(), 4 * 3 * 2);
        assert_eq!(d.ff_sites().len(), 4 * 3 * 2);
        // A 4x3 grid has 2 interior tiles, so 10 perimeter tiles * 2 IOBs.
        assert_eq!(d.iob_sites().len(), 20);
        assert_eq!(d.site_count(), 24 + 24 + 20);
    }

    #[test]
    fn pips_reference_valid_nodes() {
        let d = Device::small(3, 3);
        for i in 0..d.pip_count() {
            let pip = d.pip(PipId::from_index(i));
            assert!(pip.src.index() < d.node_count());
            assert!(pip.dst.index() < d.node_count());
            assert_ne!(pip.src, pip.dst);
        }
    }

    #[test]
    fn adjacency_lists_are_consistent() {
        // Every entry of a node's row is a PIP leaving that node, rows are in
        // increasing PIP id order, and the rows hold every PIP: so each PIP
        // appears exactly once, in the row of its source.
        let d = Device::small(3, 3);
        let mut count = 0;
        for n in 0..d.node_count() {
            let id = NodeId::from_index(n);
            let row: Vec<Fanout> = d.fanout(id).collect();
            assert_eq!(row.len(), d.fanout(id).len());
            count += row.len();
            for entry in &row {
                let pip = d.pip(entry.pip);
                assert_eq!((pip.src, pip.dst), (id, entry.dst));
            }
            assert!(row.windows(2).all(|pair| pair[0].pip < pair[1].pip));
        }
        assert_eq!(count, d.pip_count());
    }

    #[test]
    fn every_input_pin_is_reachable_from_some_wire() {
        let d = Device::small(3, 3);
        let wire_driven: HashSet<NodeId> = (0..d.pip_count())
            .map(|p| d.pip(PipId::from_index(p)))
            .filter(|pip| d.node(pip.src).is_wire())
            .map(|pip| pip.dst)
            .collect();
        for (id, site) in d.sites() {
            for pin in 0..site.kind.input_pins() {
                let node = d.in_pins(id)[pin];
                assert!(
                    wire_driven.contains(&node),
                    "input pin {pin} of site {site} has no input-mux PIPs"
                );
            }
            assert!(
                d.fanout(d.out_pin(id)).len() > 0,
                "output pin of {site} drives no wires"
            );
        }
    }

    #[test]
    fn out_pin_candidates_hit_distinct_tracks() {
        let d = Device::small(3, 3);
        let site = d.lut_sites()[0];
        let tracks: HashSet<_> = d
            .fanout(d.out_pin(site))
            .map(|entry| entry.dst)
            .filter(|&n| d.node(n).is_wire())
            .collect();
        assert_eq!(tracks.len(), d.params().out_pin_candidates as usize);
    }

    #[test]
    fn xc2s200e_like_bit_proportions_match_paper() {
        let d = Device::xc2s200e_like();
        let layout = d.config_layout();
        let counts = layout.counts_by_category();
        let total: usize = counts.values().sum();
        let frac = |cat: BitCategory| counts.get(&cat).copied().unwrap_or(0) as f64 / total as f64;
        // Paper: routing 82.9 %, CLB customization 6.36 %, LUTs 7.4 %, FFs 0.46 %.
        let routing = frac(BitCategory::GeneralRouting);
        let clb = frac(BitCategory::ClbCustomization);
        let lut = frac(BitCategory::LutContents);
        let ff = frac(BitCategory::FlipFlop);
        assert!(
            routing > 0.75 && routing < 0.90,
            "routing fraction {routing}"
        );
        assert!(clb > 0.03 && clb < 0.12, "clb fraction {clb}");
        assert!(lut > 0.05 && lut < 0.12, "lut fraction {lut}");
        assert!(ff < 0.02, "ff fraction {ff}");
        // Sanity check on absolute size: same order of magnitude as the
        // XC2S200E's 1,442,016 configuration bits.
        assert!(total > 300_000 && total < 3_000_000, "total bits {total}");
    }

    #[test]
    fn node_tile_matches_site_tile() {
        let d = Device::small(3, 3);
        let site = d.lut_sites()[5];
        let tile = d.site(site).tile;
        assert_eq!(d.node_tile(d.out_pin(site)), tile);
        assert_eq!(d.node_tile(d.in_pins(site)[2]), tile);
    }

    /// FNV-1a over explicit little-endian fields, so the digest depends on
    /// the graph alone (not on `Debug` output or the std hasher).
    struct Digest(u64);

    impl Digest {
        fn new() -> Self {
            Self(0xcbf2_9ce4_8422_2325)
        }

        fn u32(&mut self, value: u32) {
            for byte in value.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn tile(&mut self, tile: TileCoord) {
            self.u32(u32::from(tile.x) << 16 | u32::from(tile.y));
        }
    }

    /// Digests of the routing graph (nodes, PIPs, per-node PIP order, site
    /// pins) and of the configuration layout (resource and category of every
    /// bit). Equal digests mean equal node ids, PIP ids and bit addresses,
    /// hence byte-identical bitstreams.
    fn graph_digests(d: &Device) -> [u64; 5] {
        let mut nodes = Digest::new();
        for n in 0..d.node_count() {
            match d.node(NodeId::from_index(n)) {
                RouteNode::OutPin { site } => {
                    nodes.u32(0);
                    nodes.u32(site.index() as u32);
                }
                RouteNode::InPin { site, pin } => {
                    nodes.u32(1);
                    nodes.u32(site.index() as u32);
                    nodes.u32(u32::from(pin));
                }
                RouteNode::Wire { tile, track } => {
                    nodes.u32(2);
                    nodes.tile(tile);
                    nodes.u32(u32::from(track));
                }
            }
        }
        let mut pips = Digest::new();
        for p in 0..d.pip_count() {
            let pip = d.pip(PipId::from_index(p));
            pips.u32(pip.src.index() as u32);
            pips.u32(pip.dst.index() as u32);
            pips.u32(pip.category as u32);
            pips.tile(pip.tile);
        }
        // Each node's outgoing then incoming PIP ids, both in increasing id
        // order; the incoming lists are gathered from the PIPs in id order.
        let mut incoming = vec![Vec::new(); d.node_count()];
        for p in 0..d.pip_count() {
            incoming[d.pip(PipId::from_index(p)).dst.index()].push(p as u32);
        }
        let mut adjacency = Digest::new();
        for (n, incoming) in incoming.iter().enumerate() {
            let outgoing = d.fanout(NodeId::from_index(n));
            adjacency.u32(outgoing.len() as u32);
            for entry in outgoing {
                adjacency.u32(entry.pip.index() as u32);
            }
            adjacency.u32(incoming.len() as u32);
            for &pip in incoming {
                adjacency.u32(pip);
            }
        }
        let mut pins = Digest::new();
        for (id, site) in d.sites() {
            pins.u32(site.kind as u32);
            pins.tile(site.tile);
            pins.u32(u32::from(site.index_in_tile));
            pins.u32(d.out_pin(id).index() as u32);
            for pin in d.in_pins(id) {
                pins.u32(pin.index() as u32);
            }
        }
        let mut layout = Digest::new();
        let config = d.config_layout();
        for bit in 0..config.bit_count() {
            match config.resource_at(bit).expect("bit in range") {
                ConfigResource::LutBit { site, bit } => {
                    layout.u32(0);
                    layout.u32(site.index() as u32);
                    layout.u32(u32::from(bit));
                }
                ConfigResource::FfInit { site } => {
                    layout.u32(1);
                    layout.u32(site.index() as u32);
                }
                ConfigResource::Pip(pip) => {
                    layout.u32(2);
                    layout.u32(pip.index() as u32);
                }
            }
            layout.u32(config.category_at(bit) as u32);
        }
        [nodes.0, pips.0, adjacency.0, pins.0, layout.0]
    }

    /// Any change to node ids, PIP ids, per-node PIP order or bit addresses
    /// breaks these digests, and would change every bitstream. Besides the
    /// two presets they cover the shapes the derived PIP categories and bit
    /// runs must reproduce: the auto-sized paper device every paper number
    /// is computed on, one tile with no input-mux candidates, a 3×3 device
    /// with 5 tracks (its same-tile offset 5 lands on the source track and
    /// is skipped) and a 2×1 device.
    #[test]
    fn device_graphs_are_pinned() {
        assert_eq!(
            graph_digests(&Device::small(24, 24)),
            [
                0x1896_a390_8e79_e219,
                0x0462_ebe2_2efe_a3f8,
                0x7af7_bbe2_88c5_b921,
                0x6d28_85ca_37f4_49a1,
                0x32eb_6d6e_78b1_dcbd,
            ]
        );
        assert_eq!(
            graph_digests(&Device::xc2s200e_like()),
            [
                0xcc68_a330_8d01_0b55,
                0x12a1_8442_9496_4cde,
                0x92bc_df50_8e78_bec1,
                0xee85_a4ce_462b_0ae5,
                0x5313_9347_1dc6_2489,
            ]
        );
        assert_eq!(
            graph_digests(&Device::new(paper())),
            [
                0xda6e_785d_9989_4079,
                0xd110_ea16_0cd2_eb31,
                0xe24f_0359_20ab_baf5,
                0xf8e8_f51d_05d8_c721,
                0xb406_ac82_a840_0725,
            ]
        );
        let no_input_mux = DeviceParams {
            in_pin_candidates: 0,
            ..DeviceParams::small(1, 1)
        };
        assert_eq!(
            graph_digests(&Device::new(no_input_mux)),
            [
                0xc200_358a_c68d_c7f4,
                0x26d7_37ae_5972_52a6,
                0xc20c_58da_b451_baf5,
                0xf252_177e_1241_4ce5,
                0x1a1f_1e54_b6bc_bce5,
            ]
        );
        let five_tracks = DeviceParams {
            tracks: 5,
            ..DeviceParams::small(3, 3)
        };
        assert_eq!(
            graph_digests(&Device::new(five_tracks)),
            [
                0x1cfc_62b5_5cde_87fa,
                0xf645_11fd_7ec7_a7b3,
                0xcbb8_ced9_8e2f_79df,
                0x4cde_80d8_aa61_0f7a,
                0xdf30_0316_41a9_0970,
            ]
        );
        assert_eq!(
            graph_digests(&Device::small(2, 1)),
            [
                0xfd92_2f2f_45ef_1325,
                0xd644_50ed_54d7_cea1,
                0xbe97_acc5_55c6_9899,
                0xb07b_7cd3_fbfb_80b5,
                0x561a_f443_48f8_3001,
            ]
        );
    }

    /// The lean preset the fuzzer rotates in: starved channels and pin
    /// candidates.
    fn lean(cols: u16, rows: u16) -> DeviceParams {
        DeviceParams {
            tracks: 8,
            out_pin_candidates: 4,
            in_pin_candidates: 2,
            sb_same_tile: 2,
            sb_neighbor: 2,
            ..DeviceParams::small(cols, rows)
        }
    }

    /// Every input pin's driver row equals the sources of the PIPs entering
    /// it, gathered by a scan of all PIPs in id order.
    #[test]
    fn pin_drivers_match_a_reverse_scan_of_the_pips() {
        let five_tracks = DeviceParams {
            tracks: 5,
            ..DeviceParams::small(3, 3)
        };
        for params in [
            DeviceParams::small(24, 24),
            lean(6, 6),
            five_tracks,
            paper(),
        ] {
            let d = Device::new(params);
            let mut entering: Vec<(NodeId, NodeId)> = (0..d.pip_count())
                .map(|p| d.pip_endpoints(PipId::from_index(p)))
                .filter(|&(_, dst)| d.node(dst).is_in_pin())
                .map(|(src, dst)| (dst, src))
                .collect();
            // Stable: each pin's drivers stay in PIP id order.
            entering.sort_by_key(|&(dst, _)| dst);
            let mut rows = entering.chunk_by(|a, b| a.0 == b.0);
            let mut pins = 0;
            for (id, site) in d.sites() {
                for &pin in d.in_pins(id) {
                    let expected: Vec<NodeId> = match rows.next() {
                        Some(row) if row[0].0 == pin => row.iter().map(|&(_, src)| src).collect(),
                        _ => panic!("{params:?}: no PIP enters pin {pin} of {site}"),
                    };
                    assert_eq!(d.pin_drivers(pin), expected, "{params:?}: pin {pin}");
                    pins += 1;
                }
            }
            assert!(rows.next().is_none() && pins > 0, "{params:?}");
        }
    }

    #[test]
    fn node_lookup_round_trips() {
        let d = Device::small(3, 3);
        for n in 0..d.node_count() {
            let id = NodeId::from_index(n);
            assert_eq!(d.node_id(d.node(id)), Some(id));
        }
        let tracks = d.params().tracks;
        for node in [
            RouteNode::Wire {
                tile: TileCoord::new(1, 1),
                track: tracks,
            },
            RouteNode::Wire {
                tile: TileCoord::new(3, 0),
                track: 0,
            },
            RouteNode::OutPin {
                site: SiteId::from_index(d.site_count()),
            },
            RouteNode::InPin {
                site: d.ff_sites()[0],
                pin: 1,
            },
        ] {
            assert_eq!(d.node_id(node), None, "{node:?}");
        }
    }

    #[test]
    fn clones_share_the_graph() {
        let d = Device::small(3, 3);
        let clone = d.clone();
        let site = d.lut_sites()[0];
        assert!(std::ptr::eq(d.in_pins(site), clone.in_pins(site)));
        assert!(std::ptr::eq(d.config_layout(), clone.config_layout()));
    }

    /// The switchbox pass the builder ran when it still stored switchbox
    /// PIPs, written out on its own: it calls `emit` with every switchbox
    /// PIP's `(src, dst)`, in id order.
    fn stored_switchbox_pass(d: &Device, mut emit: impl FnMut(NodeId, NodeId)) {
        let p = *d.params();
        let wire = |tile, track| {
            d.node_id(RouteNode::Wire { tile, track })
                .expect("the grid has the wire")
        };
        let same_offsets = [1usize, 5, 13, 7, 3];
        let neigh_offsets = [0usize, 3, 9, 17, 6];
        let tracks = p.tracks as usize;
        for y in 0..p.rows {
            for x in 0..p.cols {
                let tile = TileCoord::new(x, y);
                // West, east, south, north.
                let neighbors: Vec<TileCoord> = [(-1, 0), (1, 0), (0, -1), (0, 1)]
                    .into_iter()
                    .map(|(dx, dy)| (i32::from(x) + dx, i32::from(y) + dy))
                    .filter(|&(nx, ny)| {
                        (0..i32::from(p.cols)).contains(&nx) && (0..i32::from(p.rows)).contains(&ny)
                    })
                    .map(|(nx, ny)| TileCoord::new(nx as u16, ny as u16))
                    .collect();
                for track in 0..p.tracks {
                    let src = wire(tile, track);
                    for &off in same_offsets.iter().take(p.sb_same_tile as usize) {
                        let dst = wire(tile, ((track as usize + off) % tracks) as u16);
                        if dst != src {
                            emit(src, dst);
                        }
                    }
                    for &neighbor in &neighbors {
                        for &off in neigh_offsets.iter().take(p.sb_neighbor as usize) {
                            emit(
                                src,
                                wire(neighbor, ((track as usize + off) % tracks) as u16),
                            );
                        }
                    }
                }
            }
        }
    }

    /// The auto-sized device every paper number is computed on.
    fn paper() -> DeviceParams {
        DeviceParams {
            cols: 54,
            rows: 40,
            tracks: 182,
            ..DeviceParams::xc2s200e_like()
        }
    }

    /// The derived switchbox gives every switchbox PIP the endpoints the
    /// stored pass gave it, and every node the fanout, ids and order, the
    /// stored graph gave it; the stencil holds every switchbox step. Besides
    /// the pinned presets this covers 4 tracks, where same-tile offsets 1, 5
    /// and 13 land on one track so three PIPs share endpoints, and switchbox
    /// counts above the five offsets each list holds.
    #[test]
    fn the_derived_switchbox_matches_the_stored_pass() {
        let presets = [
            DeviceParams::small(24, 24),
            DeviceParams::xc2s200e_like(),
            paper(),
            DeviceParams {
                in_pin_candidates: 0,
                ..DeviceParams::small(1, 1)
            },
            DeviceParams {
                tracks: 5,
                ..DeviceParams::small(3, 3)
            },
            DeviceParams::small(2, 1),
            DeviceParams {
                tracks: 4,
                ..DeviceParams::small(4, 3)
            },
            DeviceParams {
                sb_same_tile: 7,
                sb_neighbor: 9,
                ..DeviceParams::small(5, 4)
            },
        ];
        for params in presets {
            let d = Device::new(params);
            let first = d.graph.pip_ends.len();
            let mut stencil = d.switchbox_stencil();
            stencil.sort_unstable();
            assert_eq!(stencil.is_empty(), params.cols < 3 || params.rows < 3);
            let mut id = first;
            let mut block: Vec<Fanout> = Vec::new();
            let mut last_src: Option<NodeId> = None;
            // Every node's fanout, in node order: a wire's stored-pass PIPs
            // are one block, and blocks come in source order.
            let mut checked = 0;
            let mut check_up_to = |end: usize, block: &[Fanout], src: Option<NodeId>| {
                while checked < end {
                    let node = NodeId::from_index(checked);
                    let expected = match src {
                        Some(src) if src == node => block,
                        _ => &[],
                    };
                    let stored = d.graph.fanout.row(checked);
                    assert_eq!(
                        d.fanout(node).collect::<Vec<_>>(),
                        [stored, expected].concat(),
                        "{params:?}: fanout of {node}"
                    );
                    assert_eq!(d.switchbox_fanout(node).len(), expected.len());
                    checked += 1;
                }
            };
            stored_switchbox_pass(&d, |src, dst| {
                let pip = PipId::from_index(id);
                assert_eq!(
                    d.pip_endpoints(pip),
                    (src, dst),
                    "{params:?}: endpoints of {pip}"
                );
                if last_src != Some(src) {
                    assert!(last_src < Some(src), "{params:?}: {src} out of order");
                    check_up_to(src.index(), &block, last_src);
                    block.clear();
                    last_src = Some(src);
                }
                block.push(Fanout { dst, pip });
                if !stencil.is_empty() {
                    let (
                        RouteNode::Wire { tile, track },
                        RouteNode::Wire {
                            tile: to,
                            track: to_track,
                        },
                    ) = (d.node(src), d.node(dst))
                    else {
                        panic!("{params:?}: {pip} joins no two wires");
                    };
                    let step = (
                        (i32::from(to.x) - i32::from(tile.x)) as i8,
                        (i32::from(to.y) - i32::from(tile.y)) as i8,
                        (to_track + params.tracks - track) % params.tracks,
                    );
                    assert!(
                        stencil.binary_search(&step).is_ok(),
                        "{params:?}: {pip} is no stencil step"
                    );
                }
                id += 1;
            });
            check_up_to(d.node_count(), &block, last_src);
            assert_eq!(id, d.pip_count(), "{params:?}");
        }
    }
}
