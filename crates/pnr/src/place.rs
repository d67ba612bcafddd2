//! Wirelength-driven simulated-annealing placement.
//!
//! The annealer attempts 48 moves per cell, spread evenly over 64
//! temperature steps. A move swaps a random cell onto a random compatible
//! site, and that site's occupant, if any, onto the cell's old one. LUT and
//! FF moves are range-limited as in VPR: the target tile is drawn from a
//! square window around the cell's own tile, and redrawn while it holds no
//! site of the cell's kind. The window's half-width starts at the grid span
//! (the largest coordinate distance on the device). After each temperature
//! step it is scaled by `1 - 0.44 + acceptance rate` and clamped to
//! `[1, span]`. So it shrinks while fewer than 44 % of the moves are
//! accepted, and late moves refine locally instead of being proposed, and
//! rejected, across the device. IOB cells sit only on perimeter tiles and
//! draw from every IOB site.
//!
//! The annealer's cost function is the classic half-perimeter wirelength
//! (HPWL), maintained *incrementally*: every routable net carries a
//! [`NetBox`] — its bounding box plus the number of member pins sitting on
//! each of the four boundaries — so a move only touches the boxes of the
//! nets incident to the swapped cells. Each cell knows how many pins it has
//! on each of its nets, so a move sums every affected net's signed pin
//! shift (the moved cell's pins go one way, its swap partner's the other)
//! and applies it with one counted removal and addition. A boundary whose
//! pin count drops to zero forces a rescan of that net's members;
//! everything else is O(1) per incident net. All deltas are exact integers,
//! so the accept/reject decisions (and therefore the RNG stream and the
//! final placement) are identical to a from-scratch cost evaluation —
//! pinned per move by a `debug_assertions` cross-check against
//! [`placement_wirelength`]'s full recompute.

use crate::PnrError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmr_arch::{Device, SiteId, SiteKind, TileCoord};
use tmr_netlist::{CellId, CellKind, NetDriver, NetId, NetSink, Netlist};

/// Placement options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// RNG seed; placements are deterministic for a given seed.
    pub seed: u64,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        Self { seed: 1 }
    }
}

/// A complete placement: every cell of the netlist is assigned to exactly one
/// compatible device site.
#[derive(Debug, Clone)]
pub struct Placement {
    site_of_cell: Vec<SiteId>,
    /// The cell on each site, indexed by site up to the highest occupied
    /// one; [`NO_CELL`] marks a free site.
    cell_at_site: Vec<u32>,
    wirelength: u64,
}

/// The [`Placement`] occupancy entry of a free site.
const NO_CELL: u32 = u32::MAX;

impl Placement {
    /// Rebuilds a placement from the per-cell site assignment and the
    /// recorded wirelength — the inverse of iterating [`Placement::iter`],
    /// used by the `tmr-store` codec. The dense site-occupancy table is
    /// rebuilt from the assignment.
    pub fn from_parts(site_of_cell: Vec<SiteId>, wirelength: u64) -> Self {
        let sites = site_of_cell.iter().map(|site| site.index() + 1).max();
        let mut cell_at_site = vec![NO_CELL; sites.unwrap_or(0)];
        for (cell, site) in site_of_cell.iter().enumerate() {
            cell_at_site[site.index()] = cell as u32;
        }
        Self {
            site_of_cell,
            cell_at_site,
            wirelength,
        }
    }

    /// The site a cell is placed on.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range for the placed netlist.
    pub fn site(&self, cell: CellId) -> SiteId {
        self.site_of_cell[cell.index()]
    }

    /// The cell placed on a site, if any.
    pub fn cell_at(&self, site: SiteId) -> Option<CellId> {
        match self.cell_at_site.get(site.index()) {
            Some(&cell) if cell != NO_CELL => Some(CellId::from_index(cell as usize)),
            _ => None,
        }
    }

    /// Iterates over (cell, site) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, SiteId)> + '_ {
        self.site_of_cell
            .iter()
            .enumerate()
            .map(|(i, &s)| (CellId::from_index(i), s))
    }

    /// Total estimated wirelength (sum of half-perimeter bounding boxes).
    pub fn wirelength(&self) -> u64 {
        self.wirelength
    }
}

/// Returns the site kind a cell requires, or `None` if the cell is not a
/// mapped primitive.
pub(crate) fn required_site_kind(kind: CellKind) -> Option<SiteKind> {
    match kind {
        CellKind::Lut { .. } | CellKind::Gnd | CellKind::Vcc => Some(SiteKind::Lut),
        CellKind::Dff { .. } => Some(SiteKind::Ff),
        CellKind::Ibuf | CellKind::Obuf => Some(SiteKind::Iob),
        _ => None,
    }
}

/// Every site kind, in the fixed order [`place`] checks and fills them.
const SITE_KINDS: [SiteKind; 3] = [SiteKind::Lut, SiteKind::Ff, SiteKind::Iob];

/// One site kind's sites grouped by tile: the tile at raster index
/// `t = y * cols + x` holds `sites[first[t]..first[t + 1]]`.
struct TileSites {
    cols: u16,
    rows: u16,
    first: Vec<u32>,
    sites: Vec<SiteId>,
}

impl TileSites {
    fn new(device: &Device, kind: SiteKind) -> Self {
        let (cols, rows) = (device.cols(), device.rows());
        let raster = |site: SiteId| {
            usize::from(device.site(site).tile.y) * usize::from(cols)
                + usize::from(device.site(site).tile.x)
        };
        let mut sites = device.sites_of_kind(kind).to_vec();
        sites.sort_by_key(|&site| raster(site));
        let first = (0..=usize::from(cols) * usize::from(rows))
            .map(|t| sites.partition_point(|&site| raster(site) < t) as u32)
            .collect();
        Self {
            cols,
            rows,
            first,
            sites,
        }
    }

    /// Draws a tile uniformly from the square window of half-width `reach`
    /// around `center` (clipped to the grid), redrawing while the tile has
    /// no site, then one of its sites uniformly. `center` must hold a site,
    /// so the loop ends.
    fn draw(&self, rng: &mut StdRng, center: TileCoord, reach: u16) -> SiteId {
        let xs = center.x.saturating_sub(reach)..=center.x.saturating_add(reach).min(self.cols - 1);
        let ys = center.y.saturating_sub(reach)..=center.y.saturating_add(reach).min(self.rows - 1);
        loop {
            let x = rng.gen_range(xs.clone());
            let y = rng.gen_range(ys.clone());
            let tile = usize::from(y) * usize::from(self.cols) + usize::from(x);
            let (start, end) = (self.first[tile] as usize, self.first[tile + 1] as usize);
            if start < end {
                return self.sites[rng.gen_range(start..end)];
            }
        }
    }
}

/// Nets that contribute to the wirelength cost: driven by a cell, read by at
/// least one cell (I/O pad nets contribute nothing the placer can optimise).
fn routable_nets(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .nets()
        .filter(|(_, net)| {
            matches!(net.driver, Some(NetDriver::Cell(_)))
                && net
                    .sinks
                    .iter()
                    .any(|s| matches!(s, NetSink::CellPin { .. }))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Full-recompute half-perimeter wirelength of a placement — the reference
/// the incremental annealer cost is asserted against, and the oracle the
/// differential test suite uses.
pub fn placement_wirelength(device: &Device, netlist: &Netlist, placement: &Placement) -> u64 {
    routable_nets(netlist)
        .iter()
        .map(|&net_id| net_hpwl(device, netlist, net_id, |cell| placement.site(cell)))
        .sum()
}

/// From-scratch HPWL of one net under an arbitrary cell → site assignment.
fn net_hpwl(
    device: &Device,
    netlist: &Netlist,
    net_id: NetId,
    site_of: impl Fn(CellId) -> SiteId,
) -> u64 {
    let net = netlist.net(net_id);
    let mut min_x = u16::MAX;
    let mut max_x = 0u16;
    let mut min_y = u16::MAX;
    let mut max_y = 0u16;
    let mut update = |cell: CellId| {
        let tile = device.site(site_of(cell)).tile;
        min_x = min_x.min(tile.x);
        max_x = max_x.max(tile.x);
        min_y = min_y.min(tile.y);
        max_y = max_y.max(tile.y);
    };
    if let Some(NetDriver::Cell(c)) = net.driver {
        update(c);
    }
    for sink in &net.sinks {
        if let NetSink::CellPin { cell, .. } = sink {
            update(*cell);
        }
    }
    if min_x == u16::MAX {
        return 0;
    }
    u64::from(max_x - min_x) + u64::from(max_y - min_y)
}

/// One net's incrementally maintained bounding box: the box itself plus how
/// many member pins sit on each boundary, so boundary-preserving moves never
/// rescan the net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetBox {
    min_x: u16,
    max_x: u16,
    min_y: u16,
    max_y: u16,
    on_min_x: u32,
    on_max_x: u32,
    on_min_y: u32,
    on_max_y: u32,
}

impl NetBox {
    fn empty() -> Self {
        Self {
            min_x: u16::MAX,
            max_x: 0,
            min_y: u16::MAX,
            max_y: 0,
            on_min_x: 0,
            on_max_x: 0,
            on_min_y: 0,
            on_max_y: 0,
        }
    }

    fn hpwl(&self) -> u64 {
        u64::from(self.max_x - self.min_x) + u64::from(self.max_y - self.min_y)
    }

    /// Adds `count` member pins at `tile`, extending the box if needed.
    fn add(&mut self, tile: TileCoord, count: u32) {
        if tile.x < self.min_x {
            self.min_x = tile.x;
            self.on_min_x = count;
        } else if tile.x == self.min_x {
            self.on_min_x += count;
        }
        if tile.x > self.max_x {
            self.max_x = tile.x;
            self.on_max_x = count;
        } else if tile.x == self.max_x {
            self.on_max_x += count;
        }
        if tile.y < self.min_y {
            self.min_y = tile.y;
            self.on_min_y = count;
        } else if tile.y == self.min_y {
            self.on_min_y += count;
        }
        if tile.y > self.max_y {
            self.max_y = tile.y;
            self.on_max_y = count;
        } else if tile.y == self.max_y {
            self.on_max_y += count;
        }
    }

    /// Removes `count` member pins at `tile`. Returns `true` when a boundary
    /// lost its last pin — the box may shrink and the caller must rescan.
    fn remove(&mut self, tile: TileCoord, count: u32) -> bool {
        if tile.x == self.min_x {
            if self.on_min_x <= count {
                return true;
            }
            self.on_min_x -= count;
        }
        if tile.x == self.max_x {
            if self.on_max_x <= count {
                return true;
            }
            self.on_max_x -= count;
        }
        if tile.y == self.min_y {
            if self.on_min_y <= count {
                return true;
            }
            self.on_min_y -= count;
        }
        if tile.y == self.max_y {
            if self.on_max_y <= count {
                return true;
            }
            self.on_max_y -= count;
        }
        false
    }
}

/// Rescans a net's members and rebuilds its [`NetBox`] from scratch.
fn compute_box(device: &Device, members: &[CellId], site_of_cell: &[SiteId]) -> NetBox {
    let mut net_box = NetBox::empty();
    for &cell in members {
        net_box.add(device.site(site_of_cell[cell.index()]).tile, 1);
    }
    net_box
}

/// Places a technology-mapped netlist onto a device.
///
/// # Errors
///
/// Returns [`PnrError::UnplaceableCell`] if the netlist contains unmapped
/// gates and [`PnrError::NotEnoughSites`] if the device is too small.
pub fn place(
    device: &Device,
    netlist: &Netlist,
    options: &PlacerOptions,
) -> Result<Placement, PnrError> {
    // Partition cells by required site kind, in `SITE_KINDS` order.
    let mut cells_by_kind: [Vec<CellId>; 3] = Default::default();
    for (id, cell) in netlist.cells() {
        let kind = required_site_kind(cell.kind).ok_or_else(|| PnrError::UnplaceableCell {
            cell: cell.name.clone(),
            kind: cell.kind.to_string(),
        })?;
        let slot = SITE_KINDS.iter().position(|&k| k == kind);
        cells_by_kind[slot.expect("every site kind is listed")].push(id);
    }

    // A fixed order, so a design that overflows several kinds reports the
    // same one on every run.
    for (&kind, cells) in SITE_KINDS.iter().zip(&cells_by_kind) {
        let available = device.sites_of_kind(kind).len();
        if cells.len() > available {
            return Err(PnrError::NotEnoughSites {
                kind: kind.to_string(),
                needed: cells.len(),
                available,
            });
        }
    }

    // Initial placement: netlist order onto sites in device order. Cells
    // created together by the lowering pass (e.g. the bits of one adder) are
    // adjacent in the netlist, so this is already a reasonable start.
    let mut site_of_cell = vec![SiteId::from_index(0); netlist.cell_count()];
    let mut cell_at_site = vec![NO_CELL; device.site_count()];
    for (&kind, cells) in SITE_KINDS.iter().zip(&cells_by_kind) {
        for (cell, &site) in cells.iter().zip(device.sites_of_kind(kind)) {
            site_of_cell[cell.index()] = site;
            cell_at_site[site.index()] = cell.index() as u32;
        }
    }

    let cost_nets = routable_nets(netlist);

    // Per-net member pins (driver plus every cell-pin sink occurrence — the
    // exact multiset the HPWL definition scans) and the per-cell incidence
    // lists of `(net, pins of the cell on it)`, nets indexed by position in
    // `cost_nets`.
    let mut members: Vec<Vec<CellId>> = Vec::with_capacity(cost_nets.len());
    let mut nets_of_cell: Vec<Vec<(u32, u32)>> = vec![Vec::new(); netlist.cell_count()];
    for (index, &net_id) in cost_nets.iter().enumerate() {
        let net = netlist.net(net_id);
        let driver = match net.driver {
            Some(NetDriver::Cell(c)) => Some(c),
            _ => None,
        };
        let sinks = net.sinks.iter().filter_map(|sink| match sink {
            NetSink::CellPin { cell, .. } => Some(*cell),
            NetSink::Output(_) => None,
        });
        let pins: Vec<CellId> = driver.into_iter().chain(sinks).collect();
        for cell in &pins {
            let incident = &mut nets_of_cell[cell.index()];
            match incident.last_mut() {
                Some((net, count)) if *net == index as u32 => *count += 1,
                _ => incident.push((index as u32, 1)),
            }
        }
        members.push(pins);
    }

    let mut boxes: Vec<NetBox> = members
        .iter()
        .map(|pins| compute_box(device, pins, &site_of_cell))
        .collect();
    let mut total_cost: u64 = boxes.iter().map(NetBox::hpwl).sum();

    // Simulated annealing: `MOVES_PER_CELL` attempted moves per movable
    // cell, LUT and FF targets drawn within the range-limit window.
    const MOVES_PER_CELL: usize = 48;
    // The acceptance rate the range limiter steers toward (VPR's 0.44).
    const TARGET_ACCEPTANCE: f64 = 0.44;
    let movable: Vec<CellId> = netlist.cells().map(|(id, _)| id).collect();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let total_moves = MOVES_PER_CELL * movable.len().max(1);
    let mut temperature = (total_cost as f64 / cost_nets.len().max(1) as f64).max(1.0);
    let temperature_steps = 64usize;
    let moves_per_step = (total_moves / temperature_steps).max(1);
    let alpha = 0.92f64;
    let lut_tiles = TileSites::new(device, SiteKind::Lut);
    let ff_tiles = TileSites::new(device, SiteKind::Ff);
    let span = f64::from((device.cols().max(device.rows()) - 1).max(1));
    let mut window = span;

    // Reused per-move buffers: no allocation on the annealing hot path.
    // `shift[net]` is the moved cell's pin count on the net minus its swap
    // partner's, valid for the nets stamped with the current move.
    let mut affected: Vec<u32> = Vec::new();
    let mut saved: Vec<(u32, NetBox)> = Vec::new();
    let mut shift = vec![0i32; cost_nets.len()];
    let mut shift_stamp = vec![0u32; cost_nets.len()];
    let mut move_stamp = 0u32;

    for _step in 0..temperature_steps {
        let reach = window as u16;
        let mut accepted = 0usize;
        for _ in 0..moves_per_step {
            let cell = movable[rng.gen_range(0..movable.len())];
            let current = site_of_cell[cell.index()];
            let current_tile = device.site(current).tile;
            let target = match required_site_kind(netlist.cell(cell).kind) {
                Some(SiteKind::Lut) => lut_tiles.draw(&mut rng, current_tile, reach),
                Some(SiteKind::Ff) => ff_tiles.draw(&mut rng, current_tile, reach),
                _ => {
                    let pool = device.iob_sites();
                    pool[rng.gen_range(0..pool.len())]
                }
            };
            if target == current {
                continue;
            }
            let occupant_slot = cell_at_site[target.index()];
            let occupant =
                (occupant_slot != NO_CELL).then(|| CellId::from_index(occupant_slot as usize));
            let target_tile = device.site(target).tile;

            if current_tile == target_tile {
                // Swapping within one tile never changes any bounding box:
                // delta is zero, the move is always accepted, and no RNG is
                // consumed — exactly as a full cost evaluation would decide.
                site_of_cell[cell.index()] = target;
                if let Some(other) = occupant {
                    site_of_cell[other.index()] = current;
                }
                cell_at_site[target.index()] = cell.index() as u32;
                cell_at_site[current.index()] = occupant_slot;
                accepted += 1;
                continue;
            }

            // Affected nets: union of both cells' incident nets, each with
            // its signed pin shift from the current to the target tile.
            move_stamp += 1;
            affected.clear();
            let partner = occupant.map(|other| (other, -1));
            for (moved, sign) in std::iter::once((cell, 1)).chain(partner) {
                for &(net, count) in &nets_of_cell[moved.index()] {
                    let index = net as usize;
                    if shift_stamp[index] != move_stamp {
                        shift_stamp[index] = move_stamp;
                        shift[index] = 0;
                        affected.push(net);
                    }
                    shift[index] += sign * count as i32;
                }
            }

            // Apply tentatively, then update each affected box
            // incrementally: move the net's shifted pins from their old
            // tile to the new one, rescan only when a boundary empties. A
            // net with as many pins of both cells keeps its box.
            site_of_cell[cell.index()] = target;
            if let Some(other) = occupant {
                site_of_cell[other.index()] = current;
            }

            saved.clear();
            let mut delta = 0i64;
            for &net in &affected {
                let index = net as usize;
                let (from, to) = match shift[index] {
                    0 => continue,
                    s if s > 0 => (current_tile, target_tile),
                    _ => (target_tile, current_tile),
                };
                let count = shift[index].unsigned_abs();
                let old_box = boxes[index];
                saved.push((net, old_box));
                let mut net_box = old_box;
                if net_box.remove(from, count) {
                    net_box = compute_box(device, &members[index], &site_of_cell);
                } else {
                    net_box.add(to, count);
                }
                debug_assert_eq!(
                    net_box,
                    compute_box(device, &members[index], &site_of_cell),
                    "incremental NetBox diverged from full recompute"
                );
                delta += net_box.hpwl() as i64 - old_box.hpwl() as i64;
                boxes[index] = net_box;
            }

            let accept = delta <= 0 || {
                let p = (-(delta as f64) / temperature).exp();
                rng.gen::<f64>() < p
            };
            if accept {
                cell_at_site[target.index()] = cell.index() as u32;
                cell_at_site[current.index()] = occupant_slot;
                total_cost = (total_cost as i64 + delta) as u64;
                accepted += 1;
            } else {
                // Revert the assignment and the touched boxes.
                site_of_cell[cell.index()] = current;
                if let Some(other) = occupant {
                    site_of_cell[other.index()] = target;
                }
                for &(net, net_box) in &saved {
                    boxes[net as usize] = net_box;
                }
            }
        }
        temperature *= alpha;
        let acceptance = accepted as f64 / moves_per_step as f64;
        window = (window * (1.0 - TARGET_ACCEPTANCE + acceptance)).clamp(1.0, span);
    }

    debug_assert_eq!(
        total_cost,
        boxes.iter().map(NetBox::hpwl).sum::<u64>(),
        "incremental total cost diverged from the maintained boxes"
    );

    Ok(Placement::from_parts(site_of_cell, total_cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tmr_designs::counter;
    use tmr_synth::{lower, optimize, techmap};

    fn mapped_counter() -> Netlist {
        techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap()
    }

    #[test]
    fn places_every_cell_on_a_unique_compatible_site() {
        let device = Device::small(5, 5);
        let netlist = mapped_counter();
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let mut used: HashSet<SiteId> = HashSet::new();
        for (cell_id, cell) in netlist.cells() {
            let site = placement.site(cell_id);
            assert!(used.insert(site), "site {site} used twice");
            assert_eq!(
                device.site(site).kind,
                required_site_kind(cell.kind).unwrap(),
                "cell {} placed on wrong site kind",
                cell.name
            );
            assert_eq!(placement.cell_at(site), Some(cell_id));
        }
    }

    #[test]
    fn placement_is_deterministic_for_a_seed() {
        let device = Device::small(5, 5);
        let netlist = mapped_counter();
        let a = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let b = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert_eq!(a.wirelength(), b.wirelength());
    }

    #[test]
    fn incremental_cost_matches_full_recompute() {
        for (cols, rows, seed) in [(5, 5, 1), (6, 6, 7), (8, 8, 42)] {
            let device = Device::small(cols, rows);
            let netlist = mapped_counter();
            let placement = place(&device, &netlist, &PlacerOptions { seed }).unwrap();
            assert_eq!(
                placement.wirelength(),
                placement_wirelength(&device, &netlist, &placement),
                "incremental wirelength diverged (seed {seed})"
            );
        }
    }

    #[test]
    fn rejects_unmapped_netlists() {
        let device = Device::small(3, 3);
        let mut nl = Netlist::new("raw");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_cell("u", tmr_netlist::CellKind::And2, vec![a, b], y)
            .unwrap();
        nl.add_output("y", y);
        let err = place(&device, &nl, &PlacerOptions::default()).unwrap_err();
        assert!(matches!(err, PnrError::UnplaceableCell { .. }));
    }

    #[test]
    fn rejects_designs_larger_than_the_device() {
        let device = Device::small(2, 2);
        let fir = tmr_designs::FirFilter::paper_filter().to_design();
        let netlist = techmap(&optimize(&lower(&fir).unwrap())).unwrap();
        // The FIR overflows the LUT, FF and IOB sites alike; kinds are
        // checked in a fixed order, so every call reports the LUT shortfall.
        let lut_sites = device.sites_of_kind(SiteKind::Lut).len();
        for _ in 0..8 {
            let err = place(&device, &netlist, &PlacerOptions::default()).unwrap_err();
            assert_eq!(
                err,
                PnrError::NotEnoughSites {
                    kind: "LUT".to_string(),
                    needed: 948,
                    available: lut_sites,
                }
            );
        }
    }
}
