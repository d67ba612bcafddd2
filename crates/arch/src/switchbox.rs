//! The switch matrix: one track-to-track rule repeated in every tile.
//!
//! Every wire drives a few wires of its own tile and a few wires of each
//! neighbouring tile, at fixed track offsets. Those PIPs are most of a
//! device's (7,332,416 of the auto-sized paper device's 7,826,648), so the
//! device stores none of them: their ids, endpoints and fanout follow from
//! the rule.
//!
//! Switchbox PIPs take the highest ids, numbered
//! - tile by tile in raster order;
//! - within a tile, track by track;
//! - within a track, first the same-tile steps, then each neighbour in
//!   [`TileCoord::neighbors`] order, with the neighbour steps.
//!
//! So a tile with `n` neighbours holds `tracks × (same + n × near)` PIPs, and
//! the PIPs leaving one wire are one block of consecutive ids.

use crate::{DeviceParams, Fanout, NodeId, PipId, TileCoord};

/// Same-tile track offsets, in PIP order: a wire drives the wires this many
/// tracks past it, modulo the track count. A tile uses the first
/// `sb_same_tile` of them and skips any that lands on the wire itself.
const SAME_TILE_OFFSETS: [u16; 5] = [1, 5, 13, 7, 3];

/// Track offsets towards each neighbouring tile, in PIP order: a tile uses
/// the first `sb_neighbor` of them.
const NEIGHBOR_OFFSETS: [u16; 5] = [0, 3, 9, 17, 6];

/// Base-2 logarithm of the PIPs per entry of [`Switchbox::chunk_tile`].
const CHUNK_SHIFT: u32 = 10;

/// The switchbox rule of one device, with the run of PIP ids each tile
/// takes.
#[derive(Debug)]
pub(crate) struct Switchbox {
    cols: u16,
    rows: u16,
    tracks: u16,
    /// The steps of a wire in a tile with four neighbours, in PIP order:
    /// the tile its target lies in (0 for the wire's own, `g` for its `g`-th
    /// neighbour) and the target's track offset, reduced modulo the track
    /// count. A tile with `n` neighbours takes the first
    /// `same + n × near` of them.
    steps: Vec<(u8, u16)>,
    /// Each tile's run, in raster order.
    tiles: Vec<TileRun>,
    first_pip: u32,
    pip_count: u32,
    /// The tile whose run holds the switchbox PIP `i << CHUNK_SHIFT` past
    /// the first.
    chunk_tile: Vec<u32>,
}

/// The switchbox PIPs of one tile.
#[derive(Debug, Clone, Copy)]
struct TileRun {
    /// Id of the run's first PIP.
    first_pip: u32,
    /// PIPs per track: the steps of a tile with this many neighbours.
    per_track: u32,
    /// The first node of the tile, then of each neighbour: a tile's wires
    /// are its first nodes.
    first_node: [u32; 5],
}

impl Switchbox {
    /// The switchbox of `params`, numbering its PIPs from `first_pip`. Tile
    /// `t`'s wires are the nodes from `tile_first_node[t]` on.
    ///
    /// # Panics
    ///
    /// Panics if the PIP ids do not fit 32 bits.
    pub(crate) fn new(params: &DeviceParams, first_pip: u32, tile_first_node: &[u32]) -> Self {
        let tracks = params.tracks;
        let reduced = |offsets: &[u16], count: u16| -> Vec<u16> {
            offsets
                .iter()
                .take(usize::from(count))
                .filter_map(|offset| offset.checked_rem(tracks))
                .collect()
        };
        let same: Vec<u16> = reduced(&SAME_TILE_OFFSETS, params.sb_same_tile)
            .into_iter()
            .filter(|&offset| offset != 0)
            .collect();
        let near = reduced(&NEIGHBOR_OFFSETS, params.sb_neighbor);
        let steps = same
            .iter()
            .map(|&offset| (0, offset))
            .chain((1..=4).flat_map(|tile| near.iter().map(move |&offset| (tile, offset))))
            .collect();

        let tile_index =
            |tile: TileCoord| usize::from(tile.y) * usize::from(params.cols) + usize::from(tile.x);
        let mut tiles = Vec::with_capacity(tile_first_node.len());
        let mut next = u64::from(first_pip);
        for y in 0..params.rows {
            for x in 0..params.cols {
                let tile = TileCoord::new(x, y);
                let mut first_node = [tile_first_node[tile_index(tile)]; 5];
                let mut neighbors = 0;
                for neighbor in tile.neighbors(params.cols, params.rows) {
                    neighbors += 1;
                    first_node[neighbors] = tile_first_node[tile_index(neighbor)];
                }
                let per_track = (same.len() + neighbors * near.len()) as u32;
                tiles.push(TileRun {
                    first_pip: fits(next),
                    per_track,
                    first_node,
                });
                next += u64::from(tracks) * u64::from(per_track);
            }
        }
        let pip_count = fits(next);

        let mut chunk_tile = Vec::new();
        let mut tile = 0;
        let mut pip = u64::from(first_pip);
        while pip < next {
            while tiles
                .get(tile + 1)
                .is_some_and(|run| u64::from(run.first_pip) <= pip)
            {
                tile += 1;
            }
            chunk_tile.push(tile as u32);
            pip += 1 << CHUNK_SHIFT;
        }
        Self {
            cols: params.cols,
            rows: params.rows,
            tracks,
            steps,
            tiles,
            first_pip,
            pip_count,
            chunk_tile,
        }
    }

    /// First PIP id of each tile's run, in raster order, then the PIP count.
    pub(crate) fn run_starts(&self) -> impl Iterator<Item = u32> + '_ {
        self.tiles
            .iter()
            .map(|run| run.first_pip)
            .chain([self.pip_count])
    }

    /// Number of PIPs of the device, switchbox PIPs included.
    pub(crate) fn pip_count(&self) -> usize {
        self.pip_count as usize
    }

    /// The switchbox PIPs leaving the wire `track` of `tile`.
    #[inline]
    pub(crate) fn fanout(&self, tile: TileCoord, track: u16) -> SwitchboxFanout<'_> {
        let run = &self.tiles[usize::from(tile.y) * usize::from(self.cols) + usize::from(tile.x)];
        SwitchboxFanout {
            steps: self.steps[..run.per_track as usize].iter(),
            first_node: run.first_node,
            track: u32::from(track),
            tracks: self.tracks,
            next_pip: run.first_pip + u32::from(track) * run.per_track,
        }
    }

    /// The `(src, dst)` of the switchbox PIP `pip`: its tile from the run
    /// starts, then its track and step from one division.
    ///
    /// # Panics
    ///
    /// Panics if `pip` is not a switchbox PIP.
    #[inline]
    pub(crate) fn endpoints(&self, pip: PipId) -> (NodeId, NodeId) {
        assert!(
            (self.first_pip as usize..self.pip_count()).contains(&pip.index()),
            "{pip} is no switchbox PIP"
        );
        let id = pip.index() as u32;
        let mut tile = self.chunk_tile[((id - self.first_pip) >> CHUNK_SHIFT) as usize] as usize;
        while self
            .tiles
            .get(tile + 1)
            .is_some_and(|run| run.first_pip <= id)
        {
            tile += 1;
        }
        let run = &self.tiles[tile];
        let within = id - run.first_pip;
        let (track, step) = (within / run.per_track, within % run.per_track);
        let (target, offset) = self.steps[step as usize];
        let src = run.first_node[0] + track;
        let dst =
            run.first_node[usize::from(target)] + wrap(track + u32::from(offset), self.tracks);
        (
            NodeId::from_index(src as usize),
            NodeId::from_index(dst as usize),
        )
    }

    /// Every step of a wire in a tile with four neighbours, in PIP order, as
    /// `(dx, dy, track offset)`; empty on a device without such a tile.
    pub(crate) fn stencil(&self) -> Vec<(i8, i8, u16)> {
        if self.cols < 3 || self.rows < 3 {
            return Vec::new();
        }
        let center = TileCoord::new(1, 1);
        let mut directions = vec![(0, 0)];
        directions.extend(
            center
                .neighbors(3, 3)
                .map(|tile| (tile.x as i8 - 1, tile.y as i8 - 1)),
        );
        self.steps
            .iter()
            .map(|&(target, offset)| {
                let (dx, dy) = directions[usize::from(target)];
                (dx, dy, offset)
            })
            .collect()
    }
}

/// `id` as a 32-bit PIP id.
fn fits(id: u64) -> u32 {
    u32::try_from(id).expect("PIP ids fit 32 bits")
}

/// `track` modulo `tracks`, for a `track` below `2 × tracks`.
#[inline]
fn wrap(track: u32, tracks: u16) -> u32 {
    let tracks = u32::from(tracks);
    if track >= tracks {
        track - tracks
    } else {
        track
    }
}

/// The switchbox PIPs leaving one wire, each with the wire it drives, in
/// increasing PIP id order ([`crate::Device::switchbox_fanout`]).
#[derive(Debug, Clone)]
pub struct SwitchboxFanout<'a> {
    steps: std::slice::Iter<'a, (u8, u16)>,
    first_node: [u32; 5],
    track: u32,
    tracks: u16,
    next_pip: u32,
}

impl SwitchboxFanout<'_> {
    /// No switchbox PIP: the fanout of a pin.
    pub(crate) fn empty() -> Self {
        Self {
            steps: [].iter(),
            first_node: [0; 5],
            track: 0,
            tracks: 0,
            next_pip: 0,
        }
    }
}

impl Iterator for SwitchboxFanout<'_> {
    type Item = Fanout;

    #[inline]
    fn next(&mut self) -> Option<Fanout> {
        let &(target, offset) = self.steps.next()?;
        let track = wrap(self.track + u32::from(offset), self.tracks);
        let pip = self.next_pip;
        self.next_pip += 1;
        Some(Fanout {
            dst: NodeId::from_index((self.first_node[usize::from(target)] + track) as usize),
            pip: PipId::from_index(pip as usize),
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.steps.size_hint()
    }
}

impl ExactSizeIterator for SwitchboxFanout<'_> {}
