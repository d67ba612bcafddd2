//! Configuration-memory layout: the bit → resource database.
//!
//! The paper's Fault List Manager relies on "a data base of the programmed
//! resources (LUTs and configuration routing cells) we developed by decoding
//! the Xilinx bitstream". [`ConfigLayout`] is that database for our device
//! model: every programmable resource of a [`crate::Device`] owns exactly one
//! configuration bit, addressed both linearly and as (frame, offset).
//!
//! Bits are grouped by tile, in raster order. The device builder emits each
//! tile's PIPs as three runs of consecutive ids (its sites' pin PIPs, its
//! FF-mux PIPs, its switchbox PIPs), and a tile's bits are those three runs
//! in that order, then the LUT and FF bits of its sites. So the database
//! keeps one 32-bit code per bit, naming the bit's resource and category,
//! and nothing per PIP: a PIP's bit follows from where its run starts.

use crate::{BitGeometry, DeviceParams, PipId, Site, SiteId, SiteKind};
use std::collections::BTreeMap;

/// Number of truth-table bits per 4-input LUT.
const LUT_BITS: usize = 16;

/// A bit's code: the top two bits are one of the four tags below, and the
/// low [`TAG_SHIFT`] bits carry a PIP index, or a site index shifted left by
/// [`LUT_BIT_WIDTH`] and the truth-table bit index.
const TAG_SHIFT: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
const LUT_BIT_WIDTH: u32 = LUT_BITS.trailing_zeros();
// The tags follow `BitCategory`'s order, so a tag is its bit's category.
const LUT_BIT: u32 = 0;
const FF_INIT: u32 = 1;
/// A PIP of the CLB customization.
const CLB_PIP: u32 = 2;
/// A PIP of the general routing.
const ROUTING_PIP: u32 = 3;

/// A programmable resource controlled by one configuration bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigResource {
    /// Bit `bit` (0..16) of the truth table of the LUT placed at `site`.
    LutBit {
        /// The LUT site.
        site: SiteId,
        /// Truth-table bit index.
        bit: u8,
    },
    /// The power-up / initialisation value of the flip-flop at `site`.
    FfInit {
        /// The FF site.
        site: SiteId,
    },
    /// The enable bit of a programmable interconnect point.
    Pip(PipId),
}

/// The coarse category of a configuration bit, matching the taxonomy of
/// Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BitCategory {
    /// LUT truth-table contents ("logic").
    LutContents,
    /// Flip-flop initialisation bits.
    FlipFlop,
    /// CLB customization (input multiplexers, intra-CLB connections).
    ClbCustomization,
    /// General routing (switch matrices, output multiplexers onto wires).
    GeneralRouting,
}

impl BitCategory {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            BitCategory::LutContents => "LUT",
            BitCategory::FlipFlop => "flip-flop",
            BitCategory::ClbCustomization => "CLB customization",
            BitCategory::GeneralRouting => "general routing",
        }
    }
}

/// The address of a configuration bit in the frame-organised memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitAddr {
    /// Frame index.
    pub frame: u32,
    /// Bit offset within the frame.
    pub offset: u32,
}

/// The complete configuration-memory layout of a device.
#[derive(Debug, Clone)]
pub struct ConfigLayout {
    frame_bits: u32,
    /// One code per bit (see [`TAG_SHIFT`]).
    codes: Vec<u32>,
    /// First PIP id of every tile's pin run, then of every tile's FF-mux
    /// run, then of every tile's switchbox run, then the PIP count.
    run_starts: Vec<u32>,
    /// First bit of each run: a run's PIPs take consecutive bits.
    run_bits: Vec<u32>,
    lut_bit_base: Vec<u32>,
    ff_bit: Vec<u32>,
}

impl ConfigLayout {
    /// Builds the layout for a device: iterates tiles in raster order and
    /// assigns consecutive bit addresses to the PIPs, LUT truth tables and FF
    /// init bits of each tile, then chops the linear space into frames of
    /// `frame_bits`.
    ///
    /// Tile `t` owns sites `tile_first_site[t]..tile_first_site[t + 1]`.
    /// `run_starts` holds the first PIP id of every tile's pin run, then of
    /// every tile's FF-mux run, then of every tile's switchbox run, then the
    /// PIP count. `general_routing` tells whether a PIP's bit counts as
    /// general routing.
    ///
    /// # Panics
    ///
    /// Panics if a PIP or site index does not fit a bit code (2^30 PIPs,
    /// 2^26 sites).
    pub(crate) fn build(
        params: &DeviceParams,
        sites: &[Site],
        tile_first_site: &[u32],
        run_starts: Vec<u32>,
        general_routing: impl Fn(usize) -> bool,
    ) -> Self {
        const UNASSIGNED: u32 = u32::MAX;
        let site_bits = |site: &Site| match site.kind {
            SiteKind::Lut => LUT_BITS,
            SiteKind::Ff => 1,
            SiteKind::Iob => 0,
        };
        let tile_count = tile_first_site.len() - 1;
        assert_eq!(run_starts.len(), 3 * tile_count + 1, "three runs per tile");
        let pip_count = run_starts[3 * tile_count];
        assert!(
            pip_count <= 1 << TAG_SHIFT,
            "{pip_count} PIPs do not fit a bit code"
        );
        assert!(
            sites.len() <= 1 << (TAG_SHIFT - LUT_BIT_WIDTH),
            "{} sites do not fit a bit code",
            sites.len()
        );
        let bit_count = pip_count as usize + sites.iter().map(site_bits).sum::<usize>();
        let mut codes = Vec::with_capacity(bit_count);
        let mut run_bits = vec![0; 3 * tile_count];
        let mut lut_bit_base = vec![UNASSIGNED; sites.len()];
        let mut ff_bit = vec![UNASSIGNED; sites.len()];

        for tile in 0..tile_count {
            for kind in 0..3 {
                let run = kind * tile_count + tile;
                run_bits[run] = codes.len() as u32;
                codes.extend((run_starts[run]..run_starts[run + 1]).map(|pip| {
                    let tag = if general_routing(pip as usize) {
                        ROUTING_PIP
                    } else {
                        CLB_PIP
                    };
                    tag << TAG_SHIFT | pip
                }));
            }
            for site_index in tile_first_site[tile] as usize..tile_first_site[tile + 1] as usize {
                let site = site_index as u32;
                match sites[site_index].kind {
                    SiteKind::Lut => {
                        lut_bit_base[site_index] = codes.len() as u32;
                        codes.extend(
                            (0..LUT_BITS as u32)
                                .map(|bit| LUT_BIT << TAG_SHIFT | site << LUT_BIT_WIDTH | bit),
                        );
                    }
                    SiteKind::Ff => {
                        ff_bit[site_index] = codes.len() as u32;
                        codes.push(FF_INIT << TAG_SHIFT | site);
                    }
                    SiteKind::Iob => {}
                }
            }
        }

        Self {
            frame_bits: params.frame_bits,
            codes,
            run_starts,
            run_bits,
            lut_bit_base,
            ff_bit,
        }
    }

    /// Total number of configuration bits.
    pub fn bit_count(&self) -> usize {
        self.codes.len()
    }

    /// Frame size in bits.
    pub fn frame_bits(&self) -> u32 {
        self.frame_bits
    }

    /// The resource controlled by linear bit `bit`, if in range.
    #[inline]
    pub fn resource_at(&self, bit: usize) -> Option<ConfigResource> {
        let code = *self.codes.get(bit)?;
        let (tag, payload) = (code >> TAG_SHIFT, (code & PAYLOAD_MASK) as usize);
        // Most bits are PIPs: one compare tells them apart.
        Some(if tag >= CLB_PIP {
            ConfigResource::Pip(PipId::from_index(payload))
        } else if tag == LUT_BIT {
            ConfigResource::LutBit {
                site: SiteId::from_index(payload >> LUT_BIT_WIDTH),
                bit: (payload % LUT_BITS) as u8,
            }
        } else {
            ConfigResource::FfInit {
                site: SiteId::from_index(payload),
            }
        })
    }

    /// The category of linear bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    #[inline]
    pub fn category_at(&self, bit: usize) -> BitCategory {
        match self.codes[bit] >> TAG_SHIFT {
            LUT_BIT => BitCategory::LutContents,
            FF_INIT => BitCategory::FlipFlop,
            CLB_PIP => BitCategory::ClbCustomization,
            _ => BitCategory::GeneralRouting,
        }
    }

    /// The frame/offset geometry of this configuration memory: the
    /// coordinate map the multi-bit fault models expand their clusters in
    /// (see [`crate::MbuPattern`]).
    pub fn geometry(&self) -> BitGeometry {
        BitGeometry::new(self.frame_bits, self.bit_count())
    }

    /// The frame/offset address of a linear bit index.
    pub fn addr_of(&self, bit: usize) -> BitAddr {
        BitAddr {
            frame: (bit / self.frame_bits as usize) as u32,
            offset: (bit % self.frame_bits as usize) as u32,
        }
    }

    /// The linear bit index of a frame/offset address.
    pub fn bit_at(&self, addr: BitAddr) -> usize {
        addr.frame as usize * self.frame_bits as usize + addr.offset as usize
    }

    /// The linear bit controlling a resource, if that resource exists in this
    /// device (e.g. `FfInit` of a LUT site returns `None`).
    pub fn bit_of(&self, resource: &ConfigResource) -> Option<usize> {
        const UNASSIGNED: u32 = u32::MAX;
        match *resource {
            ConfigResource::Pip(pip) => (pip.index() < self.pip_count()).then(|| self.pip_bit(pip)),
            ConfigResource::LutBit { site, bit } => {
                let base = *self.lut_bit_base.get(site.index())?;
                (base != UNASSIGNED && (bit as usize) < LUT_BITS)
                    .then_some(base as usize + bit as usize)
            }
            ConfigResource::FfInit { site } => {
                let bit = *self.ff_bit.get(site.index())?;
                (bit != UNASSIGNED).then_some(bit as usize)
            }
        }
    }

    /// The linear bit controlling a PIP: its run's first bit plus its
    /// offset in the run.
    ///
    /// # Panics
    ///
    /// Panics if the PIP id is out of range.
    pub fn pip_bit(&self, pip: PipId) -> usize {
        assert!(pip.index() < self.pip_count(), "{pip} out of range");
        let pip = pip.index() as u32;
        let run = self.run_starts.partition_point(|&start| start <= pip) - 1;
        (self.run_bits[run] + pip - self.run_starts[run]) as usize
    }

    fn pip_count(&self) -> usize {
        self.run_starts[self.run_starts.len() - 1] as usize
    }

    /// The bits of the switchbox run of the tile with raster index `tile`.
    pub(crate) fn switchbox_bits(&self, tile: usize) -> std::ops::Range<usize> {
        let tile_count = self.run_bits.len() / 3;
        let run = 2 * tile_count + tile;
        let start = self.run_bits[run] as usize;
        start..start + (self.run_starts[run + 1] - self.run_starts[run]) as usize
    }

    /// Number of configuration bits per category.
    pub fn counts_by_category(&self) -> BTreeMap<BitCategory, usize> {
        let mut counts = BTreeMap::new();
        for bit in 0..self.bit_count() {
            *counts.entry(self.category_at(bit)).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    #[test]
    fn every_bit_maps_to_a_resource_and_back() {
        // Without slices every FF-mux run is empty, and so is the pin run of
        // the interior tile, which has no sites.
        let no_slices = DeviceParams {
            slices_per_tile: 0,
            ..DeviceParams::small(3, 3)
        };
        for d in [Device::small(3, 2), Device::new(no_slices)] {
            let layout = d.config_layout();
            for bit in 0..layout.bit_count() {
                let resource = layout.resource_at(bit).expect("bit in range");
                assert_eq!(layout.bit_of(&resource), Some(bit), "bit {bit} round-trip");
            }
            assert!(layout.resource_at(layout.bit_count()).is_none());
            let beyond = PipId::from_index(d.pip_count());
            assert_eq!(layout.bit_of(&ConfigResource::Pip(beyond)), None);
        }
    }

    #[test]
    #[should_panic(expected = "do not fit a bit code")]
    fn pip_ids_beyond_the_code_range_are_rejected() {
        let too_many = (1 << TAG_SHIFT) + 1;
        ConfigLayout::build(
            &DeviceParams::small(1, 1),
            &[],
            &[0, 0],
            vec![0, 0, 0, too_many],
            |_| true,
        );
    }

    #[test]
    fn frame_addressing_round_trips() {
        let d = Device::small(3, 2);
        let layout = d.config_layout();
        for bit in (0..layout.bit_count()).step_by(97) {
            let addr = layout.addr_of(bit);
            assert_eq!(layout.bit_at(addr), bit);
            assert!(addr.offset < layout.frame_bits());
        }
    }

    #[test]
    fn geometry_matches_the_layout_addressing() {
        let d = Device::small(3, 2);
        let layout = d.config_layout();
        let geometry = layout.geometry();
        assert_eq!(geometry.bit_count(), layout.bit_count());
        assert_eq!(geometry.frame_bits(), layout.frame_bits());
        for bit in (0..layout.bit_count()).step_by(61) {
            assert_eq!(geometry.addr_of(bit), layout.addr_of(bit));
            assert_eq!(geometry.bit_at(layout.addr_of(bit)), Some(bit));
        }
    }

    #[test]
    fn pip_bits_match_pip_category() {
        let d = Device::small(3, 2);
        let layout = d.config_layout();
        for i in 0..d.pip_count() {
            let pip_id = PipId::from_index(i);
            let bit = layout.pip_bit(pip_id);
            assert_eq!(layout.resource_at(bit), Some(ConfigResource::Pip(pip_id)));
            let expected = if d.pip(pip_id).category.is_general_routing() {
                BitCategory::GeneralRouting
            } else {
                BitCategory::ClbCustomization
            };
            assert_eq!(layout.category_at(bit), expected);
        }
    }

    #[test]
    fn lut_sites_have_16_bits_each() {
        let d = Device::small(2, 2);
        let layout = d.config_layout();
        let counts = layout.counts_by_category();
        assert_eq!(counts[&BitCategory::LutContents], d.lut_sites().len() * 16);
        assert_eq!(counts[&BitCategory::FlipFlop], d.ff_sites().len());
    }

    #[test]
    fn ff_init_of_lut_site_is_none() {
        let d = Device::small(2, 2);
        let layout = d.config_layout();
        let lut_site = d.lut_sites()[0];
        assert!(layout
            .bit_of(&ConfigResource::FfInit { site: lut_site })
            .is_none());
        let ff_site = d.ff_sites()[0];
        assert!(layout
            .bit_of(&ConfigResource::LutBit {
                site: ff_site,
                bit: 0
            })
            .is_none());
    }
}
