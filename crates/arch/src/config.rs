//! Configuration-memory layout: the bit → resource database.
//!
//! The paper's Fault List Manager relies on "a data base of the programmed
//! resources (LUTs and configuration routing cells) we developed by decoding
//! the Xilinx bitstream". [`ConfigLayout`] is that database for our device
//! model: every programmable resource of a [`crate::Device`] owns exactly one
//! configuration bit, addressed both linearly and as (frame, offset).

use crate::rows::Rows;
use crate::{BitGeometry, DeviceParams, Pip, PipId, Site, SiteId, SiteKind};
use std::collections::BTreeMap;

/// Number of truth-table bits per 4-input LUT.
const LUT_BITS: usize = 16;

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
    resources: Vec<ConfigResource>,
    categories: Vec<BitCategory>,
    pip_bit: Vec<u32>,
    lut_bit_base: Vec<u32>,
    ff_bit: Vec<u32>,
}

impl ConfigLayout {
    /// Builds the layout for a device: iterates tiles in raster order and
    /// assigns consecutive bit addresses to the PIPs, LUT truth tables and FF
    /// init bits of each tile, then chops the linear space into frames of
    /// `frame_bits`.
    pub(crate) fn build(params: &DeviceParams, sites: &[Site], pips: &[Pip]) -> Self {
        const UNASSIGNED: u32 = u32::MAX;
        let site_bits = |site: &Site| match site.kind {
            SiteKind::Lut => LUT_BITS,
            SiteKind::Ff => 1,
            SiteKind::Iob => 0,
        };
        let bit_count = pips.len() + sites.iter().map(site_bits).sum::<usize>();
        let mut resources = Vec::with_capacity(bit_count);
        let mut categories = Vec::with_capacity(bit_count);
        let mut pip_bit = vec![UNASSIGNED; pips.len()];
        let mut lut_bit_base = vec![UNASSIGNED; sites.len()];
        let mut ff_bit = vec![UNASSIGNED; sites.len()];

        // Group resources by tile so the frame address space has the same
        // geographic locality as a real bitstream.
        let tile_count = usize::from(params.cols) * usize::from(params.rows);
        let pips_by_tile = Rows::group(
            tile_count,
            pips.iter().map(|pip| params.tile_index(pip.tile)),
            |i| i as u32,
        );
        let sites_by_tile = Rows::group(
            tile_count,
            sites.iter().map(|site| params.tile_index(site.tile)),
            |i| i,
        );

        for tile in 0..tile_count {
            for pip_index in pips_by_tile.row(tile).iter().map(|&i| i as usize) {
                pip_bit[pip_index] = resources.len() as u32;
                resources.push(ConfigResource::Pip(PipId::from_index(pip_index)));
                categories.push(if pips[pip_index].category.is_general_routing() {
                    BitCategory::GeneralRouting
                } else {
                    BitCategory::ClbCustomization
                });
            }
            for &site_index in sites_by_tile.row(tile) {
                let site_id = SiteId::from_index(site_index);
                match sites[site_index].kind {
                    SiteKind::Lut => {
                        lut_bit_base[site_index] = resources.len() as u32;
                        for bit in 0..LUT_BITS as u8 {
                            resources.push(ConfigResource::LutBit { site: site_id, bit });
                            categories.push(BitCategory::LutContents);
                        }
                    }
                    SiteKind::Ff => {
                        ff_bit[site_index] = resources.len() as u32;
                        resources.push(ConfigResource::FfInit { site: site_id });
                        categories.push(BitCategory::FlipFlop);
                    }
                    SiteKind::Iob => {}
                }
            }
        }

        Self {
            frame_bits: params.frame_bits,
            resources,
            categories,
            pip_bit,
            lut_bit_base,
            ff_bit,
        }
    }

    /// Total number of configuration bits.
    pub fn bit_count(&self) -> usize {
        self.resources.len()
    }

    /// Frame size in bits.
    pub fn frame_bits(&self) -> u32 {
        self.frame_bits
    }

    /// The resource controlled by linear bit `bit`, if in range.
    pub fn resource_at(&self, bit: usize) -> Option<ConfigResource> {
        self.resources.get(bit).copied()
    }

    /// The category of linear bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn category_at(&self, bit: usize) -> BitCategory {
        self.categories[bit]
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
            ConfigResource::Pip(pip) => {
                let bit = *self.pip_bit.get(pip.index())?;
                (bit != UNASSIGNED).then_some(bit as usize)
            }
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

    /// The linear bit controlling a PIP.
    pub fn pip_bit(&self, pip: PipId) -> usize {
        self.pip_bit[pip.index()] as usize
    }

    /// Number of configuration bits per category.
    pub fn counts_by_category(&self) -> BTreeMap<BitCategory, usize> {
        let mut counts = BTreeMap::new();
        for &cat in &self.categories {
            *counts.entry(cat).or_insert(0) += 1;
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
        let d = Device::small(3, 2);
        let layout = d.config_layout();
        for bit in 0..layout.bit_count() {
            let resource = layout.resource_at(bit).expect("bit in range");
            assert_eq!(layout.bit_of(&resource), Some(bit), "bit {bit} round-trip");
        }
        assert!(layout.resource_at(layout.bit_count()).is_none());
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
