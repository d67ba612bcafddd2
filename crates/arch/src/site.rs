//! Logic sites: the placeable locations of the device (LUTs, flip-flops, IOBs).

use crate::TileCoord;
use std::fmt;

/// Number of inputs of every lookup-table site in the device (Spartan-II CLBs
/// use 4-input LUTs).
pub const LUT_INPUTS: usize = 4;

/// The kind of logic resource a [`Site`] provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A 4-input lookup table.
    Lut,
    /// A D flip-flop clocked by the implicit global clock.
    Ff,
    /// An input/output block on the device perimeter. An IOB can be used
    /// either as an input pad (driving the fabric) or an output pad (driven by
    /// the fabric), not both.
    Iob,
}

impl SiteKind {
    /// Number of routable input pins of the site.
    pub fn input_pins(self) -> usize {
        match self {
            SiteKind::Lut => LUT_INPUTS,
            SiteKind::Ff => 1,
            SiteKind::Iob => 1,
        }
    }
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteKind::Lut => f.write_str("LUT"),
            SiteKind::Ff => f.write_str("FF"),
            SiteKind::Iob => f.write_str("IOB"),
        }
    }
}

/// Identifier of a [`Site`] within a [`crate::Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(u32);

impl SiteId {
    /// Creates a site id from a dense index.
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize);
        Self(index as u32)
    }

    /// Returns the dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A placeable logic location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// What the site can implement.
    pub kind: SiteKind,
    /// The tile that owns the site.
    pub tile: TileCoord,
    /// Index of the site within its tile and kind (e.g. "LUT 3 of tile (2,5)").
    pub index_in_tile: u8,
}

impl Site {
    /// Human-readable name, e.g. `LUT_X2Y5_3`.
    pub fn name(&self) -> String {
        format!(
            "{}_X{}Y{}_{}",
            self.kind, self.tile.x, self.tile.y, self.index_in_tile
        )
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_counts() {
        assert_eq!(SiteKind::Lut.input_pins(), 4);
        assert_eq!(SiteKind::Ff.input_pins(), 1);
        assert_eq!(SiteKind::Iob.input_pins(), 1);
    }

    #[test]
    fn site_names_are_descriptive() {
        let site = Site {
            kind: SiteKind::Lut,
            tile: TileCoord::new(2, 5),
            index_in_tile: 3,
        };
        assert_eq!(site.name(), "LUT_X2Y5_3");
        assert_eq!(site.to_string(), "LUT_X2Y5_3");
    }
}
