//! Routing-graph nodes and programmable interconnect points (PIPs).

use crate::{SiteId, TileCoord};
use std::fmt;

/// Identifier of a routing-graph node within a [`crate::Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize);
        Self(index as u32)
    }

    /// Returns the dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nd{}", self.0)
    }
}

/// Identifier of a [`Pip`] within a [`crate::Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipId(u32);

impl PipId {
    /// Creates a PIP id from a dense index.
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize);
        Self(index as u32)
    }

    /// Returns the dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pip{}", self.0)
    }
}

/// A node of the routing graph.
///
/// Signals travel from an [`RouteNode::OutPin`] through zero or more
/// [`RouteNode::Wire`]s to one or more [`RouteNode::InPin`]s; every hop is a
/// [`Pip`] enabled by one configuration bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteNode {
    /// The fabric-facing output pin of a site (LUT output, FF Q, or the
    /// pad→fabric output of an IOB used as an input pad).
    OutPin {
        /// The owning site.
        site: SiteId,
    },
    /// An input pin of a site (LUT input `pin`, FF D, or the fabric→pad input
    /// of an IOB used as an output pad).
    InPin {
        /// The owning site.
        site: SiteId,
        /// Zero-based pin index (`0..SiteKind::input_pins()`).
        pin: u8,
    },
    /// A general routing wire segment. Each tile owns `tracks` wires.
    Wire {
        /// Tile that owns the wire.
        tile: TileCoord,
        /// Track index within the tile (`0..DeviceParams::tracks`).
        track: u16,
    },
}

impl RouteNode {
    /// Returns `true` for general routing wires.
    pub fn is_wire(self) -> bool {
        matches!(self, RouteNode::Wire { .. })
    }

    /// Returns `true` for site input pins.
    pub fn is_in_pin(self) -> bool {
        matches!(self, RouteNode::InPin { .. })
    }
}

/// The architectural category of a PIP, used to assign its configuration bit
/// to the right region of the configuration memory.
///
/// The DATE 2005 paper distinguishes configuration bits that customise the
/// *general routing* (switch matrices between CLBs — 82.9 % of the device)
/// from the *customization logic inside the CLB* (input multiplexers — 6.36 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipCategory {
    /// A PIP from a site output pin onto a general routing wire.
    OutputMux,
    /// A wire-to-wire PIP inside a switch matrix (same tile or to a neighbour).
    Switchbox,
    /// A PIP from a general routing wire onto a site input pin, or a dedicated
    /// intra-CLB connection (LUT output → FF D). These model the CLB input
    /// multiplexers ("customization logic in the CLB").
    InputMux,
    /// A PIP from a *neighbouring tile's* wire directly onto a site input pin
    /// (wire segments that span into the CLB). Architecturally part of the
    /// general routing, not of the CLB customization.
    LongInput,
}

impl PipCategory {
    /// Returns `true` if bits of this category count as *general routing* in
    /// the paper's taxonomy (as opposed to CLB customization).
    pub fn is_general_routing(self) -> bool {
        matches!(
            self,
            PipCategory::OutputMux | PipCategory::Switchbox | PipCategory::LongInput
        )
    }
}

/// A programmable interconnect point: a unidirectional, buffered connection
/// from `src` to `dst` that is enabled when its configuration bit is 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pip {
    /// Driving node.
    pub src: NodeId,
    /// Driven node.
    pub dst: NodeId,
    /// Architectural category (decides the configuration-bit region).
    pub category: PipCategory,
    /// The tile whose configuration frames hold this PIP's bit.
    pub tile: TileCoord,
}

/// One entry of a node's forward adjacency ([`Device::fanout`]): a PIP
/// leaving the node and the node it drives.
///
/// [`Device::fanout`]: crate::Device::fanout
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanout {
    /// Driven node (the PIP's `dst`).
    pub dst: NodeId,
    /// The PIP.
    pub pip: PipId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_predicates() {
        let wire = RouteNode::Wire {
            tile: TileCoord::new(0, 0),
            track: 3,
        };
        let inp = RouteNode::InPin {
            site: SiteId::from_index(0),
            pin: 1,
        };
        let outp = RouteNode::OutPin {
            site: SiteId::from_index(0),
        };
        assert!(wire.is_wire() && !wire.is_in_pin());
        assert!(inp.is_in_pin());
        assert!(!outp.is_wire() && !outp.is_in_pin());
    }

    #[test]
    fn category_routing_split() {
        assert!(PipCategory::Switchbox.is_general_routing());
        assert!(PipCategory::OutputMux.is_general_routing());
        assert!(!PipCategory::InputMux.is_general_routing());
    }

    #[test]
    fn ids_round_trip() {
        assert_eq!(NodeId::from_index(9).index(), 9);
        assert_eq!(PipId::from_index(11).index(), 11);
        assert_eq!(PipId::from_index(11).to_string(), "pip11");
    }
}
