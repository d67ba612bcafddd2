//! Nets: the wires connecting cell pins and top-level ports.

use crate::{CellId, Domain, PortId};
use std::fmt;

/// What drives a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetDriver {
    /// The net is driven by the output pin of a cell.
    Cell(CellId),
    /// The net is driven by a top-level input port.
    Input(PortId),
}

/// A consumer of a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetSink {
    /// Input pin `pin` of cell `cell`.
    CellPin {
        /// The consuming cell.
        cell: CellId,
        /// Zero-based input-pin index on that cell.
        pin: usize,
    },
    /// A top-level output port.
    Output(PortId),
}

/// A wire connecting one driver to zero or more sinks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Net {
    /// Net name (not required to be unique, but construction helpers keep it so).
    pub name: String,
    /// TMR redundant domain of the signal carried by this net.
    pub domain: Domain,
    /// The driver, if connected.
    pub driver: Option<NetDriver>,
    /// All sinks reading this net.
    pub sinks: Vec<NetSink>,
}

impl Net {
    /// Creates an unconnected net with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Fanout (number of sinks).
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net {} [{}] fanout={}",
            self.name,
            self.domain,
            self.fanout()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_net_is_unconnected() {
        let net = Net::new("foo");
        assert!(net.driver.is_none());
        assert_eq!(net.fanout(), 0);
        assert_eq!(net.domain, Domain::None);
    }

    #[test]
    fn fanout_counts_sinks() {
        let mut net = Net::new("bar");
        net.sinks.push(NetSink::Output(PortId::from_index(0)));
        net.sinks.push(NetSink::CellPin {
            cell: CellId::from_index(1),
            pin: 0,
        });
        assert_eq!(net.fanout(), 2);
    }
}
