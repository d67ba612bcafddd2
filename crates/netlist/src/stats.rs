//! Netlist statistics used by area/robustness reports.

use crate::{CellKind, Domain, Netlist, PortDir};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of a netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total number of cells.
    pub cells: usize,
    /// Number of LUT cells.
    pub luts: usize,
    /// Number of flip-flops.
    pub flip_flops: usize,
    /// Number of technology-independent gates (pre-mapping).
    pub generic_gates: usize,
    /// Number of majority voters (`Maj3` gates or LUTs created from them are
    /// counted via domain tagging: cells in [`Domain::Voter`]).
    pub voter_cells: usize,
    /// Number of I/O buffer cells.
    pub io_buffers: usize,
    /// Number of constant drivers.
    pub constants: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of top-level input ports.
    pub inputs: usize,
    /// Number of top-level output ports.
    pub outputs: usize,
    /// Cell count per TMR domain.
    pub cells_per_domain: BTreeMap<Domain, usize>,
    /// Net count per TMR domain.
    pub nets_per_domain: BTreeMap<Domain, usize>,
    /// Histogram of cell mnemonics.
    pub kind_histogram: BTreeMap<&'static str, usize>,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cells={} (luts={}, ffs={}, gates={}, io={}, const={})",
            self.cells,
            self.luts,
            self.flip_flops,
            self.generic_gates,
            self.io_buffers,
            self.constants
        )?;
        writeln!(
            f,
            "nets={} inputs={} outputs={}",
            self.nets, self.inputs, self.outputs
        )?;
        write!(f, "domains: ")?;
        for (domain, count) in &self.cells_per_domain {
            write!(f, "{domain}={count} ")?;
        }
        Ok(())
    }
}

impl Netlist {
    /// Computes aggregate statistics for this netlist.
    pub fn stats(&self) -> NetlistStats {
        let mut stats = NetlistStats {
            cells: self.cell_count(),
            nets: self.net_count(),
            inputs: self.port_count(PortDir::Input),
            outputs: self.port_count(PortDir::Output),
            ..NetlistStats::default()
        };
        for (_, cell) in self.cells() {
            match cell.kind {
                CellKind::Lut { .. } => stats.luts += 1,
                CellKind::Dff { .. } => stats.flip_flops += 1,
                CellKind::Ibuf | CellKind::Obuf => stats.io_buffers += 1,
                CellKind::Gnd | CellKind::Vcc => stats.constants += 1,
                _ => stats.generic_gates += 1,
            }
            if cell.domain == Domain::Voter {
                stats.voter_cells += 1;
            }
            *stats
                .kind_histogram
                .entry(cell.kind.mnemonic())
                .or_insert(0) += 1;
            *stats.cells_per_domain.entry(cell.domain).or_insert(0) += 1;
        }
        for (_, net) in self.nets() {
            *stats.nets_per_domain.entry(net.domain).or_insert(0) += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {

    use crate::{CellKind, Domain, Netlist};

    #[test]
    fn stats_count_kinds_and_domains() {
        let mut nl = Netlist::new("s");
        let a = nl.add_input_in_domain("a", Domain::Tr0);
        let b = nl.add_input_in_domain("b", Domain::Tr1);
        let c = nl.add_input_in_domain("c", Domain::Tr2);
        let v = nl.add_net_in_domain("v", Domain::Voter);
        let q = nl.add_net("q");
        nl.add_cell_in_domain("u_vote", CellKind::Maj3, vec![a, b, c], v, Domain::Voter)
            .unwrap();
        nl.add_cell("u_reg", CellKind::Dff { init: false }, vec![v], q)
            .unwrap();
        nl.add_output("q", q);

        let stats = nl.stats();
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.flip_flops, 1);
        assert_eq!(stats.generic_gates, 1);
        assert_eq!(stats.voter_cells, 1);
        assert_eq!(stats.cells_per_domain[&Domain::Voter], 1);
        assert_eq!(stats.kind_histogram["MAJ3"], 1);
        assert_eq!(stats.inputs, 3);
        assert_eq!(stats.outputs, 1);
        let text = stats.to_string();
        assert!(text.contains("ffs=1"));
    }
}
