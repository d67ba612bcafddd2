//! Graph traversals: topological ordering and levelization.

use crate::{CellId, NetDriver, NetId, NetSink, Netlist};
use std::collections::{HashSet, VecDeque};

/// A combinational loop found during levelization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombLoop {
    /// Cells participating in the strongly-connected region (unordered).
    pub cells: Vec<CellId>,
}

/// Result of levelizing a netlist: a topological order of the combinational
/// cells plus the logic depth of every cell.
#[derive(Debug, Clone)]
pub struct Levelization {
    /// Combinational cells in topological (fanin-before-fanout) order.
    /// Sequential cells are excluded: their outputs are treated as sources.
    pub order: Vec<CellId>,
    /// Logic level of every cell (index by `CellId::index`); sources are 0.
    /// Sequential cells have level 0.
    pub level: Vec<usize>,
    /// Maximum combinational depth (in cells) over the whole netlist.
    pub depth: usize,
}

impl Netlist {
    /// Computes a topological order of the combinational cells, treating
    /// flip-flop outputs, constants and top-level inputs as sources and
    /// flip-flop inputs and top-level outputs as sinks.
    ///
    /// # Errors
    ///
    /// Returns the set of cells involved in a combinational loop if one exists.
    pub fn levelize(&self) -> Result<Levelization, CombLoop> {
        let n = self.cell_count();
        let mut indegree = vec![0usize; n];
        let mut level = vec![0usize; n];

        // Combinational dependency: cell B depends on cell A if one of B's
        // input nets is driven by A and A is combinational.
        let comb_driver = |net: NetId| -> Option<CellId> {
            match self.net(net).driver {
                Some(NetDriver::Cell(c)) if !self.cell(c).kind.is_sequential() => Some(c),
                _ => None,
            }
        };

        for (id, cell) in self.cells() {
            if cell.kind.is_sequential() {
                continue;
            }
            let deps = cell
                .inputs
                .iter()
                .filter_map(|&net| comb_driver(net))
                .count();
            indegree[id.index()] = deps;
        }

        let mut queue: VecDeque<CellId> = self
            .cells()
            .filter(|(id, c)| !c.kind.is_sequential() && indegree[id.index()] == 0)
            .map(|(id, _)| id)
            .collect();

        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            let out_net = self.cell(id).output;
            for sink in &self.net(out_net).sinks {
                if let NetSink::CellPin { cell, .. } = sink {
                    let consumer = &self.cell(*cell);
                    if consumer.kind.is_sequential() {
                        continue;
                    }
                    let idx = cell.index();
                    level[idx] = level[idx].max(level[id.index()] + 1);
                    indegree[idx] -= 1;
                    if indegree[idx] == 0 {
                        queue.push_back(*cell);
                    }
                }
            }
        }

        let comb_total = self
            .cells()
            .filter(|(_, c)| !c.kind.is_sequential())
            .count();
        if order.len() != comb_total {
            let ordered: HashSet<CellId> = order.into_iter().collect();
            let cells = self
                .cells()
                .filter(|(id, c)| !c.kind.is_sequential() && !ordered.contains(id))
                .map(|(id, _)| id)
                .collect();
            return Err(CombLoop { cells });
        }

        let depth = level.iter().copied().max().unwrap_or(0);
        Ok(Levelization {
            order,
            level,
            depth,
        })
    }

    /// Estimates the critical-path length in "logic levels", counting LUTs and
    /// generic gates as one level each and ignoring I/O buffers.
    ///
    /// # Errors
    ///
    /// Returns the combinational loop if the netlist is cyclic.
    pub fn logic_depth(&self) -> Result<usize, CombLoop> {
        let lev = self.levelize()?;
        let depth = lev
            .order
            .iter()
            .filter(|id| {
                let k = self.cell(**id).kind;
                k.is_lut() || k.is_generic_gate()
            })
            .map(|id| lev.level[id.index()])
            .max()
            .unwrap_or(0);
        Ok(depth + 1)
    }
}

#[cfg(test)]
mod tests {

    use crate::{CellKind, Netlist};

    /// y = (a & b) ^ c, with a register on the output.
    fn sample() -> Netlist {
        let mut nl = Netlist::new("sample");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_cell("u_and", CellKind::And2, vec![a, b], ab)
            .unwrap();
        nl.add_cell("u_xor", CellKind::Xor2, vec![ab, c], y)
            .unwrap();
        nl.add_cell("u_reg", CellKind::Dff { init: false }, vec![y], q)
            .unwrap();
        nl.add_output("q", q);
        nl
    }

    #[test]
    fn levelize_orders_fanin_first() {
        let nl = sample();
        let lev = nl.levelize().unwrap();
        let and_id = nl.find_cell("u_and").unwrap().0;
        let xor_id = nl.find_cell("u_xor").unwrap().0;
        let and_pos = lev.order.iter().position(|&c| c == and_id).unwrap();
        let xor_pos = lev.order.iter().position(|&c| c == xor_id).unwrap();
        assert!(and_pos < xor_pos);
        assert_eq!(lev.level[and_id.index()], 0);
        assert_eq!(lev.level[xor_id.index()], 1);
        assert_eq!(lev.depth, 1);
    }

    #[test]
    fn logic_depth_counts_levels() {
        let nl = sample();
        assert_eq!(nl.logic_depth().unwrap(), 2);
    }

    #[test]
    fn detects_combinational_loop() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_cell("u1", CellKind::And2, vec![a, y], x).unwrap();
        nl.add_cell("u2", CellKind::Buf, vec![x], y).unwrap();
        nl.add_output("y", y);
        let err = nl.levelize().unwrap_err();
        assert_eq!(err.cells.len(), 2);
    }

    #[test]
    fn register_breaks_loop() {
        // Accumulator: q = reg(q + a) has a registered loop, not a comb loop.
        let mut nl = Netlist::new("acc");
        let a = nl.add_input("a");
        let sum = nl.add_net("sum");
        let q = nl.add_net("q");
        nl.add_cell("u_add", CellKind::Xor2, vec![a, q], sum)
            .unwrap();
        nl.add_cell("u_reg", CellKind::Dff { init: false }, vec![sum], q)
            .unwrap();
        nl.add_output("q", q);
        assert!(nl.levelize().is_ok());
    }
}
