//! The static fan-out cone index: precompiled reachability for incremental
//! fault re-simulation.
//!
//! A configuration upset perturbs a handful of cells and nets; everything the
//! perturbation can ever influence — across any number of clock cycles — is
//! the *transitive fan-out cone* of those seeds, following net → sink edges
//! and passing **through** flip-flops (a corrupted `D` input surfaces on `Q`
//! one cycle later, so registers do not stop the closure the way they stop
//! combinational levelization). Cells outside the cone provably carry their
//! fault-free values in every cycle of a faulty simulation, which is what
//! lets the compiled simulator re-evaluate only the cone and read everything
//! else from the cached golden run.
//!
//! [`FanoutIndex`] packs the netlist's sink relation into flat CSR arrays
//! once; [`FanoutIndex::cone`] then computes the closure of any seed set with
//! a single allocation-light breadth-first sweep, fast enough to run once per
//! 64-experiment word of a fault-injection campaign.

use crate::{CellId, NetId, NetSink, Netlist, PortId};

/// The transitive fan-out closure of a set of seed cells and nets.
///
/// Produced by [`FanoutIndex::cone`]. `cells` contains every cell (both
/// combinational and sequential) whose value can differ from the fault-free
/// run; `ports` contains every top-level output port that reads a net inside
/// the cone (or was seeded directly). Both lists are sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutCone {
    /// Cells reachable from the seeds (sorted by id).
    pub cells: Vec<CellId>,
    /// Output ports reading a cone net or seeded directly (sorted by id).
    pub ports: Vec<PortId>,
}

impl FanoutCone {
    /// Returns `true` if the cone contains no cells and no ports.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.ports.is_empty()
    }
}

/// A compiled, immutable index of the netlist's fan-out relation.
///
/// The index borrows nothing: it stores net/cell/port relations as flat
/// `u32` CSR arrays, so it can live inside long-lived compiled artifacts
/// (`tmr-sim`'s compiled netlist) and be shared across threads.
#[derive(Debug, Clone)]
pub struct FanoutIndex {
    /// CSR offsets into `net_cells`, one slot per net plus a tail sentinel.
    net_cells_start: Vec<u32>,
    /// Cell sinks of each net, grouped by net.
    net_cells: Vec<u32>,
    /// CSR offsets into `net_ports`, one slot per net plus a tail sentinel.
    net_ports_start: Vec<u32>,
    /// Output-port sinks of each net, grouped by net.
    net_ports: Vec<u32>,
    /// Output net of every cell.
    cell_output: Vec<u32>,
}

impl FanoutIndex {
    /// Builds the fan-out index of `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let net_count = netlist.net_count();
        let mut cell_counts = vec![0u32; net_count + 1];
        let mut port_counts = vec![0u32; net_count + 1];
        for (id, net) in netlist.nets() {
            for sink in &net.sinks {
                match sink {
                    NetSink::CellPin { .. } => cell_counts[id.index() + 1] += 1,
                    NetSink::Output(_) => port_counts[id.index() + 1] += 1,
                }
            }
        }
        for i in 1..=net_count {
            cell_counts[i] += cell_counts[i - 1];
            port_counts[i] += port_counts[i - 1];
        }
        let mut net_cells = vec![0u32; cell_counts[net_count] as usize];
        let mut net_ports = vec![0u32; port_counts[net_count] as usize];
        let mut cell_cursor = cell_counts.clone();
        let mut port_cursor = port_counts.clone();
        for (id, net) in netlist.nets() {
            for sink in &net.sinks {
                match sink {
                    NetSink::CellPin { cell, .. } => {
                        let slot = &mut cell_cursor[id.index()];
                        net_cells[*slot as usize] = cell.index() as u32;
                        *slot += 1;
                    }
                    NetSink::Output(port) => {
                        let slot = &mut port_cursor[id.index()];
                        net_ports[*slot as usize] = port.index() as u32;
                        *slot += 1;
                    }
                }
            }
        }
        let cell_output = netlist
            .cells()
            .map(|(_, c)| c.output.index() as u32)
            .collect();
        Self {
            net_cells_start: cell_counts,
            net_cells,
            net_ports_start: port_counts,
            net_ports,
            cell_output,
        }
    }

    /// Number of nets the index was built over.
    pub fn net_count(&self) -> usize {
        self.net_cells_start.len() - 1
    }

    /// Number of cells the index was built over.
    pub fn cell_count(&self) -> usize {
        self.cell_output.len()
    }

    /// The cell sinks of `net`.
    fn cells_of(&self, net: usize) -> &[u32] {
        let start = self.net_cells_start[net] as usize;
        let end = self.net_cells_start[net + 1] as usize;
        &self.net_cells[start..end]
    }

    /// The output-port sinks of `net`.
    fn ports_of(&self, net: usize) -> &[u32] {
        let start = self.net_ports_start[net] as usize;
        let end = self.net_ports_start[net + 1] as usize;
        &self.net_ports[start..end]
    }

    /// Computes the transitive fan-out closure of the given seed cells and
    /// seed nets.
    ///
    /// Seed cells enter the cone directly (their outputs may differ); seed
    /// nets contribute their *readers* — the stored value of a seed net is
    /// not itself considered faulty, which matches how read-side fault
    /// overlays (opens, corrupted nets) perturb consumers without changing
    /// the driver. The closure follows every net → sink edge and passes
    /// through flip-flops, so it is closed under multi-cycle propagation.
    pub fn cone(
        &self,
        seed_cells: impl IntoIterator<Item = CellId>,
        seed_nets: impl IntoIterator<Item = NetId>,
    ) -> FanoutCone {
        let mut in_cone = vec![false; self.cell_count()];
        let mut net_seen = vec![false; self.net_count()];
        let mut ports = Vec::new();
        let mut stack: Vec<u32> = Vec::new();

        let visit_net = |net: usize,
                         net_seen: &mut Vec<bool>,
                         in_cone: &mut Vec<bool>,
                         stack: &mut Vec<u32>,
                         ports: &mut Vec<PortId>| {
            if std::mem::replace(&mut net_seen[net], true) {
                return;
            }
            for &cell in self.cells_of(net) {
                if !std::mem::replace(&mut in_cone[cell as usize], true) {
                    stack.push(cell);
                }
            }
            for &port in self.ports_of(net) {
                ports.push(PortId::from_index(port as usize));
            }
        };

        for cell in seed_cells {
            if !std::mem::replace(&mut in_cone[cell.index()], true) {
                stack.push(cell.index() as u32);
            }
        }
        for net in seed_nets {
            visit_net(
                net.index(),
                &mut net_seen,
                &mut in_cone,
                &mut stack,
                &mut ports,
            );
        }
        while let Some(cell) = stack.pop() {
            let out = self.cell_output[cell as usize] as usize;
            visit_net(out, &mut net_seen, &mut in_cone, &mut stack, &mut ports);
        }

        let cells = in_cone
            .iter()
            .enumerate()
            .filter(|&(_, &inside)| inside)
            .map(|(i, _)| CellId::from_index(i))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        FanoutCone { cells, ports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, PortDir};

    /// q = reg((a & b) ^ c) with an extra side output on the AND, plus an
    /// unrelated buffer chain.
    fn sample() -> Netlist {
        let mut nl = Netlist::new("cone");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        let z = nl.add_net("z");
        nl.add_cell("u_and", CellKind::And2, vec![a, b], ab)
            .unwrap();
        nl.add_cell("u_xor", CellKind::Xor2, vec![ab, c], y)
            .unwrap();
        nl.add_cell("u_reg", CellKind::Dff { init: false }, vec![y], q)
            .unwrap();
        nl.add_cell("u_buf", CellKind::Buf, vec![d], z).unwrap();
        nl.add_output("ab", ab);
        nl.add_output("q", q);
        nl.add_output("z", z);
        nl
    }

    #[test]
    fn cone_from_a_net_reaches_through_registers() {
        let nl = sample();
        let index = FanoutIndex::new(&nl);
        assert_eq!(index.cell_count(), nl.cell_count());
        assert_eq!(index.net_count(), nl.net_count());
        let a = nl.find_port("a", PortDir::Input).unwrap().1.net;
        let cone = index.cone([], [a]);
        let names: Vec<&str> = cone
            .cells
            .iter()
            .map(|&id| nl.cell(id).name.as_str())
            .collect();
        assert_eq!(names, ["u_and", "u_xor", "u_reg"]);
        // The cone crosses the register and picks up both downstream output
        // ports, but not the unrelated buffer's.
        let port_names: Vec<&str> = cone
            .ports
            .iter()
            .map(|&id| nl.port(id).name.as_str())
            .collect();
        assert_eq!(port_names, ["ab", "q"]);
    }

    #[test]
    fn cone_from_a_cell_excludes_the_cell_inputs() {
        let nl = sample();
        let index = FanoutIndex::new(&nl);
        let xor = nl.find_cell("u_xor").unwrap().0;
        let cone = index.cone([xor], []);
        let names: Vec<&str> = cone
            .cells
            .iter()
            .map(|&id| nl.cell(id).name.as_str())
            .collect();
        assert_eq!(names, ["u_xor", "u_reg"]);
        assert_eq!(cone.ports.len(), 1, "only q is downstream of the XOR");
    }

    #[test]
    fn seed_net_readers_enter_but_driver_does_not() {
        let nl = sample();
        let index = FanoutIndex::new(&nl);
        let ab = nl.find_cell("u_and").unwrap().1.output;
        let cone = index.cone([], [ab]);
        let names: Vec<&str> = cone
            .cells
            .iter()
            .map(|&id| nl.cell(id).name.as_str())
            .collect();
        // A corrupted net perturbs its readers, not its driver.
        assert_eq!(names, ["u_xor", "u_reg"]);
    }

    #[test]
    fn empty_seeds_give_an_empty_cone() {
        let nl = sample();
        let cone = FanoutIndex::new(&nl).cone([], []);
        assert!(cone.is_empty());
    }

    #[test]
    fn feedback_loops_terminate() {
        // Accumulator: q = reg(q ^ a) — the cone of `a` must include the
        // whole loop exactly once.
        let mut nl = Netlist::new("acc");
        let a = nl.add_input("a");
        let sum = nl.add_net("sum");
        let q = nl.add_net("q");
        nl.add_cell("u_add", CellKind::Xor2, vec![a, q], sum)
            .unwrap();
        nl.add_cell("u_reg", CellKind::Dff { init: false }, vec![sum], q)
            .unwrap();
        nl.add_output("q", q);
        let cone = FanoutIndex::new(&nl).cone([], [a]);
        assert_eq!(cone.cells.len(), 2);
        assert_eq!(cone.ports.len(), 1);
    }
}
