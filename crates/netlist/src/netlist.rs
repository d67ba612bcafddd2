//! The flat netlist container and its construction API.

use crate::{
    Cell, CellId, CellKind, Domain, Net, NetDriver, NetId, NetSink, NetlistError, Port, PortDir,
    PortId, Result,
};
use std::collections::HashMap;
use std::fmt;

/// A flat, single-clock, gate/LUT-level netlist.
///
/// Cells, nets and ports are stored in dense vectors and addressed by the
/// typed ids [`CellId`], [`NetId`] and [`PortId`]. The structure is append-
/// mostly: transformations that remove logic (dead-code elimination, TMR
/// rewrites) build a new `Netlist` rather than mutating in place, which keeps
/// ids stable for analysis passes.
///
/// See the crate-level documentation for a usage example.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    ports: Vec<Port>,
}

impl Netlist {
    /// Creates an empty netlist with the given top-level name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Rebuilds a netlist from its flat parts — the inverse of iterating
    /// [`Netlist::cells`] / [`Netlist::nets`] / [`Netlist::ports`], used by
    /// the `tmr-store` codec to reconstitute persisted netlists. The caller
    /// is trusted to supply internally consistent parts (the store guards
    /// integrity with a checksum); id ranges are debug-asserted only.
    pub fn from_parts(
        name: impl Into<String>,
        cells: Vec<Cell>,
        nets: Vec<Net>,
        ports: Vec<Port>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            for cell in &cells {
                debug_assert!(cell.output.index() < nets.len(), "cell output in range");
                for input in &cell.inputs {
                    debug_assert!(input.index() < nets.len(), "cell input in range");
                }
            }
            for port in &ports {
                debug_assert!(port.net.index() < nets.len(), "port net in range");
            }
        }
        Self {
            name: name.into(),
            cells,
            nets,
            ports,
        }
    }

    /// The top-level design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds an unconnected net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net::new(name));
        id
    }

    /// Adds an unconnected net tagged with a TMR domain.
    pub fn add_net_in_domain(&mut self, name: impl Into<String>, domain: Domain) -> NetId {
        let id = self.add_net(name);
        self.nets[id.index()].domain = domain;
        id
    }

    /// Adds a top-level input port together with the net it drives, and
    /// returns the net id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        self.add_input_in_domain(name, Domain::None)
    }

    /// Adds a top-level input port in a TMR domain; returns the driven net.
    pub fn add_input_in_domain(&mut self, name: impl Into<String>, domain: Domain) -> NetId {
        let name = name.into();
        let net = self.add_net_in_domain(name.clone(), domain);
        let port = PortId::from_index(self.ports.len());
        self.ports.push(Port {
            name,
            dir: PortDir::Input,
            net,
            domain,
        });
        self.nets[net.index()].driver = Some(NetDriver::Input(port));
        net
    }

    /// Adds a top-level output port reading from `net` and returns the port id.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) -> PortId {
        self.add_output_in_domain(name, net, Domain::None)
    }

    /// Adds a top-level output port in a TMR domain.
    pub fn add_output_in_domain(
        &mut self,
        name: impl Into<String>,
        net: NetId,
        domain: Domain,
    ) -> PortId {
        let port = PortId::from_index(self.ports.len());
        self.ports.push(Port {
            name: name.into(),
            dir: PortDir::Output,
            net,
            domain,
        });
        self.nets[net.index()].sinks.push(NetSink::Output(port));
        port
    }

    /// Adds a cell driving `output` from `inputs` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the number of input nets does
    /// not match the cell kind, [`NetlistError::UnknownNet`] if any net id is
    /// out of range, and [`NetlistError::MultipleDrivers`] if `output` already
    /// has a driver.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> Result<CellId> {
        self.add_cell_in_domain(name, kind, inputs, output, Domain::None)
    }

    /// Adds a cell tagged with a TMR domain. See [`Netlist::add_cell`].
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_cell`].
    pub fn add_cell_in_domain(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
        domain: Domain,
    ) -> Result<CellId> {
        let name = name.into();
        if inputs.len() != kind.input_count() {
            return Err(NetlistError::ArityMismatch {
                cell: name,
                expected: kind.input_count(),
                actual: inputs.len(),
            });
        }
        for &net in inputs.iter().chain(std::iter::once(&output)) {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(net));
            }
        }
        if self.nets[output.index()].driver.is_some() {
            return Err(NetlistError::MultipleDrivers {
                net: output,
                name: self.nets[output.index()].name.clone(),
            });
        }

        let id = CellId::from_index(self.cells.len());
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()]
                .sinks
                .push(NetSink::CellPin { cell: id, pin });
        }
        self.nets[output.index()].driver = Some(NetDriver::Cell(id));
        self.cells.push(Cell {
            name,
            kind,
            domain,
            inputs,
            output,
        });
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Returns the net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Returns the port with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Iterates over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Iterates over all nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Iterates over all top-level ports with their ids.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId::from_index(i), p))
    }

    /// Iterates over input ports only.
    pub fn input_ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports().filter(|(_, p)| p.dir == PortDir::Input)
    }

    /// Iterates over output ports only.
    pub fn output_ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports().filter(|(_, p)| p.dir == PortDir::Output)
    }

    /// Finds a port by name and direction.
    pub fn find_port(&self, name: &str, dir: PortDir) -> Option<(PortId, &Port)> {
        self.ports().find(|(_, p)| p.dir == dir && p.name == name)
    }

    /// Finds a cell by instance name.
    pub fn find_cell(&self, name: &str) -> Option<(CellId, &Cell)> {
        self.cells().find(|(_, c)| c.name == name)
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of ports in the given direction.
    pub fn port_count(&self, dir: PortDir) -> usize {
        self.ports.iter().filter(|p| p.dir == dir).count()
    }

    /// Returns the ids of all sequential cells (flip-flops).
    pub fn sequential_cells(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Derived construction
    // ------------------------------------------------------------------

    /// Produces a compacted copy of this netlist keeping only the cells for
    /// which `keep` returns `true`, dropping nets that end up unconnected.
    ///
    /// Ports are always preserved. This is the primitive used by dead-logic
    /// elimination.
    pub fn filtered<F>(&self, mut keep: F) -> Netlist
    where
        F: FnMut(CellId, &Cell) -> bool,
    {
        let kept: Vec<CellId> = self
            .cells()
            .filter(|(id, c)| keep(*id, c))
            .map(|(id, _)| id)
            .collect();

        let mut out = Netlist::new(self.name.clone());
        // Decide which nets survive: nets referenced by kept cells or ports.
        let mut net_map: HashMap<NetId, NetId> = HashMap::new();
        let map_net =
            |old: NetId, this: &Netlist, out: &mut Netlist, net_map: &mut HashMap<NetId, NetId>| {
                *net_map.entry(old).or_insert_with(|| {
                    let n = &this.nets[old.index()];
                    out.add_net_in_domain(n.name.clone(), n.domain)
                })
            };

        // Ports first so that input drivers are re-established.
        for (_, port) in self.ports() {
            let new_net = map_net(port.net, self, &mut out, &mut net_map);
            match port.dir {
                PortDir::Input => {
                    let p = PortId::from_index(out.ports.len());
                    out.ports.push(Port {
                        name: port.name.clone(),
                        dir: PortDir::Input,
                        net: new_net,
                        domain: port.domain,
                    });
                    out.nets[new_net.index()].driver = Some(NetDriver::Input(p));
                }
                PortDir::Output => {
                    out.add_output_in_domain(port.name.clone(), new_net, port.domain);
                }
            }
        }

        for id in kept {
            let cell = &self.cells[id.index()];
            let inputs: Vec<NetId> = cell
                .inputs
                .iter()
                .map(|&n| map_net(n, self, &mut out, &mut net_map))
                .collect();
            let output = map_net(cell.output, self, &mut out, &mut net_map);
            out.add_cell_in_domain(cell.name.clone(), cell.kind, inputs, output, cell.domain)
                .expect("filtered netlist preserves structural invariants");
        }
        out
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} cells, {} nets, {} inputs, {} outputs",
            self.name,
            self.cell_count(),
            self.net_count(),
            self.port_count(PortDir::Input),
            self.port_count(PortDir::Output)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_netlist() -> Netlist {
        let mut nl = Netlist::new("xor2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_cell("u_xor", CellKind::Xor2, vec![a, b], y).unwrap();
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn builds_simple_netlist() {
        let nl = xor_netlist();
        assert_eq!(nl.cell_count(), 1);
        assert_eq!(nl.net_count(), 3);
        assert_eq!(nl.port_count(PortDir::Input), 2);
        assert_eq!(nl.port_count(PortDir::Output), 1);
        let (_, cell) = nl.find_cell("u_xor").unwrap();
        assert_eq!(cell.kind, CellKind::Xor2);
        assert_eq!(nl.net(cell.output).sinks.len(), 1);
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        let err = nl.add_cell("u", CellKind::And2, vec![a], y).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn rejects_multiple_drivers() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_cell("u1", CellKind::Buf, vec![a], y).unwrap();
        let err = nl.add_cell("u2", CellKind::Not, vec![a], y).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn rejects_unknown_net() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let bogus = NetId::from_index(99);
        let err = nl.add_cell("u", CellKind::Buf, vec![a], bogus).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNet(bogus));
    }

    #[test]
    fn filtered_drops_cells_and_keeps_ports() {
        let mut nl = xor_netlist();
        // add a dead buffer
        let a = nl.find_port("a", PortDir::Input).unwrap().1.net;
        let dead = nl.add_net("dead");
        nl.add_cell("u_dead", CellKind::Buf, vec![a], dead).unwrap();
        assert_eq!(nl.cell_count(), 2);

        let filtered = nl.filtered(|_, c| c.name != "u_dead");
        assert_eq!(filtered.cell_count(), 1);
        assert_eq!(filtered.port_count(PortDir::Input), 2);
        assert_eq!(filtered.port_count(PortDir::Output), 1);
        filtered.validate().unwrap();
    }

    #[test]
    fn domains_are_preserved() {
        let mut nl = Netlist::new("dom");
        let a = nl.add_input_in_domain("a", Domain::Tr1);
        let y = nl.add_net_in_domain("y", Domain::Tr1);
        nl.add_cell_in_domain("u", CellKind::Buf, vec![a], y, Domain::Tr1)
            .unwrap();
        nl.add_output_in_domain("y", y, Domain::Tr1);
        assert!(nl.cells().all(|(_, c)| c.domain == Domain::Tr1));
        assert!(nl.nets().all(|(_, n)| n.domain == Domain::Tr1));
        let copy = nl.filtered(|_, _| true);
        assert!(copy.cells().all(|(_, c)| c.domain == Domain::Tr1));
        assert!(copy.nets().all(|(_, n)| n.domain == Domain::Tr1));
    }
}
