//! The three-valued netlist simulator.

use crate::{FaultOverlay, SinkRef, Trit};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tmr_netlist::{CellId, CellKind, NetId, Netlist, PortId};

/// Errors produced when building a simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The netlist contains a combinational loop and cannot be levelized.
    CombinationalLoop {
        /// Number of cells involved.
        cells: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CombinationalLoop { cells } => {
                write!(
                    f,
                    "netlist contains a combinational loop through {cells} cell(s)"
                )
            }
        }
    }
}

impl Error for SimError {}

/// The output trace of a simulation run: one vector of output-port values per
/// simulated cycle, in [`Simulator::output_ports`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTrace {
    /// `outputs[cycle][output_index]`.
    pub outputs: Vec<Vec<Trit>>,
}

impl SimTrace {
    /// The first cycle where the two traces differ, if any. An `X` in either
    /// trace counts as a difference unless both are `X` — a hardware
    /// comparator sees *some* level, so an unknown against the golden value is
    /// pessimistically treated as a mismatch (the paper's comparator flags any
    /// deviation from the golden device).
    pub fn first_mismatch(&self, other: &SimTrace) -> Option<usize> {
        for (cycle, (a, b)) in self.outputs.iter().zip(other.outputs.iter()).enumerate() {
            if a != b {
                return Some(cycle);
            }
        }
        None
    }

    /// Returns `true` if the traces are identical.
    pub fn matches(&self, other: &SimTrace) -> bool {
        self.first_mismatch(other).is_none()
    }
}

/// A compiled simulator for one netlist.
///
/// Construction levelizes the netlist once; each [`Simulator::run`] call then
/// evaluates the design cycle by cycle under an optional [`FaultOverlay`].
///
/// The compiled state is immutable, so a simulator can be `Clone`d cheaply
/// (the levelization is reused, not recomputed) — the parallel campaign
/// engine hands each worker thread its own copy.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<CellId>,
    sequential: Vec<CellId>,
    input_ports: Vec<(PortId, NetId)>,
    output_ports: Vec<(PortId, NetId)>,
}

impl<'a> Simulator<'a> {
    /// Compiles a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if the netlist cannot be
    /// levelized.
    pub fn new(netlist: &'a Netlist) -> Result<Self, SimError> {
        let levelization = netlist
            .levelize()
            .map_err(|l| SimError::CombinationalLoop {
                cells: l.cells.len(),
            })?;
        Ok(Self {
            netlist,
            order: levelization.order,
            sequential: netlist.sequential_cells(),
            input_ports: netlist.input_ports().map(|(id, p)| (id, p.net)).collect(),
            output_ports: netlist.output_ports().map(|(id, p)| (id, p.net)).collect(),
        })
    }

    /// The input ports, in the order expected by the stimulus vectors.
    pub fn input_ports(&self) -> &[(PortId, NetId)] {
        &self.input_ports
    }

    /// The output ports, in the order used by [`SimTrace::outputs`].
    pub fn output_ports(&self) -> &[(PortId, NetId)] {
        &self.output_ports
    }

    /// Runs the simulation replaying a prepared [`crate::Stimulus`] under
    /// `overlay`.
    pub fn run_stimulus(&self, stimulus: &crate::Stimulus, overlay: &FaultOverlay) -> SimTrace {
        self.run(stimulus.vectors(), overlay)
    }

    /// Runs the simulation for `vectors.len()` cycles under `overlay`.
    ///
    /// `vectors[cycle][i]` is the value driven on the `i`-th input port (in
    /// [`Simulator::input_ports`] order).
    ///
    /// # Panics
    ///
    /// Panics if a vector's length does not match the number of input ports.
    pub fn run(&self, vectors: &[Vec<Trit>], overlay: &FaultOverlay) -> SimTrace {
        let netlist = self.netlist;
        let mut net_values = vec![Trit::X; netlist.net_count()];

        // Flip-flop state, with init overrides applied.
        let ff_override: HashMap<CellId, bool> =
            overlay.ff_init_overrides.iter().copied().collect();
        let lut_override: HashMap<CellId, u64> = overlay.lut_overrides.iter().copied().collect();
        let mut ff_state: Vec<Trit> = self
            .sequential
            .iter()
            .map(|&cell| {
                let init = match netlist.cell(cell).kind {
                    CellKind::Dff { init } => init,
                    _ => unreachable!("sequential cells are flip-flops"),
                };
                Trit::from_bool(*ff_override.get(&cell).unwrap_or(&init))
            })
            .collect();

        // Fast lookups for overlay effects.
        let opened: std::collections::HashSet<SinkRef> =
            overlay.opened_sinks.iter().copied().collect();
        let corrupted: std::collections::HashSet<NetId> =
            overlay.corrupted_nets.iter().copied().collect();
        // Union-find-free short groups: map net -> partner list (tiny).
        let mut short_partner: HashMap<NetId, Vec<NetId>> = HashMap::new();
        for &(a, b) in &overlay.shorted_nets {
            short_partner.entry(a).or_default().push(b);
            short_partner.entry(b).or_default().push(a);
        }

        // Effective value seen by a reader of `net`.
        let effective = |net: NetId, sink: SinkRef, values: &[Trit]| -> Trit {
            if opened.contains(&sink) {
                return Trit::X;
            }
            let mut value = values[net.index()];
            if corrupted.contains(&net) {
                return Trit::X;
            }
            if let Some(partners) = short_partner.get(&net) {
                for &partner in partners {
                    value = value.resolve(values[partner.index()]);
                }
            }
            value
        };

        let mut outputs = Vec::with_capacity(vectors.len());
        for vector in vectors {
            assert_eq!(
                vector.len(),
                self.input_ports.len(),
                "stimulus vector length must match the number of input ports"
            );
            // Drive inputs and flip-flop outputs.
            for (&(_, net), &value) in self.input_ports.iter().zip(vector.iter()) {
                net_values[net.index()] = value;
            }
            for (&cell, &state) in self.sequential.iter().zip(ff_state.iter()) {
                net_values[netlist.cell(cell).output.index()] = state;
            }

            // Combinational settling. One pass suffices for a fault-free
            // netlist; shorts can couple later values back into earlier logic,
            // so iterate a few passes and fall back to `X` on the shorted nets
            // if values still oscillate.
            let max_passes = if overlay.shorted_nets.is_empty() {
                1
            } else {
                4
            };
            for pass in 0..max_passes {
                let mut changed = false;
                for &cell_id in &self.order {
                    let cell = netlist.cell(cell_id);
                    let inputs: Vec<Trit> = cell
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(pin, &net)| {
                            effective(net, SinkRef::CellPin { cell: cell_id, pin }, &net_values)
                        })
                        .collect();
                    let kind = match (cell.kind, lut_override.get(&cell_id)) {
                        (CellKind::Lut { k, .. }, Some(&init)) => CellKind::Lut { k, init },
                        (kind, _) => kind,
                    };
                    let value = eval_trit(kind, &inputs);
                    if net_values[cell.output.index()] != value {
                        net_values[cell.output.index()] = value;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
                if pass + 1 == max_passes && changed {
                    // Oscillation through a short: poison the shorted nets.
                    for &(a, b) in &overlay.shorted_nets {
                        net_values[a.index()] = Trit::X;
                        net_values[b.index()] = Trit::X;
                    }
                }
            }

            // Sample outputs.
            let sample: Vec<Trit> = self
                .output_ports
                .iter()
                .map(|&(port, net)| effective(net, SinkRef::OutputPort(port), &net_values))
                .collect();
            outputs.push(sample);

            // Clock edge: capture flip-flop D inputs.
            let next: Vec<Trit> = self
                .sequential
                .iter()
                .map(|&cell| {
                    let d = netlist.cell(cell).inputs[0];
                    effective(d, SinkRef::CellPin { cell, pin: 0 }, &net_values)
                })
                .collect();
            ff_state = next;
        }

        SimTrace { outputs }
    }
}

/// Evaluates a cell kind over three-valued inputs: if any input is `X`, the
/// output is `X` unless every completion of the unknown inputs produces the
/// same value (e.g. an AND gate with one input at 0 outputs 0 regardless).
fn eval_trit(kind: CellKind, inputs: &[Trit]) -> Trit {
    let unknown: Vec<usize> = inputs
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.is_unknown().then_some(i))
        .collect();
    if unknown.is_empty() {
        let bools: Vec<bool> = inputs.iter().map(|t| t.to_bool().expect("no X")).collect();
        return Trit::from_bool(kind.eval(&bools));
    }
    if unknown.len() > 8 {
        return Trit::X;
    }
    let mut result: Option<bool> = None;
    for combo in 0..(1usize << unknown.len()) {
        let bools: Vec<bool> = inputs
            .iter()
            .enumerate()
            .map(|(i, t)| match t.to_bool() {
                Some(b) => b,
                None => {
                    let position = unknown.iter().position(|&u| u == i).expect("is unknown");
                    (combo >> position) & 1 == 1
                }
            })
            .collect();
        let value = kind.eval(&bools);
        match result {
            None => result = Some(value),
            Some(prev) if prev != value => return Trit::X,
            Some(_) => {}
        }
    }
    Trit::from_bool(result.expect("at least one completion evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmr_netlist::{CellKind, Netlist};

    fn and_or_netlist() -> Netlist {
        // y = (a & b) | c, q = reg(y)
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_cell(
            "u_and",
            CellKind::Lut { k: 2, init: 0b1000 },
            vec![a, b],
            ab,
        )
        .unwrap();
        nl.add_cell("u_or", CellKind::Lut { k: 2, init: 0b1110 }, vec![ab, c], y)
            .unwrap();
        nl.add_cell("u_ff", CellKind::Dff { init: false }, vec![y], q)
            .unwrap();
        nl.add_output("y", y);
        nl.add_output("q", q);
        nl
    }

    fn v(bits: &[u8]) -> Vec<Trit> {
        bits.iter().map(|&b| Trit::from_bool(b == 1)).collect()
    }

    #[test]
    fn evaluates_combinational_and_sequential_logic() {
        let nl = and_or_netlist();
        let sim = Simulator::new(&nl).unwrap();
        let trace = sim.run(
            &[v(&[1, 1, 0]), v(&[0, 0, 0]), v(&[0, 0, 1])],
            &FaultOverlay::none(),
        );
        // Cycle 0: y = 1, q = init 0.
        assert_eq!(trace.outputs[0], vec![Trit::One, Trit::Zero]);
        // Cycle 1: y = 0, q = previous y = 1.
        assert_eq!(trace.outputs[1], vec![Trit::Zero, Trit::One]);
        // Cycle 2: y = 1 (c), q = 0.
        assert_eq!(trace.outputs[2], vec![Trit::One, Trit::Zero]);
    }

    #[test]
    fn x_propagation_is_exact_not_pessimistic() {
        // AND with one input 0 and one X must be 0, OR with one input 1 must be 1.
        assert_eq!(
            eval_trit(CellKind::And2, &[Trit::Zero, Trit::X]),
            Trit::Zero
        );
        assert_eq!(eval_trit(CellKind::Or2, &[Trit::One, Trit::X]), Trit::One);
        assert_eq!(eval_trit(CellKind::Xor2, &[Trit::One, Trit::X]), Trit::X);
        assert_eq!(
            eval_trit(CellKind::Maj3, &[Trit::One, Trit::One, Trit::X]),
            Trit::One
        );
        assert_eq!(
            eval_trit(CellKind::Maj3, &[Trit::One, Trit::Zero, Trit::X]),
            Trit::X
        );
    }

    #[test]
    fn lut_override_changes_function() {
        let nl = and_or_netlist();
        let sim = Simulator::new(&nl).unwrap();
        let and_cell = nl.find_cell("u_and").unwrap().0;
        // Turn the AND into a NAND.
        let overlay = FaultOverlay {
            lut_overrides: vec![(and_cell, 0b0111)],
            ..FaultOverlay::none()
        };
        let golden = sim.run(&[v(&[1, 1, 0])], &FaultOverlay::none());
        let faulty = sim.run(&[v(&[1, 1, 0])], &overlay);
        assert_ne!(golden.outputs, faulty.outputs);
        assert_eq!(golden.first_mismatch(&faulty), Some(0));
    }

    #[test]
    fn opened_sink_reads_x() {
        let nl = and_or_netlist();
        let sim = Simulator::new(&nl).unwrap();
        let or_cell = nl.find_cell("u_or").unwrap().0;
        let overlay = FaultOverlay {
            opened_sinks: vec![SinkRef::CellPin {
                cell: or_cell,
                pin: 1,
            }],
            ..FaultOverlay::none()
        };
        // With c opened (X) and a&b = 0, the OR output is X.
        let faulty = sim.run(&[v(&[0, 0, 1])], &overlay);
        assert_eq!(faulty.outputs[0][0], Trit::X);
        // With a&b = 1 the OR output is 1 regardless of the open.
        let masked = sim.run(&[v(&[1, 1, 1])], &overlay);
        assert_eq!(masked.outputs[0][0], Trit::One);
    }

    #[test]
    fn shorted_nets_resolve_values() {
        let nl = and_or_netlist();
        let sim = Simulator::new(&nl).unwrap();
        let a_net = nl
            .find_port("a", tmr_netlist::PortDir::Input)
            .unwrap()
            .1
            .net;
        let c_net = nl
            .find_port("c", tmr_netlist::PortDir::Input)
            .unwrap()
            .1
            .net;
        let overlay = FaultOverlay {
            shorted_nets: vec![(a_net, c_net)],
            ..FaultOverlay::none()
        };
        // a = 1, c = 0: readers of both see X; y = (X & 1) | X = X.
        let faulty = sim.run(&[v(&[1, 1, 0])], &overlay);
        assert_eq!(faulty.outputs[0][0], Trit::X);
        // a = c = 1: the short is harmless.
        let harmless = sim.run(&[v(&[1, 1, 1])], &overlay);
        assert_eq!(harmless.outputs[0][0], Trit::One);
    }

    #[test]
    fn corrupted_net_poisons_readers() {
        let nl = and_or_netlist();
        let sim = Simulator::new(&nl).unwrap();
        let ab_net = nl.find_cell("u_and").unwrap().1.output;
        let overlay = FaultOverlay {
            corrupted_nets: vec![ab_net],
            ..FaultOverlay::none()
        };
        let faulty = sim.run(&[v(&[1, 1, 0])], &overlay);
        assert_eq!(faulty.outputs[0][0], Trit::X);
    }

    #[test]
    fn ff_init_override_changes_first_cycle_only() {
        let nl = and_or_netlist();
        let sim = Simulator::new(&nl).unwrap();
        let ff = nl.find_cell("u_ff").unwrap().0;
        let overlay = FaultOverlay {
            ff_init_overrides: vec![(ff, true)],
            ..FaultOverlay::none()
        };
        let golden = sim.run(&[v(&[0, 0, 0]), v(&[0, 0, 0])], &FaultOverlay::none());
        let faulty = sim.run(&[v(&[0, 0, 0]), v(&[0, 0, 0])], &overlay);
        assert_eq!(golden.outputs[0][1], Trit::Zero);
        assert_eq!(faulty.outputs[0][1], Trit::One);
        assert_eq!(golden.outputs[1], faulty.outputs[1]);
    }

    #[test]
    fn trace_comparison_reports_first_mismatch() {
        let a = SimTrace {
            outputs: vec![vec![Trit::One], vec![Trit::Zero]],
        };
        let b = SimTrace {
            outputs: vec![vec![Trit::One], vec![Trit::X]],
        };
        assert!(a.matches(&a));
        assert_eq!(a.first_mismatch(&b), Some(1));
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let mut nl = Netlist::new("loop");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_cell("u1", CellKind::Not, vec![y], x).unwrap();
        nl.add_cell("u2", CellKind::Not, vec![x], y).unwrap();
        nl.add_output("y", y);
        assert!(matches!(
            Simulator::new(&nl),
            Err(SimError::CombinationalLoop { .. })
        ));
    }
}
