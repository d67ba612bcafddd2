//! # tmr-sim
//!
//! Three-valued (0 / 1 / X) functional simulation of technology-mapped
//! netlists, with support for the structural fault effects that a
//! configuration-memory upset produces in an SRAM-based FPGA:
//!
//! * LUT truth-table corruption,
//! * flip-flop initialisation changes,
//! * **opens** (a sink pin disconnected from its net floats to `X`),
//! * **bridges / conflicts** (two nets shorted together resolve to their
//!   common value, or `X` where they disagree), and
//! * **antennas** (a net corrupted by a floating aggressor).
//!
//! The same simulator runs the golden (fault-free) reference and the device
//! under test; `tmr-faultsim` compares the two output traces cycle by cycle,
//! exactly like the paper's output analyser, which compares the TMR design
//! under test against an unhardened golden copy on every clock cycle.
//!
//! ## Example
//!
//! ```
//! use tmr_netlist::{CellKind, Netlist};
//! use tmr_sim::{FaultOverlay, Simulator, Trit};
//!
//! // y = a AND b as a LUT2.
//! let mut nl = Netlist::new("and");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_net("y");
//! nl.add_cell("u", CellKind::Lut { k: 2, init: 0b1000 }, vec![a, b], y).unwrap();
//! nl.add_output("y", y);
//!
//! let sim = Simulator::new(&nl).unwrap();
//! let vectors = vec![vec![Trit::One, Trit::One], vec![Trit::One, Trit::Zero]];
//! let trace = sim.run(&vectors, &FaultOverlay::none());
//! assert_eq!(trace.outputs[0][0], Trit::One);
//! assert_eq!(trace.outputs[1][0], Trit::Zero);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compare;
mod compiled;
mod fault;
mod golden;
mod netsim;
mod packed;
mod stats;
mod stimulus;
mod value;

pub use compare::{majority, OutputGroups};
pub use compiled::{CompiledNetlist, PackedGolden, MAX_LANES};
pub use fault::{FaultOverlay, SinkRef};
pub use golden::GoldenRun;
pub use netsim::{SimError, SimTrace, Simulator};
pub use packed::{majority_word, LaneMask, TritWord};
pub use stats::SimStats;
pub use stimulus::{random_vectors, word_vectors, Stimulus};
pub use value::Trit;
