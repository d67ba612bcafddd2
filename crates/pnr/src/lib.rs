//! # tmr-pnr
//!
//! Place-and-route for technology-mapped netlists onto `tmr-arch` devices,
//! producing a fully configured bitstream plus the net → routing-resource
//! database that the fault-injection framework (`tmr-faultsim`) relies on.
//!
//! The flow is the classical academic one:
//!
//! 1. [`place`] assigns every LUT/FF/IOB cell to a compatible site using a
//!    wirelength-driven simulated-annealing placer (seeded and deterministic).
//! 2. [`route`] connects every net with a negotiated-congestion (PathFinder
//!    style) A* maze router over the device's routing graph; every routing
//!    node has capacity one, and congestion is resolved across iterations
//!    through present- and historical-cost penalties.
//! 3. [`place_and_route`] turns the placed-and-routed design into
//!    configuration bits: one bit per enabled PIP, sixteen truth-table bits
//!    per used LUT, one initialisation bit per used flip-flop.
//!
//! The output [`RoutedDesign`] also exposes which routing node and PIP belongs
//! to which logical net — the information the paper's fault classifier uses to
//! decide whether a flipped routing bit creates an open, a bridge, an antenna
//! or a conflict, and whether the nets involved belong to distinct TMR
//! domains.
//!
//! ## Example
//!
//! ```
//! use tmr_arch::Device;
//! use tmr_netlist::{CellKind, Netlist};
//! use tmr_pnr::place_and_route;
//!
//! // A trivial mapped netlist: y = LUT2(a, b), registered.
//! let mut nl = Netlist::new("tiny");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let a_f = nl.add_net("a_f");
//! let b_f = nl.add_net("b_f");
//! let x = nl.add_net("x");
//! let q = nl.add_net("q");
//! let y = nl.add_net("y");
//! nl.add_cell("ib_a", CellKind::Ibuf, vec![a], a_f).unwrap();
//! nl.add_cell("ib_b", CellKind::Ibuf, vec![b], b_f).unwrap();
//! nl.add_cell("lut", CellKind::Lut { k: 2, init: 0b1000 }, vec![a_f, b_f], x).unwrap();
//! nl.add_cell("ff", CellKind::Dff { init: false }, vec![x], q).unwrap();
//! nl.add_cell("ob", CellKind::Obuf, vec![q], y).unwrap();
//! nl.add_output("y", y);
//!
//! let device = Device::small(4, 4);
//! let routed = place_and_route(&device, &nl, 1).unwrap();
//! assert!(routed.bitstream().count_ones() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod lookahead;
mod place;
mod queue;
mod route;
mod routed;

pub use error::PnrError;
pub use place::{place, placement_wirelength, Placement, PlacerOptions};
pub use route::{
    route, route_with_telemetry, RouteIteration, RouteTelemetry, RouterOptions, ROUTE_EPOCH,
};
pub use routed::{place_and_route, BitReport, RouteTree, RoutedDesign};
