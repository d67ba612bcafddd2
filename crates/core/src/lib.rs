//! # tmr-core
//!
//! The primary contribution of the DATE 2005 paper *"On the Optimal Design of
//! Triple Modular Redundancy Logic for SRAM-based FPGAs"*: a TMR
//! transformation over word-level designs whose **voter placement is a
//! first-class, configurable decision**, plus the analysis machinery needed to
//! reason about the trade-off the paper studies (number of voters vs.
//! exposure of the routing to domain-crossing upsets).
//!
//! ## The transformation
//!
//! [`apply_tmr`] takes a [`tmr_synth::Design`] and a [`TmrConfig`] and returns
//! a new design in which:
//!
//! * every input is triplicated (`x_tr0`, `x_tr1`, `x_tr2`) — a single input
//!   pin shared by all three domains would be a single point of failure;
//! * every logic node is triplicated into domains `tr0`, `tr1`, `tr2`;
//! * majority voters are inserted after the nodes selected by the
//!   [`VoterPlacement`] strategy (voters are themselves triplicated, one per
//!   domain, so an upset inside a voter LUT is also masked);
//! * registers are implemented as "TMR registers with voters and refresh"
//!   (Fig. 2 of the paper) when [`TmrConfig::vote_registers`] is set; and
//! * each output leaves the fabric on three pins (`y_tr0`, `y_tr1`, `y_tr2`),
//!   one per domain, and is voted at the pads, outside the reach of
//!   configuration upsets.
//!
//! The four TMR variants evaluated in the paper map to the presets
//! [`TmrConfig::paper_p1`] (maximum partition), [`TmrConfig::paper_p2`]
//! (medium partition), [`TmrConfig::paper_p3`] (minimum partition) and
//! [`TmrConfig::paper_p3_nv`] (minimum partition, unvoted registers).
//!
//! ## Example
//!
//! ```
//! use tmr_core::{apply_tmr, TmrConfig};
//! use tmr_synth::Design;
//!
//! let mut design = Design::new("demo");
//! let a = design.add_input("a", 8);
//! let b = design.add_input("b", 8);
//! let sum = design.add_add("sum", a, b, 9);
//! let q = design.add_register("q", sum);
//! design.add_output("y", q);
//!
//! let tmr = apply_tmr(&design, &TmrConfig::paper_p2()).unwrap();
//! let stats = tmr.stats();
//! assert_eq!(stats.adders, 3, "logic is triplicated");
//! assert!(stats.voters > 0, "voters are inserted");
//! assert_eq!(stats.inputs, 6, "inputs are triplicated");
//! // Outputs leave the fabric triplicated and are voted in the output logic
//! // block (at the pads), as the paper describes.
//! assert_eq!(stats.outputs, 3);
//! ```
//!
//! [`par_map`] is the workspace's one data-parallel primitive: sweep
//! variants, campaign shards and fuzz seeds all fan out through it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod area;
mod error;
mod par;
pub mod pipeline;
mod transform;

pub use analysis::{partition_report, PartitionInfo, PartitionReport};
pub use area::{estimate_resources, ResourceEstimate};
pub use error::TmrError;
pub use par::par_map;
pub use tmr_trace::json;
pub use transform::{apply_tmr, paper_variants, TmrConfig, VoterPlacement};
