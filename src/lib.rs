//! # tmr-fpga
//!
//! Facade crate for the `tmr-fpga` workspace — a from-scratch reproduction of
//! *"On the Optimal Design of Triple Modular Redundancy Logic for SRAM-based
//! FPGAs"* (DATE 2005): a TMR transformation with configurable voter
//! partitioning, an island-style SRAM FPGA model, a synthesis and
//! place-and-route flow, and a bitstream fault-injection framework.
//!
//! The individual subsystems are re-exported as modules; [`flow`] provides
//! the staged pipeline API covering the full paper flow (word-level design →
//! TMR → LUT mapping → place-and-route → fault-injection campaign):
//!
//! * [`FlowBuilder`] captures one flow's inputs; the resulting [`Flow`]
//!   exposes lazy, cached stage artifacts (`synthesized` → `placed` →
//!   `routed` → `analyzed`) and campaign entry points;
//! * [`Sweep`] drives many flows over design variants — the paper's P1–P3
//!   voter partitions — with shared artifacts and one aggregate report;
//! * campaigns are configured with [`faultsim::CampaignBuilder`] and can
//!   stream incrementally with statistical early stop
//!   ([`faultsim::EarlyStop`]);
//! * every failure surfaces as the single source-chained [`enum@Error`].
//!
//! ```
//! use tmr_fpga::faultsim::CampaignBuilder;
//! use tmr_fpga::flow::FlowBuilder;
//! use tmr_fpga::tmr::TmrConfig;
//!
//! let device = tmr_fpga::arch::Device::small(8, 8);
//! let design = tmr_fpga::designs::counter(4);
//!
//! // Stage artifacts are computed on demand and memoized.
//! let flow = FlowBuilder::new(&device, &design)
//!     .tmr(TmrConfig::paper_p2())
//!     .seed(1)
//!     .build();
//! let routed = flow.routed().unwrap();
//! assert!(routed.bitstream().count_ones() > 0);
//!
//! // Campaigns reuse the cached golden trace; results are memoized too.
//! let campaign = CampaignBuilder::new().faults(60).cycles(8);
//! let result = flow.campaign(&campaign).unwrap();
//! assert_eq!(result.injected(), 60);
//! assert!(flow.cache().stats().hits > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tmr_analyze as analyze;
pub use tmr_arch as arch;
pub use tmr_core as tmr;
pub use tmr_designs as designs;
pub use tmr_faultsim as faultsim;
pub use tmr_netlist as netlist;
pub use tmr_pnr as pnr;
pub use tmr_sim as sim;
pub use tmr_store as store;
pub use tmr_synth as synth;
pub use tmr_trace as trace;

mod error;
pub mod flow;
pub mod fuzz;

pub use error::Error;
pub use flow::{Flow, FlowBuilder, RouteStats, Sweep, SweepReport};
pub use tmr_core::pipeline::{ArtifactCache, CacheStats};
pub use tmr_store::{DiskStats, Store};
