//! # tmr-faultsim
//!
//! The bitstream fault-injection system of the DATE 2005 paper, rebuilt as a
//! simulation framework:
//!
//! * the **Fault List Manager** ([`FaultList`]) identifies the configuration
//!   bits related to the design under test (used PIP endpoints, used LUTs,
//!   used flip-flops) and draws a random sample of them;
//! * the **fault model** ([`FaultModel`]) decides what one fault *is*: the
//!   paper's single-bit upset (the default), a geometry-aware multi-bit
//!   cluster expanded in the frame/offset plane
//!   ([`tmr_arch::MbuPattern`]), or the upsets accumulated over one scrub
//!   interval ([`FaultModel::Accumulate`]) — the degenerate 1-bit variants
//!   reproduce the single-bit fault sequence exactly;
//! * the **Fault Injection Manager** flips the fault's bits per experiment,
//!   derives the merged structural effect on the routed design
//!   ([`classify_fault`]: LUT corruption, open, bridge, input-antenna,
//!   conflict, …), simulates the faulty device against the golden reference
//!   with identical stimuli, and classifies the outcome;
//! * the classifier ([`FaultClass`]) reproduces the effect taxonomy of
//!   Tables 1 and 4 of the paper;
//! * the **campaign builder** ([`CampaignBuilder`]) is the one way to
//!   configure and start a campaign: fault count, stimulus, fault model,
//!   shard count, simulation backend ([`SimBackend`]), streaming batch size
//!   and statistical early stop, plus reuse of a precomputed
//!   [`tmr_sim::GoldenRun`] and compiled netlist;
//! * the **campaign session** ([`CampaignSession`]) it builds runs the
//!   campaign in contiguous outcome batches: each batch is split into shards
//!   run through [`tmr_core::par_map`] — all sharing one evaluation engine
//!   and one golden trace — and merged in fault-list order, bit-identical to
//!   the sequential path for any shard count; an [`EarlyStop`] rule halts
//!   once the wrong-answer rate's confidence interval is tight enough — the
//!   outcomes are always the exact prefix of the full run;
//! * the structural machinery is exposed for reuse without simulation:
//!   [`classify_bit`] and [`BitEffect::affected_domains`] power the static
//!   criticality analyzer (`tmr-analyze`), and
//!   [`CampaignBuilder::restrict_to`] lets it prune campaigns down to the
//!   statically-possibly-observable bits ([`CampaignResult::simulated`]
//!   counts the simulations actually run).
//!
//! Campaign results provide the *Wrong Answer* percentages of Table 3 and the
//! per-effect breakdown of Table 4.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod campaign;
mod effect;
mod fault_list;
mod model;
mod session;

pub use campaign::{CampaignOptions, CampaignResult, FaultOutcome};

pub use builder::{CampaignBuilder, SimBackend};
pub use effect::{classify_bit, classify_fault, BitEffect, FaultClass, FaultEffect};
pub use fault_list::FaultList;
pub use model::FaultModel;
pub use session::{CampaignSession, EarlyStop, SessionProgress};
pub use tmr_sim::SimStats;
