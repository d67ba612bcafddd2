//! # tmr-analyze
//!
//! Static TMR criticality analysis: finding the voter-defeating configuration
//! bits **without simulation**.
//!
//! The paper's central result is that a *single* SEU in the routing
//! configuration can bridge two TMR domains and defeat the voter — which is
//! why the routing bits (roughly 80 % of the design-related configuration
//! memory) dominate the failure analysis. The dynamic campaign of
//! `tmr-faultsim` discovers such bits by simulating a random sample; this
//! crate discovers them *statically*, in the spirit of dependability-model-
//! driven TMR evaluation, by walking the routed design's structure:
//!
//! * [`StaticAnalysis::run`] gives **every** configuration bit a
//!   [`Verdict`] — [`Verdict::Benign`], [`Verdict::SingleDomain`] or
//!   [`Verdict::DomainCrossing`] — from one pass over the design-related
//!   bits that hashes nothing: each bit's class and what its flip touches
//!   come from [`tmr_faultsim::classify_touch`] (the rules
//!   [`tmr_faultsim::classify_bit`] builds its overlays from), and per-run
//!   tables map that to the exact set of affected TMR domains. Every other
//!   bit touches nothing, so it is benign, and the analysis keeps only the
//!   bits whose flip affects some domain (no simulator run, exhaustive
//!   whole-bitstream coverage);
//! * [`CriticalityReport`] aggregates the verdict map into per-domain-pair ×
//!   per-effect-class counts plus the TMR-defeating bit set, with text
//!   ([`std::fmt::Display`]) and dependency-free JSON ([`Json`]) rendering;
//! * [`PruneWith::prune_with`] feeds the statically-possibly-observable set
//!   into the dynamic campaign ([`tmr_faultsim::CampaignBuilder`]): the same
//!   faults are sampled and recorded, but simulations of bits the analysis
//!   proves maskable are skipped — same outcomes, far fewer simulations.
//!
//! Static soundness — every dynamically observed domain-crossing fault is
//! flagged [`Verdict::DomainCrossing`], and pruned campaigns observe exactly
//! the failures of unpruned ones — is asserted on the paper TMR
//! configurations by the workspace integration tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod prune;
mod report;
mod verdict;

pub use analysis::StaticAnalysis;
pub use prune::PruneWith;
pub use report::CriticalityReport;
pub use tmr_core::json::Json;
pub use verdict::Verdict;
