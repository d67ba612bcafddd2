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
//! * [`StaticAnalysis::run`] classifies **every** configuration bit into a
//!   [`Verdict`] — [`Verdict::Benign`], [`Verdict::SingleDomain`] or
//!   [`Verdict::DomainCrossing`] — by deriving each bit's structural effect
//!   with [`tmr_faultsim::classify_bit`] and inspecting only the TMR domains
//!   of the affected nets and sinks (no simulator run, exhaustive
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
