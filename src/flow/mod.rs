//! The staged implementation pipeline: lazy, cached, sweepable.
//!
//! The paper's experiment is not one flow run but a *sweep*: the same FIR
//! design pushed through five TMR variants, each synthesized, placed, routed
//! and bombarded with fault-injection campaigns. This module models that as
//! first-class API instead of hand-wired glue:
//!
//! * [`FlowBuilder`] captures the inputs of one implementation flow (device,
//!   design, optional [`TmrConfig`](tmr_core::TmrConfig), seed, shard count)
//!   and builds a [`Flow`];
//! * a [`Flow`] exposes **typed stage artifacts** — [`Synthesized`] →
//!   [`Placed`] → [`Routed`] (plus the placement-independent [`Compiled`]
//!   simulator stage and the exhaustive [`Analyzed`] criticality stage) —
//!   computed lazily and memoized in a shared
//!   [`ArtifactCache`](tmr_core::pipeline::ArtifactCache) keyed by content
//!   fingerprints, so two flows over the same inputs share every stage;
//! * [`Flow::campaign`] runs fault-injection campaigns configured through
//!   [`CampaignBuilder`](tmr_faultsim::CampaignBuilder), reusing the cached
//!   golden run ([`tmr_sim::GoldenRun`]) **and** the cached compiled
//!   bit-parallel simulator ([`Compiled`]) across campaigns over the same
//!   netlist — including campaigns under different fault models
//!   ([`tmr_faultsim::FaultModel`]), each memoized under its own
//!   fingerprint — and [`Flow::campaign_session`] streams one incrementally
//!   (progress reporting, statistical early stop);
//! * a [`Sweep`] drives many flows over the variants of one base design —
//!   [`Sweep::paper`] gives the five paper variants — on a common
//!   (optionally auto-sized) device, producing a [`SweepReport`] that holds
//!   everything Tables 2, 3 and 4 need plus the cache effectiveness
//!   counters, aggregate and per stage.
//!
//! The deprecated one-call helpers of the pre-0.2 API (`implement`,
//! `synthesize`, `run_campaign_parallel`, `analyze`, `FlowError`) have been
//! removed; the README's migration table maps each onto its builder
//! replacement.

mod builder;
mod stages;
mod sweep;

pub use builder::{Flow, FlowBuilder};
pub use stages::{Analyzed, Compiled, Placed, Routed, Synthesized};
pub use sweep::{device_for, device_params_for, RouteStats, Sweep, SweepReport, VariantReport};
