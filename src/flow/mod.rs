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
//! * a [`Flow`] exposes its **stages** — the synthesized netlist → the
//!   placement → [`Routed`] (plus the placement-independent [`Compiled`]
//!   simulator stage and the exhaustive [`Analyzed`] criticality stage) —
//!   computed lazily and memoized in a shared
//!   [`ArtifactCache`](tmr_core::pipeline::ArtifactCache) keyed by content
//!   fingerprints, so two flows over the same inputs share every stage;
//! * the persisted stages (`synth`, `route`, `campaign`) also read and fill
//!   a disk [`Store`](tmr_store::Store) when one is attached: memory, then
//!   disk, then compute, decided in one place for all three;
//! * [`synthesize`] and [`device`] are stages callers use without a flow:
//!   a device is sized from synthesized netlists before any flow exists,
//!   and every sweep or service sharing a cache builds each device once;
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

mod builder;
mod stages;
mod sweep;

pub use builder::{Flow, FlowBuilder};
pub use stages::{device, synthesize, Analyzed, Compiled, Routed};
pub use sweep::{device_for, device_params_for, RouteStats, Sweep, SweepReport, VariantReport};
