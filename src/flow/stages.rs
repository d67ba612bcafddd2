//! The typed stage artifacts of the implementation pipeline and the
//! cache-backed stage functions shared by [`Flow`](crate::flow::Flow) and
//! [`Sweep`](crate::flow::Sweep).

use crate::Error;
use std::sync::Arc;
use tmr_analyze::{CriticalityReport, StaticAnalysis};
use tmr_arch::Bitstream;
use tmr_core::pipeline::CacheKey;
use tmr_core::{apply_tmr, TmrConfig};
use tmr_netlist::Netlist;
use tmr_pnr::{Placement, RouteTelemetry, RoutedDesign};
use tmr_sim::CompiledNetlist;
use tmr_store::PersistentCache;
use tmr_synth::{lower, optimize, techmap, Design};

/// The synthesized stage artifact: the technology-mapped LUT netlist of one
/// (possibly TMR-protected) design.
#[derive(Debug, Clone)]
pub struct Synthesized {
    pub(crate) netlist: Netlist,
    pub(crate) fingerprint: u64,
}

impl Synthesized {
    /// The mapped netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Content fingerprint of the stage inputs (stable across processes).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The placed stage artifact: a cell → site assignment on the target device.
#[derive(Debug, Clone)]
pub struct Placed {
    pub(crate) placement: Placement,
    pub(crate) fingerprint: u64,
}

impl Placed {
    /// The placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Content fingerprint of the stage inputs (stable across processes).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The routed stage artifact: the fully placed, routed and configured design.
#[derive(Debug, Clone)]
pub struct Routed {
    pub(crate) design: RoutedDesign,
    pub(crate) fingerprint: u64,
    /// Negotiation telemetry of the routing run that produced the design;
    /// `None` when the artifact was decoded from the disk store (the design
    /// was not routed by this process).
    pub(crate) telemetry: Option<RouteTelemetry>,
}

impl Routed {
    /// The routed-design database.
    pub fn design(&self) -> &RoutedDesign {
        &self.design
    }

    /// The configuration bitstream.
    pub fn bitstream(&self) -> &Bitstream {
        self.design.bitstream()
    }

    /// The mapped netlist the design was built from.
    pub fn netlist(&self) -> &Netlist {
        self.design.netlist()
    }

    /// Content fingerprint of the stage inputs (stable across processes).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Per-iteration telemetry of the routing run that produced this
    /// artifact (iteration count, rip-ups, expanded nodes, wall time).
    /// `None` when the routed design was served from the disk store.
    pub fn route_telemetry(&self) -> Option<&RouteTelemetry> {
        self.telemetry.as_ref()
    }
}

/// The compiled-simulator stage artifact: the netlist levelized into the
/// flat bit-parallel instruction stream every fault-injection campaign
/// evaluates on ([`tmr_sim::CompiledNetlist`]).
///
/// The stage sits between [`Routed`] and the campaigns: it depends only on
/// the synthesized netlist (levelization is placement-independent), is
/// cached under the same identity fingerprint as synthesis, and is injected
/// into every campaign and streaming session the flow builds — so sweeping
/// three fault models over one design levelizes exactly once.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub(crate) compiled: Arc<CompiledNetlist>,
    pub(crate) fingerprint: u64,
}

impl Compiled {
    /// The compiled instruction stream, shareable across campaigns.
    pub fn netlist(&self) -> &Arc<CompiledNetlist> {
        &self.compiled
    }

    /// Content fingerprint of the stage inputs (stable across processes).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The analyzed stage artifact: the static criticality classification of
/// every configuration bit of the routed design.
#[derive(Debug, Clone)]
pub struct Analyzed {
    pub(crate) analysis: StaticAnalysis,
    pub(crate) fingerprint: u64,
}

impl Analyzed {
    /// The static analysis.
    pub fn analysis(&self) -> &StaticAnalysis {
        &self.analysis
    }

    /// Aggregates the analysis into a [`CriticalityReport`].
    pub fn report(&self) -> CriticalityReport {
        self.analysis.report()
    }

    /// Content fingerprint of the stage inputs (stable across processes).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The cache-backed TMR-transformation stage, shared by
/// [`Flow::protected`](crate::flow::Flow::protected) and the
/// device-independent synthesis pre-pass of
/// [`Sweep::flows`](crate::flow::Sweep::flows). Memory-only: word-level
/// designs are cheap to recompute and feed the (persisted) synthesis stage.
pub(crate) fn stage_protected(
    cache: &PersistentCache,
    identity: u64,
    design: &Design,
    config: Option<&TmrConfig>,
) -> Result<Arc<Design>, Error> {
    cache
        .mem()
        .get_or_try_insert(CacheKey::new("tmr", identity), || {
            let protected = match config {
                Some(config) => apply_tmr(design, config)?,
                None => design.clone(),
            };
            if tmr_trace::enabled() {
                tmr_trace::attr_current("nodes", protected.node_count());
            }
            Ok::<_, Error>(protected)
        })
}

/// The cache-backed synthesis stage, persisted to disk as the mapped
/// [`Netlist`]. `protected` is only invoked on a full (memory **and** disk)
/// miss, so warm re-runs skip the TMR transformation entirely.
pub(crate) fn stage_synthesized(
    cache: &PersistentCache,
    identity: u64,
    protected: impl FnOnce() -> Result<Arc<Design>, Error>,
) -> Result<Arc<Synthesized>, Error> {
    cache.get_or_try_insert_persisted(
        CacheKey::new("synth", identity),
        |netlist: Netlist| {
            if tmr_trace::enabled() {
                tmr_trace::attr_current("cells", netlist.cell_count());
                tmr_trace::attr_current("nets", netlist.net_count());
            }
            Ok(Synthesized {
                netlist,
                fingerprint: identity,
            })
        },
        || {
            let protected = protected()?;
            let netlist = techmap(&optimize(&lower(&protected)?))?;
            if tmr_trace::enabled() {
                tmr_trace::attr_current("cells", netlist.cell_count());
                tmr_trace::attr_current("nets", netlist.net_count());
            }
            let artifact = Synthesized {
                netlist: netlist.clone(),
                fingerprint: identity,
            };
            Ok::<_, Error>((artifact, netlist))
        },
    )
}

/// The cache-backed simulator-compilation stage. Memory-only: the compiled
/// stream is a fast, deterministic function of the synthesized netlist,
/// which the (persisted) synthesis stage already stores, so a warm disk
/// serves that netlist and the compilation replays from it.
pub(crate) fn stage_compiled(
    cache: &PersistentCache,
    identity: u64,
    synthesized: impl FnOnce() -> Result<Arc<Synthesized>, Error>,
) -> Result<Arc<Compiled>, Error> {
    cache
        .mem()
        .get_or_try_insert(CacheKey::new("compiled", identity), || {
            let synthesized = synthesized()?;
            let compiled = CompiledNetlist::compile(synthesized.netlist())?;
            if tmr_trace::enabled() {
                tmr_trace::attr_current("ops", compiled.op_count());
            }
            Ok::<_, Error>(Compiled {
                compiled: Arc::new(compiled),
                fingerprint: identity,
            })
        })
}
