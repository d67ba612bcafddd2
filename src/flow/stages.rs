//! The typed stage artifacts of the implementation pipeline and the
//! cache-backed stage functions shared by [`Flow`](crate::flow::Flow),
//! [`Sweep`](crate::flow::Sweep) and callers that need one stage without a
//! flow.
//!
//! Where an artifact lives is decided here, once. Every stage memoizes in
//! the shared [`ArtifactCache`]. The persisted stages (`synth`, `route`,
//! `campaign`) also look in the disk [`Store`], when one is attached, before
//! they compute, and save what they compute.

use crate::Error;
use std::convert::Infallible;
use std::sync::Arc;
use tmr_analyze::{CriticalityReport, StaticAnalysis};
use tmr_arch::{Bitstream, Device, DeviceParams};
use tmr_core::pipeline::{fingerprint, ArtifactCache, CacheKey};
use tmr_core::{apply_tmr, TmrConfig};
use tmr_netlist::Netlist;
use tmr_pnr::{RouteTelemetry, RoutedDesign};
use tmr_sim::CompiledNetlist;
use tmr_store::{Persist, Store};
use tmr_synth::{lower, optimize, techmap, Design};

/// The routed stage artifact: the fully placed, routed and configured design.
#[derive(Debug, Clone)]
pub struct Routed {
    pub(crate) design: RoutedDesign,
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
}

impl Compiled {
    /// The compiled instruction stream, shareable across campaigns.
    pub fn netlist(&self) -> &Arc<CompiledNetlist> {
        &self.compiled
    }
}

/// The analyzed stage artifact: the static criticality classification of
/// every configuration bit of the routed design.
#[derive(Debug, Clone)]
pub struct Analyzed {
    pub(crate) analysis: StaticAnalysis,
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
}

/// The identity fingerprint of `(design, tmr config)`. Every stage is a
/// deterministic function, so the stage keys derive from it instead of
/// hashing the (much larger) intermediate artifacts.
pub(crate) fn identity(design: &Design, tmr: Option<&TmrConfig>) -> u64 {
    fingerprint(&[design, &tmr])
}

/// The `device` stage: the device built from `params`, memoized in `cache`
/// under the parameters' fingerprint. Sweeps and services that share a
/// cache therefore build each distinct device once; a clone is a handle on
/// the same graph.
pub fn device(cache: &ArtifactCache, params: DeviceParams) -> Device {
    let key = CacheKey::new("device", fingerprint(&[&params]));
    let built = cache.get_or_try_insert(key, || Ok::<_, Infallible>(Device::new(params)));
    Device::clone(&built.unwrap_or_else(|never| match never {}))
}

/// The synthesized netlist of `design`, TMR-protected by `tmr` when one is
/// given: the stage [`Flow::synthesized`](crate::flow::Flow::synthesized)
/// serves, with no device involved. It reads and fills `cache` and, when
/// one is given, `store`, under the key a [`Flow`](crate::flow::Flow) over
/// the same design uses, so a flow built afterwards finds it.
///
/// # Errors
///
/// Propagates transformation, lowering and mapping errors.
pub fn synthesize(
    cache: &ArtifactCache,
    store: Option<&Store>,
    design: &Design,
    tmr: Option<&TmrConfig>,
) -> Result<Arc<Netlist>, Error> {
    synthesized(cache, store, identity(design, tmr), design, tmr)
}

/// The TMR-transformation stage. Memory-only: word-level designs are cheap
/// to recompute and feed the (persisted) synthesis stage.
pub(crate) fn protected(
    cache: &ArtifactCache,
    identity: u64,
    design: &Design,
    tmr: Option<&TmrConfig>,
) -> Result<Arc<Design>, Error> {
    cache.get_or_try_insert(CacheKey::new("tmr", identity), || {
        let protected = match tmr {
            Some(config) => apply_tmr(design, config)?,
            None => design.clone(),
        };
        if tmr_trace::enabled() {
            tmr_trace::attr_current("nodes", protected.node_count());
        }
        Ok::<_, Error>(protected)
    })
}

/// The synthesis stage, persisted as the mapped [`Netlist`]. The TMR
/// transformation runs only on a full (memory **and** disk) miss, so warm
/// re-runs skip it.
pub(crate) fn synthesized(
    cache: &ArtifactCache,
    store: Option<&Store>,
    identity: u64,
    design: &Design,
    tmr: Option<&TmrConfig>,
) -> Result<Arc<Netlist>, Error> {
    fn describe(netlist: &Netlist) {
        if tmr_trace::enabled() {
            tmr_trace::attr_current("cells", netlist.cell_count());
            tmr_trace::attr_current("nets", netlist.net_count());
        }
    }
    persisted(
        cache,
        store,
        CacheKey::new("synth", identity),
        |netlist: Netlist| {
            describe(&netlist);
            netlist
        },
        |netlist| netlist,
        || {
            let protected = protected(cache, identity, design, tmr)?;
            let netlist = techmap(&optimize(&lower(&protected)?))?;
            describe(&netlist);
            Ok(netlist)
        },
    )
}

/// The simulator-compilation stage. Memory-only: the compiled stream is a
/// fast, deterministic function of the synthesized netlist, which the
/// (persisted) synthesis stage already stores, so a warm disk serves that
/// netlist and the compilation replays from it.
pub(crate) fn compiled(
    cache: &ArtifactCache,
    identity: u64,
    netlist: impl FnOnce() -> Result<Arc<Netlist>, Error>,
) -> Result<Arc<Compiled>, Error> {
    cache.get_or_try_insert(CacheKey::new("compiled", identity), || {
        let netlist = netlist()?;
        let compiled = CompiledNetlist::compile(&netlist)?;
        if tmr_trace::enabled() {
            tmr_trace::attr_current("ops", compiled.op_count());
        }
        Ok::<_, Error>(Compiled {
            compiled: Arc::new(compiled),
        })
    })
}

/// Memory → disk → compute, for the persisted stages. The disk probe and
/// the save both run inside the memory cache's miss closure, so the cache
/// keeps its single-computation semantics and its `stage.<label>` span
/// wraps exactly the work done: a disk hit is a short span holding a
/// `store.read`, a cold miss the full compute plus a `store.write`.
///
/// `decode` turns a payload read from disk into the artifact; `payload`
/// borrows the payload to save from a computed artifact. Nothing is cached
/// or saved when `compute` fails.
pub(super) fn persisted<T, P, E>(
    cache: &ArtifactCache,
    store: Option<&Store>,
    key: CacheKey,
    decode: impl FnOnce(P) -> T,
    payload: impl FnOnce(&T) -> &P,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<Arc<T>, E>
where
    T: Send + Sync + 'static,
    P: Persist,
{
    cache.get_or_try_insert(key, || {
        let Some(store) = store else {
            return compute();
        };
        if let Some(payload) = store.load_as::<P>(key) {
            return Ok(decode(payload));
        }
        let artifact = compute()?;
        store.save_value(key, payload(&artifact));
        Ok(artifact)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failed stage leaves nothing behind, in memory or on disk. (The
    /// warm paths are covered at the flow level by `tests/persistence.rs`.)
    #[test]
    fn a_failed_stage_writes_nothing() {
        let root = std::env::temp_dir().join(format!("tmr-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).unwrap();
        let cache = ArtifactCache::new();
        let key = CacheKey::new("unit", 13);
        let failed: Result<Arc<Vec<u64>>, _> =
            persisted(&cache, Some(&store), key, |p| p, |a| a, || Err("boom"));
        assert_eq!(failed.unwrap_err(), "boom");
        assert_eq!(store.stats().writes, 0);
        assert!(!store.contains(key));
        assert_eq!(cache.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
