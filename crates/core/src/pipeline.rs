//! The staged-pipeline backing layer: stable content fingerprints and a
//! type-erased, thread-safe [`ArtifactCache`].
//!
//! The facade's `FlowBuilder` models the implementation flow as a chain of
//! typed stage artifacts (synthesized → placed → routed → analyzed), each a
//! pure function of its inputs. This module provides the two pieces that
//! chain needs to be *lazy and memoizable*:
//!
//! * [`fingerprint`] / [`Fingerprint`] — a deterministic 64-bit content hash
//!   built from the `Debug` rendering of the inputs (all flow inputs derive
//!   `Debug` and contain no addresses or iteration-order-dependent state, so
//!   the rendering is a stable serialization of the value);
//! * [`ArtifactCache`] — a `Mutex`-guarded map from `(stage, fingerprint)`
//!   keys to `Arc<dyn Any>` artifacts, shared across flows and sweeps so a
//!   stage invariant across configurations is computed once.
//!
//! Because every stage is deterministic, a downstream key can be derived from
//! the *upstream input* fingerprint instead of hashing the (much larger)
//! upstream output: the routed artifact of `(design, device, seed)` is keyed
//! by those inputs, not by the netlist it was computed from.
//!
//! The cache deliberately lives in `tmr-core` rather than in the facade: it
//! has no dependency beyond `std`, so any layer (benches, future services)
//! can host one without pulling the whole workspace in.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A streaming FNV-1a 64-bit hasher over the `Debug` rendering of values.
///
/// The rendering is fed into the hash incrementally through [`fmt::Write`] —
/// no intermediate `String` is allocated, which matters when fingerprinting
/// large netlist-bearing inputs.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Fingerprint {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write_bytes(&value.to_le_bytes())
    }

    /// Feeds the `Debug` rendering of `value`, followed by a separator so
    /// adjacent fields cannot alias (`("ab", "c")` vs `("a", "bc")`).
    pub fn write_debug(&mut self, value: &dyn fmt::Debug) -> &mut Self {
        struct HashSink<'a>(&'a mut Fingerprint);
        impl fmt::Write for HashSink<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write_bytes(s.as_bytes());
                Ok(())
            }
        }
        write!(HashSink(self), "{value:?}").expect("hashing never fails");
        self.write_bytes(&[0x1f]);
        self
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprints a sequence of `Debug`-renderable parts in order.
///
/// ```
/// use tmr_core::pipeline::fingerprint;
/// let a = fingerprint(&[&1u64 as &dyn std::fmt::Debug, &"x"]);
/// let b = fingerprint(&[&1u64 as &dyn std::fmt::Debug, &"x"]);
/// let c = fingerprint(&[&2u64 as &dyn std::fmt::Debug, &"x"]);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn fingerprint(parts: &[&dyn fmt::Debug]) -> u64 {
    let mut hash = Fingerprint::new();
    for part in parts {
        hash.write_debug(*part);
    }
    hash.finish()
}

/// A cache key: the stage name plus the fingerprint of everything the stage's
/// output depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stage label (`"synth"`, `"routed"`, `"golden"`, …).
    pub stage: &'static str,
    /// Fingerprint of the stage inputs.
    pub fingerprint: u64,
}

impl CacheKey {
    /// Builds a key from a stage label and input fingerprint.
    pub fn new(stage: &'static str, fingerprint: u64) -> Self {
        Self { stage, fingerprint }
    }
}

/// A point-in-time snapshot of cache effectiveness, suitable for logging next
/// to sweep results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Artifacts currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache was never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.0} % hit rate, {} artifacts)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries
        )
    }
}

/// A thread-safe, type-erased artifact store memoizing pipeline stages.
///
/// Artifacts are stored as `Arc<dyn Any + Send + Sync>` under a
/// [`CacheKey`]; [`ArtifactCache::get_or_try_insert`] downcasts on the way
/// out, so each stage gets its concrete type back. The cache is shared by
/// cloning an `Arc<ArtifactCache>` into every flow of a sweep.
///
/// Failures are **not** cached: a stage that returns `Err` leaves no entry
/// behind, so a retry (e.g. on a bigger device) recomputes it.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<CacheKey, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Per-stage `(hits, misses)` counters, keyed by the stage label.
    stage_counters: Mutex<HashMap<&'static str, (u64, u64)>>,
}

impl ArtifactCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache behind an `Arc`, ready to share across flows.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Returns the cached artifact for `key`, or runs `compute`, stores its
    /// result and returns it. Errors are propagated and nothing is stored.
    ///
    /// # Panics
    ///
    /// Panics if an artifact of a *different type* was stored under the same
    /// key — stage labels must be unique per artifact type.
    pub fn get_or_try_insert<T, E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
    {
        if let Some(found) = self.lookup::<T>(key) {
            if tmr_trace::enabled() {
                tmr_trace::event("cache.hit")
                    .attr("stage", key.stage)
                    .attr("fingerprint", format!("{:016x}", key.fingerprint));
                tmr_trace::counter_add("cache.hits", 1);
            }
            return Ok(found);
        }
        // Every cache miss wraps its compute in a `stage.<label>` span — this
        // one instrumentation point gives the whole pipeline (synth, place,
        // route, analyze, compiled, campaign, …) its stage timings.
        let mut stage_span = if tmr_trace::enabled() {
            let mut span = tmr_trace::span(format!("stage.{}", key.stage));
            span.attr("fingerprint", format!("{:016x}", key.fingerprint));
            Some(span)
        } else {
            None
        };
        // The lock is NOT held while computing: stages are slow (synthesis,
        // routing) and other flows must be able to hit the cache meanwhile.
        // Two threads may race to compute the same artifact; the first store
        // wins and the loser's work is discarded — wasteful but correct,
        // since stages are pure functions of the key.
        let computed = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bump_stage(key.stage, false);
        if let Some(span) = &mut stage_span {
            span.attr("cache", "miss");
            tmr_trace::counter_add("cache.misses", 1);
        }
        let mut map = self.map.lock().expect("artifact cache poisoned");
        let entry = map
            .entry(key)
            .or_insert_with(|| computed.clone() as Arc<dyn Any + Send + Sync>);
        Ok(entry
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("artifact type mismatch for stage `{}`", key.stage)))
    }

    fn lookup<T: Send + Sync + 'static>(&self, key: CacheKey) -> Option<Arc<T>> {
        let map = self.map.lock().expect("artifact cache poisoned");
        let entry = map.get(&key)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bump_stage(key.stage, true);
        Some(
            entry
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("artifact type mismatch for stage `{}`", key.stage)),
        )
    }

    /// Bumps the per-stage hit/miss counter.
    fn bump_stage(&self, stage: &'static str, hit: bool) {
        let mut counters = self.stage_counters.lock().expect("artifact cache poisoned");
        let entry = counters.entry(stage).or_insert((0, 0));
        if hit {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    /// Per-stage effectiveness counters, sorted by stage label. `entries`
    /// counts the artifacts currently stored under each stage, so sweep
    /// reports can show exactly which pipeline stages (synthesis, the
    /// compiled simulator, campaigns, ...) were served from the cache.
    pub fn stage_stats(&self) -> Vec<(&'static str, CacheStats)> {
        let counters = self
            .stage_counters
            .lock()
            .expect("artifact cache poisoned")
            .clone();
        let map = self.map.lock().expect("artifact cache poisoned");
        let mut stages: Vec<(&'static str, CacheStats)> = counters
            .into_iter()
            .map(|(stage, (hits, misses))| {
                let entries = map.keys().filter(|key| key.stage == stage).count();
                (
                    stage,
                    CacheStats {
                        hits,
                        misses,
                        entries,
                    },
                )
            })
            .collect();
        stages.sort_unstable_by_key(|&(stage, _)| stage);
        stages
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("artifact cache poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An infallible [`ArtifactCache::get_or_try_insert`].
    fn insert<T: Send + Sync + 'static>(
        cache: &ArtifactCache,
        key: CacheKey,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        cache
            .get_or_try_insert::<_, ()>(key, || Ok(compute()))
            .unwrap()
    }

    #[test]
    fn fingerprints_are_stable_and_separate_fields() {
        assert_eq!(fingerprint(&[&42u64]), fingerprint(&[&42u64]));
        assert_ne!(fingerprint(&[&42u64]), fingerprint(&[&43u64]));
        // Field boundaries must not alias.
        assert_ne!(
            fingerprint(&[&"ab" as &dyn fmt::Debug, &"c"]),
            fingerprint(&[&"a" as &dyn fmt::Debug, &"bc"])
        );
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let cache = ArtifactCache::new();
        let key = CacheKey::new("stage", 7);
        let mut computed = 0;
        let a = insert(&cache, key, || {
            computed += 1;
            String::from("artifact")
        });
        let b = insert(&cache, key, || {
            computed += 1;
            String::from("other")
        });
        assert_eq!(computed, 1);
        assert_eq!(*a, "artifact");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.to_string().contains("1 hits"));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let key = CacheKey::new("fallible", 1);
        let failed: Result<Arc<u32>, &str> = cache.get_or_try_insert(key, || Err("boom"));
        assert_eq!(failed.unwrap_err(), "boom");
        let ok = cache.get_or_try_insert::<u32, &str>(key, || Ok(9)).unwrap();
        assert_eq!(*ok, 9);
    }

    #[test]
    fn cache_instrumentation_records_stage_spans_and_hit_events() {
        tmr_trace::configure(tmr_trace::TraceConfig::memory());
        let cache = ArtifactCache::new();
        let key = CacheKey::new("demo", 9);
        let a = insert(&cache, key, || 1u32);
        let b = insert(&cache, key, || 2u32);
        assert_eq!((*a, *b), (1, 1));
        let tree = tmr_trace::drain_tree();
        // Other tests may trace concurrently into the process-global
        // collector; assert only on this test's unique stage label.
        assert_eq!(tree.count("stage.demo"), 1, "one miss span");
        fn demo_hits(node: &tmr_trace::TraceNode) -> usize {
            let own = node.name == "cache.hit"
                && node.attr("stage").map(|v| v.to_string()) == Some("demo".to_string());
            usize::from(own) + node.children.iter().map(demo_hits).sum::<usize>()
        }
        assert_eq!(tree.roots.iter().map(demo_hits).sum::<usize>(), 1);
        tmr_trace::configure(tmr_trace::TraceConfig::off());
    }

    #[test]
    fn distinct_stages_do_not_collide() {
        let cache = ArtifactCache::new();
        let a = insert(&cache, CacheKey::new("a", 1), || 1u32);
        let b = insert(&cache, CacheKey::new("b", 1), || 2u32);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.stats().entries, 2);
    }
}
