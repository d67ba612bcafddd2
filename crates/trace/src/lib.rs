//! # tmr-trace
//!
//! Dependency-free structured instrumentation for the `tmr-fpga` workspace:
//! hierarchical spans with monotonic timings, counters and events, recorded
//! into per-thread buffers and merged deterministically, with sinks for
//! human-readable stderr and Chrome `trace_event` JSON (loadable in
//! Perfetto / `chrome://tracing`). Attribute values are [`json::Json`].
//!
//! The container this workspace builds in is offline, so this crate stands in
//! for the usual `tracing` ecosystem with only `std`.
//!
//! ## The disabled path is one atomic branch
//!
//! Tracing is **off by default**. Every instrumentation entry point —
//! [`span`], [`event`], [`counter_add`], [`attr_current`] — starts with a
//! single relaxed [`std::sync::atomic::AtomicU8`] load and returns
//! immediately when tracing is off: no allocation, no lock, no clock read.
//! Campaign results are bit-identical with tracing on, off, or at any sink —
//! instrumentation only ever *observes*.
//!
//! ## Configuration
//!
//! The tracer is process-global and has two entry points: the environment
//! (`TMR_TRACE=off|human|chrome|memory` plus `TMR_TRACE_FILE=<path>`), read
//! lazily on the first instrumentation call, and [`configure`] with a
//! [`TraceConfig`], which replaces the active configuration. No builder of
//! the facade or of `tmr-faultsim` configures tracing.
//!
//! ## Deterministic merge
//!
//! Every thread records into its own buffer; records carry a *task label*
//! (e.g. `shard-03`, installed with [`task`] when a worker thread adopts a
//! parent span from the spawning thread) and a per-thread sequence number.
//! Merging sorts by `(task, seq)`, so the reconstructed span tree depends
//! only on what was traced, never on the thread schedule — the property the
//! crate's proptests pin.
//!
//! ```
//! use tmr_trace::{configure, drain_tree, span, TraceConfig};
//!
//! configure(TraceConfig::memory());
//! {
//!     let mut outer = span("flow");
//!     outer.attr("design", "fir");
//!     let _inner = span("synth");
//! }
//! let tree = drain_tree();
//! assert_eq!(tree.roots[0].name, "flow");
//! assert_eq!(tree.roots[0].children[0].name, "synth");
//! configure(TraceConfig::off());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
pub mod json;
mod record;
mod sink;
mod tree;

pub use config::{Sink, TraceConfig};
pub use record::{current_span, task, Event, SpanGuard, SpanId, TaskGuard};
pub use tree::{TraceNode, TraceTree};

use json::Json;
use record::Record;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// The one-branch fast path: 0 = not yet initialized from the environment,
/// 1 = tracing off, 2 = tracing on.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Everything behind the fast path, created on first (enabled) use.
struct Globals {
    config: Mutex<TraceConfig>,
    /// Records published by finished tasks/threads, awaiting a flush.
    records: Mutex<Vec<Record>>,
    /// The metrics registry: named monotonic counters.
    counters: Mutex<BTreeMap<String, u64>>,
    /// Monotonic origin of every timestamp in this process.
    epoch: Instant,
}

fn globals() -> &'static Globals {
    static GLOBALS: OnceLock<Globals> = OnceLock::new();
    GLOBALS.get_or_init(|| Globals {
        config: Mutex::new(TraceConfig::off()),
        records: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        epoch: Instant::now(),
    })
}

/// Nanoseconds since the process trace epoch (monotonic).
pub(crate) fn now_ns() -> u64 {
    globals().epoch.elapsed().as_nanos() as u64
}

pub(crate) fn publish_records(records: &mut Vec<Record>) {
    if records.is_empty() {
        return;
    }
    globals()
        .records
        .lock()
        .expect("trace record store poisoned")
        .append(records);
}

/// Whether tracing is currently enabled. This is the fast path every
/// instrumentation site branches on: one relaxed atomic load (plus a one-time
/// environment lookup on the very first call of the process).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let config = TraceConfig::from_env();
    configure(config);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Installs a process-global trace configuration, replacing the current one
/// (and pre-empting environment initialization). Does not clear records
/// already collected.
pub fn configure(config: TraceConfig) {
    let on = config.sink() != Sink::Off;
    *globals().config.lock().expect("trace config poisoned") = config;
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// The currently installed configuration (the environment default if nothing
/// was configured yet).
pub fn config() -> TraceConfig {
    enabled(); // force lazy initialization so the answer is the effective one
    globals()
        .config
        .lock()
        .expect("trace config poisoned")
        .clone()
}

/// Opens a hierarchical span. The returned guard closes the span when
/// dropped; [`SpanGuard::attr`] attaches key/value attributes. A no-op (no
/// allocation, no clock read) when tracing is disabled.
pub fn span(name: impl Into<std::borrow::Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    record::open_span(name.into())
}

/// Emits an instant event under the current span. Attach attributes by
/// chaining [`Event::attr`]; the event is recorded when the builder drops:
///
/// ```
/// # tmr_trace::configure(tmr_trace::TraceConfig::memory());
/// tmr_trace::event("route.iteration").attr("overused", 3u64);
/// # tmr_trace::configure(tmr_trace::TraceConfig::off());
/// ```
pub fn event(name: impl Into<std::borrow::Cow<'static, str>>) -> Event {
    if !enabled() {
        return Event::disabled();
    }
    record::open_event(name.into())
}

/// Attaches an attribute to the innermost span currently open on this
/// thread (a no-op when tracing is disabled or no span is open). This lets
/// code deep inside a traced computation annotate the span that wraps it —
/// e.g. a pipeline stage attaching artifact sizes to the cache span.
pub fn attr_current(key: impl Into<std::borrow::Cow<'static, str>>, value: impl Into<Json>) {
    if !enabled() {
        return;
    }
    record::attr_innermost(key.into(), value.into());
}

/// Adds to a named monotonic counter in the process-global metrics registry
/// (a no-op when tracing is disabled). Counters are included in every sink's
/// output and in [`drain_tree`] snapshots.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut counters = globals().counters.lock().expect("trace counters poisoned");
    *counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Takes every published record (after publishing the calling thread's
/// buffer) plus the counter registry, leaving both empty. Records come back
/// sorted by `(task, seq)` — the deterministic merge order.
fn take_records() -> (Vec<Record>, Vec<(String, u64)>) {
    record::publish_current_thread();
    let mut records = std::mem::take(
        &mut *globals()
            .records
            .lock()
            .expect("trace record store poisoned"),
    );
    records.sort_by(|a, b| (&*a.task, a.seq).cmp(&(&*b.task, b.seq)));
    let counters =
        std::mem::take(&mut *globals().counters.lock().expect("trace counters poisoned"));
    (records, counters.into_iter().collect())
}

/// Merges everything recorded so far into a [`TraceTree`] and clears the
/// collector (records *and* counters). This is the programmatic sink used by
/// tests and the [`Sink::Memory`] configuration.
pub fn drain_tree() -> TraceTree {
    let (records, counters) = take_records();
    TraceTree::build(records, counters)
}

/// Renders everything recorded so far to the configured sink and clears the
/// collector:
///
/// * [`Sink::Human`] — an indented span tree plus the counter registry, on
///   stderr;
/// * [`Sink::Chrome`] — a Chrome `trace_event` document loadable in
///   Perfetto, written to `TMR_TRACE_FILE` or `tmr_trace.json`;
/// * [`Sink::Memory`] — records are retained for [`drain_tree`];
/// * [`Sink::Off`] — records are discarded.
///
/// Returns the path written, for the Chrome sink. I/O errors are reported on
/// stderr and swallowed — tracing must never fail the traced program.
pub fn flush() -> Option<PathBuf> {
    let config = config();
    match config.sink() {
        Sink::Memory => None,
        Sink::Off => {
            let _ = take_records();
            None
        }
        Sink::Human => {
            let (records, counters) = take_records();
            let tree = TraceTree::build(records, counters);
            eprint!("{}", sink::render_human(&tree));
            None
        }
        Sink::Chrome => {
            let (records, counters) = take_records();
            let path = config.file_or_default();
            match std::fs::write(&path, sink::render_chrome(records, &counters)) {
                Ok(()) => Some(path),
                Err(error) => {
                    eprintln!("tmr-trace: cannot write {}: {error}", path.display());
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests that enable it must serialize.
    /// Acquiring the lock also drops anything a previous test left behind.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        configure(TraceConfig::memory());
        let _ = drain_tree();
        guard
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = lock();
        configure(TraceConfig::off());
        {
            let mut span = span("ignored");
            span.attr("key", 1u64);
            event("ignored.event").attr("k", true);
            counter_add("ignored.counter", 3);
        }
        configure(TraceConfig::memory());
        let tree = drain_tree();
        assert!(tree.roots.is_empty());
        assert!(tree.counters.is_empty());
        configure(TraceConfig::off());
    }

    #[test]
    fn spans_nest_and_carry_attrs() {
        let _guard = lock();
        configure(TraceConfig::memory());
        {
            let mut outer = span("outer");
            outer.attr("design", "fir");
            {
                let mut inner = span("inner");
                inner.attr("count", 7u64);
                event("tick").attr("at", 3u64);
            }
            attr_current("late", true);
        }
        counter_add("widgets", 2);
        counter_add("widgets", 3);
        let tree = drain_tree();
        assert_eq!(tree.roots.len(), 1);
        let outer = &tree.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.attr("design").and_then(Json::as_str), Some("fir"));
        assert_eq!(outer.attr("late").and_then(Json::as_bool), Some(true));
        assert!(outer.dur_ns.is_some());
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.attr("count").and_then(Json::as_u64), Some(7));
        assert_eq!(inner.children[0].name, "tick");
        assert!(inner.children[0].dur_ns.is_none(), "events are instants");
        assert_eq!(tree.counters, vec![("widgets".to_string(), 5)]);
        configure(TraceConfig::off());
    }

    #[test]
    fn worker_tasks_adopt_parents_across_threads() {
        let _guard = lock();
        configure(TraceConfig::memory());
        {
            let root = span("campaign");
            let parent = current_span();
            std::thread::scope(|scope| {
                for index in 0..3 {
                    scope.spawn(move || {
                        let _task = task(format!("shard-{index:02}"), parent);
                        let mut shard = span("campaign.shard");
                        shard.attr("shard", index as u64);
                    });
                }
            });
            drop(root);
        }
        let tree = drain_tree();
        let root = &tree.roots[0];
        assert_eq!(root.name, "campaign");
        assert_eq!(root.children.len(), 3);
        // Children are merged by task label, not by thread-completion order.
        let tasks: Vec<&str> = root.children.iter().map(|c| c.task.as_str()).collect();
        assert_eq!(tasks, ["shard-00", "shard-01", "shard-02"]);
        configure(TraceConfig::off());
    }

    #[test]
    fn human_sink_flushes_to_stderr_without_files() {
        let _guard = lock();
        configure(TraceConfig::human());
        {
            let _span = span("only");
        }
        assert_eq!(flush(), None);
        configure(TraceConfig::off());
    }
}
