//! Per-thread record buffers, span/event guards and cross-thread task
//! adoption.
//!
//! Every thread records into a thread-local buffer: opening a span assigns
//! it a process-unique id and a per-thread sequence number; closing it turns
//! it into a [`Record`]. Buffers publish into the global collector whenever
//! the thread's span stack empties, when a [`TaskGuard`] ends, and at thread
//! exit — so by the time a flush happens on the coordinating thread, every
//! finished worker's records are visible.
//!
//! Determinism: records are merged by `(task label, seq)`, never by wall
//! clock or publish order, so concurrently running workers must install
//! distinct task labels via [`task`] (the campaign engine labels its workers
//! `shard-00`, `shard-01`, …). The sequence number is assigned at span-open
//! on the owning thread, which makes the merged tree a pure function of what
//! was traced.

use crate::json::Json;
use crate::{now_ns, publish_records};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One finished span or instant event.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub name: Cow<'static, str>,
    pub task: Arc<str>,
    pub seq: u64,
    /// Process-unique span id; 0 for instant events.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    pub start_ns: u64,
    /// `None` marks an instant event.
    pub dur_ns: Option<u64>,
    pub attrs: Vec<(Cow<'static, str>, Json)>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    seq: u64,
    start_ns: u64,
    attrs: Vec<(Cow<'static, str>, Json)>,
}

struct ThreadBuffer {
    task: Arc<str>,
    /// Span id adopted from the spawning thread; parent of this thread's
    /// root spans.
    task_parent: u64,
    next_seq: u64,
    open: Vec<OpenSpan>,
    records: Vec<Record>,
}

impl ThreadBuffer {
    fn new() -> Self {
        ThreadBuffer {
            task: Arc::from("main"),
            task_parent: 0,
            next_seq: 0,
            open: Vec::new(),
            records: Vec::new(),
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        // A thread dying with open spans (early return, panic) still records
        // them, closed at the time of death.
        let end = now_ns();
        while let Some(open) = self.open.pop() {
            self.records.push(Record {
                name: open.name,
                task: self.task.clone(),
                seq: open.seq,
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                dur_ns: Some(end.saturating_sub(open.start_ns)),
                attrs: open.attrs,
            });
        }
        publish_records(&mut self.records);
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

fn next_id() -> u64 {
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// An opaque span identity, used to adopt a parent span across threads
/// ([`task`]) — see [`current_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// The identity of the innermost span open on this thread (or the span this
/// thread's task adopted, if none is open locally). Capture it on the
/// spawning thread and pass it to [`task`] in the worker so the worker's
/// spans merge under the right parent.
pub fn current_span() -> Option<SpanId> {
    BUFFER
        .try_with(|cell| {
            let buffer = cell.borrow();
            match buffer.open.last() {
                Some(open) => Some(SpanId(open.id)),
                None if buffer.task_parent != 0 => Some(SpanId(buffer.task_parent)),
                None => None,
            }
        })
        .ok()
        .flatten()
}

pub(crate) fn open_span(name: Cow<'static, str>) -> SpanGuard {
    BUFFER
        .try_with(|cell| {
            let mut buffer = cell.borrow_mut();
            let id = next_id();
            let parent = buffer
                .open
                .last()
                .map(|open| open.id)
                .unwrap_or(buffer.task_parent);
            let seq = buffer.next_seq;
            buffer.next_seq += 1;
            buffer.open.push(OpenSpan {
                id,
                parent,
                name,
                seq,
                start_ns: now_ns(),
                attrs: Vec::new(),
            });
            SpanGuard { id }
        })
        .unwrap_or(SpanGuard { id: 0 })
}

fn close_span(id: u64) {
    let end = now_ns();
    let _ = BUFFER.try_with(|cell| {
        let mut buffer = cell.borrow_mut();
        // Guards normally drop innermost-first; if one is dropped out of
        // order, everything opened inside it closes with it.
        while let Some(open) = buffer.open.pop() {
            let found = open.id == id;
            let task = buffer.task.clone();
            buffer.records.push(Record {
                name: open.name,
                task,
                seq: open.seq,
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                dur_ns: Some(end.saturating_sub(open.start_ns)),
                attrs: open.attrs,
            });
            if found {
                break;
            }
        }
        if buffer.open.is_empty() {
            publish_records(&mut buffer.records);
        }
    });
}

pub(crate) fn attr_innermost(key: Cow<'static, str>, value: Json) {
    let _ = BUFFER.try_with(|cell| {
        if let Some(open) = cell.borrow_mut().open.last_mut() {
            open.attrs.push((key, value));
        }
    });
}

/// Publishes this thread's finished records into the global collector.
pub(crate) fn publish_current_thread() {
    let _ = BUFFER.try_with(|cell| {
        publish_records(&mut cell.borrow_mut().records);
    });
}

/// RAII guard for an open span; created by [`span`](crate::span). Dropping
/// it closes the span. When tracing is disabled the guard is inert.
#[must_use = "dropping the guard closes the span"]
pub struct SpanGuard {
    /// 0 when tracing was disabled at creation.
    id: u64,
}

impl SpanGuard {
    pub(crate) fn disabled() -> Self {
        SpanGuard { id: 0 }
    }

    /// Attaches an attribute to this span (no-op on an inert guard).
    pub fn attr(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<Json>) {
        if self.id == 0 {
            return;
        }
        let id = self.id;
        let key = key.into();
        let value = value.into();
        let _ = BUFFER.try_with(|cell| {
            let mut buffer = cell.borrow_mut();
            if let Some(open) = buffer.open.iter_mut().rev().find(|open| open.id == id) {
                open.attrs.push((key, value));
            }
        });
    }

    /// This span's identity, for cross-thread adoption via [`task`]. `None`
    /// on an inert guard.
    pub fn id(&self) -> Option<SpanId> {
        (self.id != 0).then_some(SpanId(self.id))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            close_span(self.id);
        }
    }
}

/// A pending instant event; created by [`event`](crate::event). Attributes
/// chain with [`Event::attr`]; the event is recorded when the value drops —
/// usually immediately, at the end of the expression statement.
pub struct Event {
    pending: Option<Record>,
}

impl Event {
    pub(crate) fn disabled() -> Self {
        Event { pending: None }
    }

    /// Attaches an attribute to the pending event.
    pub fn attr(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<Json>) -> Self {
        if let Some(record) = &mut self.pending {
            record.attrs.push((key.into(), value.into()));
        }
        self
    }
}

impl Drop for Event {
    fn drop(&mut self) {
        let Some(record) = self.pending.take() else {
            return;
        };
        let _ = BUFFER.try_with(|cell| {
            let mut buffer = cell.borrow_mut();
            buffer.records.push(record);
            if buffer.open.is_empty() {
                publish_records(&mut buffer.records);
            }
        });
    }
}

pub(crate) fn open_event(name: Cow<'static, str>) -> Event {
    BUFFER
        .try_with(|cell| {
            let mut buffer = cell.borrow_mut();
            let parent = buffer
                .open
                .last()
                .map(|open| open.id)
                .unwrap_or(buffer.task_parent);
            let seq = buffer.next_seq;
            buffer.next_seq += 1;
            let task = buffer.task.clone();
            Event {
                pending: Some(Record {
                    name,
                    task,
                    seq,
                    id: 0,
                    parent,
                    start_ns: now_ns(),
                    dur_ns: None,
                    attrs: Vec::new(),
                }),
            }
        })
        .unwrap_or(Event { pending: None })
}

/// Labels this thread's records and adopts a parent span from another
/// thread, until the returned guard drops. Worker threads call this first:
///
/// ```
/// # tmr_trace::configure(tmr_trace::TraceConfig::memory());
/// let root = tmr_trace::span("campaign");
/// let parent = tmr_trace::current_span();
/// std::thread::scope(|scope| {
///     scope.spawn(move || {
///         let _task = tmr_trace::task("shard-00", parent);
///         let _span = tmr_trace::span("campaign.shard");
///     });
/// });
/// # drop(root);
/// # tmr_trace::configure(tmr_trace::TraceConfig::off());
/// ```
///
/// Concurrent workers must use distinct labels — the label (with the
/// per-thread sequence number) is the deterministic merge key.
pub fn task(label: impl Into<String>, parent: Option<SpanId>) -> TaskGuard {
    if !crate::enabled() {
        return TaskGuard { prev: None };
    }
    let label: Arc<str> = Arc::from(label.into());
    BUFFER
        .try_with(|cell| {
            let mut buffer = cell.borrow_mut();
            publish_records(&mut buffer.records);
            let prev_task = std::mem::replace(&mut buffer.task, label);
            let prev_parent = std::mem::replace(
                &mut buffer.task_parent,
                parent.map(|span| span.0).unwrap_or(0),
            );
            TaskGuard {
                prev: Some((prev_task, prev_parent)),
            }
        })
        .unwrap_or(TaskGuard { prev: None })
}

/// RAII guard restoring the thread's previous task label; created by
/// [`task`]. Publishes the task's records when dropped.
#[must_use = "dropping the guard ends the task"]
pub struct TaskGuard {
    prev: Option<(Arc<str>, u64)>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        let Some((task, parent)) = self.prev.take() else {
            return;
        };
        let _ = BUFFER.try_with(|cell| {
            let mut buffer = cell.borrow_mut();
            publish_records(&mut buffer.records);
            buffer.task = task;
            buffer.task_parent = parent;
        });
    }
}
