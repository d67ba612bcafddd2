//! Deterministic reconstruction of the span tree from merged records.

use crate::json::Json;
use crate::record::Record;
use std::collections::HashMap;

/// One node of the reconstructed trace: a span (with a duration) or an
/// instant event (without one).
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Span or event name, e.g. `stage.route`.
    pub name: String,
    /// Task label of the recording thread (`main`, `shard-03`, …).
    pub task: String,
    /// Wall-clock duration; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Attributes in the order they were attached.
    pub attrs: Vec<(String, Json)>,
    /// Child spans and events, in deterministic `(task, seq)` order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// The value of the named attribute, if attached.
    pub fn attr(&self, key: &str) -> Option<&Json> {
        self.attrs
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|child| child.find(name))
    }

    /// Number of descendants (including self) named `name`.
    pub fn count(&self, name: &str) -> usize {
        usize::from(self.name == name)
            + self
                .children
                .iter()
                .map(|child| child.count(name))
                .sum::<usize>()
    }

    fn structure_into(&self, out: &mut String) {
        out.push_str(&self.name);
        out.push('[');
        out.push_str(&self.task);
        out.push(']');
        if !self.children.is_empty() {
            out.push('(');
            for (index, child) in self.children.iter().enumerate() {
                if index > 0 {
                    out.push(' ');
                }
                child.structure_into(out);
            }
            out.push(')');
        }
    }
}

/// The merged trace: root spans in deterministic order plus a snapshot of
/// the counter registry. Built by [`drain_tree`](crate::drain_tree).
#[derive(Debug, Clone, Default)]
pub struct TraceTree {
    /// Top-level spans and events.
    pub roots: Vec<TraceNode>,
    /// Counter registry snapshot, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl TraceTree {
    /// Builds the tree from records already sorted by `(task, seq)`.
    /// Children attach to parents by span id; sibling order is the sorted
    /// record order, so the result is independent of thread scheduling.
    pub(crate) fn build(records: Vec<Record>, counters: Vec<(String, u64)>) -> TraceTree {
        struct Slot {
            node: Option<TraceNode>,
            parent: u64,
            children: Vec<usize>,
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(records.len());
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for record in records {
            let index = slots.len();
            if record.id != 0 {
                by_id.insert(record.id, index);
            }
            slots.push(Slot {
                node: Some(TraceNode {
                    name: record.name.into_owned(),
                    task: record.task.to_string(),
                    dur_ns: record.dur_ns,
                    attrs: record
                        .attrs
                        .into_iter()
                        .map(|(key, value)| (key.into_owned(), value))
                        .collect(),
                    children: Vec::new(),
                }),
                parent: record.parent,
                children: Vec::new(),
            });
        }
        let mut roots: Vec<usize> = Vec::new();
        for index in 0..slots.len() {
            match by_id.get(&slots[index].parent) {
                // A span can't be its own ancestor (ids are unique and
                // parents are assigned at open), so this attachment is
                // acyclic by construction.
                Some(&parent_index) if parent_index != index => {
                    slots[parent_index].children.push(index)
                }
                _ => roots.push(index),
            }
        }
        fn assemble(slots: &mut [Slot], index: usize) -> TraceNode {
            let children = std::mem::take(&mut slots[index].children);
            let mut node = slots[index].node.take().expect("node assembled twice");
            node.children = children
                .into_iter()
                .map(|child| assemble(slots, child))
                .collect();
            node
        }
        TraceTree {
            roots: roots
                .into_iter()
                .map(|index| assemble(&mut slots, index))
                .collect(),
            counters,
        }
    }

    /// Depth-first search across all roots for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        self.roots.iter().find_map(|root| root.find(name))
    }

    /// Total number of nodes named `name` in the tree.
    pub fn count(&self, name: &str) -> usize {
        self.roots.iter().map(|root| root.count(name)).sum()
    }

    /// A compact rendering of the tree's shape — names, tasks and nesting,
    /// with ids and timings elided. Two runs tracing the same work produce
    /// the same structure string regardless of thread interleaving; the
    /// determinism proptests compare exactly this.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for (index, root) in self.roots.iter().enumerate() {
            if index > 0 {
                out.push(' ');
            }
            root.structure_into(&mut out);
        }
        out
    }
}
