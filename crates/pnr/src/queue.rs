//! The A* open list: a 4-ary min-heap over packed `u64` keys.
//!
//! An entry's key is `(estimate.to_bits() << 32) | node`, and its path cost
//! is stored beside it. For non-negative, finite estimates, which are all
//! the router produces, an `f32`'s bit pattern orders like its value, so
//! comparing keys as integers pops the smallest estimate first and breaks
//! ties by the smaller node index: the order `(estimate.total_cmp, node
//! index)`. Two keys are equal only for two entries of one node with one
//! estimate; the router's stale-entry check skips whichever of them is
//! stale, so their relative order cannot change a route.
//!
//! A 4-ary heap is half as deep as a binary one, and a pop picks the
//! smallest of a node's four adjacent children with a branch-free
//! tournament: comparisons of random keys are unpredictable, and
//! mispredicted branches would cost more than the comparisons.

use tmr_arch::NodeId;

/// One open-list entry: the packed key and the path cost of reaching the
/// key's node.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    cost: f32,
}

/// Children per heap node (the tournament in `sift_down` compares four).
const ARITY: usize = 4;

/// The A* open list: pops the entry with the smallest estimate, ties broken
/// by the smaller node index.
#[derive(Debug, Default)]
pub(crate) struct OpenList {
    heap: Vec<Entry>,
}

impl OpenList {
    /// The packed key of an entry.
    #[inline]
    fn key(estimate: f32, node: NodeId) -> u64 {
        debug_assert!(
            estimate.is_sign_positive() && estimate.is_finite(),
            "estimate {estimate} must be non-negative and finite"
        );
        (u64::from(estimate.to_bits()) << 32) | node.index() as u64
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Adds an entry.
    #[inline]
    pub(crate) fn push(&mut self, estimate: f32, cost: f32, node: NodeId) {
        self.push_unordered(estimate, cost, node);
        self.sift_up(self.heap.len() - 1);
    }

    /// Adds an entry without restoring the heap order; call
    /// [`heapify`](Self::heapify) before the next [`pop`](Self::pop).
    #[inline]
    pub(crate) fn push_unordered(&mut self, estimate: f32, cost: f32, node: NodeId) {
        self.heap.push(Entry {
            key: Self::key(estimate, node),
            cost,
        });
    }

    /// Restores the heap order over every entry in O(n).
    pub(crate) fn heapify(&mut self) {
        if self.heap.len() > 1 {
            for index in (0..=(self.heap.len() - 2) / ARITY).rev() {
                self.sift_down(index);
            }
        }
    }

    /// Removes the entry with the smallest key and returns its node and
    /// cost.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(NodeId, f32)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(root) => {
                let top = std::mem::replace(root, last);
                self.sift_down(0);
                top
            }
            None => last,
        };
        Some((NodeId::from_index(top.key as u32 as usize), top.cost))
    }

    /// Moves the entry at `hole` up to its place.
    #[inline]
    fn sift_up(&mut self, mut hole: usize) {
        let heap = &mut self.heap;
        let entry = heap[hole];
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if heap[parent].key <= entry.key {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = entry;
    }

    /// Moves the entry at `hole` down to its place.
    #[inline]
    fn sift_down(&mut self, mut hole: usize) {
        let heap = &mut self.heap;
        let entry = heap[hole];
        loop {
            let first = ARITY * hole + 1;
            let best = if let Some(children) = heap.get(first..first + ARITY) {
                // A full set of children: the branch-free tournament.
                let low = usize::from(children[1].key < children[0].key);
                let high = 2 + usize::from(children[3].key < children[2].key);
                first
                    + if children[high].key < children[low].key {
                        high
                    } else {
                        low
                    }
            } else if first < heap.len() {
                let mut best = first;
                for child in first + 1..heap.len() {
                    if heap[child].key < heap[best].key {
                        best = child;
                    }
                }
                best
            } else {
                break;
            };
            if heap[best].key >= entry.key {
                break;
            }
            heap[hole] = heap[best];
            hole = best;
        }
        heap[hole] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The specification: a list whose pop removes the minimum by
    /// `(estimate.total_cmp, node index)`.
    #[derive(Default)]
    struct Reference {
        entries: Vec<(f32, NodeId, f32)>,
    }

    impl Reference {
        fn push(&mut self, estimate: f32, cost: f32, node: NodeId) {
            self.entries.push((estimate, node, cost));
        }

        fn pop(&mut self) -> Option<(NodeId, f32)> {
            let (index, _) = self.entries.iter().enumerate().min_by(|(_, a), (_, b)| {
                a.0.total_cmp(&b.0)
                    .then_with(|| a.1.index().cmp(&b.1.index()))
            })?;
            let (_, node, cost) = self.entries.swap_remove(index);
            Some((node, cost))
        }
    }

    /// An estimate drawn from a small grid (so equal estimates on distinct
    /// nodes, `0.0` and repeated `(node, estimate)` pairs are common), or any
    /// non-negative finite `f32`, subnormals included.
    fn estimate(grid: u32, bits: u32) -> f32 {
        match grid {
            0..=7 => grid as f32 * 0.5,
            _ => f32::from_bits(bits),
        }
    }

    /// The cost stored with an entry, a function of its key: entries with
    /// equal keys are then indistinguishable, as their pop order is
    /// unspecified.
    fn cost(estimate: f32, node: NodeId) -> f32 {
        estimate * 0.25 + node.index() as f32
    }

    /// The bit patterns of the non-negative finite `f32`s.
    const NON_NEGATIVE_FINITE: std::ops::Range<u32> = 0..0x7f80_0000;

    /// A seed `(node, grid, bits)`: see [`estimate`].
    fn seed() -> impl Strategy<Value = (u32, u32, u32)> {
        (0u32..64, 0u32..12, NON_NEGATIVE_FINITE)
    }

    /// An operation `((kind, node), (grid, bits))`: a push for `kind < 3`,
    /// else a pop. 24 nodes make duplicate entries of one node common.
    fn op() -> impl Strategy<Value = ((u32, u32), (u32, u32))> {
        ((0u32..5, 0u32..24), (0u32..12, NON_NEGATIVE_FINITE))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_match_the_reference_order(
            seeds in prop::collection::vec(seed(), 0..40),
            ops in prop::collection::vec(op(), 0..300),
        ) {
            let mut open = OpenList::default();
            let mut reference = Reference::default();
            // Seeding: distinct nodes appended unordered, then one heapify.
            let mut seeded = std::collections::HashSet::new();
            for (node, grid, bits) in seeds {
                if seeded.insert(node) {
                    let node = NodeId::from_index(node as usize);
                    let estimate = estimate(grid, bits);
                    open.push_unordered(estimate, cost(estimate, node), node);
                    reference.push(estimate, cost(estimate, node), node);
                }
            }
            open.heapify();
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            for ((op, node), (grid, bits)) in ops {
                if op < 3 {
                    let node = NodeId::from_index(node as usize);
                    let estimate = estimate(grid, bits);
                    open.push(estimate, cost(estimate, node), node);
                    reference.push(estimate, cost(estimate, node), node);
                } else {
                    popped.push(open.pop());
                    expected.push(reference.pop());
                }
            }
            while let Some(entry) = reference.pop() {
                expected.push(Some(entry));
                popped.push(open.pop());
            }
            prop_assert_eq!(open.pop(), None);
            prop_assert_eq!(popped, expected);
        }
    }

    #[test]
    fn seeding_by_heapify_matches_one_by_one_pushes() {
        let seeds: Vec<(f32, NodeId)> = (0..97)
            .map(|i| ((i * 37 % 11) as f32, NodeId::from_index(i * 53 % 97)))
            .collect();
        let mut pushed = OpenList::default();
        let mut heapified = OpenList::default();
        for &(estimate, node) in &seeds {
            pushed.push(estimate, 0.0, node);
            heapified.push_unordered(estimate, 0.0, node);
        }
        heapified.heapify();
        let drain = |open: &mut OpenList| std::iter::from_fn(|| open.pop()).collect::<Vec<_>>();
        let order = drain(&mut pushed);
        assert_eq!(order.len(), seeds.len());
        assert_eq!(order, drain(&mut heapified));
    }

    #[test]
    fn keys_order_by_estimate_then_node() {
        let mut open = OpenList::default();
        open.push(1.5, 0.0, NodeId::from_index(2));
        open.push(0.0, 0.0, NodeId::from_index(9));
        open.push(1.5, 0.0, NodeId::from_index(1));
        open.push(f32::from_bits(1), 0.0, NodeId::from_index(0));
        open.push(0.0, 0.0, NodeId::from_index(3));
        let nodes: Vec<usize> = std::iter::from_fn(|| open.pop())
            .map(|(node, _)| node.index())
            .collect();
        assert_eq!(nodes, [3, 9, 0, 1, 2]);
    }
}
