//! Laggard selection for conservative multiprocessor scheduling.
//!
//! The machine driver repeatedly asks "which node has the smallest local
//! clock?" — once per scheduling quantum. A linear scan makes that O(nodes)
//! per decision; [`LaggardHeap`] is an indexed binary min-heap over node
//! clocks, giving O(log nodes) updates and O(1) access to both the laggard
//! and the runner-up (the runner-up bounds how far the laggard may run
//! before a rescheduling decision is due).
//!
//! Ordering is lexicographic on `(clock, node index)`, which reproduces the
//! tie-break of a first-minimum linear scan exactly: among nodes at equal
//! clocks, the lowest-numbered node wins. This is what makes a heap-driven
//! schedule bit-identical to the historical `min_by_key` scan.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::sched::LaggardHeap;
//! use flashsim_engine::time::Time;
//!
//! let mut h = LaggardHeap::new(3);
//! h.insert(0, Time::from_ns(30));
//! h.insert(1, Time::from_ns(10));
//! h.insert(2, Time::from_ns(10));
//! // Node 1 wins the tie with node 2 (lower index), and the runner-up
//! // after popping it is node 2.
//! assert_eq!(h.pop(), Some((1, Time::from_ns(10))));
//! assert_eq!(h.peek(), Some((2, Time::from_ns(10))));
//! ```

use crate::time::Time;

/// Sentinel position for "not in the heap".
const ABSENT: usize = usize::MAX;

/// An indexed binary min-heap of `(clock, node)` keys over a fixed set of
/// node ids `0..n`, with `(Time, node index)` lexicographic ordering.
///
/// "Indexed" means the heap tracks each node's position, so a node's key
/// can be updated or the node removed in O(log n) without scanning. The
/// keys themselves sit inline in heap order, so a comparison reads two
/// adjacent entries, not a node id and then that node's clock elsewhere.
#[derive(Debug, Clone)]
pub struct LaggardHeap {
    /// Heap-ordered `(clock, node)` entries; the tuple order is the
    /// heap's order.
    heap: Vec<(Time, u32)>,
    /// Node id → position in `heap`, or [`ABSENT`].
    pos: Vec<usize>,
}

impl LaggardHeap {
    /// Creates an empty heap for node ids `0..n`.
    pub fn new(n: usize) -> LaggardHeap {
        LaggardHeap {
            heap: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
        }
    }

    /// Number of nodes currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no node is in the heap.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True if `node` is currently in the heap.
    pub fn contains(&self, node: u32) -> bool {
        self.pos[node as usize] != ABSENT
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        for &(_, n) in &self.heap {
            self.pos[n as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Writes `entry` at position `i` and records where its node now is.
    #[inline]
    fn place(&mut self, i: usize, entry: (Time, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i;
    }

    /// Settles `entry` at or above the hole at `i`: parents that order
    /// after it move down into the hole, then the entry is written once.
    fn sift_up(&mut self, mut i: usize, entry: (Time, u32)) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if entry >= self.heap[parent] {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Settles `entry` at or below the hole at `i`: the smaller child
    /// moves up into the hole while it orders before the entry, then the
    /// entry is written once.
    fn sift_down(&mut self, mut i: usize, entry: (Time, u32)) {
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            // Which child is smaller is a coin flip to a branch predictor;
            // as arithmetic it is a compare and an add (n64 pop + insert:
            // 61 ns as a branch, 37 ns like this).
            let best = l + usize::from(r < len && self.heap[r] < self.heap[l]);
            if self.heap[best] >= entry {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
        }
        self.place(i, entry);
    }

    /// Settles `entry` into the hole at `i` in whichever direction heap
    /// order requires (at most one of the two sifts moves anything).
    fn settle(&mut self, i: usize, entry: (Time, u32)) {
        if i > 0 && entry < self.heap[(i - 1) / 2] {
            self.sift_up(i, entry);
        } else {
            self.sift_down(i, entry);
        }
    }

    /// Inserts `node` with clock `t`, or updates its key if present.
    pub fn insert(&mut self, node: u32, t: Time) {
        let i = self.pos[node as usize];
        if i == ABSENT {
            let at = self.heap.len();
            self.heap.push((t, node));
            self.sift_up(at, (t, node));
        } else {
            self.settle(i, (t, node));
        }
    }

    /// Removes `node` if present.
    pub fn remove(&mut self, node: u32) {
        let i = self.pos[node as usize];
        if i == ABSENT {
            return;
        }
        self.pos[node as usize] = ABSENT;
        // The last entry fills the hole the node leaves (unless the node
        // was the last entry).
        if let Some(last) = self.heap.pop() {
            if i < self.heap.len() {
                self.settle(i, last);
            }
        }
    }

    /// The laggard — smallest `(clock, node)` — without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u32, Time)> {
        self.heap.first().map(|&(t, n)| (n, t))
    }

    /// Removes and returns the laggard.
    pub fn pop(&mut self) -> Option<(u32, Time)> {
        let top = self.peek()?;
        self.remove(top.0);
        Some(top)
    }

    /// The runner-up — second-smallest `(clock, node)` — without touching
    /// the heap. Heap order puts it at one of the root's two children, so
    /// this is O(1) where `pop` + `peek` costs a sift.
    #[inline]
    pub fn runner_up(&self) -> Option<(u32, Time)> {
        let &l = self.heap.get(1)?;
        // Spelt as a select over two loaded entries so it compiles to one
        // (`r.min(l)` and a guarded match both compile to a branch on the
        // clocks, mispredicted about half the time).
        let r = self.heap.get(2).map_or(l, |&r| r);
        let (t, n) = if r < l { r } else { l };
        Some((n, t))
    }

    /// Re-keys the laggard to clock `t` in place: one sift from the root
    /// instead of the two a `pop` + `insert` pair pays. No-op when empty.
    #[inline]
    pub fn update_top(&mut self, t: Time) {
        if let Some(&(_, n)) = self.heap.first() {
            self.sift_down(0, (t, n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(t: u64) -> Time {
        Time::from_ns(t)
    }

    #[test]
    fn pops_in_clock_order() {
        let mut h = LaggardHeap::new(5);
        for (n, t) in [(0, 50), (1, 10), (2, 40), (3, 20), (4, 30)] {
            h.insert(n, ns(t));
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(n, _)| n)).collect();
        assert_eq!(order, vec![1, 3, 4, 2, 0]);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_clocks_break_ties_by_lowest_node() {
        let mut h = LaggardHeap::new(4);
        for n in [3, 1, 2, 0] {
            h.insert(n, ns(7));
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(n, _)| n)).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "linear-scan tie-break order");
    }

    #[test]
    fn update_moves_node_both_directions() {
        let mut h = LaggardHeap::new(3);
        h.insert(0, ns(10));
        h.insert(1, ns(20));
        h.insert(2, ns(30));
        h.insert(0, ns(40)); // was the min, now the max
        assert_eq!(h.peek(), Some((1, ns(20))));
        h.insert(2, ns(5)); // was the max, now the min
        assert_eq!(h.peek(), Some((2, ns(5))));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn remove_arbitrary_node_keeps_order() {
        let mut h = LaggardHeap::new(6);
        for (n, t) in [(0, 60), (1, 10), (2, 50), (3, 20), (4, 40), (5, 30)] {
            h.insert(n, ns(t));
        }
        h.remove(3);
        h.remove(0);
        h.remove(3); // double-remove is a no-op
        assert!(!h.contains(3));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(n, _)| n)).collect();
        assert_eq!(order, vec![1, 5, 4, 2]);
    }

    #[test]
    fn peek_after_pop_exposes_the_runner_up() {
        let mut h = LaggardHeap::new(3);
        h.insert(0, ns(15));
        h.insert(1, ns(10));
        h.insert(2, ns(20));
        assert_eq!(h.pop(), Some((1, ns(10))));
        assert_eq!(h.peek(), Some((0, ns(15))));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn clear_resets_membership() {
        let mut h = LaggardHeap::new(4);
        for n in 0..4 {
            h.insert(n, ns(u64::from(n)));
        }
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(0));
        h.insert(2, ns(1));
        assert_eq!(h.pop(), Some((2, ns(1))));
    }

    /// The naive oracle: the `k`-th smallest `(clock, node)` of the model
    /// (0 is the laggard, 1 the runner-up), by sorting it.
    fn scan(model: &[Option<Time>], k: usize) -> Option<(u32, Time)> {
        let mut keys: Vec<(Time, u32)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, i as u32)))
            .collect();
        keys.sort_unstable();
        keys.get(k).map(|&(t, i)| (i, t))
    }

    #[test]
    fn matches_linear_scan_reference_on_random_churn() {
        // Mirror of the machine driver's usage pattern: insert / remove /
        // re-key the laggard in place / pop under a seeded churn, with the
        // laggard and the runner-up checked against a naive scan after
        // every operation. A 3-bit clock range over up to nine nodes keeps
        // ties (and sizes 0..=3 on the small heaps) constantly in play.
        for (seed, n, clocks) in [(0x5EED_CAFE, 9u32, 64), (7, 9, 8), (11, 3, 4), (13, 2, 2)] {
            let mut rng = crate::Rng::seeded(seed);
            let mut h = LaggardHeap::new(n as usize);
            let mut model: Vec<Option<Time>> = vec![None; n as usize];
            for _ in 0..4000 {
                match rng.gen_range(5) {
                    0 | 1 => {
                        let node = (rng.gen_range(u64::from(n))) as u32;
                        let t = ns(rng.gen_range(clocks));
                        h.insert(node, t);
                        model[node as usize] = Some(t);
                    }
                    2 => {
                        let node = (rng.gen_range(u64::from(n))) as u32;
                        h.remove(node);
                        model[node as usize] = None;
                    }
                    3 => {
                        let t = ns(rng.gen_range(clocks));
                        if let Some((top, _)) = scan(&model, 0) {
                            model[top as usize] = Some(t);
                        }
                        h.update_top(t);
                    }
                    _ => {
                        let want = scan(&model, 0);
                        assert_eq!(h.pop(), want);
                        if let Some((i, _)) = want {
                            model[i as usize] = None;
                        }
                    }
                }
                assert_eq!(h.peek(), scan(&model, 0));
                assert_eq!(h.runner_up(), scan(&model, 1));
                assert_eq!(h.len(), model.iter().flatten().count());
            }
        }
    }

    #[test]
    fn runner_up_and_update_top_on_tiny_and_tied_heaps() {
        let mut h = LaggardHeap::new(4);
        assert_eq!(h.runner_up(), None);
        h.update_top(ns(9)); // empty: no-op
        assert!(h.is_empty());
        h.insert(2, ns(5));
        assert_eq!(h.runner_up(), None, "one node has no runner-up");
        h.update_top(ns(6));
        assert_eq!(h.peek(), Some((2, ns(6))));
        h.insert(3, ns(6));
        assert_eq!(h.runner_up(), Some((3, ns(6))), "only child");
        // All clocks equal: the lowest node leads, the next-lowest follows.
        h.insert(0, ns(6));
        h.insert(1, ns(6));
        assert_eq!(h.peek(), Some((0, ns(6))));
        assert_eq!(h.runner_up(), Some((1, ns(6))));
        // Re-key the laggard to a clock equal to its children's: it stays
        // on top (node index breaks the tie) ...
        h.update_top(ns(6));
        assert_eq!(h.peek(), Some((0, ns(6))));
        // ... and one tick later it drops behind every tied node.
        h.update_top(ns(7));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(n, _)| n)).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        // A higher-numbered laggard re-keyed to a child's clock loses the
        // tie to that (lower-numbered) child.
        h.insert(3, ns(1));
        h.insert(1, ns(4));
        h.insert(2, ns(8));
        h.update_top(ns(4));
        assert_eq!(h.peek(), Some((1, ns(4))));
        assert_eq!(h.runner_up(), Some((3, ns(4))));
    }
}
