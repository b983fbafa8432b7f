//! Laggard selection for conservative multiprocessor scheduling.
//!
//! The machine driver repeatedly asks "which node has the smallest local
//! clock?" — once per scheduling quantum. A linear scan makes that O(nodes)
//! per decision; [`LaggardHeap`] keeps the node clocks as one sorted run,
//! so the laggard and the runner-up (which bounds how far the laggard may
//! run before a rescheduling decision is due) are its first two keys, and
//! re-keying the laggard costs what its new place is away from the nearer
//! end of the run: nothing when it goes to the back, O(log nodes) compares
//! and one block move at worst. The machine's batches run the nodes nearly
//! round-robin, so the ends are where a laggard lands (DESIGN.md §3.13 has
//! the measured landing ranks).
//!
//! Ordering is lexicographic on `(clock, node index)`, which reproduces the
//! tie-break of a first-minimum linear scan exactly: among nodes at equal
//! clocks, the lowest-numbered node wins. This is what makes a queue-driven
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

/// How far a new key is walked in from the nearer end of the run, one
/// compare and one move per step, before the rest of the way is found by
/// binary search and closed with one block move. Up to 33 runnable nodes
/// no landing is further than this from an end.
const WALK: usize = 16;

/// `(clock, node)` packed so that integer order is the tuple's
/// lexicographic order: comparing two keys is one branch-free 128-bit
/// compare instead of a compare, a branch and a second compare.
#[inline]
fn pack(t: Time, node: u32) -> u128 {
    (u128::from(t.as_ps()) << 32) | u128::from(node)
}

#[inline]
fn unpack(key: u128) -> (u32, Time) {
    (key as u32, Time::from_ps((key >> 32) as u64))
}

/// A queue of `(clock, node)` keys over a fixed set of node ids `0..n`,
/// kept as one sorted run with `(Time, node index)` lexicographic
/// ordering. (The name is historical: the run replaced an indexed binary
/// heap.)
///
/// The run sits in a flat buffer with free slots on both sides, so
/// taking the laggard off the front and appending behind the last key
/// move nothing, and a key that lands `k` places from the nearer end
/// moves `k` keys by one slot. Membership is one bit per node.
#[derive(Debug, Clone)]
pub struct LaggardHeap {
    /// `buf[head..tail]` is the run, ascending [`pack`]ed keys; the slots
    /// outside it are stale. Twice the node count long, so a run that has
    /// drifted to the buffer's end moves back to its start at most once
    /// per `n` appends.
    buf: Vec<u128>,
    head: usize,
    tail: usize,
    /// Bit `node` is set iff `node` has a key in the run.
    member: Vec<u64>,
}

impl LaggardHeap {
    /// Creates an empty heap for node ids `0..n`.
    pub fn new(n: usize) -> LaggardHeap {
        LaggardHeap {
            buf: vec![0; 2 * n],
            head: 0,
            tail: 0,
            member: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of nodes currently in the heap.
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    /// True if no node is in the heap.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// True if `node` is currently in the heap.
    pub fn contains(&self, node: u32) -> bool {
        self.member[node as usize / 64] & (1 << (node % 64)) != 0
    }

    #[inline]
    fn set_member(&mut self, node: u32, queued: bool) {
        let (word, bit) = (node as usize / 64, 1 << (node % 64));
        if queued {
            self.member[word] |= bit;
        } else {
            self.member[word] &= !bit;
        }
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        self.head = 0;
        self.tail = 0;
        self.member.fill(0);
    }

    /// Replaces the contents with `keys`, each node at most once: one
    /// sort instead of an insertion per node.
    pub fn rebuild(&mut self, keys: impl IntoIterator<Item = (u32, Time)>) {
        self.clear();
        for (node, t) in keys {
            debug_assert!(!self.contains(node), "node {node} listed twice");
            self.set_member(node, true);
            self.buf[self.tail] = pack(t, node);
            self.tail += 1;
        }
        self.buf[..self.tail].sort_unstable();
    }

    /// Writes `key`, whose node is not in the run, at its sorted place.
    /// One compare against the middle key picks the nearer end; the keys
    /// between that end and the landing place move one slot outwards,
    /// into the free slot beside the run.
    #[inline]
    fn place(&mut self, key: u128) {
        let (head, tail) = (self.head, self.tail);
        let mid = head + (tail - head) / 2;
        if head > 0 && mid < tail && key < self.buf[mid] {
            // `at` is the free slot. The middle key orders after `key`, so
            // the walk ends before it; saying so in `stop` is what lets
            // the loop run without bounds checks.
            let mut at = head - 1;
            let stop = (at + WALK).min(mid);
            while at < stop && self.buf[at + 1] < key {
                self.buf[at] = self.buf[at + 1];
                at += 1;
            }
            if at == stop && at < mid && self.buf[at + 1] < key {
                let to = at + 1 + self.buf[at + 1..mid].partition_point(|&e| e < key);
                self.buf.copy_within(at + 1..to, at);
                at = to - 1;
            }
            self.buf[at] = key;
            self.head = head - 1;
        } else {
            if tail == self.buf.len() {
                // The run has drifted to the buffer's end: back to the
                // start. The key's node is absent, so the run is shorter
                // than the node count and leaves room behind it.
                self.buf.copy_within(head..tail, 0);
                self.head = 0;
                self.tail = tail - head;
            }
            let (head, tail) = (self.head, self.tail);
            let mut at = tail;
            let stop = at.saturating_sub(WALK).max(head);
            while at > stop && self.buf[at - 1] > key {
                self.buf[at] = self.buf[at - 1];
                at -= 1;
            }
            if at == stop && at > head && self.buf[at - 1] > key {
                let to = head + self.buf[head..at].partition_point(|&e| e < key);
                self.buf.copy_within(to..at, to + 1);
                at = to;
            }
            self.buf[at] = key;
            self.tail = tail + 1;
        }
    }

    /// Inserts `node` with clock `t`, or updates its key if present.
    pub fn insert(&mut self, node: u32, t: Time) {
        self.remove(node);
        self.set_member(node, true);
        self.place(pack(t, node));
    }

    /// Removes `node` if present.
    pub fn remove(&mut self, node: u32) {
        if !self.contains(node) {
            return;
        }
        self.set_member(node, false);
        let run = &self.buf[self.head..self.tail];
        let at = self.head
            + run
                .iter()
                .position(|&key| key as u32 == node)
                // gate: allow (this module keeps the bitset and the run in step)
                .expect("a member node has a key in the run");
        // Close the gap from the nearer end.
        if at - self.head < self.tail - at {
            self.buf.copy_within(self.head..at, self.head + 1);
            self.head += 1;
        } else {
            self.buf.copy_within(at + 1..self.tail, at);
            self.tail -= 1;
        }
    }

    /// The laggard — smallest `(clock, node)` — without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u32, Time)> {
        self.buf[self.head..self.tail].first().map(|&k| unpack(k))
    }

    /// Removes and returns the laggard.
    pub fn pop(&mut self) -> Option<(u32, Time)> {
        let top = self.peek()?;
        self.set_member(top.0, false);
        self.head += 1;
        Some(top)
    }

    /// The runner-up — second-smallest `(clock, node)` — without touching
    /// the heap: the run's second key.
    #[inline]
    pub fn runner_up(&self) -> Option<(u32, Time)> {
        self.buf[self.head..self.tail].get(1).map(|&k| unpack(k))
    }

    /// Re-keys the laggard to clock `t` in place: the front slot it
    /// leaves is the room the keys before its new place move into, and a
    /// key that lands behind every other moves nothing. No-op when empty.
    #[inline]
    pub fn update_top(&mut self, t: Time) {
        if let Some((node, _)) = self.peek() {
            self.head += 1;
            self.place(pack(t, node));
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

    /// The model's keys in queue order.
    fn sorted(model: &[Option<Time>]) -> Vec<(Time, u32)> {
        let mut keys: Vec<(Time, u32)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, i as u32)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Front, runner-up, length and membership against the sorted model.
    fn check(h: &LaggardHeap, model: &[Option<Time>]) {
        let keys = sorted(model);
        assert_eq!(h.peek(), keys.first().map(|&(t, i)| (i, t)));
        assert_eq!(h.runner_up(), keys.get(1).map(|&(t, i)| (i, t)));
        assert_eq!(h.len(), keys.len());
        assert_eq!(h.is_empty(), keys.is_empty());
        for (i, t) in model.iter().enumerate() {
            assert_eq!(h.contains(i as u32), t.is_some(), "node {i}");
        }
    }

    #[test]
    fn machine_shaped_churn_matches_the_sorted_model() {
        // What the machine does to the queue: mostly `update_top`, the
        // laggard landing near the front, in the middle, near the back or
        // on another node's clock; now and then a park (`pop`/`remove`), a
        // wake-up (`insert`) or a `rebuild`. 65 nodes put the last one in
        // the bitset's second word; 1..=3 are the runs with no middle.
        for n in [1u32, 2, 3, 16, 64, 65] {
            let mut rng = crate::Rng::seeded(0xFACE + u64::from(n));
            let mut h = LaggardHeap::new(n as usize);
            let mut model: Vec<Option<Time>> = vec![None; n as usize];
            for step in 0..6000 {
                let keys = sorted(&model);
                match rng.gen_range(20) {
                    0 => {
                        let want = keys.first().map(|&(t, i)| (i, t));
                        assert_eq!(h.pop(), want);
                        if let Some((i, _)) = want {
                            model[i as usize] = None;
                        }
                    }
                    1 => {
                        let node = rng.gen_range(u64::from(n)) as u32;
                        h.remove(node);
                        model[node as usize] = None;
                    }
                    2 | 3 => {
                        // Absent or present: both are legal.
                        let node = rng.gen_range(u64::from(n)) as u32;
                        let t = ns(rng.gen_range(64));
                        h.insert(node, t);
                        model[node as usize] = Some(t);
                    }
                    4 if step % 7 == 0 => {
                        for (i, slot) in model.iter_mut().enumerate() {
                            *slot = (rng.gen_range(4) != 0)
                                .then(|| ns(rng.gen_range(32) + i as u64 % 2));
                        }
                        let running = model.iter().enumerate();
                        h.rebuild(running.filter_map(|(i, t)| t.map(|t| (i as u32, t))));
                    }
                    _ => {
                        // Re-key the laggard to land at rank `r` of the
                        // others, on that key's clock (a tie the node
                        // index breaks) or one tick past it.
                        let Some(&(_, top)) = keys.first() else {
                            h.update_top(ns(1));
                            check(&h, &model);
                            continue;
                        };
                        let others = &keys[1..];
                        let r = match rng.gen_range(4) {
                            0 => rng.gen_range(3),
                            1 => others.len() as u64 - rng.gen_range(3).min(others.len() as u64),
                            _ => rng.gen_range(others.len() as u64 + 1),
                        };
                        let at = others.get(r as usize).or(others.last());
                        let t = at.map_or(ns(5), |&(t, _)| t);
                        let t = if rng.gen_range(3) == 0 {
                            t
                        } else {
                            Time::from_ps(t.as_ps() + 1)
                        };
                        h.update_top(t);
                        model[top as usize] = Some(t);
                    }
                }
                check(&h, &model);
            }
        }
    }

    #[test]
    fn run_drifts_to_the_buffer_end_and_moves_back() {
        // Every re-key lands at the back, so the run walks one slot right
        // per decision and has to move back to the buffer's start every
        // `n` of them; interleaved front landings must not disturb that.
        let n = 8u32;
        let mut h = LaggardHeap::new(n as usize);
        let mut model: Vec<Option<Time>> = (0..n).map(|i| Some(ns(u64::from(i)))).collect();
        h.rebuild(
            model
                .iter()
                .enumerate()
                .map(|(i, t)| (i as u32, t.unwrap())),
        );
        let capacity = h.buf.len();
        let mut moved_back = 0;
        for step in 0..(8 * capacity as u64) {
            let keys = sorted(&model);
            let (top, last) = (keys[0].1, keys[keys.len() - 1].0);
            let t = if step % 5 == 4 {
                keys[1].0
            } else {
                Time::from_ps(last.as_ps() + 1)
            };
            let before = h.head;
            h.update_top(t);
            moved_back += usize::from(h.head < before);
            model[top as usize] = Some(t);
            check(&h, &model);
            assert!(h.tail <= capacity);
        }
        assert!(
            moved_back >= 4,
            "the run crossed the buffer end {moved_back} times"
        );
    }

    #[test]
    fn insert_of_a_queued_node_rekeys_it_and_remove_closes_any_gap() {
        let mut h = LaggardHeap::new(6);
        let mut model: Vec<Option<Time>> = vec![None; 6];
        for (node, t) in [(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)] {
            h.insert(node, ns(t));
            model[node as usize] = Some(ns(t));
        }
        // Already queued: front to middle, back to front, middle in place.
        for (node, t) in [(0, 35), (4, 5), (2, 30), (2, 31)] {
            h.insert(node, ns(t));
            model[node as usize] = Some(ns(t));
            check(&h, &model);
        }
        // Order is now 4, 1, 2, 0, 3; node 5 was never queued.
        for node in [5, 4, 2, 3, 5, 1, 0, 0] {
            h.remove(node);
            model[node as usize] = None;
            check(&h, &model);
        }
        assert!(h.is_empty());
    }

    #[test]
    fn rebuild_equals_clear_and_inserts() {
        let mut rng = crate::Rng::seeded(24);
        for n in [1usize, 2, 3, 16, 64, 65] {
            for _ in 0..20 {
                // A random subset, clocks drawn from few enough values to tie.
                let mut keys: Vec<(u32, Time)> = Vec::new();
                for node in 0..n as u32 {
                    if rng.gen_range(3) != 0 {
                        keys.push((node, ns(rng.gen_range(8))));
                    }
                }
                let mut bulk = LaggardHeap::new(n);
                bulk.insert(0, ns(99)); // stale contents must not survive
                bulk.rebuild(keys.iter().copied());
                let mut one_by_one = LaggardHeap::new(n);
                one_by_one.clear();
                for &(node, t) in &keys {
                    one_by_one.insert(node, t);
                }
                assert_eq!(bulk.len(), keys.len());
                for node in 0..n as u32 {
                    assert_eq!(bulk.contains(node), one_by_one.contains(node));
                }
                while let Some(next) = one_by_one.pop() {
                    assert_eq!(bulk.runner_up(), one_by_one.peek());
                    assert_eq!(bulk.pop(), Some(next));
                }
                assert!(bulk.is_empty());
            }
        }
    }
}
