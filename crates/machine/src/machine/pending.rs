//! A node's in-flight line fills.

use super::{Machine, NodeStatus};
use flashsim_engine::Time;
use flashsim_mem::{LatencyBreakdown, LineAddr};

/// One line fill in flight. The breakdown of the originating transaction
/// rides along so an exposed wait (e.g. a demand load catching up to its
/// prefetch) can be attributed to the same stall classes pro rata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Fill {
    pub(super) line: LineAddr,
    pub(super) arrives: Time,
    pub(super) breakdown: LatencyBreakdown,
}

/// The fills a node is waiting for, in arrival order: probes to these
/// lines wait for the data. A fill leaves when it has landed — at the
/// latest when the node starts an op at or after its arrival
/// ([`retire`](Pending::retire)) — so the table holds what is in flight
/// (a handful of entries: the core's outstanding misses and prefetches),
/// and is searched linearly.
#[derive(Debug, Default)]
pub(super) struct Pending {
    /// Sorted by `arrives`; at most one fill per line.
    fills: Vec<Fill>,
    /// The op-start clock the table was last retired against. Every
    /// access the node issues from then on carries `at >= floor`, so a
    /// retired fill could only ever have answered "already landed".
    floor: Time,
}

impl Pending {
    pub(super) fn is_empty(&self) -> bool {
        self.fills.is_empty()
    }

    pub(super) fn len(&self) -> usize {
        self.fills.len()
    }

    /// The fills in flight, in arrival order.
    pub(super) fn fills(&self) -> &[Fill] {
        &self.fills
    }

    /// The clock of the last [`retire`](Pending::retire).
    pub(super) fn floor(&self) -> Time {
        self.floor
    }

    /// Drops every fill that has landed by `now`, the node's clock at the
    /// start of an op (or at a quiescent point). `now` is simulated state
    /// that every scheduling policy reads identically, so what the table
    /// holds is policy-invariant.
    #[inline]
    pub(super) fn retire(&mut self, now: Time) {
        debug_assert!(now >= self.floor, "node clock went backwards");
        self.floor = now;
        if self.fills.first().is_some_and(|f| f.arrives <= now) {
            let landed = self.fills.partition_point(|f| f.arrives <= now);
            self.fills.drain(..landed);
        }
    }

    /// What an access to `line` that would complete at `done_at` waits
    /// for: the arrival time and breakdown of the line's fill if it is
    /// still in flight then. A fill found landed is dropped.
    pub(super) fn wait_for(
        &mut self,
        line: LineAddr,
        done_at: Time,
    ) -> Option<(Time, LatencyBreakdown)> {
        let at = self.fills.iter().position(|f| f.line == line)?;
        let fill = self.fills[at];
        if fill.arrives > done_at {
            Some((fill.arrives, fill.breakdown))
        } else {
            self.fills.remove(at);
            None
        }
    }

    /// Records that `line`'s fill lands at `arrives`, replacing any
    /// earlier fill of the same line.
    pub(super) fn insert(&mut self, line: LineAddr, arrives: Time, breakdown: LatencyBreakdown) {
        self.remove(line);
        let at = self.fills.partition_point(|f| f.arrives <= arrives);
        let fill = Fill {
            line,
            arrives,
            breakdown,
        };
        self.fills.insert(at, fill);
    }

    /// Forgets `line`'s fill: the line was invalidated or evicted.
    pub(super) fn remove(&mut self, line: LineAddr) {
        if let Some(at) = self.fills.iter().position(|f| f.line == line) {
            self.fills.remove(at);
        }
    }

    /// Empties the table (checkpoint restore).
    pub(super) fn clear(&mut self) {
        self.fills.clear();
    }
}

impl Machine {
    /// Retires every node's table against its clock. Runs at the
    /// machine's quiescent points — barrier releases and the end of the
    /// run — so a checkpoint carries only fills still in flight. Debug
    /// builds check the tables against the caches on the way: every
    /// pending line, landed or not, is resident in its node's L2
    /// (invalidations and evictions drop the fill with the line), and a
    /// finished node, whose core drained, waits for nothing.
    pub(super) fn settle_pending(&mut self) {
        for (n, mem) in self.mems.iter_mut().enumerate() {
            if cfg!(debug_assertions) {
                for f in mem.pending.fills() {
                    assert!(
                        mem.hier.holds(f.line),
                        "node {n} awaits {} which its L2 does not hold",
                        f.line
                    );
                }
            }
            mem.pending.retire(self.cores[n].now());
            debug_assert!(
                self.status[n] != NodeStatus::Done || mem.pending.is_empty(),
                "node {n} finished with {} fills in flight",
                mem.pending.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::{Rng, TimeDelta};
    use std::collections::HashMap;

    /// The table this one replaced: a map that keeps a fill until an
    /// access finds it landed, or the line is invalidated or evicted.
    #[derive(Default)]
    struct RetainUntilTouched(HashMap<LineAddr, (Time, LatencyBreakdown)>);

    impl RetainUntilTouched {
        fn wait_for(&mut self, line: LineAddr, done_at: Time) -> Option<(Time, LatencyBreakdown)> {
            let &(arrives, bd) = self.0.get(&line)?;
            if arrives > done_at {
                Some((arrives, bd))
            } else {
                self.0.remove(&line);
                None
            }
        }
    }

    /// Random access / miss / invalidate / evict streams against the
    /// replaced map: same completion times, same exposed waits (duration
    /// and the breakdown they are split by), and the table holds exactly
    /// the map's fills that have not landed by the floor.
    #[test]
    fn answers_like_the_retain_until_touched_map_and_holds_only_fills_in_flight() {
        for seed in 0..32u64 {
            let mut rng = Rng::seeded(0x9e4d ^ seed);
            let mut table = Pending::default();
            let mut model = RetainUntilTouched::default();
            let mut floor = Time::ZERO;
            let mut deepest = 0;
            for step in 0..4000u64 {
                let line = LineAddr(rng.gen_range(24) * 128);
                match rng.gen_range(10) {
                    // An op starts: the node clock moved (or did not).
                    0..=2 => {
                        floor += TimeDelta::from_ns(rng.gen_range(400));
                        table.retire(floor);
                    }
                    // A hit, issued anywhere at or after the op-start
                    // clock — an out-of-order core's issue times are not
                    // monotone from one access to the next.
                    3..=6 => {
                        let done_at = floor + TimeDelta::from_ns(rng.gen_range(600));
                        let got = table.wait_for(line, done_at);
                        assert_eq!(
                            got,
                            model.wait_for(line, done_at),
                            "seed {seed} step {step}"
                        );
                        if let Some((arrives, _)) = got {
                            assert!(arrives > done_at);
                        }
                    }
                    // A miss: the line's fill goes in flight.
                    7..=8 => {
                        let at = floor + TimeDelta::from_ns(rng.gen_range(300));
                        let bd = LatencyBreakdown {
                            occupancy: TimeDelta::from_ns(rng.gen_range(200)),
                            network: TimeDelta::from_ns(rng.gen_range(200)),
                            memory: TimeDelta::from_ns(1 + rng.gen_range(400)),
                        };
                        table.insert(line, at + bd.total(), bd);
                        model.0.insert(line, (at + bd.total(), bd));
                    }
                    // Another node's invalidation, or a victim eviction.
                    _ => {
                        table.remove(line);
                        model.0.remove(&line);
                    }
                }
                let in_flight = model.0.values().filter(|(t, _)| *t > floor).count();
                assert_eq!(table.len(), in_flight, "seed {seed} step {step}");
                assert!(table
                    .fills()
                    .windows(2)
                    .all(|w| w[0].arrives <= w[1].arrives));
                deepest = deepest.max(table.len());
            }
            assert!(deepest > 1, "seed {seed} never overlapped two fills");
        }
    }

    #[test]
    fn a_second_fill_of_a_line_replaces_the_first() {
        let mut table = Pending::default();
        let bd = LatencyBreakdown::default();
        table.insert(LineAddr(0), Time::from_ns(900), bd);
        table.insert(LineAddr(128), Time::from_ns(500), bd);
        table.insert(LineAddr(0), Time::from_ns(300), bd);
        let order: Vec<u64> = table.fills().iter().map(|f| f.line.get()).collect();
        assert_eq!(order, [0, 128]);
        assert_eq!(
            table.wait_for(LineAddr(0), Time::from_ns(100)),
            Some((Time::from_ns(300), bd))
        );
        table.retire(Time::from_ns(300));
        assert_eq!(table.len(), 1);
        table.retire(Time::from_ns(500));
        assert!(table.is_empty());
    }
}
