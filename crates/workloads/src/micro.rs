//! Microbenchmarks: snbench-style dependent loads, the TLB-miss timer,
//! the restart-time probe, and a synchronization stressor.
//!
//! These are the instruments of the paper's §3.1.2 tuning methodology:
//!
//! - [`Snbench`] reproduces the lmbench/snbench string of dependent loads
//!   (`p = *p`) that all miss in the secondary cache, with data staged so
//!   the chase lands in exactly one of Table 3's five protocol cases. The
//!   calibration loop in `flashsim-core` compares per-case latencies
//!   between the gold standard and a simulator, then adjusts the
//!   simulator's parameters — "closing the simulation loop".
//! - [`TlbTimer`] walks pages at page stride so that every access is an
//!   L1 hit but a TLB miss, exposing the refill cost in isolation (this
//!   is how the 25/35-cycle models get corrected to the measured 65).
//! - [`RestartProbe`] chases pointers inside one cache line, exposing the
//!   core's load-to-use/restart time (Hristea-style).
//! - [`SyncStorm`] is not a tuning instrument but a machine-layer
//!   stressor: every thread contends on a ring of locks and meets
//!   barriers every round, maximizing lock hand-offs, queueing, and
//!   barrier wakes per op — the workload the scheduler-equivalence suite
//!   uses to exercise the sync paths of the batched scheduler.

use crate::layout::{page_round, SEG_A};
use flashsim_isa::{Placement, Program, Segment, Sink};
use flashsim_mem::ProtocolCase;

const LINE: u64 = 128;

/// Which Table-3 protocol case a [`Snbench`] instance measures.
///
/// Wraps [`ProtocolCase`] restricted to the five read cases, with the
/// node-role staging each one needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnCase(ProtocolCase);

impl SnCase {
    /// All five Table-3 cases in paper order.
    pub fn all() -> [SnCase; 5] {
        [
            SnCase(ProtocolCase::LocalClean),
            SnCase(ProtocolCase::LocalDirtyRemote),
            SnCase(ProtocolCase::RemoteClean),
            SnCase(ProtocolCase::RemoteDirtyHome),
            SnCase(ProtocolCase::RemoteDirtyRemote),
        ]
    }

    /// The underlying protocol case.
    pub fn case(self) -> ProtocolCase {
        self.0
    }

    /// The node the chased region is homed on (requester is node 0).
    fn home(self) -> u32 {
        match self.0 {
            ProtocolCase::LocalClean | ProtocolCase::LocalDirtyRemote => 0,
            _ => 1,
        }
    }

    /// The node that dirties the region between passes, if any.
    fn owner(self) -> Option<u32> {
        match self.0 {
            ProtocolCase::LocalDirtyRemote => Some(1),
            ProtocolCase::RemoteDirtyHome => Some(1), // owner == home
            ProtocolCase::RemoteDirtyRemote => Some(2),
            _ => None,
        }
    }
}

/// The snbench dependent-load benchmark for one protocol case.
///
/// Node 0 chases a string of dependent loads through a region homed (and,
/// for the dirty cases, re-dirtied each pass) per the case's staging.
/// The clean cases size the region at several times the L2 so every load
/// misses; the dirty cases size it at half the L2 so the owner's dirty
/// copy survives in its cache.
#[derive(Debug, Clone)]
pub struct Snbench {
    case: SnCase,
    l2_bytes: u64,
    passes: u32,
}

impl Snbench {
    /// Creates an snbench run for `case` on a machine whose L2 holds
    /// `l2_bytes`.
    pub fn new(case: SnCase, l2_bytes: u64) -> Snbench {
        Snbench {
            case,
            l2_bytes,
            passes: 4,
        }
    }

    /// Always 4 nodes: requester 0, plus the roles the case needs.
    pub const NODES: usize = 4;

    fn region_bytes(&self) -> u64 {
        if self.case.owner().is_some() {
            // Must fit (stay dirty) in the owner's cache.
            self.l2_bytes / 2
        } else {
            // Must defeat everyone's cache.
            self.l2_bytes * 2
        }
    }

    fn lines(&self) -> u64 {
        self.region_bytes() / LINE
    }

    /// The protocol case under measurement.
    pub fn case(&self) -> SnCase {
        self.case
    }

    /// Number of chase loads the requester performs in total.
    pub fn chase_loads(&self) -> u64 {
        self.lines() * u64::from(self.passes)
    }
}

impl Program for Snbench {
    fn name(&self) -> String {
        format!("snbench-{}", self.case.case().key())
    }

    fn num_threads(&self) -> usize {
        Self::NODES
    }

    fn segments(&self) -> Vec<Segment> {
        vec![Segment::new(
            "chase",
            SEG_A,
            page_round(self.region_bytes(), 4096),
            Placement::Node(self.case.home()),
        )]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let bench = self.clone();
        Box::new(move |sink| {
            let lines = bench.lines();
            let owner = bench.case.owner();
            for _pass in 0..bench.passes {
                // Dirtying phase (dirty cases only). Paced with compute so
                // the owner's upgrade traffic does not saturate the home
                // controller and leave a queue behind for the chase (the
                // real snbench setup writes at processor speed through a
                // 4-deep write buffer with ~1us upgrade latencies, which
                // self-paces similarly).
                if owner == Some(tid as u32) {
                    for l in 0..lines {
                        sink.store(SEG_A.offset(l * LINE));
                        sink.alu(180);
                    }
                }
                sink.barrier();
                // Chase phase: node 0 follows the dependent chain.
                if tid == 0 {
                    let mut ptr = sink.load(SEG_A);
                    for l in 1..lines {
                        ptr = sink.load_dep(SEG_A.offset(l * LINE), ptr);
                    }
                }
                sink.barrier();
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

/// The TLB-miss timer: loads at page stride over a region several times
/// the TLB reach, so that (after the first pass) every access hits the
/// caches but misses the TLB.
#[derive(Debug, Clone)]
pub struct TlbTimer {
    pages: u64,
    page_bytes: u64,
    passes: u32,
}

impl TlbTimer {
    /// Walks `pages` pages (choose ≥ 4× the TLB entries) of `page_bytes`.
    pub fn new(pages: u64, page_bytes: u64) -> TlbTimer {
        TlbTimer {
            pages,
            page_bytes,
            passes: 8,
        }
    }

    /// Total timed loads.
    pub fn loads(&self) -> u64 {
        self.pages * u64::from(self.passes)
    }

    /// Pages walked per pass.
    pub fn pages(&self) -> u64 {
        self.pages
    }
}

impl Program for TlbTimer {
    fn name(&self) -> String {
        format!("tlb-timer-{}p", self.pages)
    }

    fn num_threads(&self) -> usize {
        1
    }

    fn segments(&self) -> Vec<Segment> {
        vec![Segment::new(
            "walk",
            SEG_A,
            self.pages * self.page_bytes,
            Placement::Node(0),
        )]
    }

    fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let t = self.clone();
        Box::new(move |sink| {
            // One load per page, with the in-page offset varying per page
            // (as lmbench does) so the probe lines spread across cache
            // sets regardless of what colours the OS hands out.
            let addr = |p: u64| SEG_A.offset(p * t.page_bytes + (p * 128) % t.page_bytes);
            // Warm the caches.
            for p in 0..t.pages {
                sink.load(addr(p));
            }
            sink.barrier(); // barrier 0: timing starts
            for _ in 0..t.passes {
                for p in 0..t.pages {
                    sink.load(addr(p));
                }
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

/// The restart-time probe: a dependent chase inside a region that fits
/// the L1, exposing pure core load-to-use time.
#[derive(Debug, Clone)]
pub struct RestartProbe {
    loads: u64,
}

impl RestartProbe {
    /// Creates a probe of `loads` dependent L1-hit loads.
    pub fn new(loads: u64) -> RestartProbe {
        RestartProbe { loads }
    }

    /// Number of timed loads.
    pub fn loads(&self) -> u64 {
        self.loads
    }
}

impl Program for RestartProbe {
    fn name(&self) -> String {
        "restart-probe".to_owned()
    }

    fn num_threads(&self) -> usize {
        1
    }

    fn segments(&self) -> Vec<Segment> {
        vec![Segment::new("probe", SEG_A, 4096, Placement::Node(0))]
    }

    fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let n = self.loads;
        Box::new(move |sink| {
            // Warm: touch the 32 words we will bounce between.
            for i in 0..32u64 {
                sink.load(SEG_A.offset(i * 8));
            }
            sink.barrier();
            let mut ptr = sink.load(SEG_A);
            for i in 1..n {
                ptr = sink.load_dep(SEG_A.offset((i % 32) * 8), ptr);
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

/// A synchronization stressor: `rounds` rounds in which every thread
/// walks a ring of `locks` locks (each starting at its own offset, so
/// hand-off chains and queueing both occur), does a tiny critical section
/// on a shared line under each lock, and then meets a barrier.
///
/// The op mix is dominated by sync classes and lock-line coherence
/// traffic rather than compute, which is exactly the regime where a
/// batched scheduler earns nothing and must merely stay correct.
#[derive(Debug, Clone)]
pub struct SyncStorm {
    threads: usize,
    rounds: u32,
    locks: u32,
}

impl SyncStorm {
    /// Creates a storm of `threads` threads over `locks` locks for
    /// `rounds` rounds.
    pub fn new(threads: usize, rounds: u32, locks: u32) -> SyncStorm {
        SyncStorm {
            threads,
            rounds,
            locks: locks.max(1),
        }
    }

    /// Lock `l`'s flag address (one line per lock).
    fn lock_addr(l: u32) -> flashsim_isa::VAddr {
        SEG_A.offset(u64::from(l) * LINE)
    }

    /// The shared counter line guarded by lock `l`.
    fn counter_addr(&self, l: u32) -> flashsim_isa::VAddr {
        SEG_A.offset((u64::from(self.locks) + u64::from(l)) * LINE)
    }
}

impl Program for SyncStorm {
    fn name(&self) -> String {
        format!("sync-storm-{}l{}r", self.locks, self.rounds)
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn segments(&self) -> Vec<Segment> {
        vec![Segment::new(
            "locks",
            SEG_A,
            page_round(2 * u64::from(self.locks) * LINE, 4096),
            Placement::Interleaved,
        )]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let storm = self.clone();
        Box::new(move |sink| {
            sink.barrier(); // barrier 0: timing starts
            for round in 0..storm.rounds {
                for i in 0..storm.locks {
                    // Each thread starts the ring at its own offset so
                    // some hand-offs chain and some queue up.
                    let l = (i + tid as u32 + round) % storm.locks;
                    sink.lock(l, SyncStorm::lock_addr(l));
                    // Critical section: bump the shared counter.
                    let v = sink.load(storm.counter_addr(l));
                    sink.alu(4);
                    sink.store_dep(storm.counter_addr(l), flashsim_isa::Reg::ZERO, v);
                    sink.unlock(l, SyncStorm::lock_addr(l));
                    sink.alu(16);
                }
                sink.barrier();
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_isa::OpClass;

    #[test]
    fn five_cases_cover_table3() {
        let cases = SnCase::all();
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[0].case(), ProtocolCase::LocalClean);
        assert_eq!(cases[4].case(), ProtocolCase::RemoteDirtyRemote);
    }

    #[test]
    fn staging_roles_are_correct() {
        assert_eq!(SnCase(ProtocolCase::LocalClean).home(), 0);
        assert_eq!(SnCase(ProtocolCase::LocalClean).owner(), None);
        assert_eq!(SnCase(ProtocolCase::LocalDirtyRemote).home(), 0);
        assert_eq!(SnCase(ProtocolCase::LocalDirtyRemote).owner(), Some(1));
        assert_eq!(SnCase(ProtocolCase::RemoteDirtyHome).home(), 1);
        assert_eq!(SnCase(ProtocolCase::RemoteDirtyHome).owner(), Some(1));
        assert_eq!(SnCase(ProtocolCase::RemoteDirtyRemote).owner(), Some(2));
    }

    #[test]
    fn clean_regions_exceed_l2_dirty_regions_fit_owner() {
        let l2 = 256 * 1024;
        let clean = Snbench::new(SnCase(ProtocolCase::RemoteClean), l2);
        assert!(clean.region_bytes() > l2);
        let dirty = Snbench::new(SnCase(ProtocolCase::RemoteDirtyRemote), l2);
        assert!(dirty.region_bytes() <= l2 / 2);
    }

    #[test]
    fn chase_is_a_dependent_chain() {
        let b = Snbench::new(SnCase(ProtocolCase::LocalClean), 32 * 1024);
        let mut prev_dst = None;
        let mut chained = 0;
        for op in b.stream(0) {
            if op.class == OpClass::Load {
                if let Some(p) = prev_dst {
                    if op.src_a == p {
                        chained += 1;
                    }
                }
                prev_dst = Some(op.dst);
            }
        }
        assert!(chained as u64 >= b.lines() - 2, "chase must be dependent");
    }

    #[test]
    fn only_the_owner_dirties() {
        let b = Snbench::new(SnCase(ProtocolCase::RemoteDirtyRemote), 32 * 1024);
        for tid in 0..Snbench::NODES {
            let stores = b.stream(tid).filter(|o| o.class == OpClass::Store).count();
            if tid == 2 {
                assert!(stores > 0, "owner must dirty the region");
            } else {
                assert_eq!(stores, 0, "node {tid} must not store");
            }
        }
    }

    #[test]
    fn tlb_timer_walks_distinct_pages() {
        let t = TlbTimer::new(64, 4096);
        let mut pages = std::collections::HashSet::new();
        let mut barriers = 0;
        for op in t.stream(0) {
            match op.class {
                OpClass::Barrier => barriers += 1,
                OpClass::Load if barriers == 1 => {
                    pages.insert(op.addr.vpn(12));
                }
                _ => {}
            }
        }
        assert_eq!(pages.len(), 64);
        assert_eq!(t.loads(), 64 * 8);
    }

    #[test]
    fn sync_storm_is_sync_heavy_and_balanced() {
        let s = SyncStorm::new(3, 2, 4);
        for tid in 0..3 {
            let ops: Vec<_> = s.stream(tid).collect();
            let locks = ops
                .iter()
                .filter(|o| o.class == OpClass::LockAcquire)
                .count();
            let unlocks = ops
                .iter()
                .filter(|o| o.class == OpClass::LockRelease)
                .count();
            let barriers = ops.iter().filter(|o| o.class == OpClass::Barrier).count();
            assert_eq!(locks, 8, "2 rounds x 4 locks");
            assert_eq!(locks, unlocks, "every acquire has a release");
            assert_eq!(barriers, 3, "timing barrier + one per round");
            let sync = locks + unlocks + barriers;
            assert!(
                sync * 12 > ops.len(),
                "thread {tid}: sync ops must stay a large fraction ({sync} of {})",
                ops.len()
            );
        }
    }

    #[test]
    fn restart_probe_stays_within_one_page() {
        let p = RestartProbe::new(1000);
        for op in p.stream(0) {
            if op.class == OpClass::Load {
                assert!(op.addr.get() < SEG_A.get() + 4096);
            }
        }
        assert_eq!(p.loads(), 1000);
    }
}
