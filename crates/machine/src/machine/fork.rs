//! The parallel policy's fork/join rounds: lookahead scans, the forked
//! private phase (the same [`resolve_private`] path the serial loop runs,
//! behind a thin [`ForkEnv`] adapter), and the node-ordered join.

use super::env::{resolve_private, ChargeSink, Walk};
use super::observe::TelIds;
use super::{Machine, NodeMem, NodeStatus};
use crate::config::MachineConfig;
use crate::error::SimError;
use flashsim_cpu::env::{Core, MemAccessKind, MemEnv, Resolution, ScanProfile};
use flashsim_engine::pool::Job;
use flashsim_engine::{
    Clock, FaultInjector, HostPhase, MetricId, MetricKind, Observers, RoundTally, Time, WorkerPool,
};
use flashsim_isa::{Op, OpClass, ThreadStream, VAddr};
use flashsim_mem::{CacheHierarchy, HierProbe, PageTable};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Ops a lookahead scan walks before giving up and returning a capped
/// (still valid) bound.
const FORK_SCAN_CAP: usize = 4096;

/// What a fork/join round needs beyond the serial loop's state. Built
/// once per run, under the parallel policy only.
pub(super) struct ForkCtx<'p> {
    pub(super) pool: &'p WorkerPool,
    pub(super) shared: Arc<ForkShared>,
    /// Cached per-node lookahead bounds (see [`scan_lb`]).
    lbs: Vec<Time>,
    /// Per-worker occupancy counters (volatile: host-shaped by
    /// construction, excluded from the policy-stable exports) and the
    /// busy-ns reading each was last advanced to.
    pub(super) busy_ids: Vec<MetricId>,
    pub(super) busy_prev: Vec<u64>,
}

/// What every pool job of a run reads and no round changes: the config,
/// the observer bundle forked charges go to, each core's scan profile.
pub(super) struct ForkShared {
    cfg: MachineConfig,
    clock: Clock,
    obs: Observers,
    tel: TelIds,
    faults: FaultInjector,
    pub(super) profiles: Vec<ScanProfile>,
}

/// One round's state, shared by its pool jobs: the page table (read-only
/// while nodes are forked) and one mailbox per node. Moved out of the
/// machine so `'static` jobs can hold it, and moved back at the join.
struct Round {
    pt: PageTable,
    slots: Vec<Mutex<ForkSlot>>,
}

impl Round {
    fn slot(&self, n: usize) -> MutexGuard<'_, ForkSlot> {
        // One job per slot: contention-free. A poisoned slot can only mean
        // a sibling job panicked, and the pool re-raises that panic before
        // the driver reads any slot, so recovering the guard is safe.
        self.slots[n].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Why a forked private phase stopped. Pure host observability: the
/// join tallies these into the host profiler's fork-admission counters
/// ([`flashsim_engine::ForkAdmission`]) and nothing simulated ever
/// reads one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ForkStop {
    /// No stop to report (node not forked, or stalled by injection).
    #[default]
    None,
    /// Reached the conservative horizon.
    Horizon,
    /// Stopped at a sync op, left for the serial sync arm.
    Sync,
    /// Stopped at a memory op predicted shared (unmapped page, or
    /// classify said upgrade/miss).
    Shared,
    /// Exhausted the per-node op quota.
    Quota,
    /// Ran off the end of the op stream.
    End,
}

/// Per-node mailbox for a parallel round: the node's private state and
/// the round's outputs for it. Each pool job locks only its own slot, so
/// the mutexes are uncontended; they exist for the shared-ownership type.
struct ForkSlot {
    core: Box<dyn Core>,
    mem: NodeMem,
    stream: ThreadStream,
    /// Scan output: a conservative lower bound on the `(clock, node)`
    /// key of this node's next possibly-shared action.
    lb: Time,
    /// Fork output: ops dispatched during the private phase.
    dispatches: u64,
    /// Fork output: the node's status after the private phase (`Done`
    /// or `Stalled` park it; otherwise still `Running`).
    status: NodeStatus,
    /// Fork output: why the private phase stopped (host observability).
    stop: ForkStop,
}

/// The parallel policy's admission predicate, for scan and fork alike:
/// memory op `op` provably stays inside its node when its page is mapped
/// (a first touch takes the shared page table and frame allocator) and
/// [`CacheHierarchy::classify`] predicts a hit, not an upgrade or miss.
fn private_hit(op: &Op, hier: &CacheHierarchy, pt: &PageTable, page_bytes: u64) -> bool {
    pt.translate(op.addr, page_bytes).is_some_and(|paddr| {
        matches!(
            hier.classify(paddr, op.class == OpClass::Store),
            HierProbe::L1Hit | HierProbe::L2Hit
        )
    })
}

/// Walks `stream` from its cursor counting ops until the first
/// *possibly shared* one — a sync op, or a memory op that is not a
/// [`private_hit`] — and returns `now + count * min_ps_per_op`, a lower
/// bound on that op's reference schedule key (every op advances the node
/// clock by at least one cycle, and per-node op keys are monotone).
/// [`Time::MAX`] when the stream ends first; a capped scan returns the
/// bound at the cap, which is still valid.
fn scan_lb(
    stream: &mut ThreadStream,
    hier: &CacheHierarchy,
    pt: &PageTable,
    now: Time,
    profile: ScanProfile,
    page_bytes: u64,
) -> Time {
    for k in 0..FORK_SCAN_CAP {
        let Some(op) = stream.peek_at(k) else {
            return Time::MAX;
        };
        let shared = op.class.is_sync()
            || (profile.resolves_memory
                && op.class.is_memory()
                && !private_hit(op, hier, pt, page_bytes));
        if shared {
            return now + profile.min_ps_per_op * k as u64;
        }
    }
    now + profile.min_ps_per_op * FORK_SCAN_CAP as u64
}

/// The environment a forked node's core executes against during the
/// parallel policy's private phase: [`resolve_private`] and nothing
/// else. The shared paths (page faults, upgrades, misses, spans) are
/// unreachable by construction: the dispatcher admits a
/// memory op only after [`private_hit`] proves it a hit on a mapped page,
/// pages are never unmapped, and no private path evicts or downgrades an
/// L2 line, so the prediction cannot degrade before the op executes.
struct ForkEnv<'a> {
    sink: ChargeSink<'a>,
    mem: &'a mut NodeMem,
    pt: &'a PageTable,
}

impl MemEnv for ForkEnv<'_> {
    fn resolve(&mut self, addr: VAddr, kind: MemAccessKind, at: Time) -> Resolution {
        let walk = |vpn| {
            let pfn = self.pt.lookup(vpn)?;
            Some(Walk {
                pfn,
                first_touch: false,
            })
        };
        let p = resolve_private(self.mem, &self.sink, walk, addr, kind, at)
            .expect("fork op on unmapped page"); // gate: allow

        // Private execution can only preserve or upgrade hit-ness.
        let (done_at, level) = p.hit.expect("fork op left its node"); // gate: allow
        Resolution {
            done_at,
            level,
            tlb_refill: p.refill,
        }
    }
}

/// One node's private phase of a parallel round, executed by a pool
/// job. Dispatch order mirrors [`Epoch::step`](super::sched::Epoch) per
/// op: the injector stall sweep, the schedule test (here the horizon —
/// the op's reference key must beat every other runnable node's next
/// possibly-shared action, so it commutes with everything that can
/// happen before the next serial phase), then dispatch with inline OS
/// timer ticks. Sync ops stop the phase *unconsumed* for the serial
/// loop's sync arm; a memory op runs only if it is a [`private_hit`].
/// The round's budget guard runs before forking, so no per-op budget
/// check is needed here.
fn run_fork(
    shared: &ForkShared,
    pt: &PageTable,
    n: usize,
    slot: &mut ForkSlot,
    horizon: Option<(u32, Time)>,
    quota: u64,
) {
    let profile = shared.profiles[n];
    let inject_stalls = shared.faults.is_active();
    let page_bytes = shared.cfg.geometry.page_bytes;
    let mut env = ForkEnv {
        sink: ChargeSink {
            node: n,
            in_op: true,
            cfg: &shared.cfg,
            clock: shared.clock,
            obs: &shared.obs,
            tel: shared.tel,
        },
        mem: &mut slot.mem,
        pt,
    };
    // The `while` condition can only end the loop by quota exhaustion;
    // every `break` overwrites the stop reason with its own.
    slot.stop = ForkStop::Quota;
    while slot.dispatches < quota {
        if inject_stalls && shared.faults.node_stalled(n as u32, slot.stream.consumed()) {
            slot.status = NodeStatus::Stalled;
            slot.stop = ForkStop::None;
            break;
        }
        let now = slot.core.now();
        if let Some((m, lim)) = horizon {
            if (now, n as u32) >= (lim, m) {
                slot.stop = ForkStop::Horizon;
                break;
            }
        }
        let Some(&op) = slot.stream.peek_op() else {
            // End-of-stream discovery is a dispatch, as in Epoch::step;
            // drain and park. Per-node state only.
            slot.dispatches += 1;
            let t = slot.core.drain();
            slot.core.set_time(t);
            slot.status = NodeStatus::Done;
            slot.stop = ForkStop::End;
            break;
        };
        if op.class.is_sync() {
            // Left unconsumed for the serial phase's sync arm.
            slot.stop = ForkStop::Sync;
            break;
        }
        if profile.resolves_memory
            && op.class.is_memory()
            && !private_hit(&op, &env.mem.hier, pt, page_bytes)
        {
            slot.stop = ForkStop::Shared;
            break;
        }
        slot.dispatches += 1;
        slot.stream.advance();
        env.mem.pending.retire(now);
        let done = slot.core.execute(&op, &mut env);
        let busy = done.saturating_since(now);
        shared
            .obs
            .profiler
            .mark_op_in(&mut env.mem.obs.compute, n as u32, now, busy);
        env.sink.timer_ticks(env.mem, &mut *slot.core, done);
    }
}

impl Machine {
    /// The parallel schedule: the batched policy's loop, with fork/join
    /// rounds interleaved whenever the conservative lookahead window
    /// covers more than one node's private run.
    ///
    /// A round scans each runnable node's op stream for a lower bound on
    /// its next *possibly shared* action (sync op, unmapped page,
    /// predicted upgrade/miss — see [`scan_lb`]), then executes every
    /// node's private prefix concurrently on a [`WorkerPool`], each node
    /// stopping before its horizon — the minimum of the *other* nodes'
    /// bounds. Private ops on distinct nodes commute (they touch only
    /// node-private state, and profiler charges and telemetry counters
    /// are per-window sums), and the horizon guarantees every forked op
    /// precedes every shared action any other node can take in reference
    /// order, so the round's outcome is byte-identical to the serial
    /// policies regardless of worker count or host timing. All shared
    /// ops — misses, upgrades, page faults, sync — still execute in the
    /// serial phase, in exact reference order.
    ///
    /// Forking is disabled for the whole run when a core model promises
    /// no per-op clock floor ([`ScanProfile::OPAQUE`]: no horizon can be
    /// derived); the loop then behaves exactly like the batched policy.
    /// Telemetry-guided adaptation: an
    /// EWMA of per-round admitted ops (the `sched.batch_ops` series)
    /// tunes the per-node quota, and a low-yield round backs off to
    /// serial batches for a while — both driven only by simulated state,
    /// so the adaptation itself is deterministic.
    pub(super) fn run_parallel(&mut self, workers: usize) -> Result<(), SimError> {
        let pool = WorkerPool::new(workers);
        let fork = ForkCtx {
            pool: &pool,
            shared: Arc::new(ForkShared {
                cfg: self.cfg.clone(),
                clock: self.clock,
                obs: self.obs.clone(),
                tel: self.tel,
                faults: self.injector.clone(),
                profiles: self.cores.iter().map(|c| c.scan_profile()).collect(),
            }),
            lbs: vec![Time::ZERO; self.cfg.nodes as usize],
            busy_ids: (0..pool.size())
                .map(|w| {
                    self.obs.telemetry.register_node_volatile(
                        "sched.worker_busy_ps",
                        w as u32,
                        MetricKind::Counter,
                    )
                })
                .collect(),
            busy_prev: vec![0; pool.size()],
        };
        let out = self.run_scheduled(Some(fork));
        // Harvest the pool's per-worker host-time lanes before the pool
        // (and its counters) is dropped. Host observability only.
        self.obs.hostprof.record_workers(pool.lanes());
        out
    }

    /// One fork/join round of the parallel policy: refresh stale
    /// lookahead bounds (in parallel), derive each runnable node's
    /// horizon, execute every admissible node's private prefix on the
    /// pool, then commit results in deterministic node order. Returns
    /// the number of ops dispatched across all forked nodes.
    pub(super) fn parallel_round(&mut self, f: &mut ForkCtx<'_>, quota: u64) -> u64 {
        let ForkCtx {
            pool, shared, lbs, ..
        } = f;
        let nodes = self.cfg.nodes as usize;
        let page_bytes = self.cfg.geometry.page_bytes;

        // A cached bound goes stale only when alien coherence touched
        // the node (lb_dirty) or the node caught up to it; everything
        // else leaves it valid (conservative at worst).
        let mut now_of = vec![Time::ZERO; nodes];
        let mut rescan: Vec<usize> = Vec::new();
        for n in 0..nodes {
            if self.status[n] != NodeStatus::Running {
                continue;
            }
            now_of[n] = self.cores[n].now();
            if self.mems[n].lb_dirty || lbs[n] <= now_of[n] {
                rescan.push(n);
            }
        }

        let cores = std::mem::take(&mut self.cores);
        let mems = std::mem::take(&mut self.mems);
        let streams = std::mem::take(&mut self.streams);
        let round = Arc::new(Round {
            pt: std::mem::take(&mut self.pt),
            slots: cores
                .into_iter()
                .zip(mems)
                .zip(streams)
                .map(|((core, mem), stream)| {
                    Mutex::new(ForkSlot {
                        core,
                        mem,
                        stream,
                        lb: Time::MAX,
                        dispatches: 0,
                        status: NodeStatus::Running,
                        stop: ForkStop::None,
                    })
                })
                .collect(),
        });

        // Phase A: refresh stale bounds, one scan job per node.
        if !rescan.is_empty() {
            let _scan = self.obs.hostprof.phase(HostPhase::Scan);
            let jobs: Vec<Job> = rescan
                .iter()
                .map(|&n| {
                    let round = Arc::clone(&round);
                    let profile = shared.profiles[n];
                    Box::new(move |_w: usize| {
                        let mut slot = round.slot(n);
                        let slot = &mut *slot;
                        slot.mem.lb_dirty = false;
                        slot.lb = scan_lb(
                            &mut slot.stream,
                            &slot.mem.hier,
                            &round.pt,
                            slot.core.now(),
                            profile,
                            page_bytes,
                        );
                    }) as Job
                })
                .collect();
            pool.run_all(jobs);
            for &n in &rescan {
                lbs[n] = round.slot(n).lb;
            }
        }

        // Horizon per node: the smallest (bound, node) key among the
        // *other* runnable nodes — track the best and runner-up keys.
        let mut best: Option<(Time, u32)> = None;
        let mut second: Option<(Time, u32)> = None;
        for (n, &lb) in lbs.iter().enumerate().take(nodes) {
            if self.status[n] != NodeStatus::Running {
                continue;
            }
            let key = (lb, n as u32);
            if best.is_none_or(|b| key < b) {
                second = best;
                best = Some(key);
            } else if second.is_none_or(|s| key < s) {
                second = Some(key);
            }
        }

        // Phase B: fork every runnable node whose first op beats its
        // horizon.
        let mut tally = RoundTally::default();
        let mut forked = vec![false; nodes];
        let mut jobs: Vec<Job> = Vec::new();
        for n in 0..nodes {
            if self.status[n] != NodeStatus::Running {
                continue;
            }
            let horizon = match best {
                Some((_, m)) if m as usize == n => second.map(|(t2, m2)| (m2, t2)),
                Some((t, m)) => Some((m, t)),
                None => None,
            };
            if let Some((m, lim)) = horizon {
                if (now_of[n], n as u32) >= (lim, m) {
                    tally.rejected_horizon += 1;
                    continue;
                }
            }
            forked[n] = true;
            let round = Arc::clone(&round);
            let shared = Arc::clone(shared);
            jobs.push(Box::new(move |_w: usize| {
                run_fork(&shared, &round.pt, n, &mut round.slot(n), horizon, quota);
            }));
        }
        if !jobs.is_empty() {
            let _fork = self.obs.hostprof.phase(HostPhase::Fork);
            pool.run_all(jobs);
        }

        // Join: reassemble the machine and apply cross-node effects in
        // deterministic node order. (All job clones of the Arc are
        // dropped once run_all returns.)
        let _commit = self.obs.hostprof.phase(HostPhase::Commit);
        let Round { pt, slots } = Arc::try_unwrap(round)
            .map_err(|_| ())
            .expect("fork jobs still hold round state"); // gate: allow
        self.pt = pt;
        let mut total = 0u64;
        for (n, slot) in slots.into_iter().enumerate() {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            self.cores.push(slot.core);
            self.mems.push(slot.mem);
            self.streams.push(slot.stream);
            if forked[n] {
                total += slot.dispatches;
                tally.forked_nodes += 1;
                match slot.stop {
                    ForkStop::Horizon => tally.rejected_horizon += 1,
                    ForkStop::Shared => tally.rejected_shared += 1,
                    ForkStop::Sync => tally.stopped_sync += 1,
                    ForkStop::Quota => tally.stopped_quota += 1,
                    ForkStop::End => tally.stopped_end += 1,
                    ForkStop::None => {}
                }
                if slot.status != NodeStatus::Running {
                    self.status[n] = slot.status;
                }
            }
        }
        tally.admitted_ops = total;
        self.obs.hostprof.round(tally);
        total
    }
}
