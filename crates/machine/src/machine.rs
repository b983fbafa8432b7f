//! The full-machine simulation driver.
//!
//! A [`Machine`] wires N processor cores (any model) to per-node cache
//! hierarchies and TLBs, a shared page table with an OS-policy frame
//! allocator, and one memory-system model, then executes a
//! [`Program`]'s op streams to completion. Scheduling is laggard-first:
//! the node with the smallest local clock executes next, which keeps the
//! shared occupancy timelines (MAGIC, banks, links) causally consistent
//! across nodes.
//!
//! Two scheduling policies implement that discipline (see
//! [`SchedPolicy`]): the `Reference` policy re-derives the laggard by
//! linear scan before every single op, while the default `Batched` policy
//! keeps node clocks in a [`LaggardHeap`] and lets the laggard at its
//! root execute a *run* of ops per decision — ending the run before any op
//! that touches shared state unless the node is still the strict schedule
//! winner, and bounding private-op overrun by the runner-up's clock plus
//! the memory model's minimum shared-interaction latency (conservative
//! lookahead). Every shared interaction therefore happens in exactly the
//! order the reference policy would produce, and the two policies are
//! bit-identical in stats, accounting, and times (asserted by
//! `tests/sched_equivalence.rs`; DESIGN.md details the argument).
//!
//! Synchronization is handled here, not in the cores: barriers collect all
//! nodes and release them together (with a size-dependent overhead), and
//! locks serialize holders, with every hand-off performing a *real*
//! read-exclusive coherence transaction on the lock's cache line — so lock
//! and barrier costs scale with the memory system being simulated, as on
//! the real machine.

use crate::config::{MachineConfig, MemSysKind, SchedPolicy};
use crate::error::{NodeSnapshot, NodeState, SimError};
use flashsim_cpu::env::{AccessLevel, Core, MemAccessKind, MemEnv, Resolution, ScanProfile};
use flashsim_engine::fxhash::FxHashMap;
use flashsim_engine::stream::{FileSink, ProgressMeter, RunInfo, StreamEmitter, StreamSink};
use flashsim_engine::{
    Accounting, CkptError, CkptReader, CkptWriter, Clock, FaultInjector, HostPhase, HostProf,
    HostReport, LaggardHeap, MetricId, MetricKind, Profiler, RoundTally, SpanSet, SpanTracer,
    StallClass, StatSet, Telemetry, TelemetrySeries, Time, TimeDelta, TraceCategory, Tracer,
    WorkerPool,
};
use flashsim_isa::{check_segments, OpClass, Placement, Program, Segment, ThreadStream, VAddr};
use flashsim_mem::{
    AccessKind, CacheHierarchy, FrameAllocator, HierProbe, LatencyBreakdown, LineAddr, MemRequest,
    MemorySystem, PageTable, Tlb,
};
use flashsim_os::TlbModel;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Error constructing or running a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Program thread count does not match the node count.
    ThreadMismatch {
        /// Threads the program wants.
        program: usize,
        /// Nodes the machine has.
        nodes: u32,
    },
    /// The program's segment declaration is invalid.
    BadSegments(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::ThreadMismatch { program, nodes } => write!(
                f,
                "program has {program} threads but the machine has {nodes} nodes"
            ),
            MachineError::BadSegments(msg) => write!(f, "invalid segments: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Per-node memory-side state.
#[derive(Debug)]
struct NodeMem {
    hier: CacheHierarchy,
    tlb: Option<Tlb>,
    /// In-flight line fills: probes to these lines wait for arrival.
    /// The breakdown of the originating transaction rides along so an
    /// exposed wait (e.g. a demand load catching up to its prefetch) can
    /// be attributed to the same stall classes pro rata.
    // Checked on every memory reference; point lookups only (never
    // iterated), so the fast fixed-seed hasher is behaviour-neutral.
    pending: FxHashMap<LineAddr, (Time, LatencyBreakdown)>,
    page_faults: u64,
    tlb_refills: u64,
    next_tick: Time,
    /// Whether the parallel policy's cached lookahead bound for this node
    /// is stale. Only alien coherence actions (an invalidate or downgrade
    /// from another node's transaction) can move a node's first shared
    /// access *earlier* than a prior scan concluded, so this is set
    /// exactly there; the node's own execution can only push the bound
    /// out (per-node op keys are monotone), which keeps a stale bound
    /// conservative but sound.
    lb_dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStatus {
    Running,
    AtBarrier(u32),
    WaitingLock(u32),
    /// Halted by stalled-node fault injection; never scheduled again.
    Stalled,
    Done,
}

/// Why a serial epoch (see [`Epoch::run`]) handed control back to the
/// policy loop: each of these needs the whole `&mut Machine`.
enum EpochEnd {
    /// No node is runnable: the run is over, deadlocked, or starved.
    Idle,
    /// Node `n` stopped at a sync op, left *unconsumed*: barrier and lock
    /// state live outside the epoch's borrows, so the policy loop
    /// executes it and closes the decision opened at `decision_at`.
    Sync {
        n: usize,
        decision_at: Time,
        ops_before: u64,
    },
    /// A fork/join round is due, at this per-node op quota.
    Fork(u64),
    /// The next decision's heartbeat tick is the one that reads the
    /// wall clock.
    Heartbeat,
    /// The wall-clock limit expired.
    Timeout(std::time::Duration),
    /// The watchdog's op budget expired.
    Budget,
    /// A program fault parked by [`MachineEnv::resolve`].
    Fault(SimError),
}

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<usize>,
    /// Waiters in arrival order, with the time each started waiting (for
    /// synchronization-stall accounting).
    queue: Vec<(usize, Time)>,
}

/// Metric ids for the machine layer's own telemetry probes. All
/// [`MetricId::NONE`] until [`Machine::attach_telemetry`]; each probe
/// site then costs exactly the registry handle's disabled-path branch.
#[derive(Debug, Clone, Copy)]
struct TelIds {
    l1_hits: MetricId,
    l1_misses: MetricId,
    l2_hits: MetricId,
    l2_misses: MetricId,
    pending_depth: MetricId,
    barrier_skew: MetricId,
    /// Scheduler-internal (volatile: excluded from the stable export
    /// because batching reshapes it by design).
    sched_batches: MetricId,
    /// Scheduler-internal (volatile): ops admitted per batch.
    sched_batch_ops: MetricId,
    /// Scheduler-internal (volatile): runnable nodes in the laggard heap.
    sched_heap: MetricId,
}

impl TelIds {
    fn none() -> TelIds {
        TelIds {
            l1_hits: MetricId::NONE,
            l1_misses: MetricId::NONE,
            l2_hits: MetricId::NONE,
            l2_misses: MetricId::NONE,
            pending_depth: MetricId::NONE,
            barrier_skew: MetricId::NONE,
            sched_batches: MetricId::NONE,
            sched_batch_ops: MetricId::NONE,
            sched_heap: MetricId::NONE,
        }
    }
}

/// The heartbeat reads the wall clock on every tick whose count has these
/// bits clear: once per 4096 scheduling decisions.
const HEARTBEAT_SAMPLE_MASK: u64 = 0xFFF;

/// Live progress, throttled by host wall-clock time. The scheduling
/// loops tick it once per decision; the `Instant` read is amortized to
/// once per 4096 ticks so an attached-but-quiet heartbeat stays off the
/// hot path. The windowed rate/budget computation lives in the shared
/// [`ProgressMeter`], so the stderr line and the stream's advisory
/// `progress` events can never report different numbers.
struct Heartbeat {
    every: std::time::Duration,
    /// Whether to print the stderr line (false for the silent
    /// stream-only heartbeat a stream sink auto-attaches).
    stderr: bool,
    ticks: u64,
    meter: ProgressMeter,
    /// Baseline for the parallel policy's worker-occupancy fraction:
    /// `(wall instant, cumulative busy ns across workers)` at the last
    /// emitted sample. `None` until the first sample under a worker
    /// pool (the fraction needs a window to average over).
    last_busy: Option<(std::time::Instant, u64)>,
    /// Per-worker counterpart of `last_busy`: cumulative busy ns per
    /// worker at the last emitted sample, for the advisory per-worker
    /// utilization array on progress events. Empty until the first
    /// sample under a worker pool.
    last_worker: Vec<u64>,
}

/// The environment one node's core executes against (see
/// [`flashsim_cpu::env::MemEnv`]).
struct MachineEnv<'a> {
    node: usize,
    mems: &'a mut [NodeMem],
    memsys: &'a mut dyn MemorySystem,
    pt: &'a mut PageTable,
    alloc: &'a mut FrameAllocator,
    segments: &'a [Segment],
    cfg: &'a MachineConfig,
    clock: Clock,
    tracer: &'a Tracer,
    faults: &'a FaultInjector,
    profiler: &'a Profiler,
    telemetry: &'a Telemetry,
    spans: &'a SpanTracer,
    tel: TelIds,
    /// Whether the current resolution happens inside a core op (charges
    /// subtract from that op's compute residual) or between ops (lock
    /// hand-offs: wall charges).
    in_op: bool,
    /// Failure slot: `MemEnv::resolve` cannot return an error through the
    /// core's execute path, so faults are parked here and harvested by the
    /// scheduler immediately after the op completes.
    fault: &'a mut Option<SimError>,
}

impl MachineEnv<'_> {
    /// The node whose memory should back `addr`, per the containing
    /// segment's placement request.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if no declared segment
    /// contains `addr`.
    fn placement_node(&self, addr: VAddr) -> Result<u32, SimError> {
        let Some(seg) = self.segments.iter().find(|s| s.contains(addr)) else {
            return Err(SimError::UnmappedAddress {
                node: self.node as u32,
                addr,
            });
        };
        let nodes = u64::from(self.cfg.nodes);
        Ok(match seg.placement {
            Placement::Node(n) => n.min(self.cfg.nodes - 1),
            Placement::Blocked => {
                let off = addr.get() - seg.base.get();
                ((off * nodes / seg.bytes) as u32).min(self.cfg.nodes - 1)
            }
            Placement::Interleaved => (addr.vpn(self.cfg.geometry.page_bytes) % nodes) as u32,
        })
    }

    /// Translates `addr`, handling TLB misses and first-touch page faults.
    /// Returns the physical address, the TLB-refill time charged, and the
    /// page-fault time charged.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] for addresses outside every
    /// declared segment and [`SimError::OutOfPhysicalMemory`] when the
    /// frame allocator cannot back the page.
    fn translate(
        &mut self,
        addr: VAddr,
    ) -> Result<(flashsim_mem::PAddr, TimeDelta, TimeDelta), SimError> {
        let page_bytes = self.cfg.geometry.page_bytes;
        let vpn = addr.vpn(page_bytes);

        let mut fault_cost = TimeDelta::ZERO;
        let pfn = match self.pt.lookup(vpn) {
            Some(pfn) => pfn,
            None => {
                let home = self.placement_node(addr)?;
                let Some(pfn) = self.alloc.alloc(home, vpn) else {
                    return Err(SimError::OutOfPhysicalMemory {
                        node: self.node as u32,
                        home,
                        vpn,
                    });
                };
                self.pt.map(vpn, pfn);
                self.mems[self.node].page_faults += 1;
                fault_cost = self.cfg.os.page_fault_cost;
                pfn
            }
        };

        let mut refill = TimeDelta::ZERO;
        if let TlbModel::Modeled { refill_cycles, .. } = self.cfg.os.tlb {
            let tlb = self.mems[self.node]
                .tlb
                .as_mut()
                .expect("TLB modelled but absent"); // gate: allow
            if tlb.translate(addr).is_none() {
                tlb.insert(vpn, pfn);
                refill = self.clock.cycles(refill_cycles);
                self.mems[self.node].tlb_refills += 1;
            }
        }
        Ok((
            flashsim_mem::addr::translate(addr, pfn, page_bytes),
            refill,
            fault_cost,
        ))
    }

    /// Charges `dur` starting at `at` to `class` on this node, as an
    /// in-op or wall charge depending on the resolution context. The
    /// environment is the single charging authority for memory latency,
    /// TLB refills, and OS costs exposed to the core; cores charge only
    /// their internal pipeline stalls, so no span is charged twice.
    fn account(&self, class: StallClass, at: Time, dur: TimeDelta) {
        if dur.is_zero() {
            return;
        }
        if self.in_op {
            self.profiler.charge(self.node as u32, class, at, dur);
        } else {
            self.profiler.charge_wall(self.node as u32, class, at, dur);
        }
    }

    /// Splits an exposed wait on an in-flight fill (a demand access
    /// catching up to its prefetch or an earlier store's fill) across the
    /// originating transaction's own stall classes, pro rata to its
    /// latency breakdown — so prefetched remote traffic still surfaces
    /// its network and occupancy components instead of reading as plain
    /// L2 miss time. Integer floor division keeps it deterministic; the
    /// rounding remainder lands in the memory (L2 miss) share.
    fn charge_exposed_wait(&self, at: Time, wait: TimeDelta, bd: LatencyBreakdown) {
        let total = bd.total().as_ps();
        if total == 0 {
            self.account(StallClass::L2Miss, at, wait);
            return;
        }
        let w = wait.as_ps() as u128;
        let part =
            |p: TimeDelta| TimeDelta::from_ps((w * p.as_ps() as u128 / total as u128) as u64);
        let occ = part(bd.occupancy);
        let net = part(bd.network);
        self.account(StallClass::DirOccupancy, at, occ);
        self.account(StallClass::NetTransit, at, net);
        self.account(StallClass::L2Miss, at, wait - occ - net);
    }

    /// Applies directory-mandated coherence actions to the *other* nodes.
    fn apply_actions(&mut self, line: LineAddr, actions: &flashsim_mem::CoherenceActions) {
        for &v in &actions.invalidate {
            if v as usize != self.node {
                self.mems[v as usize].hier.invalidate_line(line);
                self.mems[v as usize].pending.remove(&line);
                self.mems[v as usize].lb_dirty = true;
            }
        }
        if let Some(v) = actions.downgrade {
            if v as usize != self.node {
                self.mems[v as usize].hier.downgrade_line(line);
                self.mems[v as usize].lb_dirty = true;
            }
        }
    }

    /// Opens a span transaction rooted at the issuing access (if this
    /// access is sampled) and records the machine-side legs — TLB refill
    /// and page fault — that precede the memory-system transaction.
    /// Returns whether the access was sampled.
    fn span_txn_open(
        &mut self,
        line: LineAddr,
        kind: MemAccessKind,
        at: Time,
        refill: TimeDelta,
        fault: TimeDelta,
    ) -> bool {
        let node = self.node as u32;
        if !self.spans.txn_try_begin(node, line.get(), kind.key(), at) {
            return false;
        }
        if refill > TimeDelta::ZERO {
            self.spans
                .leg("tlb_refill", node, at, at + refill, None, refill);
        }
        if fault > TimeDelta::ZERO {
            self.spans.leg(
                "page_fault",
                node,
                at + refill,
                at + refill + fault,
                None,
                fault,
            );
        }
        true
    }

    /// Emits the paired `span`-category flow events (begin at issue, end
    /// at completion) for a sampled transaction, so exported Chrome
    /// traces draw an arrow across the transaction's extent. The id is
    /// derived deterministically from (node, line, issue time).
    fn span_mark(&mut self, line: LineAddr, at: Time, done: Time) {
        if !self.tracer.enabled(TraceCategory::Span) {
            return;
        }
        let node = self.node as u32;
        let id = flashsim_engine::span::mix(line.get() ^ (u64::from(node) << 40) ^ at.as_ps());
        self.tracer
            .emit(at, TraceCategory::Span, "span_begin", node, id, line.get());
        self.tracer
            .emit(done, TraceCategory::Span, "span_end", node, id, line.get());
    }

    /// Issues a full memory-system transaction and installs the line.
    fn miss_transaction(
        &mut self,
        paddr: flashsim_mem::PAddr,
        write: bool,
        t: Time,
    ) -> (Time, AccessLevel, LatencyBreakdown) {
        let line = self.mems[self.node].hier.l2_line(paddr);
        let kind = if write {
            AccessKind::ReadExclusive
        } else {
            AccessKind::ReadShared
        };
        let mut out = self.memsys.access(MemRequest {
            node: self.node as u32,
            line,
            kind,
            now: t,
        });
        let perturb = self.faults.perturb_latency(out.done_at - t);
        let pre_perturb = out.done_at;
        out.done_at += perturb;
        // Injected latency perturbation reads as extra memory time.
        out.breakdown.memory += perturb;
        if perturb > TimeDelta::ZERO {
            self.spans.leg(
                "fault_perturb",
                self.node as u32,
                pre_perturb,
                out.done_at,
                Some(flashsim_engine::SpanClass::Memory),
                perturb,
            );
        }
        // Close the sampled span tree (no-op when this access was not
        // sampled) BEFORE the victim writeback below, so background
        // writeback legs never attach to the demand transaction.
        self.spans.txn_end(out.done_at, out.case.key());
        self.apply_actions(line, &out.actions);
        let victim = self.mems[self.node]
            .hier
            .fill_from_memory(paddr, write, out.exclusive);
        if let Some(v) = victim {
            if v.dirty {
                // Background writeback of the displaced dirty line.
                let _ = self.memsys.access(MemRequest {
                    node: self.node as u32,
                    line: v.line,
                    kind: AccessKind::Writeback,
                    now: out.done_at,
                });
                if self.tracer.enabled(TraceCategory::Mem) {
                    self.tracer.emit(
                        out.done_at,
                        TraceCategory::Mem,
                        "writeback",
                        self.node as u32,
                        v.line.get(),
                        0,
                    );
                }
            }
            self.mems[self.node].pending.remove(&v.line);
        }
        self.mems[self.node]
            .pending
            .insert(line, (out.done_at, out.breakdown));
        self.telemetry.gauge(
            self.tel.pending_depth,
            t,
            self.mems[self.node].pending.len() as u64,
        );
        (out.done_at, AccessLevel::Memory(out.case), out.breakdown)
    }
}

impl MemEnv for MachineEnv<'_> {
    fn resolve(&mut self, addr: VAddr, kind: MemAccessKind, at: Time) -> Resolution {
        let (paddr, refill, fault) = match self.translate(addr) {
            Ok(v) => v,
            Err(e) => {
                // The core's execute path has no error channel; park the
                // failure and return a zero-cost resolution — the
                // scheduler aborts the run before the next op.
                *self.fault = Some(e);
                return Resolution {
                    done_at: at,
                    level: AccessLevel::L1,
                    tlb_refill: TimeDelta::ZERO,
                };
            }
        };
        let t = at + refill + fault;
        let write = kind == MemAccessKind::Write;

        // The refill handler and fault path run on the pipeline for loads
        // and stores alike; prefetches that miss the TLB are dropped by
        // real hardware, so their costs are not demand stalls.
        if kind != MemAccessKind::Prefetch {
            self.account(StallClass::TlbRefill, at, refill);
            self.account(StallClass::Os, at + refill, fault);
        }
        // Memory latency below is charged for blocking demand reads only:
        // store and prefetch latency is overlapped by write buffers and
        // prefetch slots, and the portion that *isn't* hidden surfaces as
        // core-internal stalls the core models charge themselves.
        let demand_read = kind == MemAccessKind::Read;

        let probe = self.mems[self.node].hier.probe(paddr, write);

        // Hit/miss telemetry counters are bucket-summed, so recording
        // them here — covering the fast path below too — is safe under
        // either scheduling policy (per-window sums commute).
        match probe {
            HierProbe::L1Hit => self.telemetry.count(self.tel.l1_hits, t, 1),
            HierProbe::L2Hit => {
                self.telemetry.count(self.tel.l1_misses, t, 1);
                self.telemetry.count(self.tel.l2_hits, t, 1);
            }
            HierProbe::L2Upgrade | HierProbe::L2Miss => {
                self.telemetry.count(self.tel.l1_misses, t, 1);
                self.telemetry.count(self.tel.l2_misses, t, 1);
            }
        }

        // Fast path for the overwhelmingly common case: an L1 hit with no
        // in-flight fills to wait on and no memory tracing charges
        // nothing and completes at `t` — skip line math, the pending-fill
        // lookup, and trace plumbing. Bit-identical to the general path
        // below by construction.
        if matches!(probe, HierProbe::L1Hit)
            && self.mems[self.node].pending.is_empty()
            && !self.tracer.enabled(TraceCategory::Mem)
        {
            return Resolution {
                done_at: t,
                level: AccessLevel::L1,
                tlb_refill: refill,
            };
        }

        let line = self.mems[self.node].hier.l2_line(paddr);

        let (mut done_at, level) = match probe {
            HierProbe::L1Hit => (t, AccessLevel::L1),
            HierProbe::L2Hit => {
                self.mems[self.node].hier.fill_l1_from_l2(paddr, write);
                if demand_read {
                    self.account(StallClass::L1Miss, t, self.cfg.l2_hit);
                }
                (t + self.cfg.l2_hit, AccessLevel::L2)
            }
            HierProbe::L2Upgrade => {
                let sampled = self.span_txn_open(line, kind, at, refill, fault);
                let mut out = self.memsys.access(MemRequest {
                    node: self.node as u32,
                    line,
                    kind: AccessKind::Upgrade,
                    now: t,
                });
                let pre_perturb = out.done_at;
                out.done_at += self.faults.perturb_latency(out.done_at - t);
                if sampled {
                    if out.done_at > pre_perturb {
                        // The upgrade arm leaves the breakdown untouched
                        // by perturbation, so the leg is unclassed.
                        self.spans.leg(
                            "fault_perturb",
                            self.node as u32,
                            pre_perturb,
                            out.done_at,
                            None,
                            out.done_at - pre_perturb,
                        );
                    }
                    self.spans.txn_end(out.done_at, out.case.key());
                    self.span_mark(line, at, out.done_at);
                }
                self.apply_actions(line, &out.actions);
                self.mems[self.node].hier.complete_upgrade(paddr);
                (out.done_at, AccessLevel::Memory(out.case))
            }
            HierProbe::L2Miss => {
                let sampled = self.span_txn_open(line, kind, at, refill, fault);
                let (done, level, bd) = self.miss_transaction(paddr, write, t);
                if sampled {
                    self.span_mark(line, at, done);
                }
                if demand_read {
                    self.account(StallClass::DirOccupancy, t, bd.occupancy);
                    self.account(StallClass::NetTransit, t, bd.network);
                    self.account(StallClass::L2Miss, t, bd.memory);
                }
                (done, level)
            }
        };

        // A hit on a line whose fill is still in flight (e.g. behind a
        // prefetch) waits for the data to arrive.
        if matches!(probe, HierProbe::L1Hit | HierProbe::L2Hit) {
            if let Some(&(arrives, bd)) = self.mems[self.node].pending.get(&line) {
                if arrives > done_at {
                    if demand_read {
                        self.charge_exposed_wait(done_at, arrives - done_at, bd);
                    }
                    done_at = arrives;
                } else {
                    self.mems[self.node].pending.remove(&line);
                }
            }
        }

        if self.tracer.enabled(TraceCategory::Mem) {
            let kind = match probe {
                HierProbe::L1Hit => "l1_hit",
                HierProbe::L2Hit => "l2_hit",
                HierProbe::L2Upgrade => "l2_upgrade",
                HierProbe::L2Miss => "l2_miss",
            };
            self.tracer.emit(
                done_at,
                TraceCategory::Mem,
                kind,
                self.node as u32,
                line.get(),
                write as u64,
            );
        }

        Resolution {
            done_at,
            level,
            tlb_refill: refill,
        }
    }
}

/// Ops a lookahead scan walks before giving up and returning a capped
/// (still valid) bound. Also caps the fork dispatcher's default quota.
const FORK_SCAN_CAP: usize = 4096;
/// Per-node fork-quota clamp and the adaptation loop's tuning knobs:
/// the quota tracks twice the admitted-ops EWMA so a phase that forks
/// well gets longer private runs, and a round that admits fewer than
/// `FORK_MIN_YIELD` ops per node sends the scheduler back to serial
/// batches for `SERIAL_BACKOFF` decisions before re-probing.
const FORK_MIN_QUOTA: f64 = 256.0;
const FORK_MAX_QUOTA: f64 = 8192.0;
const FORK_MIN_YIELD: f64 = 16.0;
const SERIAL_BACKOFF: u32 = 64;

/// Loop state of the batched and parallel policies: the runnable set
/// keyed by clock, the dispatch counter, and the loop-invariant knobs the
/// per-decision path would otherwise re-read from the config.
struct Sched {
    heap: LaggardHeap,
    /// Ops dispatched so far; sync ops and end-of-stream discovery count,
    /// as in the reference loop.
    executed: u64,
    decisions: u64,
    lookahead: TimeDelta,
    inject_stalls: bool,
    budget: Option<u64>,
    /// The OS timer's `(interval, cost per tick)`.
    timer: Option<(TimeDelta, TimeDelta)>,
    wall_start: std::time::Instant,
    wall_limit: Option<std::time::Duration>,
    /// Whether fork/join rounds may run at all (parallel policy, two or
    /// more nodes, transparent scan profiles, no tracer).
    can_fork: bool,
    /// Host observability: forking is off because a profile is opaque (or
    /// a tracer pins the ring order), so every serially run op is a
    /// rejected-opaque-profile admission outcome.
    opaque_serial: bool,
    /// EWMA of per-node ops admitted per round; sets the fork quota.
    ewma: f64,
    /// Serial decisions left before the next fork attempt.
    serial_backoff: u32,
}

impl Sched {
    /// Refills the heap from the Running set: after a sync op (which can
    /// wake any set of parked nodes at new clocks, or park the executor)
    /// and after a fork/join round (which moved clocks and may have
    /// parked nodes).
    fn rebuild(&mut self, status: &[NodeStatus], cores: &[Box<dyn Core>]) {
        self.heap.clear();
        for (n, core) in cores.iter().enumerate() {
            if status[n] == NodeStatus::Running {
                self.heap.insert(n as u32, core.now());
            }
        }
    }

    /// The per-node quota of the fork/join round due now, if one is. The
    /// fork phase cannot consult the global dispatch counter mid-round,
    /// so a round runs only when its worst case fits under the watchdog
    /// budget — exhaustion then always surfaces in a serial batch, at
    /// the same dispatch count as under the serial policies.
    fn fork_quota(&self) -> Option<u64> {
        if !self.can_fork || self.serial_backoff != 0 || self.heap.len() < 2 {
            return None;
        }
        let quota = (2.0 * self.ewma).clamp(FORK_MIN_QUOTA, FORK_MAX_QUOTA) as u64;
        let fits = self
            .budget
            .is_none_or(|b| self.executed + self.heap.len() as u64 * (quota + 1) <= b);
        fits.then_some(quota)
    }

    /// Closes the serial decision opened at `decision_at`: its op count
    /// goes to the volatile `sched.batch_ops` series (and the host
    /// profiler's opaque tally when forking is off).
    fn close_decision(
        &self,
        telemetry: &Telemetry,
        tel: &TelIds,
        hostprof: &HostProf,
        decision_at: Time,
        ops_before: u64,
    ) {
        let ops = self.executed - ops_before;
        if self.opaque_serial {
            hostprof.count_opaque(ops);
        }
        telemetry.count(tel.sched_batch_ops, decision_at, ops);
    }
}

/// A borrow-split view of the machine that lives across consecutive
/// serial decisions: the execution environment plus the per-node vectors
/// the scheduler steps, built once by [`Machine::epoch`]. An epoch ends
/// only where the whole `&mut Machine` is needed (see [`EpochEnd`]), so
/// the split, the clock and the observer handles are not paid for per
/// decision.
struct Epoch<'a> {
    env: MachineEnv<'a>,
    cores: &'a mut [Box<dyn Core>],
    streams: &'a mut [ThreadStream],
    status: &'a mut [NodeStatus],
    hostprof: &'a HostProf,
    /// The attached heartbeat's decision-tick counter.
    hb_ticks: Option<&'a mut u64>,
}

impl Epoch<'_> {
    /// Runs serial scheduling decisions until one needs the whole
    /// machine. Each iteration is the per-decision prologue both policy
    /// loops have always run — wall-limit cadence, the stall sweep over
    /// every Running node, the fork gate — then one fused
    /// [`step`](Epoch::step). The caller ticks the heartbeat for the
    /// first decision; the ticks for the following ones happen here.
    fn run(&mut self, s: &mut Sched) -> EpochEnd {
        loop {
            s.decisions += 1;
            if let Some(limit) = s.wall_limit {
                // Amortized wall-clock check (first decision, then once
                // per 4096); batches and rounds both bound the time
                // between decisions.
                if s.decisions & 0xFFF == 1 && s.wall_start.elapsed() >= limit {
                    return EpochEnd::Timeout(limit);
                }
            }
            if s.inject_stalls {
                for n in 0..self.status.len() {
                    if self.status[n] == NodeStatus::Running
                        && self
                            .env
                            .faults
                            .node_stalled(n as u32, self.streams[n].consumed())
                    {
                        self.status[n] = NodeStatus::Stalled;
                        s.heap.remove(n as u32);
                    }
                }
            }
            if let Some(quota) = s.fork_quota() {
                return EpochEnd::Fork(quota);
            }
            s.serial_backoff = s.serial_backoff.saturating_sub(1);
            if let Some(end) = self.step(s) {
                return end;
            }
            if let Some(ticks) = self.hb_ticks.as_deref_mut() {
                if (*ticks + 1) & HEARTBEAT_SAMPLE_MASK == 0 {
                    return EpochEnd::Heartbeat;
                }
                *ticks += 1;
            }
        }
    }

    /// One serial decision, fused with its batch: the laggard at the
    /// heap's root executes a run of ops until a continuation rule
    /// fails, bounded by the runner-up's `(node, clock)` key (`None`
    /// when no other node is runnable: then nothing can contest the
    /// schedule and the batch runs to a sync op, stream end, stall,
    /// fault, or budget exhaustion), and is then re-keyed in place — or
    /// popped if it parked. The runner-up's key bounds the whole batch
    /// because no other node's clock, status, or stream can change while
    /// only the laggard executes.
    ///
    /// Per-op admission reproduces the reference loop's decision order
    /// exactly: (1) the injector stall check the reference sweep would
    /// have run before this op; (2) the schedule test — any op may run
    /// while `(clock, n)` still beats the runner-up (the reference scan
    /// would pick `n`), and past that point only node-private ops within
    /// the lookahead window; (3) the watchdog budget; (4) dispatch, with
    /// OS timer ticks charged inline (per-node state, not a batch
    /// breaker). The core's clock is read once per op: the post-op
    /// reading is the next op's start and the next schedule test's key.
    fn step(&mut self, s: &mut Sched) -> Option<EpochEnd> {
        let Some((laggard, decision_at)) = s.heap.peek() else {
            return Some(EpochEnd::Idle);
        };
        let limit = s.heap.runner_up();
        let n = laggard as usize;
        let ops_before = s.executed;
        let Epoch {
            env,
            cores,
            streams,
            status,
            hostprof,
            ..
        } = self;
        let (core, stream) = (&mut cores[n], &mut streams[n]);
        debug_assert_eq!(core.now(), decision_at, "heap key is the node clock");
        env.node = n;
        // Scheduler-internal telemetry (volatile: the reference policy
        // has no batches, so these are policy-shaped by construction
        // and excluded from the stable export).
        env.telemetry.count(env.tel.sched_batches, decision_at, 1);
        env.telemetry
            .gauge(env.tel.sched_heap, decision_at, s.heap.len() as u64);
        let mut now = decision_at;
        let serial = hostprof.phase(HostPhase::Serial);
        let runnable = loop {
            // (1) The stall sweep the reference loop runs before every
            // op. Only the executing node's consumed count moves inside
            // a batch, so checking just `n` here plus all Running nodes
            // per scheduling decision is equivalent.
            if s.inject_stalls && env.faults.node_stalled(laggard, stream.consumed()) {
                status[n] = NodeStatus::Stalled;
                break false;
            }
            let op = stream.peek_op().copied();
            // (2) Would the reference scan still pick `n`? Past the
            // strict win only node-private ops may run (they touch no
            // shared timeline, so they commute with the runner-up's
            // ops), and only within the conservative lookahead window.
            if let Some((m, lim)) = limit {
                if (now, laggard) >= (lim, m)
                    && !(now < lim + s.lookahead && op.is_some_and(|op| op.class.is_local()))
                {
                    break true;
                }
            }
            // (3) The watchdog budget, checked per dispatch as in the
            // reference loop (sync ops and end-of-stream discovery both
            // count as dispatches there).
            if s.budget.is_some_and(|b| s.executed >= b) {
                return Some(EpochEnd::Budget);
            }
            // (4) Dispatch.
            let Some(op) = op else {
                s.executed += 1;
                let t = core.drain();
                core.set_time(t);
                status[n] = NodeStatus::Done;
                break false;
            };
            if op.class.is_sync() {
                return Some(EpochEnd::Sync {
                    n,
                    decision_at,
                    ops_before,
                });
            }
            s.executed += 1;
            stream.advance();
            core.execute(&op, env);
            let done = core.now();
            env.profiler
                .mark_op(laggard, now, done.saturating_since(now));
            if let Some(e) = env.fault.take() {
                return Some(EpochEnd::Fault(e));
            }
            now = done;
            // OS timer ticks touch only per-node state; charged inline
            // exactly as `charge_ticks` would.
            if let Some((interval, cost)) = s.timer {
                let mem = &mut env.mems[n];
                while mem.next_tick <= done {
                    mem.next_tick += interval;
                    env.profiler.charge_wall(laggard, StallClass::Os, now, cost);
                    now += cost;
                    core.set_time(now);
                }
            }
        };
        drop(serial);
        if runnable {
            s.heap.update_top(now);
        } else {
            // Done or stalled: the node re-enters the heap only through
            // a rebuild.
            s.heap.pop();
        }
        s.close_decision(env.telemetry, &env.tel, hostprof, decision_at, ops_before);
        None
    }
}

/// What a fork/join round needs beyond the serial loop's state. Built
/// once per run, under the parallel policy only.
struct ForkCtx<'p> {
    pool: &'p WorkerPool,
    profiles: Vec<ScanProfile>,
    /// Cached per-node lookahead bounds (see [`scan_lb`]).
    lbs: Vec<Time>,
    cfg: Arc<MachineConfig>,
    /// Per-worker occupancy counters (volatile: host-shaped by
    /// construction, excluded from the policy-stable exports) and the
    /// busy-ns reading each was last advanced to.
    busy_ids: Vec<MetricId>,
    busy_prev: Vec<u64>,
}

/// The private state one node carries into a parallel round. Moved out
/// of the machine's vectors so a pool job can own it (`'static` jobs),
/// and moved back — in node order — at the join.
struct Bundle {
    core: Box<dyn Core>,
    mem: NodeMem,
    stream: ThreadStream,
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

/// Per-node mailbox for a parallel round. One slot per node; each pool
/// job locks only its own slot, so the mutexes are uncontended and
/// exist purely to satisfy the shared-ownership type.
struct ForkSlot {
    bundle: Option<Bundle>,
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

fn lock_slot(slots: &[Mutex<ForkSlot>], n: usize) -> MutexGuard<'_, ForkSlot> {
    // One job per slot: contention-free, and a poisoned slot can only
    // mean a sibling job panicked — the pool re-raises that panic before
    // the driver reads any slot, so recovering the guard is safe.
    slots[n].lock().unwrap_or_else(PoisonError::into_inner)
}

/// Walks `stream` from its cursor counting ops until the first
/// *possibly shared* one — a sync op, a memory op on an unmapped page,
/// or an access [`CacheHierarchy::classify`] predicts as an upgrade or
/// miss — and returns `now + count * min_ps_per_op`, a lower bound on
/// that op's reference schedule key (every op advances the node clock
/// by at least one cycle, and per-node op keys are monotone).
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
        let shared = if op.class.is_sync() {
            true
        } else if profile.resolves_memory && op.class.is_memory() {
            match pt.lookup(op.addr.vpn(page_bytes)) {
                // First touch maps a page: page table and frame
                // allocator are shared state.
                None => true,
                Some(pfn) => {
                    let paddr = flashsim_mem::addr::translate(op.addr, pfn, page_bytes);
                    let write = op.class == OpClass::Store;
                    matches!(
                        hier.classify(paddr, write),
                        HierProbe::L2Upgrade | HierProbe::L2Miss
                    )
                }
            }
        } else {
            false
        };
        if shared {
            return now + profile.min_ps_per_op * k as u64;
        }
    }
    now + profile.min_ps_per_op * FORK_SCAN_CAP as u64
}

/// The environment a forked node's core executes against during the
/// parallel policy's private phase. It mirrors [`MachineEnv`]'s resolve
/// bit-for-bit on the paths a fork-admitted op can reach — translation
/// of an already-mapped page (TLB refills included), L1/L2 hits, and
/// waits on the node's own in-flight fills. The shared paths (page
/// faults, upgrades, misses, tracing, spans) are unreachable by
/// construction: the dispatcher admits a memory op only after
/// [`CacheHierarchy::classify`] proves it a hit on a mapped page, pages
/// are never unmapped, and no private path evicts or downgrades an L2
/// line, so the prediction cannot degrade before the op executes.
struct ForkEnv {
    node: usize,
    mem: NodeMem,
    pt: Arc<PageTable>,
    cfg: Arc<MachineConfig>,
    clock: Clock,
    profiler: Profiler,
    telemetry: Telemetry,
    tel: TelIds,
}

impl ForkEnv {
    /// [`MachineEnv::account`] with `in_op` fixed to true: forked
    /// resolution always happens inside a core op.
    fn account(&self, class: StallClass, at: Time, dur: TimeDelta) {
        if dur.is_zero() {
            return;
        }
        self.profiler.charge(self.node as u32, class, at, dur);
    }

    /// Identical to [`MachineEnv::charge_exposed_wait`].
    fn charge_exposed_wait(&self, at: Time, wait: TimeDelta, bd: LatencyBreakdown) {
        let total = bd.total().as_ps();
        if total == 0 {
            self.account(StallClass::L2Miss, at, wait);
            return;
        }
        let w = wait.as_ps() as u128;
        let part =
            |p: TimeDelta| TimeDelta::from_ps((w * p.as_ps() as u128 / total as u128) as u64);
        let occ = part(bd.occupancy);
        let net = part(bd.network);
        self.account(StallClass::DirOccupancy, at, occ);
        self.account(StallClass::NetTransit, at, net);
        self.account(StallClass::L2Miss, at, wait - occ - net);
    }
}

impl MemEnv for ForkEnv {
    fn resolve(&mut self, addr: VAddr, kind: MemAccessKind, at: Time) -> Resolution {
        let page_bytes = self.cfg.geometry.page_bytes;
        let vpn = addr.vpn(page_bytes);
        // Admission proved the page mapped (an unmapped page is a
        // possibly-shared action) and pages are never unmapped.
        let pfn = self.pt.lookup(vpn).expect("fork op on unmapped page"); // gate: allow
        let mut refill = TimeDelta::ZERO;
        if let TlbModel::Modeled { refill_cycles, .. } = self.cfg.os.tlb {
            let tlb = self.mem.tlb.as_mut().expect("TLB modelled but absent"); // gate: allow
            if tlb.translate(addr).is_none() {
                tlb.insert(vpn, pfn);
                refill = self.clock.cycles(refill_cycles);
                self.mem.tlb_refills += 1;
            }
        }
        let paddr = flashsim_mem::addr::translate(addr, pfn, page_bytes);
        // No page fault is possible here, so `t = at + refill + 0` and
        // the zero OS charge MachineEnv would skip is skipped too.
        let t = at + refill;
        let write = kind == MemAccessKind::Write;
        if kind != MemAccessKind::Prefetch {
            self.account(StallClass::TlbRefill, at, refill);
        }
        let demand_read = kind == MemAccessKind::Read;

        let probe = self.mem.hier.probe(paddr, write);
        match probe {
            HierProbe::L1Hit => self.telemetry.count(self.tel.l1_hits, t, 1),
            HierProbe::L2Hit => {
                self.telemetry.count(self.tel.l1_misses, t, 1);
                self.telemetry.count(self.tel.l2_hits, t, 1);
            }
            // Admission classified this access a hit, and private
            // execution can only preserve or upgrade hit-ness.
            HierProbe::L2Upgrade | HierProbe::L2Miss => unreachable!(), // gate: allow
        }

        // Memory tracing is never enabled under a fork (the policy runs
        // fully serial when the tracer is active), so this is exactly
        // MachineEnv's fast-path condition.
        if matches!(probe, HierProbe::L1Hit) && self.mem.pending.is_empty() {
            return Resolution {
                done_at: t,
                level: AccessLevel::L1,
                tlb_refill: refill,
            };
        }

        let line = self.mem.hier.l2_line(paddr);
        let (mut done_at, level) = match probe {
            HierProbe::L1Hit => (t, AccessLevel::L1),
            HierProbe::L2Hit => {
                self.mem.hier.fill_l1_from_l2(paddr, write);
                if demand_read {
                    self.account(StallClass::L1Miss, t, self.cfg.l2_hit);
                }
                (t + self.cfg.l2_hit, AccessLevel::L2)
            }
            HierProbe::L2Upgrade | HierProbe::L2Miss => unreachable!(), // gate: allow
        };

        if let Some(&(arrives, bd)) = self.mem.pending.get(&line) {
            if arrives > done_at {
                if demand_read {
                    self.charge_exposed_wait(done_at, arrives - done_at, bd);
                }
                done_at = arrives;
            } else {
                self.mem.pending.remove(&line);
            }
        }

        Resolution {
            done_at,
            level,
            tlb_refill: refill,
        }
    }
}

/// One node's private phase of a parallel round, executed by a pool
/// job. Dispatch order mirrors [`Epoch::step`] per op: the
/// injector stall sweep, the schedule test (here the horizon — the op's
/// reference key must beat every other runnable node's next
/// possibly-shared action, so it commutes with everything that can
/// happen before the next serial phase), then dispatch with inline OS
/// timer ticks. Sync ops stop the phase *unconsumed* for the serial
/// loop's sync arm; a memory op runs only if admission proves it
/// private (mapped page, classify hit). The round's budget guard runs
/// before forking, so no per-op budget check is needed here.
#[allow(clippy::too_many_arguments)]
fn run_fork(
    n: usize,
    mut bundle: Bundle,
    horizon: Option<(u32, Time)>,
    quota: u64,
    profile: ScanProfile,
    inject_stalls: bool,
    faults: &FaultInjector,
    pt: &Arc<PageTable>,
    cfg: &Arc<MachineConfig>,
    profiler: &Profiler,
    telemetry: &Telemetry,
    tel: TelIds,
) -> (Bundle, u64, NodeStatus, ForkStop) {
    let page_bytes = cfg.geometry.page_bytes;
    let mut env = ForkEnv {
        node: n,
        mem: bundle.mem,
        pt: Arc::clone(pt),
        cfg: Arc::clone(cfg),
        clock: cfg.cpu.clock(),
        profiler: profiler.clone(),
        telemetry: telemetry.clone(),
        tel,
    };
    let core = &mut bundle.core;
    let stream = &mut bundle.stream;
    let mut dispatches = 0u64;
    let mut status = NodeStatus::Running;
    // The `while` condition can only end the loop by quota exhaustion;
    // every `break` overwrites the stop reason with its own.
    let mut stop = ForkStop::Quota;
    while dispatches < quota {
        if inject_stalls && faults.node_stalled(n as u32, stream.consumed()) {
            status = NodeStatus::Stalled;
            stop = ForkStop::None;
            break;
        }
        let now = core.now();
        if let Some((m, lim)) = horizon {
            if (now, n as u32) >= (lim, m) {
                stop = ForkStop::Horizon;
                break;
            }
        }
        let Some(&op) = stream.peek_op() else {
            // End-of-stream discovery is a dispatch, as in Epoch::step;
            // drain and park. Per-node state only.
            dispatches += 1;
            let t = core.drain();
            core.set_time(t);
            status = NodeStatus::Done;
            stop = ForkStop::End;
            break;
        };
        if op.class.is_sync() {
            // Left unconsumed for the serial phase's sync arm.
            stop = ForkStop::Sync;
            break;
        }
        if profile.resolves_memory && op.class.is_memory() {
            let admitted = match pt.lookup(op.addr.vpn(page_bytes)) {
                None => false,
                Some(pfn) => {
                    let paddr = flashsim_mem::addr::translate(op.addr, pfn, page_bytes);
                    let write = op.class == OpClass::Store;
                    matches!(
                        env.mem.hier.classify(paddr, write),
                        HierProbe::L1Hit | HierProbe::L2Hit
                    )
                }
            };
            if !admitted {
                stop = ForkStop::Shared;
                break;
            }
        }
        dispatches += 1;
        stream.advance();
        let op_start = core.now();
        core.execute(&op, &mut env);
        env.profiler
            .mark_op(n as u32, op_start, core.now().saturating_since(op_start));
        // OS timer ticks touch only per-node state; charged inline
        // exactly as Epoch::step does.
        if let Some(interval) = cfg.os.timer_interval {
            let now = core.now();
            while env.mem.next_tick <= now {
                env.mem.next_tick += interval;
                let at = core.now();
                env.profiler
                    .charge_wall(n as u32, StallClass::Os, at, cfg.os.timer_cost);
                core.set_time(at + cfg.os.timer_cost);
            }
        }
    }
    bundle.mem = env.mem;
    (bundle, dispatches, status, stop)
}

/// Machine-readable provenance record for one run: what was simulated,
/// under which configuration and seed, and how fast the host simulated
/// it. Written alongside results so any number in a report can be traced
/// back to (and reproduced from) the run that produced it.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Machine configuration label (e.g. `"simos-mipsy-225/flashlite"`).
    pub config: String,
    /// Node/processor count.
    pub nodes: u32,
    /// Workload display name.
    pub workload: String,
    /// Workload base seed, if the program has one.
    pub seed: Option<u64>,
    /// Active scheduling policy (`"batched"` / `"reference"`).
    pub sched: String,
    /// Human-readable fault-plan summary; `None` when no faults were
    /// injected.
    pub faults: Option<String>,
    /// Host wall-clock seconds spent inside [`Machine::run`].
    pub wall_seconds: f64,
    /// Ops executed across all nodes.
    pub total_ops: u64,
    /// Simulated time covered by the run, in seconds.
    pub simulated_seconds: f64,
    /// Host throughput: simulated ops (engine events) per wall-clock
    /// second.
    pub events_per_sec: f64,
    /// Simulated MIPS: millions of simulated instructions per wall-clock
    /// second — the paper's slowdown currency.
    pub sim_mips: f64,
    /// Per-class share of all accounted cycles, in [`StallClass::ALL`]
    /// order; `None` when the run had no profiler attached.
    pub account: Option<[f64; StallClass::COUNT]>,
    /// Span-sampling plan summary (`"seed=… period=… max_txns=…"`);
    /// `None` when the run had no span tracer attached.
    pub spans: Option<String>,
    /// Path of the live `flashsim-stream-v1` event stream, when
    /// [`MachineConfig::stream`] directed one to a file.
    pub stream: Option<String>,
}

impl RunManifest {
    /// Renders the manifest as a flat JSON object (hand-rolled; no
    /// dependencies). Numeric fields are emitted as JSON numbers,
    /// non-finite values as `null`, and a missing seed as `null`.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        let mut out = String::with_capacity(256);
        out.push_str("{\"config\":\"");
        flashsim_engine::trace::push_json_escaped(&mut out, &self.config);
        out.push_str("\",\"nodes\":");
        out.push_str(&self.nodes.to_string());
        out.push_str(",\"workload\":\"");
        flashsim_engine::trace::push_json_escaped(&mut out, &self.workload);
        out.push_str("\",\"seed\":");
        match self.seed {
            Some(s) => out.push_str(&s.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"sched\":\"");
        flashsim_engine::trace::push_json_escaped(&mut out, &self.sched);
        out.push_str("\",\"faults\":");
        match &self.faults {
            Some(f) => {
                out.push('"');
                flashsim_engine::trace::push_json_escaped(&mut out, f);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"wall_seconds\":");
        out.push_str(&num(self.wall_seconds));
        out.push_str(",\"total_ops\":");
        out.push_str(&self.total_ops.to_string());
        out.push_str(",\"simulated_seconds\":");
        out.push_str(&num(self.simulated_seconds));
        out.push_str(",\"events_per_sec\":");
        out.push_str(&num(self.events_per_sec));
        out.push_str(",\"sim_mips\":");
        out.push_str(&num(self.sim_mips));
        out.push_str(",\"spans\":");
        match &self.spans {
            Some(s) => {
                out.push('"');
                flashsim_engine::trace::push_json_escaped(&mut out, s);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"stream\":");
        match &self.stream {
            Some(s) => {
                out.push('"');
                flashsim_engine::trace::push_json_escaped(&mut out, s);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"account\":");
        match &self.account {
            None => out.push_str("null"),
            Some(fractions) => {
                out.push('{');
                for (i, (class, f)) in StallClass::ALL.iter().zip(fractions).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(class.key());
                    out.push_str("\":");
                    out.push_str(&num(*f));
                }
                out.push('}');
            }
        }
        out.push('}');
        out
    }
}

/// The result of one program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock time of the whole run (all nodes done).
    pub total_time: TimeDelta,
    /// Time of the measured section: from the release of the program's
    /// timing barrier (or 0 if none) to completion.
    pub parallel_time: TimeDelta,
    /// Ops executed per node — identical across platforms for the same
    /// program ("same binaries").
    pub ops_per_node: Vec<u64>,
    /// Release time of every barrier, in id order.
    pub barrier_releases: Vec<(u32, Time)>,
    /// Merged statistics from cores, hierarchies, TLBs, and the memory
    /// system.
    pub stats: StatSet,
    /// Provenance and host-throughput record for the run.
    pub manifest: RunManifest,
    /// Cycle-accounting snapshot (per-node stall-class totals plus the
    /// time-phase view); `None` when no profiler was attached.
    pub accounting: Option<Accounting>,
    /// Sim-time telemetry series (occupancy/utilization over simulated
    /// time); `None` when no telemetry registry was attached.
    pub telemetry: Option<TelemetrySeries>,
    /// Sampled causal span trees; `None` when no span tracer was
    /// attached.
    pub spans: Option<SpanSet>,
    /// Host-time self-profile (phase decomposition, fork-admission
    /// outcomes, per-worker lanes); `None` when no host profiler was
    /// attached. Pure host observability — carries no simulated state.
    pub hostprof: Option<HostReport>,
}

impl RunResult {
    /// Total ops across all nodes.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_node.iter().sum()
    }
}

/// A checkpoint consumer: called at every barrier release with
/// `(seq, release_time, checkpoint_text)`.
pub type CkptSink = Box<dyn FnMut(u64, Time, &str) + Send>;

/// A configured machine ready to run one program.
pub struct Machine {
    cfg: MachineConfig,
    /// The core clock, derived from `cfg.cpu` once.
    clock: Clock,
    cores: Vec<Box<dyn Core>>,
    mems: Vec<NodeMem>,
    memsys: Box<dyn MemorySystem>,
    pt: PageTable,
    alloc: FrameAllocator,
    segments: Vec<Segment>,
    streams: Vec<ThreadStream>,
    status: Vec<NodeStatus>,
    barrier_arrivals: HashMap<u32, Vec<(usize, Time)>>,
    barrier_releases: Vec<(u32, Time)>,
    locks: HashMap<u32, LockState>,
    lock_addr: HashMap<u32, VAddr>,
    timing_start: Option<u32>,
    tracer: Tracer,
    profiler: Profiler,
    injector: FaultInjector,
    telemetry: Telemetry,
    spans: SpanTracer,
    tel: TelIds,
    heartbeat: Option<Heartbeat>,
    fault: Option<SimError>,
    workload: String,
    workload_seed: Option<u64>,
    /// Called at every barrier release (the machine's quiescent points)
    /// with `(seq, release_time, checkpoint_text)`; see
    /// [`Machine::attach_ckpt_sink`].
    ckpt_sink: Option<CkptSink>,
    /// Sequence number of the next checkpoint this machine will emit;
    /// restored from checkpoints so resumed runs continue the numbering.
    ckpt_seq: u64,
    /// Live `flashsim-stream-v1` event emitter; see
    /// [`Machine::attach_stream_sink`].
    stream: Option<StreamEmitter>,
    /// Stream position `(next_seq, last_emitted_ps)` restored from a
    /// checkpoint before any sink is attached; a later attach resumes
    /// from here instead of re-emitting the prefix.
    stream_pos: (u64, u64),
    /// Host-time self-profiler; see [`Machine::attach_hostprof`].
    /// Disabled by default: one branch per probe.
    hostprof: HostProf,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Machine({} x{})", self.cfg.label(), self.cfg.nodes)
    }
}

impl Machine {
    /// Builds a machine for `program` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if the program's thread count does not
    /// match `cfg.nodes` or its segments are malformed.
    pub fn new(cfg: MachineConfig, program: &dyn Program) -> Result<Machine, MachineError> {
        if program.num_threads() != cfg.nodes as usize {
            return Err(MachineError::ThreadMismatch {
                program: program.num_threads(),
                nodes: cfg.nodes,
            });
        }
        let segments =
            check_segments(program, cfg.geometry.page_bytes).map_err(MachineError::BadSegments)?;

        let tlb_entries = match cfg.os.tlb {
            TlbModel::Modeled { entries, .. } => Some(entries),
            TlbModel::None => None,
        };
        let mems = (0..cfg.nodes)
            .map(|_| NodeMem {
                hier: CacheHierarchy::new(cfg.geometry.l1, cfg.geometry.l2),
                tlb: tlb_entries.map(|e| Tlb::new(e, cfg.geometry.page_bytes)),
                pending: FxHashMap::default(),
                page_faults: 0,
                tlb_refills: 0,
                next_tick: Time::ZERO + cfg.os.timer_interval.unwrap_or(TimeDelta::ZERO),
                lb_dirty: true,
            })
            .collect();

        let alloc = FrameAllocator::new(
            cfg.os.alloc_policy,
            cfg.nodes,
            cfg.geometry.frames_per_node(),
            cfg.geometry.page_bytes,
            cfg.geometry.colors(),
        );
        // Construction-time fault pressure: the plan can clamp FlashLite's
        // directory pointer pool (forcing sharer reclamation) and its
        // MAGIC inbound-queue NACK threshold (provoking retry storms)
        // before the model is built.
        let injector = FaultInjector::new(cfg.faults.unwrap_or_default());
        let mut memsys_kind = cfg.memsys;
        if let (Some(plan), MemSysKind::FlashLite(p)) = (&cfg.faults, &mut memsys_kind) {
            if let Some(cap) = plan.dir_pool_cap {
                p.dir_pool = p.dir_pool.min(cap);
            }
            if let Some(q) = plan.magic_queue_ns {
                p.nack_threshold = p.nack_threshold.min(TimeDelta::from_ns(q));
            }
        }
        let mut memsys = memsys_kind.build(cfg.nodes, cfg.geometry.node_mem_bytes);
        memsys.attach_faults(injector.clone());
        let cores = (0..cfg.nodes).map(|_| cfg.cpu.build()).collect();
        let streams = (0..cfg.nodes as usize).map(|t| program.stream(t)).collect();

        let mut machine = Machine {
            clock: cfg.cpu.clock(),
            cfg,
            cores,
            mems,
            memsys,
            pt: PageTable::new(),
            alloc,
            segments,
            streams,
            status: vec![NodeStatus::Running; 0],
            barrier_arrivals: HashMap::new(),
            barrier_releases: Vec::new(),
            locks: HashMap::new(),
            lock_addr: HashMap::new(),
            timing_start: program.timing_barrier(),
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
            injector,
            telemetry: Telemetry::disabled(),
            spans: SpanTracer::disabled(),
            tel: TelIds::none(),
            heartbeat: None,
            fault: None,
            workload: program.name(),
            workload_seed: program.seed(),
            ckpt_sink: None,
            ckpt_seq: 0,
            stream: None,
            stream_pos: (0, 0),
            hostprof: HostProf::disabled(),
        };
        if let Some(cadence) = machine.cfg.telemetry {
            machine.attach_telemetry(Telemetry::with_cadence(cadence));
        }
        if machine.cfg.profile {
            machine.attach_profiler(Profiler::new());
        }
        if let Some(every) = machine.cfg.heartbeat {
            machine.attach_heartbeat(every);
        }
        if let Some(plan) = machine.cfg.spans {
            machine.attach_spans(SpanTracer::new(plan));
        }
        if machine.cfg.hostprof {
            machine.attach_hostprof(HostProf::new());
        }
        Ok(machine)
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Attaches a flight recorder to every layer of the machine: each core
    /// (`cpu` events, tagged with its node id), the cache/TLB path (`mem`
    /// events), the memory system (`proto` events, plus `net` events if the
    /// model has a network), and the machine itself (`machine` events:
    /// run phases, barrier releases, lock hand-offs).
    ///
    /// Attach *before* [`Machine::run`]; a disabled tracer (the default)
    /// costs a single masked branch per potential event.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        for (n, core) in self.cores.iter_mut().enumerate() {
            core.attach_tracer(tracer.clone(), n as u32);
        }
        self.memsys.attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a cycle-accounting profiler: each core charges its
    /// internal pipeline stalls, while the machine itself charges memory
    /// latency (split per the model's [`LatencyBreakdown`]), TLB refills,
    /// OS costs, synchronization waits, and marks per-op boundaries so
    /// uncharged time lands in the compute residual.
    ///
    /// Attach *before* [`Machine::run`]; a disabled profiler (the
    /// default) costs one branch per potential charge.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        for (n, core) in self.cores.iter_mut().enumerate() {
            core.attach_profiler(profiler.clone(), n as u32);
        }
        self.profiler = profiler;
    }

    /// Attaches a sim-time telemetry registry to every layer of the
    /// machine: cache hit/miss counters, pending-miss depth, and barrier
    /// clock skew here, plus whatever the memory-system model registers
    /// (directory-pool occupancy, MAGIC inbound queue, NACK/retry rates,
    /// link utilization, …). Scheduler-internal metrics are registered
    /// volatile: available for inspection, excluded from the stable
    /// export because batching reshapes them by design.
    ///
    /// Attach *before* [`Machine::run`]; a disabled registry (the
    /// default) costs one branch per potential sample. Setting
    /// [`MachineConfig::telemetry`] attaches one automatically at
    /// construction.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.tel = TelIds {
            l1_hits: telemetry.register("mem.l1_hits", MetricKind::Counter),
            l1_misses: telemetry.register("mem.l1_misses", MetricKind::Counter),
            l2_hits: telemetry.register("mem.l2_hits", MetricKind::Counter),
            l2_misses: telemetry.register("mem.l2_misses", MetricKind::Counter),
            pending_depth: telemetry.register("mem.pending_depth", MetricKind::Gauge),
            barrier_skew: telemetry.register("machine.barrier_skew_ps", MetricKind::Gauge),
            sched_batches: telemetry.register_volatile("sched.batches", MetricKind::Counter),
            sched_batch_ops: telemetry.register_volatile("sched.batch_ops", MetricKind::Counter),
            sched_heap: telemetry.register_volatile("sched.heap_nodes", MetricKind::Gauge),
        };
        self.memsys.attach_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached telemetry registry (disabled until
    /// [`Machine::attach_telemetry`] — directly or via
    /// [`MachineConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a causal span tracer: the machine roots one span tree per
    /// sampled L2-missing access (issue time → data back in the cache)
    /// and the memory-system model appends the legs it traverses —
    /// handler occupancies, per-hop network legs, NACK/retry loops, bank
    /// accesses, reply path. Per-leg charges mirror the model's
    /// [`LatencyBreakdown`] accumulators exactly, so each tree's charges
    /// tile its end-to-end latency in integer picoseconds.
    ///
    /// Attach *before* [`Machine::run`]; a disabled tracer (the default)
    /// costs one branch per miss. Setting [`MachineConfig::spans`]
    /// attaches one automatically at construction.
    pub fn attach_spans(&mut self, spans: SpanTracer) {
        self.memsys.attach_spans(spans.clone());
        self.spans = spans;
    }

    /// The sampled span trees collected so far (`None` when no span
    /// tracer is attached).
    pub fn spans(&self) -> Option<SpanSet> {
        self.spans.snapshot()
    }

    /// Enables a live stderr heartbeat: at most one line per `every` of
    /// host wall-clock time reporting sim time, ops executed, host
    /// throughput, watchdog-budget progress, and the current spread
    /// between the fastest and slowest node clocks.
    pub fn attach_heartbeat(&mut self, every: std::time::Duration) {
        self.heartbeat = Some(Heartbeat {
            every,
            stderr: true,
            ticks: 0,
            meter: ProgressMeter::start(),
            last_busy: None,
            last_worker: Vec::new(),
        });
    }

    /// Attaches a host-time self-profiler: the scheduling loops drive
    /// its scoped phase timers (scan / fork / commit / serial /
    /// checkpoint / stream over a `drive` base), the parallel rounds
    /// tally fork-admission outcomes into it, and the worker pool's
    /// per-worker lanes are harvested into its report.
    ///
    /// Attach *before* [`Machine::run`]; a disabled profiler (the
    /// default) costs one branch per probe. Setting
    /// [`MachineConfig::hostprof`] attaches one automatically at
    /// construction.
    ///
    /// Isolation contract: the profiler only ever *absorbs* host clock
    /// readings — no machine code path reads time back out of it — so
    /// attachment cannot change a single simulated byte
    /// (`tests/hostprof_isolation.rs` proves it per platform and
    /// policy), and the knob is excluded from [`Machine::provenance`].
    pub fn attach_hostprof(&mut self, hostprof: HostProf) {
        self.hostprof = hostprof;
    }

    /// The finalized host-time report of the last completed run
    /// (`None` when no profiler is attached or no run has finished).
    pub fn hostprof_report(&self) -> Option<HostReport> {
        self.hostprof.report()
    }

    /// Attaches a live `flashsim-stream-v1` event sink: the machine
    /// emits a `start` header, one closed telemetry bucket per barrier
    /// release, checkpoint-written markers, advisory progress
    /// heartbeats, and an `end` terminator (see
    /// [`flashsim_engine::stream`]). Streaming never perturbs simulated
    /// state — the deterministic events are a pure function of the
    /// run's provenance, and a sink error silently stops the stream
    /// rather than failing the run.
    ///
    /// On a machine restored from a checkpoint the emitter resumes at
    /// the stored stream position, so the continuation appends exactly
    /// the events the uninterrupted run would have produced. Setting
    /// [`MachineConfig::stream`] attaches a durable [`FileSink`]
    /// automatically at [`Machine::run`] (create on a fresh run, append
    /// on resume).
    pub fn attach_stream_sink(&mut self, sink: Box<dyn StreamSink>) {
        let mut em = StreamEmitter::new(sink);
        em.set_position(self.stream_pos.0, self.stream_pos.1);
        self.stream = Some(em);
    }

    /// The stream emitter's `(next_seq, last_emitted_ps)` position —
    /// what checkpoints store, and what the journal truncates a
    /// restored cell's stream file back to.
    pub fn stream_position(&self) -> (u64, u64) {
        self.stream
            .as_ref()
            .map_or(self.stream_pos, StreamEmitter::position)
    }

    /// Run-entry stream setup: opens the configured file sink if none
    /// is attached yet, auto-attaches a silent heartbeat so progress
    /// events flow even without [`MachineConfig::heartbeat`], and emits
    /// the `start` header (fresh streams only) with the bucket
    /// baselines seeded from current cumulative totals — zeros on a
    /// fresh run, the restored quiescent-point totals on resume.
    fn open_stream(&mut self) {
        if self.stream.is_none() {
            if let Some(path) = self.cfg.stream.clone() {
                let opened = if self.stream_pos.0 == 0 {
                    FileSink::create(&path)
                } else {
                    FileSink::append(&path)
                };
                match opened {
                    Ok(sink) => self.attach_stream_sink(Box::new(sink)),
                    Err(e) => {
                        eprintln!("[flashsim] stream sink {} unavailable: {e}", path.display());
                    }
                }
            }
        }
        if self.stream.is_none() {
            return;
        }
        if self.heartbeat.is_none() {
            self.heartbeat = Some(Heartbeat {
                every: std::time::Duration::from_millis(250),
                stderr: false,
                ticks: 0,
                meter: ProgressMeter::start(),
                last_busy: None,
                last_worker: Vec::new(),
            });
        }
        let at = Time::from_ps(self.stream_position().1);
        let metrics = self.stream_totals(at);
        let account = self.stream_account(at);
        let info = RunInfo {
            provenance: flashsim_engine::ckpt::provenance_hash(&self.provenance()),
            config: self.cfg.label(),
            workload: self.workload.clone(),
            seed: self.workload_seed,
            nodes: self.cfg.nodes,
            sched: self.cfg.sched.key().to_owned(),
            budget_ops: self.cfg.watchdog.max_ops,
        };
        if let Some(em) = self.stream.as_mut() {
            let _stream = self.hostprof.phase(HostPhase::Stream);
            em.begin(&info, &metrics, account.as_deref());
        }
    }

    /// The stable metric set at quiescent time `at` as `(key, kind,
    /// cumulative total)` — the stream emitter's bucket basis. Volatile
    /// (scheduler-shaped) metrics are excluded, exactly as in the
    /// stable JSONL export, so the stream stays policy-invariant.
    fn stream_totals(&self, at: Time) -> Vec<(String, MetricKind, u64)> {
        self.telemetry
            .snapshot(at)
            .map(|snap| {
                snap.metrics
                    .iter()
                    .filter(|m| !m.volatile)
                    .map(|m| (m.key(), m.kind, m.total))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Cumulative per-class accounting ledger at quiescent time `at`,
    /// when a profiler is attached. At a barrier release every node
    /// clock equals `at`, so the snapshot is exact and policy-invariant.
    fn stream_account(&self, at: Time) -> Option<Vec<u64>> {
        let ends = vec![at; self.cfg.nodes as usize];
        self.profiler
            .snapshot(&ends)
            .map(|acc| acc.class_totals().to_vec())
    }

    /// One scheduling-decision tick of the heartbeat. One branch when no
    /// heartbeat is attached; when attached, the wall clock is read once
    /// per 4096 ticks and a line/event is emitted at most once per
    /// interval. The stderr line and the stream's `progress` event are
    /// rendered from the same [`ProgressMeter`] sample, so they always
    /// agree. `pool` is the parallel policy's worker pool, whose busy
    /// counters are read only when a sample is due.
    fn heartbeat_tick(&mut self, executed: u64, pool: Option<&WorkerPool>) {
        let budget = self.cfg.watchdog.max_ops;
        let Some(hb) = self.heartbeat.as_mut() else {
            return;
        };
        hb.ticks += 1;
        if hb.ticks & HEARTBEAT_SAMPLE_MASK != 0 {
            return;
        }
        let now = std::time::Instant::now();
        if !hb.meter.due(now, hb.every) {
            return;
        }
        let mut sample = hb.meter.sample(now, executed, budget);
        if let Some(pool) = pool {
            // Average worker occupancy over the window since the last
            // sample: host-side observability only, never simulated
            // state (progress events are advisory by contract).
            let lanes: Vec<u64> = (0..pool.size()).map(|w| pool.busy_ns(w)).collect();
            let busy_ns: u64 = lanes.iter().sum();
            if let Some((prev_at, prev_ns)) = hb.last_busy {
                let wall_ns = now.duration_since(prev_at).as_nanos();
                if wall_ns > 0 && !lanes.is_empty() {
                    let frac = busy_ns.saturating_sub(prev_ns) as f64
                        / (wall_ns as f64 * lanes.len() as f64);
                    sample.busy = Some(frac.min(1.0));
                    if hb.last_worker.len() == lanes.len() {
                        sample.worker_busy = lanes
                            .iter()
                            .zip(&hb.last_worker)
                            .map(|(cur, prev)| {
                                (cur.saturating_sub(*prev) as f64 / wall_ns as f64).min(1.0)
                            })
                            .collect();
                    }
                }
            }
            hb.last_busy = Some((now, busy_ns));
            hb.last_worker = lanes;
        }
        let stderr = hb.stderr;
        let lead = self
            .cores
            .iter()
            .map(|c| c.now())
            .fold(Time::ZERO, Time::max);
        let lag = self.cores.iter().map(|c| c.now()).fold(lead, Time::min);
        let skew = lead.saturating_since(lag);
        if let Some(em) = self.stream.as_mut() {
            let _stream = self.hostprof.phase(HostPhase::Stream);
            em.progress(lead.as_ps(), &sample, skew.as_ps());
        }
        if stderr {
            let budget = match sample.budget_frac {
                Some(f) => format!("{:.1}%", 100.0 * f),
                None => "-".to_owned(),
            };
            let busy = match sample.busy {
                Some(f) => format!(" busy={:.0}%", 100.0 * f),
                None => String::new(),
            };
            eprintln!(
                "[flashsim] sim={:.3}ms ops={executed} rate={:.0}/s live={:.0}/s \
                 budget={budget} skew={}ns{busy}",
                (lead - Time::ZERO).as_ns_f64() / 1e6,
                sample.rate,
                sample.live,
                skew.as_ns_f64(),
            );
        }
    }

    /// Splits the machine into the execution environment of `node` plus
    /// the per-node vectors a scheduler steps — the one place the borrow
    /// split is written. `in_op` says whether resolutions happen inside a
    /// core op or between ops (see [`MachineEnv::in_op`]).
    fn epoch(&mut self, node: usize, in_op: bool) -> Epoch<'_> {
        Epoch {
            env: MachineEnv {
                node,
                mems: &mut self.mems,
                memsys: &mut *self.memsys,
                pt: &mut self.pt,
                alloc: &mut self.alloc,
                segments: &self.segments,
                cfg: &self.cfg,
                clock: self.clock,
                tracer: &self.tracer,
                faults: &self.injector,
                profiler: &self.profiler,
                telemetry: &self.telemetry,
                spans: &self.spans,
                tel: self.tel,
                in_op,
                fault: &mut self.fault,
            },
            cores: &mut self.cores,
            streams: &mut self.streams,
            status: &mut self.status,
            hostprof: &self.hostprof,
            hb_ticks: self.heartbeat.as_mut().map(|hb| &mut hb.ticks),
        }
    }

    /// Charges pending OS timer ticks to node `n` up to its current time.
    fn charge_ticks(&mut self, n: usize) {
        let Some(interval) = self.cfg.os.timer_interval else {
            return;
        };
        let now = self.cores[n].now();
        while self.mems[n].next_tick <= now {
            self.mems[n].next_tick += interval;
            let at = self.cores[n].now();
            self.profiler
                .charge_wall(n as u32, StallClass::Os, at, self.cfg.os.timer_cost);
            self.cores[n].set_time(at + self.cfg.os.timer_cost);
        }
    }

    fn barrier_overhead(&self) -> TimeDelta {
        self.cfg.barrier_base + self.cfg.barrier_per_node * u64::from(self.cfg.nodes)
    }

    /// Runs the program to completion or a structured failure.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when no node can make progress
    /// (barrier some threads never reach, lock never released), with a
    /// snapshot of which barrier/lock blocks each node;
    /// [`SimError::UnmappedAddress`] / [`SimError::OutOfPhysicalMemory`] /
    /// [`SimError::UnheldLock`] on the corresponding program faults; and
    /// [`SimError::Stalled`] when the watchdog op budget expires or
    /// stalled-node fault injection starves the machine. A failed run
    /// never hangs and never panics.
    pub fn run(&mut self) -> Result<RunResult, SimError> {
        let wall_start = std::time::Instant::now();
        // Host-time window: opened here, closed right after the policy
        // loop returns, so the phase decomposition tiles (within the
        // few trace/stream-terminator statements outside it) the same
        // wall clock the manifest reports.
        self.hostprof.run_begin();
        let nodes = self.cfg.nodes as usize;
        self.status = vec![NodeStatus::Running; nodes];
        self.open_stream();
        if self.tracer.enabled(TraceCategory::Machine) {
            self.tracer.emit(
                Time::ZERO,
                TraceCategory::Machine,
                "run_start",
                0,
                u64::from(self.cfg.nodes),
                0,
            );
        }
        let ran = match self.cfg.sched {
            SchedPolicy::Batched => self.run_scheduled(None, wall_start),
            SchedPolicy::Reference => self.run_reference(wall_start),
            SchedPolicy::Parallel { workers } => self.run_parallel(workers, wall_start),
        };
        self.hostprof.run_end();
        if let Err(e) = ran {
            let at = self
                .cores
                .iter()
                .map(|c| c.now())
                .fold(Time::ZERO, Time::max);
            let ops: u64 = self.streams.iter().map(ThreadStream::consumed).sum();
            if let Some(em) = self.stream.as_mut() {
                em.failed(at.as_ps(), ops, e.kind());
            }
            return Err(e);
        }
        let result = self.collect_result(wall_start.elapsed().as_secs_f64());
        if let Some(em) = self.stream.as_mut() {
            em.finished(result.total_time.as_ps(), result.manifest.total_ops);
        }
        Ok(result)
    }

    /// The historical schedule: one op per decision, linear laggard scan.
    /// Kept as the oracle the batched policy is proven bit-identical
    /// against, and as a debugging fallback.
    fn run_reference(&mut self, wall_start: std::time::Instant) -> Result<(), SimError> {
        let nodes = self.cfg.nodes as usize;
        let inject_stalls = self.injector.is_active();
        let wall_limit = self.cfg.watchdog.wall_limit;
        // Resumed runs re-enter mid-stream: the dispatch counter continues
        // from the restored streams' consumed ops, so watchdog budgets and
        // stall reports read the same as in an uninterrupted run. (At a
        // quiescent point no node has hit end-of-stream, so consumed ops
        // and dispatches agree.) Zero for fresh runs.
        let mut executed: u64 = self.streams.iter().map(|s| s.consumed()).sum();
        let mut decisions: u64 = 0;
        loop {
            self.heartbeat_tick(executed, None);
            decisions += 1;
            if let Some(limit) = wall_limit {
                // Amortized wall-clock check: the `Instant` read happens
                // on the first decision, then once per 4096.
                if decisions & 0xFFF == 1 && wall_start.elapsed() >= limit {
                    return Err(self.timeout_error(wall_start, limit));
                }
            }
            if inject_stalls {
                for n in 0..nodes {
                    if self.status[n] == NodeStatus::Running
                        && self
                            .injector
                            .node_stalled(n as u32, self.streams[n].consumed())
                    {
                        self.status[n] = NodeStatus::Stalled;
                    }
                }
            }

            // Laggard-first: the running node with the smallest clock.
            let next = (0..nodes)
                .filter(|n| self.status[*n] == NodeStatus::Running)
                .min_by_key(|n| self.cores[*n].now());
            let Some(n) = next else {
                if self.status.iter().all(|s| *s == NodeStatus::Done) {
                    return Ok(());
                }
                // A stalled node is the root cause when present: the
                // others are merely waiting for it at barriers/locks.
                if self.status.contains(&NodeStatus::Stalled) {
                    return Err(self.stall_error(executed));
                }
                return Err(SimError::Deadlock {
                    nodes: self.snapshots(),
                });
            };
            if let Some(budget) = self.cfg.watchdog.max_ops {
                if executed >= budget {
                    return Err(self.stall_error(executed));
                }
            }
            executed += 1;
            self.step_node(n)?;
        }
    }

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
    /// derived) or a tracer is active (the ring's insertion order under
    /// concurrent emission is not deterministic); the loop then behaves
    /// exactly like the batched policy. Telemetry-guided adaptation: an
    /// EWMA of per-round admitted ops (the `sched.batch_ops` series)
    /// tunes the per-node quota, and a low-yield round backs off to
    /// serial batches for a while — both driven only by simulated state,
    /// so the adaptation itself is deterministic.
    fn run_parallel(
        &mut self,
        workers: usize,
        wall_start: std::time::Instant,
    ) -> Result<(), SimError> {
        let pool = WorkerPool::new(workers);
        let nodes = self.cfg.nodes as usize;
        let fork = ForkCtx {
            pool: &pool,
            profiles: self.cores.iter().map(|c| c.scan_profile()).collect(),
            lbs: vec![Time::ZERO; nodes],
            cfg: Arc::new(self.cfg.clone()),
            busy_ids: (0..pool.size())
                .map(|w| {
                    self.telemetry.register_node_volatile(
                        "sched.worker_busy_ps",
                        w as u32,
                        MetricKind::Counter,
                    )
                })
                .collect(),
            busy_prev: vec![0; pool.size()],
        };
        let out = self.run_scheduled(Some(fork), wall_start);
        // Harvest the pool's per-worker host-time lanes before the pool
        // (and its counters) is dropped. Host observability only.
        self.hostprof.record_workers(pool.lanes());
        out
    }

    /// The production schedule, shared by the batched policy (`fork` is
    /// `None`) and the parallel one: laggard selection through a
    /// min-heap, and a *batch* of ops per decision under conservative
    /// lookahead.
    ///
    /// The heap mirrors the set of `Running` nodes keyed by their clocks,
    /// ordered `(clock, node)` — the reference scan's tie-break. Serial
    /// decisions run back to back inside an [`Epoch`]; this loop handles
    /// only what ends one: sync ops, fork/join rounds, the heartbeat's
    /// wall-clock sample, and the run's end.
    fn run_scheduled(
        &mut self,
        mut fork: Option<ForkCtx<'_>>,
        wall_start: std::time::Instant,
    ) -> Result<(), SimError> {
        let nodes = self.cfg.nodes as usize;
        let transparent = fork.as_ref().is_some_and(|f| {
            f.profiles.iter().all(|p| p.min_ps_per_op > TimeDelta::ZERO) && !self.tracer.is_active()
        });
        let mut s = Sched {
            heap: LaggardHeap::new(nodes),
            // See run_reference: continues from restored streams on resume.
            executed: self.streams.iter().map(|s| s.consumed()).sum(),
            decisions: 0,
            lookahead: self.memsys.min_shared_latency(),
            inject_stalls: self.injector.is_active(),
            budget: self.cfg.watchdog.max_ops,
            timer: self
                .cfg
                .os
                .timer_interval
                .map(|interval| (interval, self.cfg.os.timer_cost)),
            wall_start,
            wall_limit: self.cfg.watchdog.wall_limit,
            can_fork: nodes >= 2 && transparent,
            opaque_serial: nodes >= 2 && fork.is_some() && !transparent,
            ewma: FORK_MAX_QUOTA / 2.0,
            serial_backoff: 0,
        };
        s.rebuild(&self.status, &self.cores);
        loop {
            self.heartbeat_tick(s.executed, fork.as_ref().map(|f| f.pool));
            // (`step` points the environment at each decision's laggard.)
            let end = self.epoch(0, true).run(&mut s);
            match end {
                EpochEnd::Heartbeat => {}
                EpochEnd::Sync {
                    n,
                    decision_at,
                    ops_before,
                } => {
                    {
                        let _serial = self.hostprof.phase(HostPhase::Serial);
                        s.executed += 1;
                        let op = self.streams[n].next_op().expect("peeked sync op vanished"); // gate: allow
                        self.handle_sync(n, &op)?;
                    }
                    s.rebuild(&self.status, &self.cores);
                    s.close_decision(
                        &self.telemetry,
                        &self.tel,
                        &self.hostprof,
                        decision_at,
                        ops_before,
                    );
                }
                EpochEnd::Fork(quota) => {
                    let Some(f) = fork.as_mut() else {
                        continue; // the gate never opens without a pool
                    };
                    let running = s.heap.len() as u64;
                    let decision_at = s.heap.peek().map_or(Time::ZERO, |(_, t)| t);
                    let admitted = self.parallel_round(f, quota);
                    s.executed += admitted;
                    self.telemetry.count(self.tel.sched_batches, decision_at, 1);
                    self.telemetry
                        .gauge(self.tel.sched_heap, decision_at, running);
                    self.telemetry
                        .count(self.tel.sched_batch_ops, decision_at, admitted);
                    for (w, prev) in f.busy_prev.iter_mut().enumerate() {
                        let b = f.pool.busy_ns(w);
                        self.telemetry
                            .count(f.busy_ids[w], decision_at, (b - *prev) * 1000);
                        *prev = b;
                    }
                    let per_node = admitted as f64 / running.max(1) as f64;
                    s.ewma = 0.75 * s.ewma + 0.25 * per_node;
                    if per_node < FORK_MIN_YIELD {
                        s.serial_backoff = SERIAL_BACKOFF;
                    }
                    s.rebuild(&self.status, &self.cores);
                }
                EpochEnd::Idle => {
                    if self.status.iter().all(|s| *s == NodeStatus::Done) {
                        return Ok(());
                    }
                    // A stalled node is the root cause when present: the
                    // others are merely waiting for it at barriers/locks.
                    if self.status.contains(&NodeStatus::Stalled) {
                        return Err(self.stall_error(s.executed));
                    }
                    return Err(SimError::Deadlock {
                        nodes: self.snapshots(),
                    });
                }
                EpochEnd::Timeout(limit) => return Err(self.timeout_error(wall_start, limit)),
                EpochEnd::Budget => return Err(self.stall_error(s.executed)),
                EpochEnd::Fault(e) => return Err(e),
            }
        }
    }

    /// One fork/join round of the parallel policy: refresh stale
    /// lookahead bounds (in parallel), derive each runnable node's
    /// horizon, execute every admissible node's private prefix on the
    /// pool, then commit results in deterministic node order. Returns
    /// the number of ops dispatched across all forked nodes.
    fn parallel_round(&mut self, f: &mut ForkCtx<'_>, quota: u64) -> u64 {
        let ForkCtx {
            pool,
            profiles,
            lbs,
            cfg: cfg_arc,
            ..
        } = f;
        let nodes = self.cfg.nodes as usize;
        let inject_stalls = self.injector.is_active();
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

        // Move each node's private state into per-node mailbox slots the
        // pool jobs can own; everything is moved back at the join.
        let pt = Arc::new(std::mem::take(&mut self.pt));
        let cores = std::mem::take(&mut self.cores);
        let mems = std::mem::take(&mut self.mems);
        let streams = std::mem::take(&mut self.streams);
        let slots: Arc<Vec<Mutex<ForkSlot>>> = Arc::new(
            cores
                .into_iter()
                .zip(mems)
                .zip(streams)
                .map(|((core, mem), stream)| {
                    Mutex::new(ForkSlot {
                        bundle: Some(Bundle { core, mem, stream }),
                        lb: Time::MAX,
                        dispatches: 0,
                        status: NodeStatus::Running,
                        stop: ForkStop::None,
                    })
                })
                .collect(),
        );

        // Phase A: refresh stale bounds, one scan job per node.
        if !rescan.is_empty() {
            let _scan = self.hostprof.phase(HostPhase::Scan);
            let jobs: Vec<flashsim_engine::pool::Job> = rescan
                .iter()
                .map(|&n| {
                    let slots = Arc::clone(&slots);
                    let pt = Arc::clone(&pt);
                    let profile = profiles[n];
                    Box::new(move |_w: usize| {
                        let mut slot = lock_slot(&slots, n);
                        let slot = &mut *slot;
                        let Some(bundle) = slot.bundle.as_mut() else {
                            return;
                        };
                        let now = bundle.core.now();
                        bundle.mem.lb_dirty = false;
                        slot.lb = scan_lb(
                            &mut bundle.stream,
                            &bundle.mem.hier,
                            &pt,
                            now,
                            profile,
                            page_bytes,
                        );
                    }) as flashsim_engine::pool::Job
                })
                .collect();
            pool.run_all(jobs);
            for &n in &rescan {
                lbs[n] = lock_slot(&slots, n).lb;
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
        let mut jobs: Vec<flashsim_engine::pool::Job> = Vec::new();
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
            let slots = Arc::clone(&slots);
            let pt = Arc::clone(&pt);
            let cfg = Arc::clone(cfg_arc);
            let profiler = self.profiler.clone();
            let telemetry = self.telemetry.clone();
            let faults = self.injector.clone();
            let tel = self.tel;
            let profile = profiles[n];
            jobs.push(Box::new(move |_w: usize| {
                let mut slot = lock_slot(&slots, n);
                let Some(bundle) = slot.bundle.take() else {
                    return;
                };
                let (bundle, dispatches, status, stop) = run_fork(
                    n,
                    bundle,
                    horizon,
                    quota,
                    profile,
                    inject_stalls,
                    &faults,
                    &pt,
                    &cfg,
                    &profiler,
                    &telemetry,
                    tel,
                );
                slot.bundle = Some(bundle);
                slot.dispatches = dispatches;
                slot.status = status;
                slot.stop = stop;
            }));
        }
        if !jobs.is_empty() {
            let _fork = self.hostprof.phase(HostPhase::Fork);
            pool.run_all(jobs);
        }

        // Join: reassemble the machine and apply cross-node effects in
        // deterministic node order. (All job clones of the Arcs are
        // dropped once run_all returns.)
        let _commit = self.hostprof.phase(HostPhase::Commit);
        let slots = Arc::try_unwrap(slots)
            .map_err(|_| ())
            .expect("fork jobs still hold round state"); // gate: allow
        self.pt = Arc::try_unwrap(pt)
            .map_err(|_| ())
            .expect("fork jobs still hold the page table"); // gate: allow
        let mut total = 0u64;
        for (n, slot) in slots.into_iter().enumerate() {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            let bundle = slot.bundle.expect("fork job lost its bundle"); // gate: allow
            self.cores.push(bundle.core);
            self.mems.push(bundle.mem);
            self.streams.push(bundle.stream);
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
        self.hostprof.round(tally);
        total
    }

    /// Per-node state snapshots for failure reports.
    fn snapshots(&self) -> Vec<NodeSnapshot> {
        (0..self.cfg.nodes as usize)
            .map(|n| {
                let state = match self.status[n] {
                    NodeStatus::Running => NodeState::Running,
                    NodeStatus::Done => NodeState::Done,
                    NodeStatus::Stalled => NodeState::Stalled,
                    NodeStatus::AtBarrier(id) => NodeState::AtBarrier {
                        id,
                        arrived: self.barrier_arrivals.get(&id).map_or(0, |v| v.len() as u32),
                        expected: self.cfg.nodes,
                    },
                    NodeStatus::WaitingLock(id) => {
                        let lock = self.locks.get(&id);
                        NodeState::WaitingLock {
                            id,
                            holder: lock.and_then(|l| l.held_by).map(|h| h as u32),
                            queue_len: lock.map_or(0, |l| l.queue.len() as u32),
                        }
                    }
                };
                NodeSnapshot {
                    node: n as u32,
                    at: self.cores[n].now(),
                    ops: self.streams[n].consumed(),
                    state,
                }
            })
            .collect()
    }

    fn stall_error(&self, executed: u64) -> SimError {
        let snap = self.tracer.snapshot();
        let tail = self.cfg.watchdog.trace_tail.min(snap.events.len());
        SimError::Stalled {
            ops_executed: executed,
            nodes: self.snapshots(),
            recent: snap.events[snap.events.len() - tail..].to_vec(),
        }
    }

    fn timeout_error(
        &self,
        wall_start: std::time::Instant,
        budget: std::time::Duration,
    ) -> SimError {
        let snap = self.tracer.snapshot();
        let tail = self.cfg.watchdog.trace_tail.min(snap.events.len());
        SimError::Timeout {
            elapsed: wall_start.elapsed(),
            budget,
            nodes: self.snapshots(),
            recent: snap.events[snap.events.len() - tail..].to_vec(),
        }
    }

    /// Executes exactly one op on node `n` (reference policy).
    fn step_node(&mut self, n: usize) -> Result<(), SimError> {
        let Some(op) = self.streams[n].next_op() else {
            let t = self.cores[n].drain();
            self.cores[n].set_time(t);
            self.status[n] = NodeStatus::Done;
            return Ok(());
        };

        if op.class.is_sync() {
            return self.handle_sync(n, &op);
        }

        let Epoch { env, cores, .. } = &mut self.epoch(n, true);
        let op_start = cores[n].now();
        cores[n].execute(&op, env);
        env.profiler.mark_op(
            n as u32,
            op_start,
            cores[n].now().saturating_since(op_start),
        );
        if let Some(e) = env.fault.take() {
            return Err(e);
        }
        self.charge_ticks(n);
        Ok(())
    }

    fn handle_sync(&mut self, n: usize, op: &flashsim_isa::Op) -> Result<(), SimError> {
        match op.class {
            OpClass::Barrier => {
                let t = self.cores[n].drain();
                let overhead = self.barrier_overhead();
                self.status[n] = NodeStatus::AtBarrier(op.id);
                let arrivals = self.barrier_arrivals.entry(op.id).or_default();
                arrivals.push((n, t));
                if arrivals.len() == self.cfg.nodes as usize {
                    let release =
                        arrivals.iter().map(|(_, t)| *t).fold(Time::ZERO, Time::max) + overhead;
                    let woken: Vec<(usize, Time)> = arrivals.clone();
                    self.barrier_arrivals.remove(&op.id);
                    self.barrier_releases.push((op.id, release));
                    // Per-node clock skew at the barrier: spread between
                    // the first and last arrival over the released set.
                    // Arrival times and the release instant are
                    // policy-invariant, so the gauge is too.
                    let first = woken.iter().map(|(_, t)| *t).fold(release, Time::min);
                    let last = woken.iter().map(|(_, t)| *t).fold(Time::ZERO, Time::max);
                    self.telemetry.gauge(
                        self.tel.barrier_skew,
                        release,
                        last.saturating_since(first).as_ps(),
                    );
                    if self.tracer.enabled(TraceCategory::Machine) {
                        self.tracer.emit(
                            release,
                            TraceCategory::Machine,
                            "barrier_release",
                            n as u32,
                            u64::from(op.id),
                            u64::from(self.cfg.nodes),
                        );
                    }
                    for (m, arrived) in woken {
                        // Arrival-to-release is synchronization stall.
                        self.profiler.charge_wall(
                            m as u32,
                            StallClass::Sync,
                            arrived,
                            release.saturating_since(arrived),
                        );
                        self.cores[m].set_time(release);
                        self.status[m] = NodeStatus::Running;
                    }
                    // The machine is now quiescent: every node Running at
                    // the release time, no arrival or lock queues, no
                    // transaction mid-flight — and every stable cumulative
                    // total is policy-invariant, which is what makes the
                    // stream's closed bucket (deltas since the previous
                    // release) prefix-stable across reruns and policies.
                    if self.stream.is_some() {
                        let _stream = self.hostprof.phase(HostPhase::Stream);
                        let totals = self.stream_totals(release);
                        let account = self.stream_account(release);
                        if let Some(em) = self.stream.as_mut() {
                            em.bucket(op.id, release.as_ps(), &totals, account.as_deref());
                        }
                    }
                    // Emit a checkpoint if a sink is attached (take/put-
                    // back so the sink can borrow the machine-produced
                    // text without aliasing `self`). The stream's ckpt
                    // event goes first: the snapshot then stores the
                    // emitter position *after* the event, so a resume
                    // continues past it instead of re-emitting it.
                    if let Some(mut sink) = self.ckpt_sink.take() {
                        let _ckpt = self.hostprof.phase(HostPhase::Ckpt);
                        let seq = self.ckpt_seq;
                        self.ckpt_seq += 1;
                        if let Some(em) = self.stream.as_mut() {
                            let _stream = self.hostprof.phase(HostPhase::Stream);
                            em.ckpt(seq, release.as_ps());
                        }
                        let text = self.checkpoint();
                        sink(seq, release, &text);
                        self.ckpt_sink = Some(sink);
                    }
                }
            }
            OpClass::LockAcquire => {
                let t = self.cores[n].drain();
                self.lock_addr.insert(op.id, op.addr);
                let acquired = {
                    let lock = self.locks.entry(op.id).or_default();
                    if lock.held_by.is_none() {
                        lock.held_by = Some(n);
                        true
                    } else {
                        lock.queue.push((n, t));
                        false
                    }
                };
                if acquired {
                    if self.tracer.enabled(TraceCategory::Machine) {
                        self.tracer.emit(
                            t,
                            TraceCategory::Machine,
                            "lock_acquire",
                            n as u32,
                            u64::from(op.id),
                            0,
                        );
                    }
                    self.acquire_lock_line(n, op.addr, t)?;
                } else {
                    self.status[n] = NodeStatus::WaitingLock(op.id);
                }
            }
            OpClass::LockRelease => {
                let t = self.cores[n].drain();
                let next = {
                    let Some(lock) = self.locks.get_mut(&op.id) else {
                        return Err(SimError::UnheldLock {
                            node: n as u32,
                            lock: op.id,
                            holder: None,
                        });
                    };
                    if lock.held_by != Some(n) {
                        return Err(SimError::UnheldLock {
                            node: n as u32,
                            lock: op.id,
                            holder: lock.held_by.map(|h| h as u32),
                        });
                    }
                    lock.held_by = None;
                    if lock.queue.is_empty() {
                        None
                    } else {
                        let (nx, since) = lock.queue.remove(0);
                        lock.held_by = Some(nx);
                        Some((nx, since))
                    }
                };
                if let Some((next, since)) = next {
                    self.status[next] = NodeStatus::Running;
                    let at = self.cores[next].now().max(t);
                    // Queue time on the lock is synchronization stall.
                    self.profiler.charge_wall(
                        next as u32,
                        StallClass::Sync,
                        since,
                        at.saturating_since(since),
                    );
                    self.cores[next].set_time(at);
                    if self.tracer.enabled(TraceCategory::Machine) {
                        self.tracer.emit(
                            at,
                            TraceCategory::Machine,
                            "lock_handoff",
                            next as u32,
                            u64::from(op.id),
                            n as u64,
                        );
                    }
                    let addr = self.lock_addr[&op.id];
                    self.acquire_lock_line(next, addr, at)?;
                }
            }
            _ => unreachable!(), // gate: allow
        }
        Ok(())
    }

    /// The coherence transaction behind a lock hand-off: the new holder
    /// takes the lock line exclusive.
    fn acquire_lock_line(&mut self, n: usize, addr: VAddr, t: Time) -> Result<(), SimError> {
        let Epoch { env, cores, .. } = &mut self.epoch(n, false);
        let res = env.resolve(addr, MemAccessKind::Write, t);
        if let Some(e) = env.fault.take() {
            return Err(e);
        }
        // The hand-off's coherence transaction is synchronization cost
        // (minus the TLB refill the environment already charged).
        env.profiler.charge_wall(
            n as u32,
            StallClass::Sync,
            t,
            res.done_at
                .saturating_since(t)
                .saturating_sub(res.tlb_refill),
        );
        cores[n].set_time(res.done_at);
        Ok(())
    }

    fn collect_result(&mut self, wall_seconds: f64) -> RunResult {
        let end = self
            .cores
            .iter()
            .map(|c| c.now())
            .fold(Time::ZERO, Time::max);
        if self.tracer.enabled(TraceCategory::Machine) {
            self.tracer.emit(
                end,
                TraceCategory::Machine,
                "run_end",
                0,
                u64::from(self.cfg.nodes),
                0,
            );
        }
        self.barrier_releases.sort_by_key(|(id, _)| *id);

        let start = match self.timing_start {
            None => Time::ZERO,
            Some(id) => self
                .barrier_releases
                .iter()
                .find(|(b, _)| *b == id)
                .map(|(_, t)| *t)
                .unwrap_or(Time::ZERO),
        };

        let mut stats = StatSet::new();
        for (n, core) in self.cores.iter().enumerate() {
            stats.absorb_flat(&core.stats());
            let mem = &self.mems[n];
            stats.add("l1.hits", mem.hier.l1().hits() as f64);
            stats.add("l1.misses", mem.hier.l1().misses() as f64);
            stats.add("l2.hits", mem.hier.l2().hits() as f64);
            stats.add("l2.misses", mem.hier.l2().misses() as f64);
            stats.add("l2.evictions", mem.hier.l2().evictions() as f64);
            stats.add("os.page_faults", mem.page_faults as f64);
            stats.add("os.tlb_refills", mem.tlb_refills as f64);
            if let Some(tlb) = &mem.tlb {
                stats.add("tlb.misses", tlb.misses() as f64);
                stats.add("tlb.hits", tlb.hits() as f64);
            }
        }
        stats.absorb_flat(&self.memsys.stats());
        self.injector.absorb_into(&mut stats);

        // Accounting closes over the whole run: every node is extended to
        // the machine end time, so per-node class totals all sum to the
        // same total and trailing idle reads as compute.
        let ends = vec![end; self.cfg.nodes as usize];
        let accounting = self.profiler.snapshot(&ends);
        if let Some(acc) = &accounting {
            for (class, total) in StallClass::ALL.iter().zip(acc.class_totals()) {
                stats.set(format!("account.{}.ps", class.key()), total as f64);
            }
        }

        let ops_per_node: Vec<u64> = self.streams.iter().map(|s| s.consumed()).collect();
        let total_ops: u64 = ops_per_node.iter().sum();
        let events_per_sec = if wall_seconds > 0.0 {
            total_ops as f64 / wall_seconds
        } else {
            f64::NAN
        };
        let manifest = RunManifest {
            config: self.cfg.label(),
            nodes: self.cfg.nodes,
            workload: self.workload.clone(),
            seed: self.workload_seed,
            sched: self.cfg.sched.key().to_owned(),
            faults: self
                .cfg
                .faults
                .as_ref()
                .filter(|p| p.is_active())
                .map(flashsim_engine::FaultPlan::summary),
            wall_seconds,
            total_ops,
            simulated_seconds: (end - Time::ZERO).as_ns_f64() / 1e9,
            events_per_sec,
            sim_mips: events_per_sec / 1e6,
            account: accounting
                .as_ref()
                .map(|acc| StallClass::ALL.map(|c| acc.fraction(c))),
            spans: self.cfg.spans.as_ref().map(|p| p.describe()),
            stream: self.cfg.stream.as_ref().map(|p| p.display().to_string()),
        };

        RunResult {
            total_time: end - Time::ZERO,
            parallel_time: end - start,
            ops_per_node,
            barrier_releases: self.barrier_releases.clone(),
            stats,
            manifest,
            accounting,
            telemetry: self.telemetry.snapshot(end),
            spans: self.spans.snapshot(),
            hostprof: self.hostprof.report(),
        }
    }
}

/// Errors from [`Machine::restore`].
#[derive(Debug)]
pub enum RestoreError {
    /// The machine could not be built for the program.
    Build(MachineError),
    /// The checkpoint was rejected: corrupt, truncated, structurally
    /// wrong, or written by a run with a different identity (config,
    /// workload, seed, policy, or fault plan).
    Ckpt(CkptError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Build(e) => write!(f, "machine build failed: {e}"),
            RestoreError::Ckpt(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<MachineError> for RestoreError {
    fn from(e: MachineError) -> RestoreError {
        RestoreError::Build(e)
    }
}

impl From<CkptError> for RestoreError {
    fn from(e: CkptError) -> RestoreError {
        RestoreError::Ckpt(e)
    }
}

impl Machine {
    /// Attaches a checkpoint sink: at every barrier release — the
    /// machine's natural quiescent points (all node clocks equal, no
    /// arrival or lock-wait queues, no memory transaction mid-flight) —
    /// the machine serializes its complete state and hands the sink
    /// `(sequence, release_time, checkpoint_text)`. The sink owns
    /// persistence (temp-file + rename for crash consistency is the
    /// runner's job); emitting checkpoints never perturbs simulated
    /// state, so an instrumented run stays byte-identical to a bare one.
    pub fn attach_ckpt_sink(&mut self, sink: CkptSink) {
        self.ckpt_sink = Some(sink);
    }

    /// The run-identity string embedded (hashed and verbatim) in every
    /// checkpoint this machine writes. It covers everything that shapes
    /// simulated behaviour — config, workload, seed, scheduling policy,
    /// fault plan, telemetry cadence, span plan — so a checkpoint can
    /// never restore against the wrong run. Host-side knobs (watchdog,
    /// heartbeat, stream sink, hostprof) are deliberately excluded:
    /// resuming with a different wall-clock budget or stream destination is
    /// legitimate, and two runs that differ only in observability sinks
    /// share a provenance hash — which is exactly the grouping key the
    /// stream's cross-file prefix-stability check relies on.
    pub fn provenance(&self) -> String {
        format!(
            "flashsim nodes={} cpu={:?} os={:?} memsys={:?} geometry={:?} l2_hit={:?} \
             barrier=({:?},{:?}) sched={} faults={:?} telemetry={:?} profile={} spans={:?} \
             workload={} seed={:?}",
            self.cfg.nodes,
            self.cfg.cpu,
            self.cfg.os,
            self.cfg.memsys,
            self.cfg.geometry,
            self.cfg.l2_hit,
            self.cfg.barrier_base,
            self.cfg.barrier_per_node,
            self.cfg.sched.key(),
            self.cfg.faults,
            self.cfg.telemetry,
            self.cfg.profile,
            self.cfg.spans,
            self.workload,
            self.workload_seed,
        )
    }

    /// Serializes the complete simulation state into a `flashsim-ckpt-v1`
    /// text. Callable only at quiescent points (barrier releases) — the
    /// scheduler's in-flight state (arrival queues, lock waiters, batch
    /// scratch) is asserted empty rather than saved, which is what makes
    /// the format closed under every layer's `save_ckpt`.
    pub fn checkpoint(&self) -> String {
        debug_assert!(
            self.barrier_arrivals.is_empty(),
            "checkpoint outside a quiescent point"
        );
        let mut w = CkptWriter::new(&self.provenance());
        w.section("machine");
        w.u64("ckpt_seq", self.ckpt_seq);
        // Stream emitter position, so a resumed run continues the live
        // event stream exactly where this snapshot left it (the ckpt
        // event for this very snapshot is already behind the position).
        let (stream_seq, stream_last_ps) = self.stream_position();
        w.u64("stream_seq", stream_seq);
        w.u64("stream_last_ps", stream_last_ps);
        w.u64("nodes", u64::from(self.cfg.nodes));
        w.u64("barrier_releases", self.barrier_releases.len() as u64);
        for (id, t) in &self.barrier_releases {
            w.u64s("rel", &[u64::from(*id), t.as_ps()]);
        }
        let mut lock_ids: Vec<u32> = self.locks.keys().copied().collect();
        lock_ids.sort_unstable();
        w.u64("locks", lock_ids.len() as u64);
        for id in lock_ids {
            let lock = &self.locks[&id];
            debug_assert!(lock.queue.is_empty(), "lock waiters at a quiescent point");
            w.u64s(
                "lock",
                &[
                    u64::from(id),
                    lock.held_by.map_or(u64::MAX, |h| h as u64),
                    self.lock_addr.get(&id).map_or(u64::MAX, |a| a.get()),
                ],
            );
        }
        for n in 0..self.cfg.nodes as usize {
            w.section(&format!("node{n}"));
            w.u64("consumed", self.streams[n].consumed());
            self.cores[n].save_ckpt(&mut w);
            let mem = &self.mems[n];
            mem.hier.save_ckpt(&mut w);
            w.u64("has_tlb", u64::from(mem.tlb.is_some()));
            if let Some(tlb) = &mem.tlb {
                tlb.save_ckpt(&mut w);
            }
            let mut pend: Vec<(u64, Time, LatencyBreakdown)> = mem
                .pending
                .iter()
                .map(|(l, &(t, bd))| (l.get(), t, bd))
                .collect();
            pend.sort_unstable_by_key(|&(l, _, _)| l);
            w.u64("pending", pend.len() as u64);
            for (line, arrives, bd) in pend {
                w.u64s(
                    "pend",
                    &[
                        line,
                        arrives.as_ps(),
                        bd.occupancy.as_ps(),
                        bd.network.as_ps(),
                        bd.memory.as_ps(),
                    ],
                );
            }
            w.u64("page_faults", mem.page_faults);
            w.u64("tlb_refills", mem.tlb_refills);
            w.time("next_tick", mem.next_tick);
        }
        w.section("os");
        self.pt.save_ckpt(&mut w);
        self.alloc.save_ckpt(&mut w);
        w.section("memsys");
        self.memsys.save_ckpt(&mut w);
        self.injector.save_ckpt(&mut w);
        self.profiler.save_ckpt(&mut w);
        self.telemetry.save_ckpt(&mut w);
        self.spans.save_ckpt(&mut w);
        w.finish()
    }

    /// Rebuilds a machine from a checkpoint written by
    /// [`Machine::checkpoint`] under the same `cfg` and `program`.
    /// Continuing the restored machine with [`Machine::run`] produces
    /// results byte-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Build`] if the machine cannot be constructed;
    /// [`RestoreError::Ckpt`] if the checkpoint is corrupt, truncated, or
    /// carries a different run identity (wrong config, workload, seed,
    /// policy, or fault plan). Failing closed here is what lets callers
    /// degrade gracefully to a from-zero restart.
    pub fn restore(
        cfg: MachineConfig,
        program: &dyn Program,
        text: &str,
    ) -> Result<Machine, RestoreError> {
        let parse = |key: &str, value: String| CkptError::Parse {
            key: key.to_string(),
            value,
        };
        let mut m = Machine::new(cfg, program)?;
        let mut r = CkptReader::open(text)?;
        r.expect_provenance(&m.provenance())?;
        r.section("machine")?;
        m.ckpt_seq = r.u64("ckpt_seq")?;
        m.stream_pos = (r.u64("stream_seq")?, r.u64("stream_last_ps")?);
        let nodes = r.u64("nodes")?;
        if nodes != u64::from(m.cfg.nodes) {
            return Err(parse("nodes", nodes.to_string()).into());
        }
        for _ in 0..r.u64("barrier_releases")? {
            let v = r.u64s("rel")?;
            let [id, ps] =
                <[u64; 2]>::try_from(v.as_slice()).map_err(|_| parse("rel", format!("{v:?}")))?;
            m.barrier_releases.push((id as u32, Time::from_ps(ps)));
        }
        for _ in 0..r.u64("locks")? {
            let v = r.u64s("lock")?;
            let [id, held, addr] =
                <[u64; 3]>::try_from(v.as_slice()).map_err(|_| parse("lock", format!("{v:?}")))?;
            m.locks.insert(
                id as u32,
                LockState {
                    held_by: (held != u64::MAX).then_some(held as usize),
                    queue: Vec::new(),
                },
            );
            if addr != u64::MAX {
                m.lock_addr.insert(id as u32, VAddr(addr));
            }
        }
        for n in 0..m.cfg.nodes as usize {
            r.section(&format!("node{n}"))?;
            let consumed = r.u64("consumed")?;
            // Fast-forward the deterministic op stream to its cursor; the
            // generator re-derives every op, so none need to be stored.
            for _ in 0..consumed {
                if m.streams[n].next_op().is_none() {
                    return Err(parse("consumed", consumed.to_string()).into());
                }
            }
            m.cores[n].load_ckpt(&mut r)?;
            m.mems[n].hier.load_ckpt(&mut r)?;
            let has_tlb = r.u64("has_tlb")? != 0;
            if has_tlb != m.mems[n].tlb.is_some() {
                return Err(parse("has_tlb", has_tlb.to_string()).into());
            }
            if let Some(tlb) = &mut m.mems[n].tlb {
                tlb.load_ckpt(&mut r)?;
            }
            m.mems[n].pending.clear();
            for _ in 0..r.u64("pending")? {
                let v = r.u64s("pend")?;
                let [line, arrives, occ, net, memory] = <[u64; 5]>::try_from(v.as_slice())
                    .map_err(|_| parse("pend", format!("{v:?}")))?;
                m.mems[n].pending.insert(
                    LineAddr(line),
                    (
                        Time::from_ps(arrives),
                        LatencyBreakdown {
                            occupancy: TimeDelta::from_ps(occ),
                            network: TimeDelta::from_ps(net),
                            memory: TimeDelta::from_ps(memory),
                        },
                    ),
                );
            }
            m.mems[n].page_faults = r.u64("page_faults")?;
            m.mems[n].tlb_refills = r.u64("tlb_refills")?;
            m.mems[n].next_tick = r.time("next_tick")?;
        }
        r.section("os")?;
        m.pt.load_ckpt(&mut r)?;
        m.alloc.load_ckpt(&mut r)?;
        r.section("memsys")?;
        m.memsys.load_ckpt(&mut r)?;
        m.injector.load_ckpt(&mut r)?;
        m.profiler.load_ckpt(&mut r)?;
        m.telemetry.load_ckpt(&mut r)?;
        m.spans.load_ckpt(&mut r)?;
        r.finish()?;
        Ok(m)
    }
}

/// Convenience: build and run in one call.
///
/// # Errors
///
/// Returns [`SimError::Build`] for construction failures and propagates
/// every structured failure from [`Machine::run`].
pub fn run_program(cfg: MachineConfig, program: &dyn Program) -> Result<RunResult, SimError> {
    Machine::new(cfg, program)?.run()
}
