//! Memory resolution. [`resolve_private`] is the one node-private path
//! (translation through the TLB, cache probe, hits, waits on the node's
//! own in-flight fills), run by serial and forked execution alike;
//! [`MachineEnv`] adds what needs the whole machine: the page-table walk
//! behind a TLB miss with its first-touch page faults, memory-system
//! transactions, coherence actions, spans.

use super::observe::TelIds;
use super::NodeMem;
use crate::config::{MachineConfig, L2_HIT};
use crate::error::SimError;
use flashsim_cpu::env::{AccessLevel, Core, MemAccessKind, MemEnv, Resolution};
use flashsim_engine::{Clock, FaultInjector, Observers, StallClass, Time, TimeDelta};
use flashsim_isa::{Placement, Segment, VAddr};
use flashsim_mem::{
    AccessKind, FrameAllocator, HierProbe, LatencyBreakdown, LineAddr, MemRequest, MemorySystem,
    PAddr, PageTable,
};
use flashsim_os::TlbModel;

/// Where one node's execution sends its charges: the observer bundle
/// plus the constants that price them. The single
/// charging authority for memory latency, TLB refills, and OS costs
/// exposed to the core; cores charge only their internal pipeline stalls,
/// so no span is charged twice.
pub(super) struct ChargeSink<'a> {
    pub(super) node: usize,
    /// Whether the current resolution happens inside a core op (charges
    /// subtract from that op's compute residual) or between ops (lock
    /// hand-offs: wall charges).
    pub(super) in_op: bool,
    pub(super) cfg: &'a MachineConfig,
    pub(super) clock: Clock,
    pub(super) obs: &'a Observers,
    pub(super) tel: TelIds,
}

impl ChargeSink<'_> {
    /// Charges `dur` starting at `at` to `class` on this node, as an
    /// in-op or wall charge depending on the resolution context.
    #[inline]
    fn account(&self, class: StallClass, at: Time, dur: TimeDelta) {
        if dur.is_zero() {
            return;
        }
        if self.in_op {
            self.obs.profiler.charge(self.node as u32, class, at, dur);
        } else {
            self.obs
                .profiler
                .charge_wall(self.node as u32, class, at, dur);
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

    /// Charges the OS timer ticks that came due on this node by `done`,
    /// its core's clock after an op, and returns the clock after them.
    /// Ticks touch only per-node state, so they never break a batch.
    #[inline]
    pub(super) fn timer_ticks(&self, mem: &mut NodeMem, core: &mut dyn Core, done: Time) -> Time {
        let mut now = done;
        if let Some(interval) = self.cfg.os.timer_interval {
            let cost = self.cfg.os.timer_cost;
            while mem.next_tick <= done {
                mem.next_tick += interval;
                self.obs
                    .profiler
                    .charge_wall(self.node as u32, StallClass::Os, now, cost);
                now += cost;
                core.set_time(now);
            }
        }
        now
    }
}

/// What a page-table walk found: the frame backing the page, and whether
/// this access was the page's first touch (a page fault mapped it).
pub(super) struct Walk {
    pub(super) pfn: u64,
    pub(super) first_touch: bool,
}

/// What [`resolve_private`] concluded about one access.
pub(super) struct Private {
    pub(super) paddr: PAddr,
    pub(super) probe: HierProbe,
    /// When the access reaches the caches: issue time plus the TLB-refill
    /// and page-fault time before it.
    pub(super) t: Time,
    pub(super) refill: TimeDelta,
    /// Page-fault time (zero unless this was the page's first touch).
    pub(super) fault: TimeDelta,
    /// Completion time and level of an L1 or L2 hit. `None` for an
    /// upgrade or a miss: those need the shared path.
    pub(super) hit: Option<(Time, AccessLevel)>,
}

/// Resolves as much of an access as touches only node `sink.node`'s own
/// state: translation, cache probe, hit/miss telemetry, the L1 and L2 hit
/// paths, and the wait on one of the node's own in-flight fills.
///
/// Translation asks the TLB first. Pages are never unmapped, so a TLB hit
/// is a mapping and cannot fault; only a TLB miss — or every access, when
/// no TLB is modelled — takes `walk`, the caller's page-table lookup for
/// the access's virtual page. `None` when the walk fails (the caller
/// reports why).
#[inline]
pub(super) fn resolve_private(
    mem: &mut NodeMem,
    sink: &ChargeSink<'_>,
    walk: impl FnOnce(u64) -> Option<Walk>,
    addr: VAddr,
    kind: MemAccessKind,
    at: Time,
) -> Option<Private> {
    debug_assert!(
        at >= mem.pending.floor(),
        "access issued before its op's start clock"
    );
    let page_shift = sink.cfg.geometry.page_shift();
    let vpn = addr.vpn(page_shift);
    // The walk, with the page-fault time it cost this node.
    let walked = |page_faults: &mut u64| {
        let w = walk(vpn)?;
        let mut fault = TimeDelta::ZERO;
        if w.first_touch {
            *page_faults += 1;
            fault = sink.cfg.os.page_fault_cost;
        }
        Some((w.pfn, fault))
    };
    let (pfn, refill, fault) = if let TlbModel::Modeled { refill_cycles, .. } = sink.cfg.os.tlb {
        let tlb = mem.tlb.as_mut().expect("TLB modelled but absent"); // gate: allow
        match tlb.translate(addr) {
            Some(pfn) => (pfn, TimeDelta::ZERO, TimeDelta::ZERO),
            None => {
                let (pfn, fault) = walked(&mut mem.page_faults)?;
                tlb.insert(vpn, pfn);
                mem.tlb_refills += 1;
                (pfn, sink.clock.cycles(refill_cycles), fault)
            }
        }
    } else {
        let (pfn, fault) = walked(&mut mem.page_faults)?;
        (pfn, TimeDelta::ZERO, fault)
    };
    let paddr = flashsim_mem::addr::translate(addr, pfn, page_shift);
    let t = at + refill + fault;
    let write = kind == MemAccessKind::Write;

    // The refill handler and fault path run on the pipeline for loads
    // and stores alike; prefetches that miss the TLB are dropped by
    // real hardware, so their costs are not demand stalls.
    if kind != MemAccessKind::Prefetch {
        sink.account(StallClass::TlbRefill, at, refill);
        sink.account(StallClass::Os, at + refill, fault);
    }
    // Memory latency is charged for blocking demand reads only: store and
    // prefetch latency is overlapped by write buffers and prefetch slots,
    // and the portion that *isn't* hidden surfaces as core-internal
    // stalls the core models charge themselves.
    let demand_read = kind == MemAccessKind::Read;

    let probe = mem.hier.probe(paddr, write);

    // Hit/miss telemetry counters are bucket-summed, so recording them
    // here — covering the fast path below too — is safe under every
    // scheduling policy (per-window sums commute), and so is folding
    // them in the node's windows first.
    let (tel, ids, obs) = (&sink.obs.telemetry, &sink.tel, &mut mem.obs);
    match probe {
        HierProbe::L1Hit => tel.count_in(&mut obs.l1_hits, ids.l1_hits, t, 1),
        HierProbe::L2Hit => {
            tel.count_in(&mut obs.l1_misses, ids.l1_misses, t, 1);
            tel.count_in(&mut obs.l2_hits, ids.l2_hits, t, 1);
        }
        HierProbe::L2Upgrade | HierProbe::L2Miss => {
            tel.count_in(&mut obs.l1_misses, ids.l1_misses, t, 1);
            tel.count_in(&mut obs.l2_misses, ids.l2_misses, t, 1);
        }
    }

    let hit = match probe {
        HierProbe::L1Hit => Some((mem.await_fill(sink, paddr, t, demand_read), AccessLevel::L1)),
        HierProbe::L2Hit => {
            mem.hier.fill_l1_from_l2(paddr, write);
            if demand_read {
                sink.account(StallClass::L1Miss, t, L2_HIT);
            }
            let done = mem.await_fill(sink, paddr, t + L2_HIT, demand_read);
            Some((done, AccessLevel::L2))
        }
        HierProbe::L2Upgrade | HierProbe::L2Miss => None,
    };
    Some(Private {
        paddr,
        probe,
        t,
        refill,
        fault,
        hit,
    })
}

impl NodeMem {
    /// When a hit that would complete at `done_at` really does: a hit on
    /// a line whose fill is still in flight (e.g. behind a prefetch)
    /// waits for the data to arrive. The overwhelmingly common case — no
    /// fill in flight at all — skips the line math and the search.
    #[inline]
    fn await_fill(
        &mut self,
        sink: &ChargeSink<'_>,
        paddr: PAddr,
        done_at: Time,
        demand_read: bool,
    ) -> Time {
        if self.pending.is_empty() {
            return done_at;
        }
        let line = self.hier.l2_line(paddr);
        match self.pending.wait_for(line, done_at) {
            Some((arrives, bd)) => {
                if demand_read {
                    sink.charge_exposed_wait(done_at, arrives - done_at, bd);
                }
                arrives
            }
            None => done_at,
        }
    }
}

/// The shared half of translation: the page table, the frame allocator
/// behind first-touch faults, and the segments that say where a page
/// belongs.
pub(super) struct Pager<'a> {
    pub(super) pt: &'a mut PageTable,
    pub(super) alloc: &'a mut FrameAllocator,
    pub(super) segments: &'a [Segment],
}

impl Pager<'_> {
    /// The node whose memory should back `addr`, per the containing
    /// segment's placement request.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if no declared segment
    /// contains `addr`.
    fn placement_node(&self, cfg: &MachineConfig, node: u32, addr: VAddr) -> Result<u32, SimError> {
        let Some(seg) = self.segments.iter().find(|s| s.contains(addr)) else {
            return Err(SimError::UnmappedAddress { node, addr });
        };
        let nodes = u64::from(cfg.nodes);
        Ok(match seg.placement {
            Placement::Node(n) => n.min(cfg.nodes - 1),
            Placement::Blocked => {
                let off = addr.get() - seg.base.get();
                ((off * nodes / seg.bytes) as u32).min(cfg.nodes - 1)
            }
            Placement::Interleaved => (addr.vpn(cfg.geometry.page_shift()) % nodes) as u32,
        })
    }

    /// The frame backing `addr`'s page `vpn`, for node `node`: a first
    /// touch allocates and maps the page (page table and frame allocator
    /// are shared state), any later one is a lookup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] for addresses outside every
    /// declared segment and [`SimError::OutOfPhysicalMemory`] when the
    /// frame allocator cannot back the page.
    fn walk(
        &mut self,
        cfg: &MachineConfig,
        node: u32,
        addr: VAddr,
        vpn: u64,
    ) -> Result<Walk, SimError> {
        if let Some(pfn) = self.pt.lookup(vpn) {
            return Ok(Walk {
                pfn,
                first_touch: false,
            });
        }
        let home = self.placement_node(cfg, node, addr)?;
        let Some(pfn) = self.alloc.alloc(home, vpn) else {
            return Err(SimError::OutOfPhysicalMemory { node, home, vpn });
        };
        self.pt.map(vpn, pfn);
        Ok(Walk {
            pfn,
            first_touch: true,
        })
    }
}

/// The environment one node's core executes against (see
/// [`flashsim_cpu::env::MemEnv`]).
pub(super) struct MachineEnv<'a> {
    pub(super) sink: ChargeSink<'a>,
    pub(super) mems: &'a mut [NodeMem],
    pub(super) memsys: &'a mut dyn MemorySystem,
    pub(super) pager: Pager<'a>,
    pub(super) faults: &'a FaultInjector,
    /// Failure slot: `MemEnv::resolve` cannot return an error through the
    /// core's execute path, so faults are parked here and harvested by the
    /// scheduler immediately after the op completes.
    pub(super) fault: &'a mut Option<SimError>,
}

impl MachineEnv<'_> {
    /// Applies directory-mandated coherence actions to the *other* nodes.
    fn apply_actions(&mut self, line: LineAddr, actions: &flashsim_mem::CoherenceActions) {
        for &v in &actions.invalidate {
            if v as usize != self.sink.node {
                self.mems[v as usize].hier.invalidate_line(line);
                self.mems[v as usize].pending.remove(line);
                self.mems[v as usize].lb_dirty = true;
            }
        }
        if let Some(v) = actions.downgrade {
            if v as usize != self.sink.node {
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
        let node = self.sink.node as u32;
        let spans = &self.sink.obs.spans;
        if !spans.txn_try_begin(node, line.get(), kind.key(), at) {
            return false;
        }
        if refill > TimeDelta::ZERO {
            spans.leg("tlb_refill", node, at, at + refill, None, refill);
        }
        if fault > TimeDelta::ZERO {
            spans.leg(
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

    /// Issues a full memory-system transaction and installs the line.
    fn miss_transaction(
        &mut self,
        paddr: PAddr,
        write: bool,
        t: Time,
    ) -> (Time, AccessLevel, LatencyBreakdown) {
        let node = self.sink.node;
        let line = self.mems[node].hier.l2_line(paddr);
        let kind = if write {
            AccessKind::ReadExclusive
        } else {
            AccessKind::ReadShared
        };
        let mut out = self.memsys.access(MemRequest {
            node: node as u32,
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
            self.sink.obs.spans.leg(
                "fault_perturb",
                node as u32,
                pre_perturb,
                out.done_at,
                Some(flashsim_engine::SpanClass::Memory),
                perturb,
            );
        }
        // Close the sampled span tree (no-op when this access was not
        // sampled) BEFORE the victim writeback below, so background
        // writeback legs never attach to the demand transaction.
        self.sink.obs.spans.txn_end(out.done_at, out.case.key());
        self.apply_actions(line, &out.actions);
        let victim = self.mems[node]
            .hier
            .fill_from_memory(paddr, write, out.exclusive);
        if let Some(v) = victim {
            if v.dirty {
                // Background writeback of the displaced dirty line.
                let _ = self.memsys.access(MemRequest {
                    node: node as u32,
                    line: v.line,
                    kind: AccessKind::Writeback,
                    now: out.done_at,
                });
            }
            self.mems[node].pending.remove(v.line);
        }
        self.mems[node]
            .pending
            .insert(line, out.done_at, out.breakdown);
        self.sink.obs.telemetry.gauge(
            self.sink.tel.pending_depth,
            t,
            self.mems[node].pending.len() as u64,
        );
        (out.done_at, AccessLevel::Memory(out.case), out.breakdown)
    }

    /// Finishes an access the private path found to be an upgrade or a
    /// miss: the memory-system transaction, the coherence actions it
    /// mandates on other nodes, and the sampled span tree around both.
    fn resolve_shared(
        &mut self,
        p: &Private,
        kind: MemAccessKind,
        at: Time,
    ) -> (Time, AccessLevel) {
        let node = self.sink.node;
        let line = self.mems[node].hier.l2_line(p.paddr);
        let sampled = self.span_txn_open(line, kind, at, p.refill, p.fault);
        if p.probe == HierProbe::L2Upgrade {
            let mut out = self.memsys.access(MemRequest {
                node: node as u32,
                line,
                kind: AccessKind::Upgrade,
                now: p.t,
            });
            let pre_perturb = out.done_at;
            out.done_at += self.faults.perturb_latency(out.done_at - p.t);
            if sampled {
                if out.done_at > pre_perturb {
                    // The upgrade arm leaves the breakdown untouched
                    // by perturbation, so the leg is unclassed.
                    self.sink.obs.spans.leg(
                        "fault_perturb",
                        node as u32,
                        pre_perturb,
                        out.done_at,
                        None,
                        out.done_at - pre_perturb,
                    );
                }
                self.sink.obs.spans.txn_end(out.done_at, out.case.key());
            }
            self.apply_actions(line, &out.actions);
            self.mems[node].hier.complete_upgrade(p.paddr);
            (out.done_at, AccessLevel::Memory(out.case))
        } else {
            let write = kind == MemAccessKind::Write;
            let (done, level, bd) = self.miss_transaction(p.paddr, write, p.t);
            if kind == MemAccessKind::Read {
                self.sink
                    .account(StallClass::DirOccupancy, p.t, bd.occupancy);
                self.sink.account(StallClass::NetTransit, p.t, bd.network);
                self.sink.account(StallClass::L2Miss, p.t, bd.memory);
            }
            (done, level)
        }
    }
}

impl MemEnv for MachineEnv<'_> {
    fn resolve(&mut self, addr: VAddr, kind: MemAccessKind, at: Time) -> Resolution {
        let node = self.sink.node;
        let (sink, pager, parked) = (&self.sink, &mut self.pager, &mut *self.fault);
        let walk = |vpn| match pager.walk(sink.cfg, node as u32, addr, vpn) {
            Ok(w) => Some(w),
            Err(e) => {
                *parked = Some(e);
                None
            }
        };
        let Some(p) = resolve_private(&mut self.mems[node], sink, walk, addr, kind, at) else {
            // The core's execute path has no error channel; the failure
            // is parked and this zero-cost resolution returned — the
            // scheduler aborts the run before the next op.
            return Resolution {
                done_at: at,
                level: AccessLevel::L1,
                tlb_refill: TimeDelta::ZERO,
            };
        };
        let (done_at, level) = match p.hit {
            Some(hit) => hit,
            None => self.resolve_shared(&p, kind, at),
        };

        Resolution {
            done_at,
            level,
            tlb_refill: p.refill,
        }
    }
}
