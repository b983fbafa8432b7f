//! `flashsim-flashlite` — the detailed FLASH memory-system simulator.
//!
//! FlashLite is the paper's high-fidelity model: "a multi-threaded
//! simulator of the memory bus, MAGIC node controller, network, memory and
//! I/O subsystems", with a cycle-accurate emulation of the protocol
//! processor and latencies extracted from the Verilog RTL. This crate
//! reproduces it at transaction level:
//!
//! - every node has a MAGIC whose **protocol processor is an occupancy
//!   resource** — each handler (request decode, directory lookup, network
//!   send/receive, intervention, writeback) occupies it for its cycle
//!   count, so a hot home node queues requests (the Figure-7 effect the
//!   generic NUMA model misses),
//! - interleaved **memory banks** are an occupancy pool (140 ns to the
//!   first double-word, Table 1),
//! - the **hypercube network** from `flashsim-net` charges per-link
//!   occupancy (router/network contention),
//! - the directory protocol is the real dynamic-pointer-allocation state
//!   machine from `flashsim-proto` — the same protocol the gold standard
//!   runs, as in the paper.
//!
//! # Examples
//!
//! ```
//! use flashsim_flashlite::{FlashLite, FlashLiteParams};
//! use flashsim_mem::{AccessKind, LineAddr, MemRequest, MemorySystem, ProtocolCase};
//! use flashsim_engine::Time;
//!
//! let mut fl = FlashLite::new(4, 1 << 24, FlashLiteParams::hardware()).unwrap();
//! let out = fl.access(MemRequest {
//!     node: 0,
//!     line: LineAddr(0x100),         // homed at node 0
//!     kind: AccessKind::ReadShared,
//!     now: Time::ZERO,
//! });
//! assert_eq!(out.case, ProtocolCase::LocalClean);
//! assert!(out.done_at.as_ns() > 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;

pub use params::FlashLiteParams;

use flashsim_engine::ckpt::{CkptError, CkptReader, CkptWriter};
use flashsim_engine::{
    FaultInjector, MessageFate, MetricId, MetricKind, Observers, Resource, ResourcePool, SpanClass,
    StatSet, Time, TimeDelta, TraceCategory,
};
use flashsim_mem::system::{
    AccessKind, CoherenceActions, LatencyBreakdown, MemOutcome, MemRequest, MemorySystem, NodeId,
    ProtocolCase,
};
use flashsim_mem::LineAddr;
use flashsim_net::{Network, Topology, TopologyError};
use flashsim_proto::{classify_read, CaseLedger, DataSource, Directory};

/// The detailed FLASH memory-system model.
#[derive(Debug)]
pub struct FlashLite {
    params: FlashLiteParams,
    node_mem_bytes: u64,
    nodes: u32,
    dirs: Vec<Directory>,
    net: Network,
    pp: Vec<Resource>,
    pi: Vec<Resource>,
    mem: Vec<ResourcePool>,
    cases: CaseLedger,
    obs: Observers,
    faults: FaultInjector,
    tel_queue: MetricId,
    tel_pool: MetricId,
    /// Per-home-node variants of `magic.queue_ps` / `proto.dir_pool_used`
    /// (bounded cardinality: registered up front, one id per node, and
    /// only for machines small enough to keep the label set bounded).
    tel_queue_node: Vec<MetricId>,
    tel_pool_node: Vec<MetricId>,
    tel_reclaims: MetricId,
    tel_nacks: MetricId,
    tel_retries: MetricId,
    tel_bank_wait: MetricId,
    nacks: u64,
    retries: u64,
    nack_backoff: TimeDelta,
    // Per-transaction latency decomposition, accumulated by the acquire/
    // send helpers along the requester's critical path and reset at the
    // start of each demand transaction.
    txn_occ: TimeDelta,
    txn_net: TimeDelta,
}

impl FlashLite {
    /// Creates a FlashLite over `nodes` nodes, each owning
    /// `node_mem_bytes` of physical memory.
    ///
    /// # Errors
    ///
    /// Returns an error if `nodes` is not a power of two (hypercube).
    pub fn new(
        nodes: u32,
        node_mem_bytes: u64,
        params: FlashLiteParams,
    ) -> Result<FlashLite, TopologyError> {
        let topo = Topology::hypercube(nodes)?;
        Ok(FlashLite {
            params,
            node_mem_bytes,
            nodes,
            dirs: (0..nodes)
                .map(|n| Directory::for_home(params.dir_pool, n, node_mem_bytes, params.line_bytes))
                .collect(),
            net: Network::new(topo, params.net),
            pp: (0..nodes).map(|_| Resource::new("magic-pp")).collect(),
            pi: (0..nodes).map(|_| Resource::new("magic-pi")).collect(),
            mem: (0..nodes)
                .map(|_| ResourcePool::new("mem-banks", params.mem_banks))
                .collect(),
            cases: CaseLedger::default(),
            obs: Observers::disabled(),
            faults: FaultInjector::inert(),
            tel_queue: MetricId::NONE,
            tel_pool: MetricId::NONE,
            tel_queue_node: Vec::new(),
            tel_pool_node: Vec::new(),
            tel_reclaims: MetricId::NONE,
            tel_nacks: MetricId::NONE,
            tel_retries: MetricId::NONE,
            tel_bank_wait: MetricId::NONE,
            nacks: 0,
            retries: 0,
            nack_backoff: TimeDelta::ZERO,
            txn_occ: TimeDelta::ZERO,
            txn_net: TimeDelta::ZERO,
        })
    }

    /// Current parameters.
    pub fn params(&self) -> &FlashLiteParams {
        &self.params
    }

    /// Replaces the timing parameters (used by the calibration loop
    /// between runs). Directory state is preserved; the idle network is
    /// rebuilt with the new link timing.
    pub fn set_params(&mut self, params: FlashLiteParams) {
        self.params = params;
        self.net = Network::new(self.net.topology(), params.net);
        self.net.attach(&self.obs);
    }

    /// Charges a protocol handler: the full cycle count contributes to the
    /// transaction's LATENCY, but only half of it OCCUPIES the protocol
    /// processor — the other half of the path (SRAM lookups, queue and
    /// bus crossings) overlaps with the next handler's dispatch. The
    /// handler cycle values are calibrated against end-to-end snbench
    /// latencies, which fold in those non-PP components; charging them
    /// all as occupancy would roughly double MAGIC's real service demand.
    fn pp_acquire(&mut self, node: NodeId, cycles: u64, kind: &'static str, t: Time) -> Time {
        let occupancy = self.params.pp(cycles.div_ceil(2));
        let grant = self.pp[node as usize].acquire(t, occupancy);
        let done = grant.start + self.params.pp(cycles);
        self.txn_occ += done - t;
        // The span charge mirrors the accumulator charge exactly (queue
        // wait + handler run), so per-class span sums reconcile with the
        // transaction's LatencyBreakdown to the picosecond.
        self.obs
            .spans
            .leg(kind, node, t, done, Some(SpanClass::Occupancy), done - t);
        done
    }

    /// The processor-interface handler runs on MAGIC's PI stage, which is
    /// separate hardware from the protocol processor: local requests do
    /// not occupy the PP for their inbound decode, so a burst of
    /// lockup-free misses queues far less than if one engine did
    /// everything.
    fn pi_acquire(&mut self, node: NodeId, t: Time) -> Time {
        let cycles = self.params.pp_pi_request;
        let grant = self.pi[node as usize].acquire(t, self.params.pp(cycles.div_ceil(2)));
        let done = grant.start + self.params.pp(cycles);
        self.txn_occ += done - t;
        self.obs.spans.leg(
            "pi_request",
            node,
            t,
            done,
            Some(SpanClass::Occupancy),
            done - t,
        );
        done
    }

    fn mem_acquire(&mut self, node: NodeId, t: Time) -> Time {
        let grant = self.mem[node as usize].acquire(t, self.params.mem_busy);
        self.obs
            .telemetry
            .count(self.tel_bank_wait, grant.start, grant.wait.as_ps());
        let done = grant.start + self.params.mem_access;
        // Bank wait + access: the part of the data path the breakdown's
        // `memory` residual covers (zero-charged off the critical path).
        self.obs
            .spans
            .leg("mem_bank", node, t, done, Some(SpanClass::Memory), done - t);
        done
    }

    fn send(&mut self, from: NodeId, to: NodeId, bytes: u64, kind: &'static str, t: Time) -> Time {
        let mut depart = t;
        // Fault injection: a dropped message is retransmitted after the
        // plan's timeout; a delayed one leaves late. Bounded so even a
        // pathological fate stream cannot loop forever.
        for _ in 0..16 {
            match self.faults.message_fate(from, to) {
                MessageFate::Deliver => break,
                MessageFate::Delay(d) => {
                    depart += d;
                    break;
                }
                MessageFate::Drop => depart += self.faults.plan().drop_timeout,
            }
        }
        // The network leg carries the whole transit charge; the router
        // emits zero-charge per-hop children nested inside it.
        self.obs.spans.begin(kind, from, t);
        let arrival = self.net.send(from, to, bytes, depart);
        self.obs
            .spans
            .end(arrival, Some(SpanClass::Network), arrival - t);
        // Fault-injected delays/retransmits count as transit: they are
        // time the message spends "in" the network from the charger's
        // point of view.
        self.txn_net += arrival - t;
        arrival
    }

    /// The bounded-inbound-queue NACK path: a remote request arriving at a
    /// saturated home MAGIC is bounced back and retried with exponential
    /// backoff, as on real FLASH. Returns when the request is finally
    /// accepted at the home. Each bounce costs a NACK header back to the
    /// requester, the backoff wait, and a fresh outbound send (the bounce
    /// itself is handled in MAGIC's inbound hardware, not the PP).
    fn nack_retry(&mut self, requester: NodeId, home: NodeId, mut t: Time) -> Time {
        let p = self.params;
        if requester == home || p.nack_max_retries == 0 {
            return t;
        }
        let mut retries: u32 = 0;
        while self.pp[home as usize].wait_at(t) > p.nack_threshold && retries < p.nack_max_retries {
            self.nacks += 1;
            self.obs.telemetry.count(self.tel_nacks, t, 1);
            retries += 1;
            let mut rt = self.send(home, requester, p.header_bytes, "nack", t);
            let backoff = p.nack_retry_base * (1u64 << (retries - 1).min(6));
            self.nack_backoff += backoff;
            // Backoff is time spent waiting out home-MAGIC saturation:
            // occupancy, not transit.
            self.txn_occ += backoff;
            self.obs.spans.leg(
                "backoff",
                requester,
                rt,
                rt + backoff,
                Some(SpanClass::Occupancy),
                backoff,
            );
            rt += backoff;
            rt = self.pp_acquire(requester, p.pp_ni_out, "ni_out", rt);
            t = self.send(requester, home, p.header_bytes, "net", rt);
        }
        self.retries += u64::from(retries);
        if retries > 0 {
            self.obs
                .telemetry
                .count(self.tel_retries, t, u64::from(retries));
        }
        t
    }

    /// Time for the home to invalidate `sharers` and collect all acks,
    /// starting at `t`. Also charges the relevant occupancies.
    fn invalidate_round(&mut self, home: NodeId, sharers: &[NodeId], t: Time) -> Time {
        let mut done = t;
        for &v in sharers {
            let mut tv = self.pp_acquire(home, self.params.pp_ni_out, "ni_out", t);
            if v != home {
                tv = self.send(home, v, self.params.header_bytes, "net", tv);
            }
            tv = self.pp_acquire(v, self.params.pp_intervention, "pp_intervention", tv);
            if v != home {
                tv = self.send(v, home, self.params.header_bytes, "net", tv);
            }
            done = done.max(tv);
        }
        if !sharers.is_empty() {
            // Ack collection handler at the home.
            done = self.pp_acquire(home, self.params.pp_dir_local, "dir_lookup", done);
        }
        done
    }

    fn record(
        &mut self,
        case: ProtocolCase,
        requester: NodeId,
        home: NodeId,
        done_at: Time,
        latency: TimeDelta,
    ) {
        self.cases.record(case, latency);
        if self.obs.tracer.enabled(TraceCategory::Proto) {
            self.obs.tracer.emit(
                done_at,
                TraceCategory::Proto,
                case.key(),
                requester,
                latency.as_ps(),
                home as u64,
            );
        }
    }

    /// Resets the per-transaction decomposition accumulators.
    fn txn_begin(&mut self) {
        self.txn_occ = TimeDelta::ZERO;
        self.txn_net = TimeDelta::ZERO;
    }

    /// Folds the accumulated critical-path components into a
    /// [`LatencyBreakdown`] for a transaction of the given total latency.
    /// Components are clamped so they never exceed the total (overlapped
    /// protocol work can otherwise over-count); whatever is left —
    /// memory-bank time, handler remainders, un-itemized overlap — lands
    /// in `memory`.
    fn txn_breakdown(&self, total: TimeDelta) -> LatencyBreakdown {
        let occupancy = self.txn_occ.min(total);
        let network = self.txn_net.min(total.saturating_sub(occupancy));
        LatencyBreakdown {
            occupancy,
            network,
            memory: total.saturating_sub(occupancy + network),
        }
    }

    /// Mean demand latency observed for `case`, if any occurred.
    pub fn mean_latency_ns(&self, case: ProtocolCase) -> Option<f64> {
        self.cases.mean_latency_ns(case)
    }

    fn demand_read(&mut self, req: MemRequest, exclusive_intent: bool) -> MemOutcome {
        let home = self.home_of(req.line);
        let requester = req.node;
        let p = self.params;
        self.txn_begin();

        // Processor detects the miss and crosses the pins.
        let mut t = req.now + p.proc_miss_detect;
        self.obs.spans.leg(
            "miss_detect",
            requester,
            req.now,
            t,
            Some(SpanClass::Memory),
            p.proc_miss_detect,
        );
        // Requester MAGIC: processor-interface handler (PI stage).
        t = self.pi_acquire(requester, t);

        // Request travels to the home; a saturated home MAGIC NACKs it
        // back for retry-with-backoff before accepting it.
        if requester != home {
            t = self.pp_acquire(requester, p.pp_ni_out, "ni_out", t);
            t = self.send(requester, home, p.header_bytes, "net", t);
            t = self.nack_retry(requester, home, t);
        }

        // Home MAGIC: directory handler.
        let dir_cycles = if requester == home {
            p.pp_dir_local
        } else {
            p.pp_dir_remote
        };
        // MAGIC inbound-queue occupancy at the home, sampled as each
        // demand reaches the directory handler: the queued work (in ps)
        // ahead of this request. This is the series the paper's hotspot
        // study turns on — the latency-only NUMA model has no such queue.
        let queued = self.pp[home as usize].wait_at(t).as_ps();
        self.obs.telemetry.occupy(self.tel_queue, t, queued);
        if let Some(&id) = self.tel_queue_node.get(home as usize) {
            self.obs.telemetry.occupy(id, t, queued);
        }
        t = self.pp_acquire(home, dir_cycles, "dir_lookup", t);

        let reclaims_before = self.dirs[home as usize].reclaims();
        let resp = if exclusive_intent {
            self.dirs[home as usize].read_exclusive(req.line, requester)
        } else {
            self.dirs[home as usize].read(req.line, requester)
        };
        let dir_occ = self.dirs[home as usize].occupancy_sample();
        self.obs
            .telemetry
            .gauge(self.tel_pool, t, u64::from(dir_occ.used));
        if let Some(&id) = self.tel_pool_node.get(home as usize) {
            self.obs.telemetry.gauge(id, t, u64::from(dir_occ.used));
        }
        self.obs
            .telemetry
            .count(self.tel_reclaims, t, dir_occ.reclaims - reclaims_before);
        let case = classify_read(requester, home, resp.source);

        // Invalidations (read-exclusive on a shared line, or pointer
        // reclamation) run concurrently with the data fetch; the grant
        // waits for both. The data-supplying owner is not in this round —
        // its intervention is the data path itself.
        let sharers: Vec<NodeId> = resp
            .invalidate
            .iter()
            .copied()
            .filter(|v| Some(*v) != resp.source.owner())
            .collect();
        let ack_done = if sharers.is_empty() {
            t
        } else {
            // The round's legs run in parallel with the data path; its
            // per-leg charges must not count toward the requester's
            // critical path (only its *exposed* tail does, below).
            let saved = (self.txn_occ, self.txn_net);
            self.obs.spans.begin_offpath("inval_round", home, t);
            let done = self.invalidate_round(home, &sharers, t);
            self.obs.spans.end(done, None, TimeDelta::ZERO);
            (self.txn_occ, self.txn_net) = saved;
            done
        };

        // Data path.
        let mut data_t = match resp.source {
            DataSource::Memory => {
                let ready = self.mem_acquire(home, t);
                if requester != home {
                    let out = self.pp_acquire(home, p.pp_ni_out, "ni_out", ready);
                    let arrived =
                        self.send(home, requester, p.line_bytes + p.header_bytes, "net", out);
                    self.pp_acquire(requester, p.pp_ni_reply, "ni_reply", arrived)
                } else {
                    ready
                }
            }
            DataSource::Owner(owner) => {
                let mut dt = self.pp_acquire(home, p.pp_dirty_extra, "dirty_extra", t);
                if owner != home {
                    dt = self.pp_acquire(home, p.pp_ni_out, "ni_out", dt);
                    dt = self.send(home, owner, p.header_bytes, "net", dt);
                }
                // The intervention handler runs at the owner's MAGIC even
                // when the owner is the home itself (PI intervention).
                dt = self.pp_acquire(owner, p.pp_intervention, "pp_intervention", dt);
                // The owning processor supplies the line from its
                // secondary cache (through the processor on an R10000).
                self.obs.spans.leg(
                    "proc_intervention",
                    owner,
                    dt,
                    dt + p.proc_intervention,
                    Some(SpanClass::Memory),
                    p.proc_intervention,
                );
                dt += p.proc_intervention;
                if owner != requester {
                    dt = self.pp_acquire(owner, p.pp_ni_out, "ni_out", dt);
                    dt = self.send(owner, requester, p.line_bytes + p.header_bytes, "net", dt);
                    dt = self.pp_acquire(requester, p.pp_ni_reply, "ni_reply", dt);
                }
                // Sharing writeback to the home (off the critical path,
                // so excluded from the requester's decomposition).
                if owner != home {
                    let saved = (self.txn_occ, self.txn_net);
                    self.obs.spans.begin_offpath("sharing_wb", owner, dt);
                    let wb = self.send(owner, home, p.line_bytes + p.header_bytes, "net", dt);
                    let wb = self.pp_acquire(home, p.pp_writeback, "pp_writeback", wb);
                    let wb_done = self.mem_acquire(home, wb);
                    self.obs.spans.end(wb_done, None, TimeDelta::ZERO);
                    (self.txn_occ, self.txn_net) = saved;
                }
                dt
            }
        };

        // Invalidation time the data path did not hide is exposed
        // protocol work at the home: occupancy.
        if ack_done > data_t {
            self.txn_occ += ack_done - data_t;
            self.obs.spans.leg(
                "exposed_inval",
                home,
                data_t,
                ack_done,
                Some(SpanClass::Occupancy),
                ack_done - data_t,
            );
        }
        data_t = data_t.max(ack_done);
        // Reply crosses the bus and the processor restarts.
        let done_at = data_t + p.reply_fill;
        self.obs.spans.leg(
            "reply_fill",
            requester,
            data_t,
            done_at,
            Some(SpanClass::Memory),
            p.reply_fill,
        );
        self.record(case, requester, home, done_at, done_at - req.now);

        MemOutcome {
            done_at,
            case,
            exclusive: resp.exclusive,
            actions: CoherenceActions {
                invalidate: resp.invalidate,
                downgrade: resp.downgrade,
            },
            breakdown: self.txn_breakdown(done_at - req.now),
        }
    }

    fn upgrade(&mut self, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let requester = req.node;
        let p = self.params;
        self.txn_begin();

        let mut t = req.now + p.proc_miss_detect;
        self.obs.spans.leg(
            "miss_detect",
            requester,
            req.now,
            t,
            Some(SpanClass::Memory),
            p.proc_miss_detect,
        );
        t = self.pi_acquire(requester, t);
        if requester != home {
            t = self.pp_acquire(requester, p.pp_ni_out, "ni_out", t);
            t = self.send(requester, home, p.header_bytes, "net", t);
            t = self.nack_retry(requester, home, t);
        }
        let dir_cycles = if requester == home {
            p.pp_dir_local
        } else {
            p.pp_dir_remote
        };
        let queued = self.pp[home as usize].wait_at(t).as_ps();
        self.obs.telemetry.occupy(self.tel_queue, t, queued);
        if let Some(&id) = self.tel_queue_node.get(home as usize) {
            self.obs.telemetry.occupy(id, t, queued);
        }
        t = self.pp_acquire(home, dir_cycles, "dir_lookup", t);

        let reclaims_before = self.dirs[home as usize].reclaims();
        let resp = self.dirs[home as usize].upgrade(req.line, requester);
        let dir_occ = self.dirs[home as usize].occupancy_sample();
        self.obs
            .telemetry
            .gauge(self.tel_pool, t, u64::from(dir_occ.used));
        if let Some(&id) = self.tel_pool_node.get(home as usize) {
            self.obs.telemetry.gauge(id, t, u64::from(dir_occ.used));
        }
        self.obs
            .telemetry
            .count(self.tel_reclaims, t, dir_occ.reclaims - reclaims_before);
        // For an upgrade, the invalidation round IS the critical path;
        // its whole duration is exposed protocol work at the home, so it
        // is charged wholesale as occupancy (per-leg charges inside the
        // round would over-count the parallel legs). The round's span
        // mirrors that: the subtree's legs are zero-charged, the round
        // itself carries the wholesale occupancy charge.
        let inv_start = t;
        let saved = (self.txn_occ, self.txn_net);
        self.obs.spans.begin_offpath("inval_round", home, inv_start);
        let t = self.invalidate_round(home, &resp.invalidate, t);
        self.obs
            .spans
            .end(t, Some(SpanClass::Occupancy), t - inv_start);
        (self.txn_occ, self.txn_net) = saved;
        self.txn_occ += t - inv_start;
        let mut t = t;
        if requester != home {
            t = self.pp_acquire(home, p.pp_ni_out, "ni_out", t);
            t = self.send(home, requester, p.header_bytes, "net", t);
            t = self.pp_acquire(requester, p.pp_ni_reply, "ni_reply", t);
        }
        let done_at = t + p.reply_fill;
        self.obs.spans.leg(
            "reply_fill",
            requester,
            t,
            done_at,
            Some(SpanClass::Memory),
            p.reply_fill,
        );
        self.record(
            ProtocolCase::UpgradeOwnership,
            requester,
            home,
            done_at,
            done_at - req.now,
        );
        MemOutcome {
            done_at,
            case: ProtocolCase::UpgradeOwnership,
            exclusive: true,
            actions: CoherenceActions {
                invalidate: resp.invalidate,
                downgrade: resp.downgrade,
            },
            breakdown: self.txn_breakdown(done_at - req.now),
        }
    }

    fn writeback(&mut self, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let p = self.params;
        // Victim writebacks drain from MAGIC's outbound/victim queues in
        // spare cycles (demand misses are prioritized), so they charge
        // the network and the memory banks but do not occupy the PI or
        // the protocol processor ahead of the next demand miss.
        let mut t = req.now + p.pp(p.pp_writeback);
        if req.node != home {
            t = self.send(req.node, home, p.line_bytes + p.header_bytes, "net", t);
        }
        let done_at = self.mem_acquire(home, t);
        self.dirs[home as usize].writeback(req.line, req.node);
        self.record(
            ProtocolCase::WritebackCase,
            req.node,
            home,
            done_at,
            done_at - req.now,
        );
        MemOutcome {
            done_at,
            case: ProtocolCase::WritebackCase,
            exclusive: false,
            actions: CoherenceActions::none(),
            // Writebacks never stall the processor, so nothing is ever
            // charged from this decomposition.
            breakdown: LatencyBreakdown::default(),
        }
    }
}

impl MemorySystem for FlashLite {
    fn access(&mut self, req: MemRequest) -> MemOutcome {
        match req.kind {
            AccessKind::ReadShared => self.demand_read(req, false),
            AccessKind::ReadExclusive => self.demand_read(req, true),
            AccessKind::Upgrade => self.upgrade(req),
            AccessKind::Writeback => self.writeback(req),
        }
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        ((line.get() / self.node_mem_bytes) as u32).min(self.nodes - 1)
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        self.cases.stats_into(&mut s);
        let pp_busy: f64 = self.pp.iter().map(|r| r.busy_total().as_ns_f64()).sum();
        let pp_wait: f64 = self.pp.iter().map(|r| r.wait_total().as_ns_f64()).sum();
        s.set("magic.pp_busy_ns", pp_busy);
        s.set("magic.pp_wait_ns", pp_wait);
        // Retry-storm visibility: NACK bounces, retried sends, and the
        // total backoff charged to requesters.
        s.set("magic.nacks", self.nacks as f64);
        s.set("magic.retries", self.retries as f64);
        s.set("magic.nack_backoff_ns", self.nack_backoff.as_ns_f64());
        let mem_wait: f64 = self.mem.iter().map(|m| m.wait_total().as_ns_f64()).sum();
        s.set("mem.bank_wait_ns", mem_wait);
        // Directory pointer-storage pressure.
        let reclaims: u64 = self.dirs.iter().map(|d| d.reclaims()).sum();
        let pool_used: u32 = self.dirs.iter().map(|d| d.pool_used()).sum();
        s.set("proto.dir_reclaims", reclaims as f64);
        s.set("proto.dir_pool_used", f64::from(pool_used));
        s.absorb_flat(&self.net.stats());
        s
    }

    fn attach_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    fn attach(&mut self, obs: &Observers) {
        let telemetry = &obs.telemetry;
        // `magic.queue_ps` is the paper's omitted-queueing signature:
        // FlashLite registers it, the NUMA model does not.
        self.tel_queue = telemetry.register("magic.queue_ps", MetricKind::Occupancy);
        self.tel_pool = telemetry.register("proto.dir_pool_used", MetricKind::Gauge);
        self.tel_reclaims = telemetry.register("proto.dir_reclaims", MetricKind::Counter);
        self.tel_nacks = telemetry.register("magic.nacks", MetricKind::Counter);
        self.tel_retries = telemetry.register("magic.retries", MetricKind::Counter);
        self.tel_bank_wait = telemetry.register("mem.bank_wait_ps", MetricKind::Counter);
        // Per-home-node variants let hotspot studies see WHICH MAGIC is
        // saturated, not just that one is. The label cardinality is
        // bounded by the node count; machines past 64 nodes keep only
        // the aggregates.
        self.tel_queue_node.clear();
        self.tel_pool_node.clear();
        if telemetry.enabled() && self.nodes <= 64 {
            for n in 0..self.nodes {
                self.tel_queue_node.push(telemetry.register_node(
                    "magic.queue_ps",
                    n,
                    MetricKind::Occupancy,
                ));
                self.tel_pool_node.push(telemetry.register_node(
                    "proto.dir_pool_used",
                    n,
                    MetricKind::Gauge,
                ));
            }
        }
        self.net.attach(obs);
        self.obs = obs.clone();
    }

    fn model_name(&self) -> &'static str {
        "flashlite"
    }

    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.u64s("shape", &[u64::from(self.nodes), self.node_mem_bytes]);
        w.u64("nacks", self.nacks);
        w.u64("retries", self.retries);
        w.delta("nack_backoff", self.nack_backoff);
        // The per-transaction decomposition scratch (txn_occ/txn_net) is
        // reset at the start of every demand transaction, and checkpoints
        // only happen between transactions — nothing to save.
        self.cases.save_ckpt(w);
        for dir in &self.dirs {
            dir.save_ckpt(w);
        }
        self.net.save_ckpt(w);
        for r in &self.pp {
            r.save_ckpt(w);
        }
        for r in &self.pi {
            r.save_ckpt(w);
        }
        for m in &self.mem {
            m.save_ckpt(w);
        }
    }

    fn load_ckpt(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let shape = r.u64s("shape")?;
        if shape != [u64::from(self.nodes), self.node_mem_bytes] {
            return Err(CkptError::Parse {
                key: "shape".to_string(),
                value: format!("{shape:?}"),
            });
        }
        self.nacks = r.u64("nacks")?;
        self.retries = r.u64("retries")?;
        self.nack_backoff = r.delta("nack_backoff")?;
        self.cases.load_ckpt(r)?;
        for dir in self.dirs.iter_mut() {
            dir.load_ckpt(r)?;
        }
        self.net.load_ckpt(r)?;
        for res in self.pp.iter_mut() {
            res.load_ckpt(r)?;
        }
        for res in self.pi.iter_mut() {
            res.load_ckpt(r)?;
        }
        for m in self.mem.iter_mut() {
            m.load_ckpt(r)?;
        }
        Ok(())
    }

    fn min_shared_latency(&self) -> TimeDelta {
        // Every demand path charges miss detection, the requester MAGIC's
        // PI handler, and at least the local directory handler before any
        // reply can exist; occupancy waits only lengthen it.
        let p = &self.params;
        p.proc_miss_detect + p.pp(p.pp_pi_request + p.pp_dir_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fl(nodes: u32) -> FlashLite {
        FlashLite::new(nodes, 1 << 24, FlashLiteParams::hardware()).unwrap()
    }

    fn read(flm: &mut FlashLite, node: u32, line: u64, at_ns: u64) -> MemOutcome {
        flm.access(MemRequest {
            node,
            line: LineAddr(line),
            kind: AccessKind::ReadShared,
            now: Time::from_ns(at_ns),
        })
    }

    #[test]
    fn local_clean_read_latency_near_table3() {
        let mut m = fl(4);
        let out = read(&mut m, 0, 0x100, 0);
        assert_eq!(out.case, ProtocolCase::LocalClean);
        let ns = out.done_at.as_ns();
        assert!((450..750).contains(&ns), "local clean read took {ns}ns");
        assert!(out.exclusive);
    }

    #[test]
    fn remote_clean_costs_more_than_local() {
        let mut m = fl(4);
        let local = read(&mut m, 0, 0x100, 0).done_at;
        let mut m2 = fl(4);
        let remote = read(&mut m2, 1, 0x100, 0); // line homed at node 0
        assert_eq!(remote.case, ProtocolCase::RemoteClean);
        assert!(remote.done_at > local + TimeDelta::from_ns(300));
    }

    #[test]
    fn dirty_cases_classify_and_cost_most() {
        // Node 2 dirties a line homed at node 0; node 1 then reads it.
        let mut m = fl(4);
        m.access(MemRequest {
            node: 2,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = read(&mut m, 1, 0x100, 10_000);
        assert_eq!(out.case, ProtocolCase::RemoteDirtyRemote);
        assert_eq!(out.actions.downgrade, Some(2));
        let lat = out.done_at.as_ns() - 10_000;
        assert!(lat > 2_000, "dirty-remote read took only {lat}ns");
    }

    #[test]
    fn local_dirty_remote_case() {
        let mut m = fl(4);
        m.access(MemRequest {
            node: 3,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = read(&mut m, 0, 0x100, 10_000); // home reads its own line
        assert_eq!(out.case, ProtocolCase::LocalDirtyRemote);
    }

    #[test]
    fn remote_dirty_home_case() {
        let mut m = fl(4);
        m.access(MemRequest {
            node: 0,
            line: LineAddr(0x100), // home 0 dirties its own line
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = read(&mut m, 1, 0x100, 10_000);
        assert_eq!(out.case, ProtocolCase::RemoteDirtyHome);
    }

    #[test]
    fn table3_ordering_of_case_latencies() {
        // The paper's Table 3 ordering: LC < RC < LDR < RDH < RDR.
        let lat = |setup: &mut dyn FnMut(&mut FlashLite), node: u32, line: u64| {
            let mut m = fl(4);
            setup(&mut m);
            let out = read(&mut m, node, line, 100_000);
            out.done_at.as_ns() - 100_000
        };
        let lc = lat(&mut |_| {}, 0, 0x100);
        let rc = lat(&mut |_| {}, 1, 0x100);
        let ldr = lat(
            &mut |m| {
                m.access(MemRequest {
                    node: 1,
                    line: LineAddr(0x100),
                    kind: AccessKind::ReadExclusive,
                    now: Time::ZERO,
                });
            },
            0,
            0x100,
        );
        let rdh = lat(
            &mut |m| {
                m.access(MemRequest {
                    node: 0,
                    line: LineAddr(0x100),
                    kind: AccessKind::ReadExclusive,
                    now: Time::ZERO,
                });
            },
            1,
            0x100,
        );
        let rdr = lat(
            &mut |m| {
                m.access(MemRequest {
                    node: 2,
                    line: LineAddr(0x100),
                    kind: AccessKind::ReadExclusive,
                    now: Time::ZERO,
                });
            },
            1,
            0x100,
        );
        assert!(lc < rc, "LC {lc} !< RC {rc}");
        assert!(rc < ldr, "RC {rc} !< LDR {ldr}");
        assert!(ldr < rdh, "LDR {ldr} !< RDH {rdh}");
        assert!(rdh < rdr, "RDH {rdh} !< RDR {rdr}");
    }

    #[test]
    fn hotspot_queues_at_home_pp() {
        // Many nodes hammer lines homed at node 0 simultaneously: later
        // requests must queue on node 0's protocol processor.
        let mut m = fl(8);
        let mut latencies = Vec::new();
        for node in 1..8 {
            let out = m.access(MemRequest {
                node,
                line: LineAddr(0x1000 + u64::from(node) * 128),
                kind: AccessKind::ReadShared,
                now: Time::ZERO,
            });
            latencies.push(out.done_at.as_ns());
        }
        assert!(
            latencies.last().unwrap() > &(latencies[0] + 200),
            "no queueing visible: {latencies:?}"
        );
        assert!(m.stats().get_or_zero("magic.pp_wait_ns") > 0.0);
    }

    #[test]
    fn upgrade_invalidates_other_sharers() {
        let mut m = fl(4);
        read(&mut m, 1, 0x100, 0);
        read(&mut m, 2, 0x100, 5_000); // intervention: shared {1,2}
        let out = m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Upgrade,
            now: Time::from_ns(20_000),
        });
        assert_eq!(out.case, ProtocolCase::UpgradeOwnership);
        assert!(out.exclusive);
        assert!(out.actions.invalidate.contains(&2));
    }

    #[test]
    fn writeback_is_processed_and_line_becomes_clean() {
        let mut m = fl(4);
        m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Writeback,
            now: Time::from_ns(10_000),
        });
        assert_eq!(out.case, ProtocolCase::WritebackCase);
        // The next reader sees a clean line again.
        let next = read(&mut m, 2, 0x100, 50_000);
        assert_eq!(next.case, ProtocolCase::RemoteClean);
    }

    #[test]
    fn home_mapping_partitions_address_space() {
        let m = fl(4);
        assert_eq!(m.home_of(LineAddr(0)), 0);
        assert_eq!(m.home_of(LineAddr(1 << 24)), 1);
        assert_eq!(m.home_of(LineAddr(3 << 24)), 3);
        // Clamped at the top.
        assert_eq!(m.home_of(LineAddr(100 << 24)), 3);
    }

    #[test]
    fn stats_expose_case_means() {
        let mut m = fl(4);
        read(&mut m, 0, 0x100, 0);
        read(&mut m, 0, 0x40000, 5_000);
        let s = m.stats();
        assert_eq!(s.get_or_zero("proto.local_clean.count"), 2.0);
        assert!(s.get_or_zero("proto.local_clean.mean_ns") > 400.0);
        assert!(m.mean_latency_ns(ProtocolCase::RemoteClean).is_none());
    }

    #[test]
    fn untuned_local_read_is_faster_than_hardware() {
        let mut hw = fl(4);
        let mut un = FlashLite::new(4, 1 << 24, FlashLiteParams::untuned()).unwrap();
        let t_hw = read(&mut hw, 0, 0x100, 0).done_at;
        let t_un = read(&mut un, 0, 0x100, 0).done_at;
        assert!(t_un < t_hw, "untuned local path must be optimistic");
    }

    #[test]
    fn ckpt_roundtrip_preserves_protocol_and_occupancy_state() {
        let mut a = fl(4);
        // Build up directory state, PP timelines, and case ledgers.
        for node in 1..4 {
            a.access(MemRequest {
                node,
                line: LineAddr(0x100),
                kind: AccessKind::ReadShared,
                now: Time::from_ns(u64::from(node) * 100),
            });
        }
        a.access(MemRequest {
            node: 2,
            line: LineAddr(0x2000_0000),
            kind: AccessKind::ReadExclusive,
            now: Time::from_ns(1_000),
        });
        let mut w = CkptWriter::new("fl-test");
        a.save_ckpt(&mut w);
        let text = w.finish();

        let mut b = fl(4);
        let mut r = CkptReader::open(&text).expect("open");
        b.load_ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");

        assert_eq!(a.stats().to_json(), b.stats().to_json());
        // Identical future transactions, including queueing decisions.
        let next = MemRequest {
            node: 3,
            line: LineAddr(0x2000_0000),
            kind: AccessKind::ReadShared,
            now: Time::from_ns(2_000),
        };
        assert_eq!(a.access(next), b.access(next));
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        let mut other = fl(8);
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.load_ckpt(&mut r),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn single_node_machine_never_touches_network() {
        let mut m = fl(1);
        read(&mut m, 0, 0x100, 0);
        read(&mut m, 0, 0x4000, 5_000);
        assert_eq!(m.stats().get_or_zero("net.hops"), 0.0);
    }
}
