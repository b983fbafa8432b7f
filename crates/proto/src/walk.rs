//! The directory transaction walk: what one memory-system transaction
//! does, written once for every timing model.
//!
//! The paper's NUMA simulator "runs the same directory protocol" as
//! FlashLite and differs only in what it charges for each step (§2.2,
//! §3.3). Here that is literal: [`Walk`] owns the protocol state (one
//! [`Directory`] per home, the memory banks, the case ledger) and the
//! three transaction sequences, and asks a [`Timing`] how long each
//! handler step, message and admission takes. A model is its `Timing`
//! impl; the walk never asks which one it serves.
//!
//! A demand transaction is: request leg (miss detection, the requester's
//! controller, the trip to the home) → admission at the home → directory
//! handler → directory operation → invalidation round ‖ data path (home
//! memory, or the owner's intervention and its sharing writeback) → the
//! part of the round the data path did not hide → reply fill.
//!
//! The walk also keeps the requester's latency decomposition. Every
//! handler step and message it runs is added to the transaction's
//! occupancy or network sum and recorded as a span leg with the same
//! charge; work that overlaps the critical path runs inside
//! [`Walk::offpath`], which records it uncharged.

use flashsim_engine::ckpt::{Ckpt, CkptError};
use flashsim_engine::{
    MetricId, MetricKind, Observers, ResourcePool, SpanClass, StatSet, Telemetry, Time, TimeDelta,
};
use flashsim_mem::system::{
    AccessKind, CoherenceActions, LatencyBreakdown, MemOutcome, MemRequest, NodeId, ProtocolCase,
};
use flashsim_mem::LineAddr;

use crate::{classify_read, CaseLedger, DataSource, DirResponse, Directory};

/// A controller handler the walk runs at some node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Decode of the processor's request at the requester.
    Request,
    /// Outbound network send.
    Out,
    /// Directory lookup for the home's own processor.
    DirLocal,
    /// Directory lookup for a request that came over the network.
    DirRemote,
    /// Intervention or invalidation at a node holding the line.
    Intervention,
    /// The home's extra work when the line is dirty elsewhere.
    DirtyExtra,
    /// Inbound reply processing at the requester.
    Reply,
}

/// What a memory-system model charges for the walk's steps. Every method
/// takes the time its step may start and returns when it is over; a model
/// that does not model something returns the time it was given.
pub trait Timing {
    /// The span-leg name of `step`.
    fn leg(&self, step: Step) -> &'static str;

    /// Runs handler `step` at `node` from `t`.
    fn run(&mut self, step: Step, node: NodeId, t: Time) -> Time;

    /// Carries a header (with the line, when `data`) from `from` to `to`,
    /// two different nodes, leaving at `t`.
    fn send(&mut self, from: NodeId, to: NodeId, data: bool, t: Time) -> Time;

    /// `requester`'s request reaches the home's inbound queue at `t`;
    /// returns when the directory handler may be dispatched for it.
    fn admit(&mut self, walk: &mut Walk, requester: NodeId, home: NodeId, t: Time) -> Time;

    /// The last invalidation acknowledgement reaches the home at `t`;
    /// returns when the home has collected them.
    fn collect_acks(&mut self, walk: &mut Walk, home: NodeId, t: Time) -> Time;

    /// The owner's copy of a line it supplied goes back to the home's
    /// memory, leaving at `t`, behind the requester's back.
    fn sharing_writeback(&mut self, walk: &mut Walk, owner: NodeId, home: NodeId, t: Time);

    /// How long a victim writeback sits in its node's controller before
    /// it leaves for the home.
    fn victim_delay(&self) -> TimeDelta;
}

/// What every model agrees on: the directory's geometry, the memory
/// banks, and the processor-side delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Common {
    /// Directory pointer-pool capacity per home.
    pub dir_pool: u32,
    /// Coherence line size in bytes.
    pub line_bytes: u64,
    /// Interleaved memory banks per node.
    pub mem_banks: usize,
    /// DRAM access time.
    pub mem_access: TimeDelta,
    /// How long an access occupies its bank.
    pub mem_busy: TimeDelta,
    /// Processor miss detection and pin crossing.
    pub miss_detect: TimeDelta,
    /// The owning processor supplying a dirty line from its cache.
    pub proc_intervention: TimeDelta,
    /// Reply bus transfer and processor restart.
    pub reply_fill: TimeDelta,
}

/// The protocol state and transaction sequences shared by every model.
#[derive(Debug)]
pub struct Walk {
    common: Common,
    /// log2 of each node's memory: a line's home is a shift.
    node_shift: u32,
    dirs: Vec<Directory>,
    banks: Vec<ResourcePool>,
    cases: CaseLedger,
    obs: Observers,
    tel_pool: MetricId,
    tel_reclaims: MetricId,
    tel_bank_wait: MetricId,
    /// Per-home variants of `proto.dir_pool_used`, one id per node,
    /// registered up front (see [`Walk::labels_nodes`]).
    tel_pool_node: Vec<MetricId>,
    // The current transaction's critical-path sums, reset when a demand
    // transaction starts. Checkpoints are taken between transactions, so
    // they are never saved.
    occ: TimeDelta,
    net: TimeDelta,
}

impl Walk {
    /// A walk over `nodes` homes of `node_mem_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `node_mem_bytes` is not a power of two.
    pub fn new(nodes: u32, node_mem_bytes: u64, common: Common) -> Walk {
        assert!(
            node_mem_bytes.is_power_of_two(),
            "node memory must be a power of two"
        );
        let dir = |n| Directory::for_home(common.dir_pool, n, node_mem_bytes, common.line_bytes);
        Walk {
            common,
            node_shift: node_mem_bytes.trailing_zeros(),
            dirs: (0..nodes).map(dir).collect(),
            banks: (0..nodes)
                .map(|_| ResourcePool::new("mem-banks", common.mem_banks))
                .collect(),
            cases: CaseLedger::default(),
            obs: Observers::disabled(),
            tel_pool: MetricId::NONE,
            tel_reclaims: MetricId::NONE,
            tel_bank_wait: MetricId::NONE,
            tel_pool_node: Vec::new(),
            occ: TimeDelta::ZERO,
            net: TimeDelta::ZERO,
        }
    }

    /// The home node of `line` (by physical address range).
    // `#[inline]` here and below is load-bearing: the generic sequences are
    // compiled in the model crates, and without it their non-generic
    // helpers are calls across the crate boundary (~8 per transaction).
    #[inline]
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        ((line.get() >> self.node_shift) as u32).min(self.dirs.len() as u32 - 1)
    }

    /// The directories, indexed by home node.
    pub fn dirs(&self) -> &[Directory] {
        &self.dirs
    }

    /// The observers attached to the walk.
    pub fn obs(&self) -> &Observers {
        &self.obs
    }

    /// Whether per-node series go beside the aggregates on `telemetry`:
    /// the label set is bounded by the node count, and machines past 64
    /// nodes keep only the aggregates.
    pub fn labels_nodes(&self, telemetry: &Telemetry) -> bool {
        telemetry.enabled() && self.dirs.len() <= 64
    }

    /// Stores the bundle and registers `proto.dir_pool_used` (and its
    /// per-home variants), `proto.dir_reclaims` and `mem.bank_wait_ps`.
    pub fn attach(&mut self, obs: &Observers) {
        self.obs = obs.clone();
        let telemetry = &self.obs.telemetry;
        self.tel_pool = telemetry.register("proto.dir_pool_used", MetricKind::Gauge);
        self.tel_reclaims = telemetry.register("proto.dir_reclaims", MetricKind::Counter);
        self.tel_bank_wait = telemetry.register("mem.bank_wait_ps", MetricKind::Counter);
        self.tel_pool_node = if self.labels_nodes(telemetry) {
            let label = |n| telemetry.register_node("proto.dir_pool_used", n, MetricKind::Gauge);
            (0..self.dirs.len() as u32).map(label).collect()
        } else {
            Vec::new()
        };
    }

    /// Sets the per-case counts and means and `mem.bank_wait_ns`.
    pub fn stats_into(&self, s: &mut StatSet) {
        self.cases.stats_into(s);
        let bank_wait: f64 = self.banks.iter().map(|m| m.wait_total().as_ns_f64()).sum();
        s.set("mem.bank_wait_ns", bank_wait);
    }

    /// Walks the machine shape, case ledger, directories and bank
    /// timelines; a restore fails closed on a walk of another shape.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.interlock("shape", &[self.dirs.len() as u64, 1 << self.node_shift])?;
        self.cases.ckpt(c)?;
        let nodes = self.dirs.len() as NodeId;
        for dir in &mut self.dirs {
            dir.ckpt(c)?;
            if c.loading() {
                dir.check_nodes(nodes)?;
            }
        }
        for bank in &mut self.banks {
            bank.ckpt(c)?;
        }
        Ok(())
    }

    /// Charges `[t, done]` at `node` to the transaction as occupancy. The
    /// span charge equals the sum's, so per-class span totals reconcile
    /// with the transaction's [`LatencyBreakdown`] to the picosecond.
    #[inline]
    pub fn charge(&mut self, kind: &'static str, node: NodeId, t: Time, done: Time) -> Time {
        self.occ += done - t;
        self.obs
            .spans
            .leg(kind, node, t, done, Some(SpanClass::Occupancy), done - t);
        done
    }

    /// Runs handler `step` at `node` from `t` and charges it.
    pub fn step<T: Timing>(&mut self, tm: &mut T, step: Step, node: NodeId, t: Time) -> Time {
        let done = tm.run(step, node, t);
        self.charge(tm.leg(step), node, t, done)
    }

    /// Sends a message under the span name `kind` and charges its transit
    /// (whatever a model nests inside the leg — hops, retransmits — is
    /// time the message spends in the network).
    pub fn send_as<T: Timing>(
        &mut self,
        tm: &mut T,
        kind: &'static str,
        from: NodeId,
        to: NodeId,
        data: bool,
        t: Time,
    ) -> Time {
        self.obs.spans.begin(kind, from, t);
        let arrival = tm.send(from, to, data, t);
        self.obs
            .spans
            .end(arrival, Some(SpanClass::Network), arrival - t);
        self.net += arrival - t;
        arrival
    }

    /// `from`'s outbound handler, then the message to `to`.
    pub fn post<T: Timing>(
        &mut self,
        tm: &mut T,
        from: NodeId,
        to: NodeId,
        data: bool,
        t: Time,
    ) -> Time {
        let t = self.step(tm, Step::Out, from, t);
        self.send_as(tm, "net", from, to, data, t)
    }

    /// One access to `node`'s memory banks. Bank wait and access are the
    /// part of the data path the breakdown's `memory` remainder covers.
    #[inline]
    pub fn mem_acquire(&mut self, node: NodeId, t: Time) -> Time {
        let grant = self.banks[node as usize].acquire(t, self.common.mem_busy);
        self.obs
            .telemetry
            .count(self.tel_bank_wait, grant.start, grant.wait.as_ps());
        let done = grant.start + self.common.mem_access;
        self.obs
            .spans
            .leg("mem_bank", node, t, done, Some(SpanClass::Memory), done - t);
        done
    }

    /// Runs `body` as a subtree that overlaps the requester's critical
    /// path: its legs are recorded uncharged and the transaction's sums
    /// are restored after it. The subtree's own span carries its whole
    /// duration under `class`, if one is given.
    pub fn offpath<T: Timing>(
        &mut self,
        tm: &mut T,
        kind: &'static str,
        node: NodeId,
        t: Time,
        class: Option<SpanClass>,
        body: impl FnOnce(&mut Walk, &mut T) -> Time,
    ) -> Time {
        let saved = (self.occ, self.net);
        self.obs.spans.begin_offpath(kind, node, t);
        let done = body(self, tm);
        let charge = class.map_or(TimeDelta::ZERO, |_| done - t);
        self.obs.spans.end(done, class, charge);
        (self.occ, self.net) = saved;
        done
    }

    /// A fixed processor- or DRAM-side delay: a `memory`-class leg.
    #[inline]
    fn delay(&self, kind: &'static str, node: NodeId, t: Time, d: TimeDelta) -> Time {
        self.obs
            .spans
            .leg(kind, node, t, t + d, Some(SpanClass::Memory), d);
        t + d
    }

    /// The request leg: from the processor's miss to the end of the home's
    /// directory handler.
    fn reach_directory<T: Timing>(&mut self, tm: &mut T, req: &MemRequest, home: NodeId) -> Time {
        self.occ = TimeDelta::ZERO;
        self.net = TimeDelta::ZERO;
        let mut t = self.delay("miss_detect", req.node, req.now, self.common.miss_detect);
        t = self.step(tm, Step::Request, req.node, t);
        let lookup = if req.node == home {
            Step::DirLocal
        } else {
            t = self.post(tm, req.node, home, false, t);
            Step::DirRemote
        };
        t = tm.admit(self, req.node, home, t);
        self.step(tm, lookup, home, t)
    }

    /// One directory operation at `home`, with the pointer-pool telemetry
    /// around it.
    fn directory(
        &mut self,
        home: NodeId,
        t: Time,
        op: impl FnOnce(&mut Directory) -> DirResponse,
    ) -> DirResponse {
        let dir = &mut self.dirs[home as usize];
        let reclaims_before = dir.reclaims();
        let resp = op(dir);
        let pool = dir.occupancy_sample();
        let telemetry = &self.obs.telemetry;
        telemetry.gauge(self.tel_pool, t, u64::from(pool.used));
        if let Some(&id) = self.tel_pool_node.get(home as usize) {
            telemetry.gauge(id, t, u64::from(pool.used));
        }
        telemetry.count(self.tel_reclaims, t, pool.reclaims - reclaims_before);
        resp
    }

    /// The home invalidates `victims` from `t` and collects their
    /// acknowledgements; returns when the last one is in. The legs run in
    /// parallel, so they are off the path; `class` says whether the round
    /// as a whole is charged.
    fn inval_round<T: Timing>(
        &mut self,
        tm: &mut T,
        home: NodeId,
        victims: impl Iterator<Item = NodeId>,
        t: Time,
        class: Option<SpanClass>,
    ) -> Time {
        self.offpath(tm, "inval_round", home, t, class, |w, tm| {
            let mut done = t;
            let mut any = false;
            for v in victims {
                any = true;
                let mut tv = w.step(tm, Step::Out, home, t);
                if v != home {
                    tv = w.send_as(tm, "net", home, v, false, tv);
                }
                tv = w.step(tm, Step::Intervention, v, tv);
                if v != home {
                    tv = w.send_as(tm, "net", v, home, false, tv);
                }
                done = done.max(tv);
            }
            if any {
                tm.collect_acks(w, home, done)
            } else {
                done
            }
        })
    }

    /// Closes a demand transaction at `t`: reply fill, the ledger, and
    /// the breakdown of the requester's latency. The sums are clamped so
    /// they never exceed the total; whatever is left — memory-bank time,
    /// fixed delays, un-itemized overlap — is `memory`.
    #[inline]
    fn finish(
        &mut self,
        req: &MemRequest,
        case: ProtocolCase,
        t: Time,
        resp: DirResponse,
    ) -> MemOutcome {
        let done_at = self.delay("reply_fill", req.node, t, self.common.reply_fill);
        let total = done_at - req.now;
        self.cases.record(case, total);
        let occupancy = self.occ.min(total);
        let network = self.net.min(total.saturating_sub(occupancy));
        MemOutcome {
            done_at,
            case,
            exclusive: resp.exclusive,
            actions: CoherenceActions {
                invalidate: resp.invalidate,
                downgrade: resp.downgrade,
            },
            breakdown: LatencyBreakdown {
                occupancy,
                network,
                memory: total.saturating_sub(occupancy + network),
            },
        }
    }

    fn read<T: Timing>(&mut self, tm: &mut T, req: MemRequest, exclusive: bool) -> MemOutcome {
        let home = self.home_of(req.line);
        let t = self.reach_directory(tm, &req, home);
        let resp = self.directory(home, t, |dir| {
            if exclusive {
                dir.read_exclusive(req.line, req.node)
            } else {
                dir.read(req.line, req.node)
            }
        });
        let case = classify_read(req.node, home, resp.source);

        // Invalidations (a read-exclusive of a shared line, or a pointer
        // reclaim) run alongside the data fetch. The owner that supplies
        // the data is not in the round: its intervention is the data path.
        let owner = resp.source.owner();
        let victims = resp
            .invalidate
            .iter()
            .copied()
            .filter(|&v| Some(v) != owner);
        let acked = if resp.invalidate.iter().all(|&v| Some(v) == owner) {
            t
        } else {
            self.inval_round(tm, home, victims, t, None)
        };

        let data = match resp.source {
            DataSource::Memory => {
                let ready = self.mem_acquire(home, t);
                if req.node == home {
                    ready
                } else {
                    let arrived = self.post(tm, home, req.node, true, ready);
                    self.step(tm, Step::Reply, req.node, arrived)
                }
            }
            DataSource::Owner(owner) => {
                let mut dt = self.step(tm, Step::DirtyExtra, home, t);
                if owner != home {
                    dt = self.post(tm, home, owner, false, dt);
                }
                // The intervention handler runs at the owner's controller
                // even when the owner is the home itself; the owning
                // processor then supplies the line from its cache.
                dt = self.step(tm, Step::Intervention, owner, dt);
                dt = self.delay(
                    "proc_intervention",
                    owner,
                    dt,
                    self.common.proc_intervention,
                );
                if owner != req.node {
                    dt = self.post(tm, owner, req.node, true, dt);
                    dt = self.step(tm, Step::Reply, req.node, dt);
                }
                if owner != home {
                    tm.sharing_writeback(self, owner, home, dt);
                }
                dt
            }
        };

        // Invalidation time the data path did not hide is exposed
        // protocol work at the home.
        if acked > data {
            self.charge("exposed_inval", home, data, acked);
        }
        self.finish(&req, case, data.max(acked), resp)
    }

    fn upgrade<T: Timing>(&mut self, tm: &mut T, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let t = self.reach_directory(tm, &req, home);
        let resp = self.directory(home, t, |dir| dir.upgrade(req.line, req.node));
        // The invalidation round IS an upgrade's critical path: its whole
        // duration is charged as occupancy (charging each of the parallel
        // legs would over-count).
        let occupancy = Some(SpanClass::Occupancy);
        let mut acked = self.inval_round(tm, home, resp.invalidate.iter().copied(), t, occupancy);
        self.occ += acked - t;
        if req.node != home {
            acked = self.post(tm, home, req.node, false, acked);
            acked = self.step(tm, Step::Reply, req.node, acked);
        }
        self.finish(&req, ProtocolCase::UpgradeOwnership, acked, resp)
    }

    fn writeback<T: Timing>(&mut self, tm: &mut T, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let mut t = req.now + tm.victim_delay();
        if req.node != home {
            t = self.send_as(tm, "net", req.node, home, true, t);
        }
        let done_at = self.mem_acquire(home, t);
        self.dirs[home as usize].writeback(req.line, req.node);
        self.cases
            .record(ProtocolCase::WritebackCase, done_at - req.now);
        MemOutcome {
            done_at,
            case: ProtocolCase::WritebackCase,
            exclusive: false,
            actions: CoherenceActions::none(),
            // Writebacks never stall the processor: nothing is ever
            // charged from this decomposition.
            breakdown: LatencyBreakdown::default(),
        }
    }

    /// Executes one transaction against `tm`'s timing.
    pub fn access<T: Timing>(&mut self, tm: &mut T, req: MemRequest) -> MemOutcome {
        match req.kind {
            AccessKind::ReadShared => self.read(tm, req, false),
            AccessKind::ReadExclusive => self.read(tm, req, true),
            AccessKind::Upgrade => self.upgrade(tm, req),
            AccessKind::Writeback => self.writeback(tm, req),
        }
    }
}
