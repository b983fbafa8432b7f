//! `flashsim-numa` — the generic NUMA memory-system model.
//!
//! The paper (§2.2, §3.3): "the NUMA simulator models the memory system of
//! a generic NUMA machine. It simulates network latencies, contention for
//! main memory, and the latency through the directory controller ...
//! However, it does not model occupancy of the directory controller beyond
//! the normal latency path, nor does it model contention in the network or
//! the routers." It is "the type of memory system simulator we might have
//! used had we never designed and built real hardware."
//!
//! Concretely, relative to FlashLite this model:
//!
//! - runs the **same directory protocol** (state transitions are identical),
//! - charges **pure latency** for every controller handler and network hop
//!   (no occupancy timelines → a hotspot home node never queues),
//! - *does* model **memory-bank contention** (an occupancy pool), per the
//!   paper's wording.
//!
//! Its latency constants are "set to match hardware latencies, known well
//! in advance of building the hardware" — i.e. [`NumaParams::matched`]
//! duplicates the gold standard's zero-load decomposition.
//!
//! # Examples
//!
//! ```
//! use flashsim_numa::{Numa, NumaParams};
//! use flashsim_mem::{AccessKind, LineAddr, MemRequest, MemorySystem};
//! use flashsim_engine::Time;
//!
//! let mut numa = Numa::new(4, 1 << 24, NumaParams::matched());
//! let a = numa.access(MemRequest { node: 1, line: LineAddr(0x100),
//!                                  kind: AccessKind::ReadShared, now: Time::ZERO });
//! let b = numa.access(MemRequest { node: 2, line: LineAddr(0x180),
//!                                  kind: AccessKind::ReadShared, now: Time::ZERO });
//! // No controller occupancy: same-time requests to one home don't queue
//! // (beyond the memory banks).
//! assert!(b.done_at <= a.done_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flashsim_engine::ckpt::{CkptError, CkptReader, CkptWriter};
use flashsim_engine::{
    MetricId, MetricKind, Observers, ResourcePool, SpanClass, StatSet, Time, TimeDelta,
    TraceCategory,
};
use flashsim_mem::system::{
    AccessKind, CoherenceActions, LatencyBreakdown, MemOutcome, MemRequest, MemorySystem, NodeId,
    ProtocolCase,
};
use flashsim_mem::LineAddr;
use flashsim_proto::{classify_read, CaseLedger, DataSource, Directory, LINE_BYTES};

/// Latency constants for the NUMA model.
///
/// Field meanings mirror the FlashLite decomposition, but here they are
/// *pure delays*: nothing occupies a controller, so back-to-back requests
/// to the same home overlap freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaParams {
    /// Processor miss detection + pins.
    pub miss_detect: TimeDelta,
    /// Controller request-decode latency.
    pub ctrl_request: TimeDelta,
    /// Directory lookup latency, local requester.
    pub dir_local: TimeDelta,
    /// Directory lookup latency, network requester.
    pub dir_remote: TimeDelta,
    /// Controller network-send latency.
    pub ctrl_out: TimeDelta,
    /// Controller network-receive latency.
    pub ctrl_reply: TimeDelta,
    /// Intervention-processing latency at an owner.
    pub ctrl_intervention: TimeDelta,
    /// Extra dirty-path latency at the home.
    pub dirty_extra: TimeDelta,
    /// Owner's processor supplying a dirty line from its cache.
    pub proc_intervention: TimeDelta,
    /// DRAM access time.
    pub mem_access: TimeDelta,
    /// DRAM bank occupancy (memory contention IS modelled).
    pub mem_busy: TimeDelta,
    /// Banks per node.
    pub mem_banks: usize,
    /// Reply bus + restart.
    pub reply_fill: TimeDelta,
    /// Per-hop network latency (no link occupancy).
    pub hop_latency: TimeDelta,
    /// Approximate serialization of a data message (added once per
    /// network traversal, not per link — no store-and-forward queueing).
    pub data_transfer: TimeDelta,
    /// Directory pointer-pool capacity per node.
    pub dir_pool: u32,
}

impl NumaParams {
    /// Constants matched to the gold-standard zero-load latencies
    /// ("known well in advance of building the hardware").
    pub fn matched() -> NumaParams {
        NumaParams {
            miss_detect: TimeDelta::from_ns(100),
            ctrl_request: TimeDelta::from_ns(107),
            dir_local: TimeDelta::from_ns(133),
            dir_remote: TimeDelta::from_ns(213),
            ctrl_out: TimeDelta::from_ns(133),
            ctrl_reply: TimeDelta::from_ns(213),
            ctrl_intervention: TimeDelta::from_ns(213),
            dirty_extra: TimeDelta::from_ns(267),
            proc_intervention: TimeDelta::from_ns(750),
            mem_access: TimeDelta::from_ns(140),
            mem_busy: TimeDelta::from_ns(120),
            mem_banks: 4,
            reply_fill: TimeDelta::from_ns(110),
            hop_latency: TimeDelta::from_ns(50),
            data_transfer: TimeDelta::from_ns(160),
            dir_pool: 1 << 16,
        }
    }
}

/// The generic latency-only NUMA memory system.
#[derive(Debug)]
pub struct Numa {
    params: NumaParams,
    node_mem_bytes: u64,
    nodes: u32,
    dirs: Vec<Directory>,
    mem: Vec<ResourcePool>,
    cases: CaseLedger,
    obs: Observers,
    tel_pool: MetricId,
    tel_reclaims: MetricId,
    tel_bank_wait: MetricId,
    tel_pool_node: Vec<MetricId>,
}

impl Numa {
    /// Creates a NUMA model over `nodes` nodes of `node_mem_bytes` each.
    /// Any positive node count is accepted (no hypercube restriction —
    /// hop distance still uses the hypercube metric for comparability).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u32, node_mem_bytes: u64, params: NumaParams) -> Numa {
        assert!(nodes > 0, "need at least one node");
        Numa {
            params,
            node_mem_bytes,
            nodes,
            dirs: (0..nodes)
                .map(|n| Directory::for_home(params.dir_pool, n, node_mem_bytes, LINE_BYTES))
                .collect(),
            mem: (0..nodes)
                .map(|_| ResourcePool::new("mem-banks", params.mem_banks))
                .collect(),
            cases: CaseLedger::default(),
            obs: Observers::disabled(),
            tel_pool: MetricId::NONE,
            tel_reclaims: MetricId::NONE,
            tel_bank_wait: MetricId::NONE,
            tel_pool_node: Vec::new(),
        }
    }

    /// Current parameters.
    pub fn params(&self) -> &NumaParams {
        &self.params
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        (a ^ b).count_ones()
    }

    fn net(&self, a: NodeId, b: NodeId, data: bool) -> TimeDelta {
        if a == b {
            return TimeDelta::ZERO;
        }
        let base = self.params.hop_latency * u64::from(self.hops(a, b));
        if data {
            base + self.params.data_transfer
        } else {
            base
        }
    }

    fn mem_acquire(&mut self, node: NodeId, t: Time) -> Time {
        let grant = self.mem[node as usize].acquire(t, self.params.mem_busy);
        self.obs
            .telemetry
            .count(self.tel_bank_wait, grant.start, grant.wait.as_ps());
        let done = grant.start + self.params.mem_access;
        self.obs
            .spans
            .leg("mem_bank", node, t, done, Some(SpanClass::Memory), done - t);
        done
    }

    /// Span-only helper: a pure-latency leg covering `[t, t + d]`.
    fn span_leg(
        &mut self,
        kind: &'static str,
        node: NodeId,
        t: Time,
        d: TimeDelta,
        class: SpanClass,
    ) -> Time {
        let end = t + d;
        self.obs.spans.leg(kind, node, t, end, Some(class), d);
        end
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

    /// Mean demand latency observed for `case`, if any occurred.
    pub fn mean_latency_ns(&self, case: ProtocolCase) -> Option<f64> {
        self.cases.mean_latency_ns(case)
    }

    fn demand_read(&mut self, req: MemRequest, exclusive_intent: bool) -> MemOutcome {
        let home = self.home_of(req.line);
        let requester = req.node;
        let p = self.params;

        // Latency decomposition for cycle accounting: controller/directory
        // handler delays are occupancy (the same work FlashLite queues on;
        // here it never queues, which is exactly the difference the
        // attribution differ should expose), `net` legs are network, and
        // miss detection / DRAM / reply fill land in the memory remainder.
        let mut occ = p.ctrl_request;
        let mut net_d = TimeDelta::ZERO;

        let mut t = self.span_leg(
            "miss_detect",
            requester,
            req.now,
            p.miss_detect,
            SpanClass::Memory,
        );
        t = self.span_leg(
            "ctrl_request",
            requester,
            t,
            p.ctrl_request,
            SpanClass::Occupancy,
        );
        if requester != home {
            let leg = self.net(requester, home, false);
            t = self.span_leg("ctrl_out", requester, t, p.ctrl_out, SpanClass::Occupancy);
            t = self.span_leg("net", requester, t, leg, SpanClass::Network);
            t = self.span_leg("dir_lookup", home, t, p.dir_remote, SpanClass::Occupancy);
            occ += p.ctrl_out + p.dir_remote;
            net_d += leg;
        } else {
            t = self.span_leg("dir_lookup", home, t, p.dir_local, SpanClass::Occupancy);
            occ += p.dir_local;
        }

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

        // Invalidation round trips, pure latency.
        let mut ack_done = t;
        if !resp.invalidate.is_empty() {
            self.obs.spans.begin_offpath("inval_round", home, t);
            for &v in &resp.invalidate {
                let mut tv = self.span_leg("ctrl_out", home, t, p.ctrl_out, SpanClass::Occupancy);
                tv = self.span_leg(
                    "net",
                    home,
                    tv,
                    self.net(home, v, false),
                    SpanClass::Network,
                );
                tv = self.span_leg(
                    "ctrl_intervention",
                    v,
                    tv,
                    p.ctrl_intervention,
                    SpanClass::Occupancy,
                );
                tv = self.span_leg("net", v, tv, self.net(v, home, false), SpanClass::Network);
                ack_done = ack_done.max(tv);
            }
            self.obs.spans.end(ack_done, None, TimeDelta::ZERO);
        }

        let mut data_t = match resp.source {
            DataSource::Memory => {
                let ready = self.mem_acquire(home, t);
                if requester != home {
                    let leg = self.net(home, requester, true);
                    occ += p.ctrl_out + p.ctrl_reply;
                    net_d += leg;
                    let co =
                        self.span_leg("ctrl_out", home, ready, p.ctrl_out, SpanClass::Occupancy);
                    let nt = self.span_leg("net", home, co, leg, SpanClass::Network);
                    self.span_leg(
                        "ctrl_reply",
                        requester,
                        nt,
                        p.ctrl_reply,
                        SpanClass::Occupancy,
                    )
                } else {
                    ready
                }
            }
            DataSource::Owner(owner) => {
                let mut dt =
                    self.span_leg("dirty_extra", home, t, p.dirty_extra, SpanClass::Occupancy);
                occ += p.dirty_extra;
                if owner != home {
                    let leg = self.net(home, owner, false);
                    dt = self.span_leg("ctrl_out", home, dt, p.ctrl_out, SpanClass::Occupancy);
                    dt = self.span_leg("net", home, dt, leg, SpanClass::Network);
                    occ += p.ctrl_out;
                    net_d += leg;
                }
                dt = self.span_leg(
                    "ctrl_intervention",
                    owner,
                    dt,
                    p.ctrl_intervention,
                    SpanClass::Occupancy,
                );
                dt = self.span_leg(
                    "proc_intervention",
                    owner,
                    dt,
                    p.proc_intervention,
                    SpanClass::Memory,
                );
                occ += p.ctrl_intervention;
                if owner != requester {
                    let leg = self.net(owner, requester, true);
                    dt = self.span_leg("ctrl_out", owner, dt, p.ctrl_out, SpanClass::Occupancy);
                    dt = self.span_leg("net", owner, dt, leg, SpanClass::Network);
                    dt = self.span_leg(
                        "ctrl_reply",
                        requester,
                        dt,
                        p.ctrl_reply,
                        SpanClass::Occupancy,
                    );
                    occ += p.ctrl_out + p.ctrl_reply;
                    net_d += leg;
                }
                dt
            }
        };

        // Invalidation time the data path did not hide is exposed
        // directory work: occupancy.
        if ack_done > data_t {
            occ += ack_done - data_t;
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
        let done_at = self.span_leg(
            "reply_fill",
            requester,
            data_t,
            p.reply_fill,
            SpanClass::Memory,
        );
        self.record(case, requester, home, done_at, done_at - req.now);
        let total = done_at - req.now;
        let occupancy = occ.min(total);
        let network = net_d.min(total.saturating_sub(occupancy));
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

    fn upgrade(&mut self, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let requester = req.node;
        let p = self.params;
        let mut occ = p.ctrl_request;
        let mut net_d = TimeDelta::ZERO;
        let mut t = self.span_leg(
            "miss_detect",
            requester,
            req.now,
            p.miss_detect,
            SpanClass::Memory,
        );
        t = self.span_leg(
            "ctrl_request",
            requester,
            t,
            p.ctrl_request,
            SpanClass::Occupancy,
        );
        if requester != home {
            let leg = self.net(requester, home, false);
            t = self.span_leg("ctrl_out", requester, t, p.ctrl_out, SpanClass::Occupancy);
            t = self.span_leg("net", requester, t, leg, SpanClass::Network);
            t = self.span_leg("dir_lookup", home, t, p.dir_remote, SpanClass::Occupancy);
            occ += p.ctrl_out + p.dir_remote;
            net_d += leg;
        } else {
            t = self.span_leg("dir_lookup", home, t, p.dir_local, SpanClass::Occupancy);
            occ += p.dir_local;
        }
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
        let mut ack_done = t;
        self.obs.spans.begin_offpath("inval_round", home, t);
        for &v in &resp.invalidate {
            let mut tv = self.span_leg("ctrl_out", home, t, p.ctrl_out, SpanClass::Occupancy);
            tv = self.span_leg(
                "net",
                home,
                tv,
                self.net(home, v, false),
                SpanClass::Network,
            );
            tv = self.span_leg(
                "ctrl_intervention",
                v,
                tv,
                p.ctrl_intervention,
                SpanClass::Occupancy,
            );
            tv = self.span_leg("net", v, tv, self.net(v, home, false), SpanClass::Network);
            ack_done = ack_done.max(tv);
        }
        // The invalidation round is the upgrade's critical path: charged
        // wholesale as directory occupancy (legs run in parallel, so
        // per-leg itemization would over-count). The round's span carries
        // the wholesale charge; its legs are zero-charged.
        self.obs
            .spans
            .end(ack_done, Some(SpanClass::Occupancy), ack_done - t);
        occ += ack_done - t;
        let mut t = ack_done;
        if requester != home {
            let leg = self.net(home, requester, false);
            t = self.span_leg("ctrl_out", home, t, p.ctrl_out, SpanClass::Occupancy);
            t = self.span_leg("net", home, t, leg, SpanClass::Network);
            t = self.span_leg(
                "ctrl_reply",
                requester,
                t,
                p.ctrl_reply,
                SpanClass::Occupancy,
            );
            occ += p.ctrl_out + p.ctrl_reply;
            net_d += leg;
        }
        let done_at = self.span_leg("reply_fill", requester, t, p.reply_fill, SpanClass::Memory);
        self.record(
            ProtocolCase::UpgradeOwnership,
            requester,
            home,
            done_at,
            done_at - req.now,
        );
        let total = done_at - req.now;
        let occupancy = occ.min(total);
        let network = net_d.min(total.saturating_sub(occupancy));
        MemOutcome {
            done_at,
            case: ProtocolCase::UpgradeOwnership,
            exclusive: true,
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

    fn writeback(&mut self, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let p = self.params;
        let t = req.now + p.ctrl_request + self.net(req.node, home, true);
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
            // Writebacks never stall the processor; nothing is charged.
            breakdown: LatencyBreakdown::default(),
        }
    }
}

impl MemorySystem for Numa {
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
        let mem_wait: f64 = self.mem.iter().map(|m| m.wait_total().as_ns_f64()).sum();
        s.set("mem.bank_wait_ns", mem_wait);
        s
    }

    fn attach(&mut self, obs: &Observers) {
        let telemetry = &obs.telemetry;
        // Deliberately NO `magic.queue_ps` registration: this model has
        // no controller inbound queue to measure. Its absence from the
        // telemetry series is the paper's omitted-queueing signature
        // (asserted by `tests/telemetry_hotspot.rs`).
        self.tel_pool = telemetry.register("proto.dir_pool_used", MetricKind::Gauge);
        self.tel_reclaims = telemetry.register("proto.dir_reclaims", MetricKind::Counter);
        self.tel_bank_wait = telemetry.register("mem.bank_wait_ps", MetricKind::Counter);
        // Per-home-node pool variants (bounded cardinality, as FlashLite).
        self.tel_pool_node.clear();
        if telemetry.enabled() && self.nodes <= 64 {
            for n in 0..self.nodes {
                self.tel_pool_node.push(telemetry.register_node(
                    "proto.dir_pool_used",
                    n,
                    MetricKind::Gauge,
                ));
            }
        }
        self.obs = obs.clone();
    }

    fn model_name(&self) -> &'static str {
        "numa"
    }

    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.u64s("shape", &[u64::from(self.nodes), self.node_mem_bytes]);
        self.cases.save_ckpt(w);
        for dir in &self.dirs {
            dir.save_ckpt(w);
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
        self.cases.load_ckpt(r)?;
        for dir in self.dirs.iter_mut() {
            dir.load_ckpt(r)?;
        }
        for m in self.mem.iter_mut() {
            m.load_ckpt(r)?;
        }
        Ok(())
    }

    fn min_shared_latency(&self) -> TimeDelta {
        // Cheapest demand transaction: miss detection + controller decode
        // + local directory lookup, all unconditionally on the path.
        let p = &self.params;
        p.miss_detect + p.ctrl_request + p.dir_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numa(nodes: u32) -> Numa {
        Numa::new(nodes, 1 << 24, NumaParams::matched())
    }

    fn read(m: &mut Numa, node: u32, line: u64, at_ns: u64) -> MemOutcome {
        m.access(MemRequest {
            node,
            line: LineAddr(line),
            kind: AccessKind::ReadShared,
            now: Time::from_ns(at_ns),
        })
    }

    #[test]
    fn local_clean_latency_close_to_flashlite_zero_load() {
        let mut m = numa(4);
        let out = read(&mut m, 0, 0x100, 0);
        assert_eq!(out.case, ProtocolCase::LocalClean);
        let ns = out.done_at.as_ns();
        assert!((450..750).contains(&ns), "local clean read took {ns}ns");
    }

    #[test]
    fn case_latency_ordering_matches_protocol() {
        let mut m = numa(4);
        let lc = read(&mut m, 0, 0x100, 0).done_at.as_ns();
        let mut m = numa(4);
        let rc = read(&mut m, 1, 0x100, 0).done_at.as_ns();
        let mut m = numa(4);
        m.access(MemRequest {
            node: 2,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let rdr = read(&mut m, 1, 0x100, 100_000).done_at.as_ns() - 100_000;
        assert!(lc < rc && rc < rdr, "lc={lc} rc={rc} rdr={rdr}");
    }

    #[test]
    fn no_controller_queueing_under_hotspot() {
        // The defining NUMA omission: simultaneous requests to one home,
        // different lines, distinct banks — all complete at the same time.
        let mut m = numa(8);
        let mut latencies = Vec::new();
        for node in [1u32, 2, 4] {
            // All three nodes are one hop from home 0 in the hypercube.
            // Lines map to banks round-robin inside ResourcePool; with 4
            // banks and 3 requests nothing queues.
            let out = m.access(MemRequest {
                node,
                line: LineAddr(0x1000 + u64::from(node) * 128),
                kind: AccessKind::ReadShared,
                now: Time::ZERO,
            });
            latencies.push(out.done_at.as_ns());
        }
        assert_eq!(latencies[0], latencies[1]);
        assert_eq!(latencies[1], latencies[2]);
    }

    #[test]
    fn memory_bank_contention_is_modelled() {
        let mut m = numa(2);
        let mut latencies = Vec::new();
        for i in 0..8u64 {
            let out = m.access(MemRequest {
                node: 1,
                line: LineAddr(0x1000 + i * 128),
                kind: AccessKind::ReadShared,
                now: Time::ZERO,
            });
            latencies.push(out.done_at.as_ns());
        }
        // 8 simultaneous accesses over 4 banks: the last must wait.
        assert!(latencies[7] > latencies[0]);
        assert!(m.stats().get_or_zero("mem.bank_wait_ns") > 0.0);
    }

    #[test]
    fn protocol_state_identical_to_flashlite_semantics() {
        let mut m = numa(4);
        read(&mut m, 1, 0x100, 0);
        read(&mut m, 2, 0x100, 10_000);
        let out = m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Upgrade,
            now: Time::from_ns(50_000),
        });
        assert!(out.exclusive);
        assert!(out.actions.invalidate.contains(&2));
    }

    #[test]
    fn non_power_of_two_node_counts_allowed() {
        let mut m = Numa::new(3, 1 << 24, NumaParams::matched());
        let out = read(&mut m, 2, 0x100, 0);
        assert_eq!(out.case, ProtocolCase::RemoteClean);
    }

    #[test]
    fn ckpt_roundtrip_preserves_directory_and_bank_state() {
        let mut a = numa(4);
        read(&mut a, 1, 0x100, 0);
        read(&mut a, 2, 0x100, 10_000);
        for i in 0..6u64 {
            read(&mut a, 1, 0x1000 + i * 128, 20_000); // bank contention
        }
        let mut w = CkptWriter::new("numa-test");
        MemorySystem::save_ckpt(&a, &mut w);
        let text = w.finish();

        let mut b = numa(4);
        let mut r = CkptReader::open(&text).expect("open");
        b.load_ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");

        assert_eq!(a.stats().to_json(), b.stats().to_json());
        let next = MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Upgrade,
            now: Time::from_ns(50_000),
        };
        assert_eq!(a.access(next), b.access(next));
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        let mut other = numa(8);
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.load_ckpt(&mut r),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn stats_report_cases() {
        let mut m = numa(4);
        read(&mut m, 0, 0x100, 0);
        let s = m.stats();
        assert_eq!(s.get_or_zero("proto.local_clean.count"), 1.0);
        assert_eq!(m.model_name(), "numa");
    }
}
