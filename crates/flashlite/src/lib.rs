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
//!   runs, as in the paper — and so is the transaction sequence: this
//!   crate is the `Timing` the shared `flashsim_proto::Walk` runs against,
//!   nothing else.
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

use flashsim_engine::ckpt::{Ckpt, CkptError};
use flashsim_engine::{
    FaultInjector, MessageFate, MetricId, MetricKind, Observers, Resource, StatSet, Time, TimeDelta,
};
use flashsim_mem::system::{MemOutcome, MemRequest, MemorySystem, NodeId};
use flashsim_mem::LineAddr;
use flashsim_net::{Network, Topology, TopologyError};
use flashsim_proto::walk::{Common, Step, Timing, Walk};

/// The detailed FLASH memory-system model: the shared directory
/// transaction [`Walk`], timed by MAGIC.
#[derive(Debug)]
pub struct FlashLite {
    walk: Walk,
    magic: Magic,
}

/// What FlashLite charges for the walk's steps: MAGIC's protocol processor
/// and processor interface as occupancy resources, the contended network,
/// and the bounded inbound queue's NACK/retry admission.
#[derive(Debug)]
struct Magic {
    params: FlashLiteParams,
    net: Network,
    pp: Vec<Resource>,
    pi: Vec<Resource>,
    faults: FaultInjector,
    tel_queue: MetricId,
    /// Per-home-node variants of `magic.queue_ps`: hotspot studies see
    /// WHICH MAGIC is saturated, not just that one is.
    tel_queue_node: Vec<MetricId>,
    tel_nacks: MetricId,
    tel_retries: MetricId,
    nacks: u64,
    retries: u64,
    nack_backoff: TimeDelta,
}

impl FlashLite {
    /// Creates a FlashLite over `nodes` nodes, each owning
    /// `node_mem_bytes` of physical memory.
    ///
    /// # Errors
    ///
    /// Returns an error if `nodes` is not a power of two (hypercube).
    ///
    /// # Panics
    ///
    /// Panics if `node_mem_bytes` is not a power of two.
    pub fn new(
        nodes: u32,
        node_mem_bytes: u64,
        params: FlashLiteParams,
    ) -> Result<FlashLite, TopologyError> {
        let topo = Topology::hypercube(nodes)?;
        let common = Common {
            dir_pool: params.dir_pool,
            line_bytes: params.line_bytes,
            mem_banks: params.mem_banks,
            mem_access: params.mem_access,
            mem_busy: params.mem_busy,
            miss_detect: params.proc_miss_detect,
            proc_intervention: params.proc_intervention,
            reply_fill: params.reply_fill,
        };
        Ok(FlashLite {
            walk: Walk::new(nodes, node_mem_bytes, common),
            magic: Magic {
                params,
                net: Network::new(topo, params.net),
                pp: (0..nodes).map(|_| Resource::new("magic-pp")).collect(),
                pi: (0..nodes).map(|_| Resource::new("magic-pi")).collect(),
                faults: FaultInjector::inert(),
                tel_queue: MetricId::NONE,
                tel_queue_node: Vec::new(),
                tel_nacks: MetricId::NONE,
                tel_retries: MetricId::NONE,
                nacks: 0,
                retries: 0,
                nack_backoff: TimeDelta::ZERO,
            },
        })
    }

    /// The protocol state: directories, banks, case ledger.
    pub fn walk(&self) -> &Walk {
        &self.walk
    }
}

/// Runs a `cycles`-cycle handler on `unit` from `t`. The full cycle count
/// contributes to the transaction's LATENCY, but only half of it OCCUPIES
/// the unit — the other half of the path (SRAM lookups, queue and bus
/// crossings) overlaps with the next handler's dispatch. The handler cycle
/// values are calibrated against end-to-end snbench latencies, which fold
/// in those components; charging them all as occupancy would roughly
/// double MAGIC's real service demand.
fn handler(p: &FlashLiteParams, unit: &mut Resource, cycles: u64, t: Time) -> Time {
    let grant = unit.acquire(t, p.pp(cycles.div_ceil(2)));
    grant.start + p.pp(cycles)
}

impl Timing for Magic {
    fn leg(&self, step: Step) -> &'static str {
        match step {
            Step::Request => "pi_request",
            Step::Out => "ni_out",
            Step::DirLocal | Step::DirRemote => "dir_lookup",
            Step::Intervention => "pp_intervention",
            Step::DirtyExtra => "dirty_extra",
            Step::Reply => "ni_reply",
        }
    }

    /// Every handler occupies the node's protocol processor, except the
    /// request decode: the processor interface is separate hardware, so a
    /// burst of lockup-free misses queues far less than if one engine did
    /// everything.
    fn run(&mut self, step: Step, node: NodeId, t: Time) -> Time {
        let p = &self.params;
        let (unit, cycles) = match step {
            Step::Request => (&mut self.pi, p.pp_pi_request),
            Step::Out => (&mut self.pp, p.pp_ni_out),
            Step::DirLocal => (&mut self.pp, p.pp_dir_local),
            Step::DirRemote => (&mut self.pp, p.pp_dir_remote),
            Step::Intervention => (&mut self.pp, p.pp_intervention),
            Step::DirtyExtra => (&mut self.pp, p.pp_dirty_extra),
            Step::Reply => (&mut self.pp, p.pp_ni_reply),
        };
        handler(p, &mut unit[node as usize], cycles, t)
    }

    fn send(&mut self, from: NodeId, to: NodeId, data: bool, t: Time) -> Time {
        let p = &self.params;
        let bytes = p.header_bytes + if data { p.line_bytes } else { 0 };
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
        // The router emits zero-charge per-hop spans nested in the leg.
        self.net.send(from, to, bytes, depart)
    }

    /// The bounded-inbound-queue NACK path: a remote request arriving at a
    /// saturated home MAGIC is bounced back and retried with exponential
    /// backoff, as on real FLASH, until the home accepts it. Each bounce
    /// costs a NACK header back to the requester, the backoff wait, and a
    /// fresh outbound send (the bounce itself is handled in MAGIC's
    /// inbound hardware, not the PP).
    fn admit(&mut self, w: &mut Walk, requester: NodeId, home: NodeId, mut t: Time) -> Time {
        let p = self.params;
        let pp = home as usize;
        let mut retries: u32 = 0;
        while requester != home
            && retries < p.nack_max_retries
            && self.pp[pp].wait_at(t) > p.nack_threshold
        {
            self.nacks += 1;
            w.obs().telemetry.count(self.tel_nacks, t, 1);
            retries += 1;
            let bounced = w.send_as(self, "nack", home, requester, false, t);
            let backoff = p.nack_retry_base * (1u64 << (retries - 1).min(6));
            self.nack_backoff += backoff;
            // Backoff is time spent waiting out home-MAGIC saturation:
            // occupancy, not transit.
            let resend = w.charge("backoff", requester, bounced, bounced + backoff);
            t = w.post(self, requester, home, false, resend);
        }
        self.retries += u64::from(retries);
        let telemetry = &w.obs().telemetry;
        if retries > 0 {
            telemetry.count(self.tel_retries, t, u64::from(retries));
        }
        // MAGIC inbound-queue occupancy at the home, sampled as each
        // demand reaches the directory handler: the queued work (in ps)
        // ahead of this request. This is the series the paper's hotspot
        // study turns on — the latency-only NUMA model has no such queue.
        let queued = self.pp[pp].wait_at(t).as_ps();
        telemetry.occupy(self.tel_queue, t, queued);
        if let Some(&id) = self.tel_queue_node.get(pp) {
            telemetry.occupy(id, t, queued);
        }
        t
    }

    fn collect_acks(&mut self, w: &mut Walk, home: NodeId, t: Time) -> Time {
        w.step(self, Step::DirLocal, home, t)
    }

    fn sharing_writeback(&mut self, w: &mut Walk, owner: NodeId, home: NodeId, t: Time) {
        w.offpath(self, "sharing_wb", owner, t, None, |w, magic| {
            let arrived = w.send_as(magic, "net", owner, home, true, t);
            let (p, pp) = (&magic.params, &mut magic.pp[home as usize]);
            let written = handler(p, pp, p.pp_writeback, arrived);
            w.charge("pp_writeback", home, arrived, written);
            w.mem_acquire(home, written)
        });
    }

    /// Victim writebacks drain from MAGIC's outbound/victim queues in
    /// spare cycles (demand misses are prioritized), so they charge the
    /// network and the memory banks but do not occupy the PI or the
    /// protocol processor ahead of the next demand miss.
    fn victim_delay(&self) -> TimeDelta {
        self.params.pp(self.params.pp_writeback)
    }
}

impl MemorySystem for FlashLite {
    fn access(&mut self, req: MemRequest) -> MemOutcome {
        self.walk.access(&mut self.magic, req)
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.walk.home_of(line)
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        self.walk.stats_into(&mut s);
        let m = &self.magic;
        let pp_busy: f64 = m.pp.iter().map(|r| r.busy_total().as_ns_f64()).sum();
        let pp_wait: f64 = m.pp.iter().map(|r| r.wait_total().as_ns_f64()).sum();
        s.set("magic.pp_busy_ns", pp_busy);
        s.set("magic.pp_wait_ns", pp_wait);
        // Retry-storm visibility: NACK bounces, retried sends, and the
        // total backoff charged to requesters.
        s.set("magic.nacks", m.nacks as f64);
        s.set("magic.retries", m.retries as f64);
        s.set("magic.nack_backoff_ns", m.nack_backoff.as_ns_f64());
        // Directory pointer-storage pressure.
        let dirs = self.walk.dirs();
        let reclaims: u64 = dirs.iter().map(|d| d.reclaims()).sum();
        let pool_used: u32 = dirs.iter().map(|d| d.pool_used()).sum();
        s.set("proto.dir_reclaims", reclaims as f64);
        s.set("proto.dir_pool_used", f64::from(pool_used));
        s.absorb_flat(&m.net.stats());
        s
    }

    fn attach_faults(&mut self, faults: FaultInjector) {
        self.magic.faults = faults;
    }

    fn attach(&mut self, obs: &Observers) {
        let telemetry = &obs.telemetry;
        let m = &mut self.magic;
        // Registration order is export order, and registering a name again
        // returns its id: the walk's series are named here, in the places
        // they have always had among MAGIC's, before the walk attaches.
        // `magic.queue_ps` is the paper's omitted-queueing signature:
        // FlashLite registers it, the NUMA model does not.
        m.tel_queue = telemetry.register("magic.queue_ps", MetricKind::Occupancy);
        telemetry.register("proto.dir_pool_used", MetricKind::Gauge);
        telemetry.register("proto.dir_reclaims", MetricKind::Counter);
        m.tel_nacks = telemetry.register("magic.nacks", MetricKind::Counter);
        m.tel_retries = telemetry.register("magic.retries", MetricKind::Counter);
        telemetry.register("mem.bank_wait_ps", MetricKind::Counter);
        m.tel_queue_node.clear();
        if self.walk.labels_nodes(telemetry) {
            for n in 0..m.pp.len() as u32 {
                let queue = telemetry.register_node("magic.queue_ps", n, MetricKind::Occupancy);
                m.tel_queue_node.push(queue);
                telemetry.register_node("proto.dir_pool_used", n, MetricKind::Gauge);
            }
        }
        self.walk.attach(obs);
        m.net.attach(obs);
    }

    fn model_name(&self) -> &'static str {
        "flashlite"
    }

    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        self.walk.ckpt(c)?;
        let m = &mut self.magic;
        c.u64("nacks", &mut m.nacks)?;
        c.u64("retries", &mut m.retries)?;
        c.delta("nack_backoff", &mut m.nack_backoff)?;
        m.net.ckpt(c)?;
        for unit in m.pp.iter_mut().chain(&mut m.pi) {
            unit.ckpt(c)?;
        }
        Ok(())
    }

    fn min_shared_latency(&self) -> TimeDelta {
        // Every demand path charges miss detection, the requester MAGIC's
        // PI handler, and at least the local directory handler before any
        // reply can exist; occupancy waits only lengthen it.
        let p = &self.magic.params;
        p.proc_miss_detect + p.pp(p.pp_pi_request + p.pp_dir_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::ckpt::{CkptReader, CkptWriter};
    use flashsim_mem::system::{AccessKind, ProtocolCase};

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
    fn a_home_busy_exactly_the_nack_threshold_admits_the_request() {
        let mut m = fl(4);
        let FlashLite { walk, magic } = &mut m;
        let threshold = magic.params.nack_threshold;
        magic.pp[0].acquire(Time::ZERO, threshold);
        assert_eq!(magic.admit(walk, 1, 0, Time::ZERO), Time::ZERO);
        assert_eq!(magic.nacks, 0);
        // One picosecond more of queued work and the home bounces it.
        magic.pp[0].acquire(Time::ZERO, TimeDelta::from_ps(1));
        assert!(magic.admit(walk, 1, 0, Time::ZERO) > Time::ZERO);
        assert!(magic.nacks > 0);
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
        assert_eq!(s.get("proto.remote_clean.count"), None);
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
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();

        let mut b = fl(4);
        let mut r = CkptReader::open(&text).expect("open");
        b.ckpt(&mut Ckpt::Load(&mut r)).expect("load");
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
            other.ckpt(&mut Ckpt::Load(&mut r)),
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
