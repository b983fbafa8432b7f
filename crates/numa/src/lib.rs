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
//! - runs the **same directory protocol** and the same transaction
//!   sequence (`flashsim_proto::Walk`, literally the same code),
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

use flashsim_engine::ckpt::{Ckpt, CkptError};
use flashsim_engine::{Observers, StatSet, Time, TimeDelta};
use flashsim_mem::system::{MemOutcome, MemRequest, MemorySystem, NodeId};
use flashsim_mem::LineAddr;
use flashsim_proto::walk::{Common, Step, Timing, Walk};
use flashsim_proto::LINE_BYTES;

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

/// The generic latency-only NUMA memory system: the shared directory
/// transaction [`Walk`], timed by [`NumaParams`] alone.
#[derive(Debug)]
pub struct Numa {
    walk: Walk,
    params: NumaParams,
}

impl Numa {
    /// Creates a NUMA model over `nodes` nodes of `node_mem_bytes` each.
    /// Any positive node count is accepted (no hypercube restriction —
    /// hop distance still uses the hypercube metric for comparability).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `node_mem_bytes` is not a power of
    /// two.
    pub fn new(nodes: u32, node_mem_bytes: u64, params: NumaParams) -> Numa {
        assert!(nodes > 0, "need at least one node");
        let common = Common {
            dir_pool: params.dir_pool,
            line_bytes: LINE_BYTES,
            mem_banks: params.mem_banks,
            mem_access: params.mem_access,
            mem_busy: params.mem_busy,
            miss_detect: params.miss_detect,
            proc_intervention: params.proc_intervention,
            reply_fill: params.reply_fill,
        };
        Numa {
            walk: Walk::new(nodes, node_mem_bytes, common),
            params,
        }
    }

    /// The protocol state: directories, banks, case ledger.
    pub fn walk(&self) -> &Walk {
        &self.walk
    }
}

/// What the NUMA model charges for the walk's steps — and, read against
/// FlashLite's impl, the paper's list of what it omits (§3.3: "it does
/// not model occupancy of the directory controller beyond the normal
/// latency path, nor does it model contention in the network or the
/// routers"). Memory-bank contention IS modelled: the banks belong to the
/// walk.
impl Timing for NumaParams {
    fn leg(&self, step: Step) -> &'static str {
        match step {
            Step::Request => "ctrl_request",
            Step::Out => "ctrl_out",
            Step::DirLocal | Step::DirRemote => "dir_lookup",
            Step::Intervention => "ctrl_intervention",
            Step::DirtyExtra => "dirty_extra",
            Step::Reply => "ctrl_reply",
        }
    }

    /// No controller occupancy, and no separate processor-interface stage:
    /// a handler is a pure delay wherever and whenever it runs, so
    /// back-to-back requests to one home overlap freely.
    fn run(&mut self, step: Step, _node: NodeId, t: Time) -> Time {
        t + match step {
            Step::Request => self.ctrl_request,
            Step::Out => self.ctrl_out,
            Step::DirLocal => self.dir_local,
            Step::DirRemote => self.dir_remote,
            Step::Intervention => self.ctrl_intervention,
            Step::DirtyExtra => self.dirty_extra,
            Step::Reply => self.ctrl_reply,
        }
    }

    /// No link or router contention: hop latency times the hypercube
    /// distance, plus one serialization of the line for a data message.
    fn send(&mut self, from: NodeId, to: NodeId, data: bool, t: Time) -> Time {
        let hops = u64::from((from ^ to).count_ones());
        t + self.hop_latency * hops + self.data_transfer * u64::from(data)
    }

    /// No inbound queue: nothing is NACKed or retried, and there is no
    /// queue to sample (`magic.queue_ps` does not exist on this model;
    /// `tests/telemetry_hotspot.rs` asserts its absence).
    fn admit(&mut self, _: &mut Walk, _requester: NodeId, _home: NodeId, t: Time) -> Time {
        t
    }

    /// No acknowledgement-collection handler at the home.
    fn collect_acks(&mut self, _: &mut Walk, _home: NodeId, t: Time) -> Time {
        t
    }

    /// No sharing-writeback traffic: neither the message nor the home's
    /// handler nor its bank access.
    fn sharing_writeback(&mut self, _: &mut Walk, _owner: NodeId, _home: NodeId, _t: Time) {}

    /// A victim writeback costs one request decode before it leaves.
    fn victim_delay(&self) -> TimeDelta {
        self.ctrl_request
    }
}

impl MemorySystem for Numa {
    fn access(&mut self, req: MemRequest) -> MemOutcome {
        self.walk.access(&mut self.params, req)
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.walk.home_of(line)
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        self.walk.stats_into(&mut s);
        s
    }

    fn attach(&mut self, obs: &Observers) {
        self.walk.attach(obs);
    }

    fn model_name(&self) -> &'static str {
        "numa"
    }

    fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        self.walk.ckpt(c)
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
    use flashsim_mem::system::{AccessKind, ProtocolCase};

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
        let mut w = Ckpt::save("numa-test");
        MemorySystem::ckpt(&mut a, &mut w).unwrap();
        let text = w.finish().unwrap();

        let mut b = numa(4);
        let mut r = Ckpt::open(&text).expect("open");
        b.ckpt(&mut r).expect("load");
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
        let mut r = Ckpt::open(&text).expect("open");
        assert!(matches!(other.ckpt(&mut r), Err(CkptError::Parse { .. })));
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
