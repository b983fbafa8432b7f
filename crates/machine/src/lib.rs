//! `flashsim-machine` — full-machine composition: N processors, their
//! cache hierarchies and TLBs, an OS model, and a memory system, executing
//! a program's op streams.
//!
//! Every platform in the paper's study is a [`config::MachineConfig`]:
//! the gold-standard hardware (R10000 cores + IRIX model + FlashLite with
//! true parameters) and all the simulators under validation (Mipsy/MXS ×
//! Solo/SimOS × FlashLite/NUMA) run through the *same* driver, differing
//! only in configuration — which is precisely what lets the validation
//! harness in `flashsim-core` compare them meaningfully.
//!
//! # Examples
//!
//! ```
//! use flashsim_machine::config::{CpuModel, MachineConfig, MachineGeometry, MemSysKind};
//! use flashsim_machine::machine::run_program;
//! use flashsim_flashlite::FlashLiteParams;
//! use flashsim_os::OsModel;
//! use flashsim_isa::{Placement, Program, Segment, Sink, VAddr};
//!
//! struct Touch;
//! impl Program for Touch {
//!     fn name(&self) -> String { "touch".into() }
//!     fn num_threads(&self) -> usize { 1 }
//!     fn segments(&self) -> Vec<Segment> {
//!         vec![Segment::new("a", VAddr(0x10000), 0x10000, Placement::Blocked)]
//!     }
//!     fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
//!         Box::new(|sink| {
//!             for i in 0..64u64 { sink.load(VAddr(0x10000 + i * 8)); }
//!         })
//!     }
//! }
//!
//! let cfg = MachineConfig::new(
//!     1,
//!     CpuModel::Mipsy { mhz: 150, model_int_latencies: false, l2_iface: None },
//!     OsModel::solo(),
//!     MemSysKind::FlashLite(FlashLiteParams::hardware()),
//!     MachineGeometry::scaled(),
//! );
//! let result = run_program(cfg, &Touch).unwrap();
//! assert_eq!(result.total_ops(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod machine;

pub use config::{CpuModel, MachineConfig, MachineGeometry, MemSysKind, SchedPolicy};
pub use error::{NodeSnapshot, NodeState, SimError};
pub use machine::{
    run_program, CkptSink, Machine, MachineError, RestoreError, RunManifest, RunResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_flashlite::FlashLiteParams;
    use flashsim_isa::{OpClass, Placement, Program, Segment, Sink, VAddr};
    use flashsim_numa::NumaParams;
    use flashsim_os::{OsModel, TLB_REFILL_TRUE};

    /// A parallel program: each thread walks its own block of a shared
    /// array, then all barrier, then thread 0 reads everyone's data
    /// (communication), then all barrier again.
    struct BlockWalk {
        threads: usize,
        bytes_per_thread: u64,
        use_lock: bool,
    }

    const BASE: u64 = 0x100000;

    impl Program for BlockWalk {
        fn name(&self) -> String {
            "block-walk".into()
        }

        fn num_threads(&self) -> usize {
            self.threads
        }

        fn segments(&self) -> Vec<Segment> {
            vec![
                Segment::new(
                    "data",
                    VAddr(BASE),
                    self.bytes_per_thread * self.threads as u64,
                    Placement::Blocked,
                ),
                Segment::new("locks", VAddr(0x10000), 4096, Placement::Node(0)),
            ]
        }

        fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            let bytes = self.bytes_per_thread;
            let threads = self.threads as u64;
            let use_lock = self.use_lock;
            Box::new(move |sink| {
                let my_base = BASE + tid as u64 * bytes;
                // Init: write my block.
                for i in (0..bytes).step_by(64) {
                    sink.store(VAddr(my_base + i));
                    sink.alu(2);
                }
                sink.barrier();
                // Parallel phase: read my block with some compute.
                for i in (0..bytes).step_by(8) {
                    let v = sink.load(VAddr(my_base + i));
                    sink.chain(OpClass::IntAlu, 1, v);
                }
                if use_lock {
                    sink.lock(1, VAddr(0x10000));
                    sink.store(VAddr(0x10040));
                    sink.unlock(1, VAddr(0x10000));
                }
                sink.barrier();
                // Thread 0 reads everyone's blocks (coherence traffic).
                if tid == 0 {
                    for t in 0..threads {
                        let base = BASE + t * bytes;
                        for i in (0..bytes).step_by(64) {
                            sink.load(VAddr(base + i));
                        }
                    }
                }
                sink.barrier();
            })
        }

        fn timing_barrier(&self) -> Option<u32> {
            Some(0)
        }
    }

    fn cfg(nodes: u32, cpu: CpuModel, os: OsModel, memsys: MemSysKind) -> MachineConfig {
        MachineConfig::new(nodes, cpu, os, memsys, MachineGeometry::scaled())
    }

    fn mipsy(mhz: u32) -> CpuModel {
        CpuModel::Mipsy {
            mhz,
            model_int_latencies: false,
            l2_iface: None,
        }
    }

    fn fl() -> MemSysKind {
        MemSysKind::FlashLite(FlashLiteParams::hardware())
    }

    fn small_prog(threads: usize) -> BlockWalk {
        BlockWalk {
            threads,
            bytes_per_thread: 64 * 1024,
            use_lock: false,
        }
    }

    #[test]
    fn uniprocessor_run_completes() {
        let r = run_program(cfg(1, mipsy(150), OsModel::solo(), fl()), &small_prog(1)).unwrap();
        assert!(r.total_time.as_ns() > 0);
        assert!(r.parallel_time <= r.total_time);
        assert_eq!(r.barrier_releases.len(), 3);
        assert!(r.stats.get_or_zero("l2.misses") > 0.0);
    }

    #[test]
    fn same_binary_on_every_platform() {
        let prog = small_prog(2);
        let configs = vec![
            cfg(2, mipsy(150), OsModel::solo(), fl()),
            cfg(2, mipsy(300), OsModel::simos_mipsy(), fl()),
            cfg(2, CpuModel::Mxs, OsModel::simos_mxs(), fl()),
            cfg(2, CpuModel::R10000, OsModel::irix_hardware(), fl()),
            cfg(
                2,
                mipsy(225),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                MemSysKind::Numa(NumaParams::matched()),
            ),
        ];
        let counts: Vec<Vec<u64>> = configs
            .into_iter()
            .map(|c| run_program(c, &prog).unwrap().ops_per_node)
            .collect();
        for c in &counts[1..] {
            assert_eq!(c, &counts[0], "op streams must be platform-independent");
        }
    }

    #[test]
    fn barriers_synchronize_all_nodes() {
        let r = run_program(cfg(4, mipsy(150), OsModel::solo(), fl()), &small_prog(4)).unwrap();
        assert_eq!(r.barrier_releases.len(), 3);
        let times: Vec<_> = r.barrier_releases.iter().map(|(_, t)| *t).collect();
        assert!(times[0] < times[1] && times[1] < times[2]);
    }

    #[test]
    fn locks_serialize_and_hand_off() {
        let prog = BlockWalk {
            threads: 4,
            bytes_per_thread: 16 * 1024,
            use_lock: true,
        };
        let r = run_program(cfg(4, mipsy(150), OsModel::solo(), fl()), &prog).unwrap();
        assert!(r.total_time.as_ns() > 0);
        // The lock hand-offs move the lock line between nodes' caches:
        // some dirty-transfer or ownership traffic must exist.
        let coherence_traffic = r.stats.get_or_zero("proto.upgrade.count")
            + r.stats.get_or_zero("proto.remote_clean.count")
            + r.stats.get_or_zero("proto.remote_dirty_home.count")
            + r.stats.get_or_zero("proto.remote_dirty_remote.count")
            + r.stats.get_or_zero("proto.local_dirty_remote.count");
        assert!(
            coherence_traffic > 0.0,
            "lock line never moved: {}",
            r.stats
        );
    }

    #[test]
    fn faster_mipsy_clock_shortens_runs() {
        let prog = small_prog(1);
        let slow = run_program(cfg(1, mipsy(150), OsModel::solo(), fl()), &prog).unwrap();
        let fast = run_program(cfg(1, mipsy(300), OsModel::solo(), fl()), &prog).unwrap();
        assert!(fast.parallel_time < slow.parallel_time);
    }

    #[test]
    fn simos_models_tlb_solo_does_not() {
        let prog = small_prog(1);
        let solo = run_program(cfg(1, mipsy(150), OsModel::solo(), fl()), &prog).unwrap();
        let simos = run_program(
            cfg(
                1,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            ),
            &prog,
        )
        .unwrap();
        assert_eq!(solo.stats.get_or_zero("os.tlb_refills"), 0.0);
        assert!(simos.stats.get_or_zero("os.tlb_refills") > 0.0);
    }

    #[test]
    fn remote_reads_generate_protocol_traffic() {
        let r = run_program(
            cfg(
                4,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            ),
            &small_prog(4),
        )
        .unwrap();
        // Thread 0's sweep over other nodes' dirty blocks must produce
        // dirty-remote protocol cases.
        let dirty = r.stats.get_or_zero("proto.remote_dirty_remote.count")
            + r.stats.get_or_zero("proto.local_dirty_remote.count")
            + r.stats.get_or_zero("proto.remote_dirty_home.count");
        assert!(dirty > 0.0, "expected dirty-remote traffic: {}", r.stats);
    }

    #[test]
    fn thread_mismatch_is_an_error() {
        let err = Machine::new(cfg(2, mipsy(150), OsModel::solo(), fl()), &small_prog(4));
        assert!(matches!(
            err,
            Err(MachineError::ThreadMismatch {
                program: 4,
                nodes: 2
            })
        ));
        let msg = format!("{}", err.err().unwrap());
        assert!(msg.contains('4') && msg.contains('2'));
    }

    #[test]
    fn a_node_count_flashlite_cannot_span_is_an_error_not_a_panic() {
        for nodes in [3u32, 0] {
            let prog = small_prog(nodes as usize);
            let err = Machine::new(cfg(nodes, mipsy(150), OsModel::solo(), fl()), &prog)
                .expect_err("FlashLite needs a power-of-two node count");
            assert_eq!(err, MachineError::Topology { nodes });
            assert!(format!("{err}").contains(&nodes.to_string()));
            let run = run_program(cfg(nodes, mipsy(150), OsModel::solo(), fl()), &prog);
            assert!(matches!(run, Err(SimError::Build(_))), "{run:?}");
        }
        let numa = MemSysKind::Numa(NumaParams::matched());
        run_program(cfg(3, mipsy(150), OsModel::solo(), numa), &small_prog(3))
            .expect("NUMA takes any node count");
    }

    #[test]
    fn a_malformed_geometry_is_an_error_not_a_panic() {
        // Each used to panic, to fail as a misaligned segment, or to run
        // with homes and frames a shift would place wrongly. The scaled
        // L2 has 32 page colours, so 64 KiB of node memory is too small.
        let bad = [
            (0, 32 << 20, "page size 0"),
            (3000, 32 << 20, "page size 3000"),
            (4096, 0, "node memory 0"),
            (4096, (32 << 20) + 100, "node memory 33554532"),
            (4096, 3 << 20, "node memory 3145728"),
            (4096, 64 << 10, "16 frames, fewer than the 32"),
        ];
        for os in [
            OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
            OsModel::solo(),
        ] {
            for (page_bytes, node_mem_bytes, why) in bad {
                let mut c = cfg(1, mipsy(150), os, fl());
                c.geometry.page_bytes = page_bytes;
                c.geometry.node_mem_bytes = node_mem_bytes;
                let err = Machine::new(c.clone(), &small_prog(1)).expect_err(why);
                assert!(
                    matches!(&err, MachineError::Geometry(m) if m.contains(why)),
                    "{err}"
                );
                let run = run_program(c, &small_prog(1));
                assert!(matches!(run, Err(SimError::Build(_))), "{run:?}");
            }
        }
    }

    #[test]
    fn numa_and_flashlite_agree_on_protocol_counts() {
        let prog = small_prog(2);
        let a = run_program(
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            ),
            &prog,
        )
        .unwrap();
        let b = run_program(
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                MemSysKind::Numa(NumaParams::matched()),
            ),
            &prog,
        )
        .unwrap();
        // Same protocol, same streams => same transaction counts.
        for key in ["proto.local_clean.count", "proto.remote_clean.count"] {
            assert_eq!(
                a.stats.get_or_zero(key),
                b.stats.get_or_zero(key),
                "{key} differs between flashlite and numa"
            );
        }
    }

    #[test]
    fn parallel_section_excludes_init() {
        let r = run_program(cfg(1, mipsy(150), OsModel::solo(), fl()), &small_prog(1)).unwrap();
        assert!(r.parallel_time < r.total_time);
    }

    #[test]
    fn run_is_deterministic() {
        let prog = small_prog(4);
        let c = || cfg(4, CpuModel::R10000, OsModel::irix_hardware(), fl());
        let a = run_program(c(), &prog).unwrap();
        let b = run_program(c(), &prog).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn manifest_records_provenance_and_throughput() {
        let c = cfg(2, mipsy(150), OsModel::solo(), fl());
        let label = c.label();
        let r = run_program(c, &small_prog(2)).unwrap();
        let m = &r.manifest;
        assert_eq!(m.config, label);
        assert_eq!(m.nodes, 2);
        assert_eq!(m.workload, "block-walk");
        assert_eq!(m.seed, None);
        assert_eq!(m.total_ops, r.total_ops());
        assert!(m.simulated_seconds > 0.0);
        assert!(m.wall_seconds >= 0.0);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workload\":\"block-walk\""));
        assert!(json.contains("\"nodes\":2"));
        assert!(json.contains("\"seed\":null"));
    }

    #[test]
    fn disabled_profiler_changes_nothing() {
        let prog = small_prog(2);
        let c = || {
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            )
        };
        let plain = run_program(c(), &prog).unwrap();
        assert!(plain.accounting.is_none());
        assert!(plain.manifest.account.is_none());
        let mut on = c();
        on.profile = true;
        let profiled = run_program(on, &prog).unwrap();
        assert!(profiled.accounting.is_some());
        assert_eq!(plain.total_time, profiled.total_time);
        // Accounting adds its `account.*` stats and changes no other.
        for (key, value) in plain.stats.iter() {
            assert_eq!(profiled.stats.get(key), Some(value), "{key}");
        }
    }

    #[test]
    fn profiled_run_conserves_every_cycle() {
        use flashsim_engine::StallClass;
        let prog = BlockWalk {
            threads: 4,
            bytes_per_thread: 32 * 1024,
            use_lock: true,
        };
        let mut c = cfg(
            4,
            mipsy(150),
            OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
            fl(),
        );
        c.profile = true;
        let r = run_program(c, &prog).unwrap();
        let acc = r.accounting.as_ref().expect("profile is on");
        assert!(acc.conserved(), "per-node class sums must equal totals");
        // Every node's total is the machine end time (idle => Compute).
        for node in &acc.nodes {
            assert_eq!(
                node.classes.iter().sum::<u64>(),
                node.total_ps,
                "node {} not conserved",
                node.node
            );
            assert_eq!(node.total_ps, r.total_time.as_ps());
        }
        // The run exercised memory, TLB, and synchronization machinery,
        // so those classes must have been charged somewhere.
        let totals = acc.class_totals();
        for class in [
            StallClass::Compute,
            StallClass::L2Miss,
            StallClass::TlbRefill,
            StallClass::Sync,
            StallClass::Os,
        ] {
            assert!(totals[class as usize] > 0, "no {} charged", class.key());
        }
        // Manifest and stats carry the breakdown.
        let fracs = r.manifest.account.expect("manifest breakdown");
        assert!((fracs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(r.stats.get_or_zero("account.compute.ps") > 0.0);
        assert!(r.manifest.to_json().contains("\"account\":{\"compute\":"));
    }

    /// A program whose thread 0 skips the barrier all others wait at.
    struct SkippedBarrier;
    impl Program for SkippedBarrier {
        fn name(&self) -> String {
            "skipped-barrier".into()
        }
        fn num_threads(&self) -> usize {
            2
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(move |sink| {
                sink.load(VAddr(BASE));
                if tid != 0 {
                    sink.barrier();
                }
            })
        }
    }

    #[test]
    fn never_released_barrier_is_a_deadlock_not_a_hang() {
        let err = run_program(cfg(2, mipsy(150), OsModel::solo(), fl()), &SkippedBarrier)
            .expect_err("must deadlock");
        let SimError::Deadlock { nodes } = &err else {
            panic!("expected Deadlock, got {err}");
        };
        // The diagnostic names the blocked barrier and the arrival count.
        assert!(matches!(
            nodes[1].state,
            NodeState::AtBarrier {
                id: 0,
                arrived: 1,
                expected: 2
            }
        ));
        assert!(matches!(nodes[0].state, NodeState::Done));
        let msg = format!("{err}");
        assert!(msg.contains("barrier 0"), "{msg}");
        assert!(msg.contains("1/2 arrived"), "{msg}");
    }

    /// Touches an address outside every declared segment.
    struct WildAccess;
    impl Program for WildAccess {
        fn name(&self) -> String {
            "wild-access".into()
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(|sink| {
                sink.load(VAddr(BASE));
                sink.load(VAddr(0xDEAD_0000));
            })
        }
    }

    #[test]
    fn out_of_range_address_is_unmapped_error() {
        let err = run_program(cfg(1, mipsy(150), OsModel::solo(), fl()), &WildAccess)
            .expect_err("must fault");
        assert!(
            matches!(
                err,
                SimError::UnmappedAddress {
                    node: 0,
                    addr: VAddr(0xDEAD_0000)
                }
            ),
            "got {err}"
        );
    }

    /// Releases a lock it never acquired.
    struct BadUnlock;
    impl Program for BadUnlock {
        fn name(&self) -> String {
            "bad-unlock".into()
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(|sink| {
                sink.unlock(9, VAddr(BASE));
            })
        }
    }

    #[test]
    fn releasing_unheld_lock_is_structured() {
        let err = run_program(cfg(1, mipsy(150), OsModel::solo(), fl()), &BadUnlock)
            .expect_err("must fault");
        assert!(
            matches!(
                err,
                SimError::UnheldLock {
                    node: 0,
                    lock: 9,
                    holder: None
                }
            ),
            "got {err}"
        );
    }

    /// What follows a failure report's header: every node's state, one
    /// line each.
    fn assert_one_line_per_node(mut lines: std::str::Lines<'_>, nodes: &[NodeSnapshot]) {
        for snap in nodes {
            assert_eq!(lines.next(), Some(format!("  {snap}").as_str()));
        }
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn watchdog_budget_trips_as_stalled_with_snapshots() {
        let mut c = cfg(2, mipsy(150), OsModel::solo(), fl());
        c.max_ops = Some(50);
        let err = run_program(c, &small_prog(2)).expect_err("budget far too small");
        let SimError::Stalled {
            ops_executed,
            nodes,
        } = &err
        else {
            panic!("expected Stalled, got {err}");
        };
        assert_eq!(*ops_executed, 50);
        assert_eq!(nodes.len(), 2);
        // The report is the header plus one line per node's state.
        let msg = err.to_string();
        let mut lines = msg.lines();
        assert_eq!(
            lines.next(),
            Some("stalled: no forward progress after 50 ops")
        );
        assert_one_line_per_node(lines, nodes);
    }

    #[test]
    fn injected_stall_ends_in_stalled_not_a_hang() {
        use flashsim_engine::FaultPlan;
        let mut c = cfg(2, mipsy(150), OsModel::solo(), fl());
        c.faults = Some(FaultPlan {
            stall_node: Some(1),
            stall_after_ops: 10,
            ..FaultPlan::default()
        });
        let err = run_program(c, &small_prog(2)).expect_err("node 1 stalls");
        let SimError::Stalled { nodes, .. } = &err else {
            panic!("expected Stalled, got {err}");
        };
        assert!(matches!(nodes[1].state, NodeState::Stalled));
        assert!(nodes[1].ops >= 10);
    }

    #[test]
    fn fault_plans_are_run_deterministic() {
        use flashsim_engine::FaultPlan;
        let prog = small_prog(2);
        let run = || {
            let mut c = cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            );
            c.faults = Some(FaultPlan::chaos(1234));
            c.max_ops = Some(10_000_000);
            run_program(c, &prog)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.total_time, b.total_time);
                assert_eq!(a.stats, b.stats);
            }
            (Err(a), Err(b)) => assert_eq!(a.kind(), b.kind()),
            (a, b) => panic!(
                "same seed diverged: {:?} vs {:?}",
                a.map(|r| r.total_time),
                b.map(|r| r.total_time)
            ),
        }
    }

    #[test]
    fn active_faults_perturb_timing_and_count_in_stats() {
        use flashsim_engine::FaultPlan;
        let prog = small_prog(2);
        let clean = run_program(cfg(2, mipsy(150), OsModel::solo(), fl()), &prog).unwrap();
        let mut c = cfg(2, mipsy(150), OsModel::solo(), fl());
        c.faults = Some(FaultPlan {
            seed: 5,
            latency_prob: 0.5,
            latency_spread: 1.0,
            ..FaultPlan::default()
        });
        let faulty = run_program(c, &prog).unwrap();
        assert!(faulty.total_time > clean.total_time);
        assert!(faulty.stats.get_or_zero("fault.perturbed") > 0.0);
        assert_eq!(clean.stats.get("fault.perturbed"), None);
    }

    /// Runs `prog` under `c()` with a checkpoint sink attached and
    /// returns the uninterrupted result plus every emitted checkpoint.
    fn run_with_ckpts(
        c: &dyn Fn() -> MachineConfig,
        prog: &dyn Program,
    ) -> (RunResult, Vec<(u64, String)>) {
        use std::sync::{Arc, Mutex};
        let ckpts: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ckpts);
        let mut m = Machine::new(c(), prog).unwrap();
        m.attach_ckpt_sink(Box::new(move |seq, _at, text| {
            sink.lock().unwrap().push((seq, text.to_string()));
        }));
        let result = m.run().unwrap();
        drop(m); // the sink closure holds the other Arc
        let ckpts = Arc::try_unwrap(ckpts).unwrap().into_inner().unwrap();
        (result, ckpts)
    }

    #[test]
    fn checkpoint_sink_does_not_perturb_the_run() {
        let prog = small_prog(2);
        let c = || {
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            )
        };
        let plain = run_program(c(), &prog).unwrap();
        let (observed, ckpts) = run_with_ckpts(&c, &prog);
        assert_eq!(plain.total_time, observed.total_time);
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(ckpts.len(), 3, "one checkpoint per barrier release");
        for (i, (seq, _)) in ckpts.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
    }

    #[test]
    fn restore_from_any_barrier_finishes_byte_identical() {
        let prog = small_prog(2);
        let c = || {
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            )
        };
        let (straight, ckpts) = run_with_ckpts(&c, &prog);
        for (seq, text) in &ckpts {
            let mut m = Machine::restore(c(), &prog, text).unwrap();
            let resumed = m.run().unwrap();
            assert_eq!(resumed.total_time, straight.total_time, "ckpt {seq}");
            assert_eq!(resumed.parallel_time, straight.parallel_time, "ckpt {seq}");
            assert_eq!(resumed.ops_per_node, straight.ops_per_node, "ckpt {seq}");
            assert_eq!(resumed.stats, straight.stats, "ckpt {seq}");
            assert_eq!(
                resumed.barrier_releases, straight.barrier_releases,
                "ckpt {seq}"
            );
        }
    }

    #[test]
    fn restore_rejects_wrong_identity_and_corruption() {
        use flashsim_engine::CkptError;
        let prog = small_prog(2);
        let c = || {
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            )
        };
        let (_, ckpts) = run_with_ckpts(&c, &prog);
        let text = &ckpts[0].1;

        // Different platform => provenance mismatch, not a mis-restore.
        let other = cfg(
            2,
            mipsy(300),
            OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
            fl(),
        );
        let err = Machine::restore(other, &prog, text).expect_err("wrong clock");
        assert!(
            matches!(&err, RestoreError::Ckpt(CkptError::ManifestMismatch { .. })),
            "got {err}"
        );

        // A truncated file fails closed before any state is trusted.
        let cut = &text[..text.len() / 2];
        let err = Machine::restore(c(), &prog, cut).expect_err("truncated");
        assert!(matches!(err, RestoreError::Ckpt(_)), "got {err}");

        // A flipped payload byte fails the checksum.
        let corrupt = text.replacen("consumed=", "consumed=9", 1);
        let err = Machine::restore(c(), &prog, &corrupt).expect_err("corrupt");
        assert!(
            matches!(&err, RestoreError::Ckpt(CkptError::ChecksumMismatch { .. })),
            "got {err}"
        );
    }

    #[test]
    fn restore_rejects_a_fill_in_flight_the_l2_does_not_hold() {
        use flashsim_engine::ckpt::{bad, provenance_hash};
        let prog = small_prog(2);
        let c = || {
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            )
        };
        let (_, ckpts) = run_with_ckpts(&c, &prog);
        let text = &ckpts[0].1;
        let body = &text[..text.rfind("checksum=").expect("a trailer")];
        // Restored unchecked, the next barrier's pending-fill settle
        // asserted the line resident and panicked (debug builds).
        let far = body.replacen("pending=0\n", "pending=1\npend=1099511627776,1,0,0,0\n", 1);
        assert_ne!(far, body);
        let far = format!("{far}checksum={}\n", provenance_hash(&far));
        let err = Machine::restore(c(), &prog, &far).expect_err("a fill of a line no L2 holds");
        assert!(
            matches!(&err, RestoreError::Ckpt(e) if *e == bad("pend", "l:0x10000000000 is not in the L2")),
            "got {err}"
        );
    }

    #[test]
    fn restored_run_continues_checkpoint_numbering() {
        use std::sync::{Arc, Mutex};
        let prog = small_prog(2);
        let c = || {
            cfg(
                2,
                mipsy(150),
                OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE),
                fl(),
            )
        };
        let (_, ckpts) = run_with_ckpts(&c, &prog);
        // Resume from the first checkpoint with a fresh sink: the next
        // emission must carry seq 1, not restart at 0.
        let mut m = Machine::restore(c(), &prog, &ckpts[0].1).unwrap();
        let seqs: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seqs);
        m.attach_ckpt_sink(Box::new(move |seq, _at, _text| {
            sink.lock().unwrap().push(seq);
        }));
        m.run().unwrap();
        assert_eq!(*seqs.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn a_timer_tick_due_at_an_ops_completion_is_charged_with_that_op() {
        struct Alu;
        impl Program for Alu {
            fn name(&self) -> String {
                "alu".into()
            }
            fn num_threads(&self) -> usize {
                1
            }
            fn segments(&self) -> Vec<Segment> {
                vec![Segment::new("data", VAddr(BASE), 4096, Placement::Node(0))]
            }
            fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
                Box::new(|sink| sink.alu(3))
            }
        }
        let cost = flashsim_engine::TimeDelta::from_ns(7);
        let run = |interval| {
            let os = OsModel {
                timer_interval: interval,
                timer_cost: cost,
                ..OsModel::solo()
            };
            run_program(cfg(1, mipsy(100), os, fl()), &Alu)
                .unwrap()
                .total_time
        };
        let untimed = run(None);
        // The first tick falls due exactly when the last op completes: it
        // is charged then, not left for an op that never comes.
        assert_eq!(run(Some(untimed)), untimed + cost);
        // One picosecond later it is not yet due.
        let later = untimed + flashsim_engine::TimeDelta::from_ps(1);
        assert_eq!(run(Some(later)), untimed);
    }

    #[test]
    fn dir_pool_pressure_forces_reclaims() {
        use flashsim_engine::FaultPlan;
        // All four nodes read the same node-0 lines so the directory
        // chains sharers; a 1-slot pool must reclaim.
        struct SharedRead;
        impl Program for SharedRead {
            fn name(&self) -> String {
                "shared-read".into()
            }
            fn num_threads(&self) -> usize {
                4
            }
            fn segments(&self) -> Vec<Segment> {
                vec![Segment::new(
                    "d",
                    VAddr(BASE),
                    64 * 1024,
                    Placement::Node(0),
                )]
            }
            fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
                Box::new(|sink| {
                    for i in (0..64 * 1024u64).step_by(128) {
                        sink.load(VAddr(BASE + i));
                    }
                })
            }
        }
        let mut c = cfg(4, mipsy(150), OsModel::solo(), fl());
        c.faults = Some(FaultPlan {
            dir_pool_cap: Some(1),
            ..FaultPlan::default()
        });
        let r = run_program(c, &SharedRead).unwrap();
        assert!(
            r.stats.get_or_zero("proto.dir_reclaims") > 0.0,
            "pool cap 1 must reclaim: {}",
            r.stats
        );
    }
}
