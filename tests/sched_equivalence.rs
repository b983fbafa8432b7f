//! The optimized schedulers' correctness contract: on every platform, a
//! run under the default `Batched` policy *and* under the `Parallel`
//! policy (nodes sharded across host worker threads under the
//! conservative lookahead horizon) is *bit-identical* to the same run
//! under the `Reference` policy (one op per scheduling decision, linear
//! laggard scan) — same stats JSON, same accounting, same parallel/total
//! times, same barrier releases, same per-node op counts, same telemetry
//! and span JSONL. The batching, the laggard heap, the flat stream
//! cursor, the L1-hit fast path, and the fork/join rounds are all pure
//! host-side optimizations; nothing about the simulated machine may
//! move, at any worker count (`FLASHSIM_EQ_WORKERS` sweeps it in CI).

use flashsim::attrib::run_profiled;
use flashsim::engine::{FaultPlan, SpanPlan, Time, TimeDelta};
use flashsim::machine::{run_program, Machine, MachineConfig, RunResult, SchedPolicy, Watchdog};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale, SnCase, Snbench, SyncStorm};
use flashsim_isa::{Placement, Program, Segment, Sink, VAddr};
use std::sync::{Arc, Mutex};

/// Worker count for the `Parallel` policy under test. `scripts/check.sh`
/// sweeps 1, 2, and 0 (= host parallelism) through this variable; the
/// default exercises real multi-worker interleavings everywhere.
fn eq_workers() -> usize {
    std::env::var("FLASHSIM_EQ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The optimized policies, each proven against `Reference`.
fn candidates() -> Vec<(String, SchedPolicy)> {
    let w = eq_workers();
    vec![
        ("batched".to_owned(), SchedPolicy::Batched),
        (
            format!("parallel(workers={w})"),
            SchedPolicy::Parallel { workers: w },
        ),
    ]
}

/// Every platform of the study, at a small node count.
fn platforms(study: &Study, nodes: u32) -> Vec<(String, MachineConfig)> {
    let mut out = vec![("hardware".to_owned(), study.hardware(nodes))];
    for sim in [Sim::SimosMipsy(150), Sim::SoloMipsy(150), Sim::SimosMxs] {
        for mem in [MemModel::FlashLite, MemModel::Numa] {
            let cfg = study.sim(sim, nodes, mem);
            out.push((cfg.label(), cfg));
        }
    }
    out
}

fn with_policy(mut cfg: MachineConfig, sched: SchedPolicy) -> MachineConfig {
    cfg.sched = sched;
    cfg
}

/// Asserts every schedule-sensitive observable of two runs is identical.
fn assert_identical(label: &str, candidate: &RunResult, reference: &RunResult) {
    assert_eq!(
        candidate.stats.to_json(),
        reference.stats.to_json(),
        "{label}: stats JSON must be byte-identical"
    );
    assert_eq!(
        candidate.parallel_time, reference.parallel_time,
        "{label}: parallel time must match"
    );
    assert_eq!(
        candidate.total_time, reference.total_time,
        "{label}: total time must match"
    );
    assert_eq!(
        candidate.ops_per_node, reference.ops_per_node,
        "{label}: per-node op counts must match"
    );
    assert_eq!(
        candidate.barrier_releases, reference.barrier_releases,
        "{label}: barrier release times must match"
    );
    match (&candidate.accounting, &reference.accounting) {
        (None, None) => {}
        (Some(b), Some(r)) => assert_eq!(
            b.to_json(),
            r.to_json(),
            "{label}: accounting must be byte-identical"
        ),
        _ => panic!("{label}: one run profiled, the other not"),
    }
    match (&candidate.telemetry, &reference.telemetry) {
        (None, None) => {}
        (Some(b), Some(r)) => assert_eq!(
            b.to_jsonl(),
            r.to_jsonl(),
            "{label}: stable telemetry JSONL must be byte-identical"
        ),
        _ => panic!("{label}: one run sampled telemetry, the other not"),
    }
    match (&candidate.spans, &reference.spans) {
        (None, None) => {}
        (Some(b), Some(r)) => assert_eq!(
            b.to_jsonl(),
            r.to_jsonl(),
            "{label}: span JSONL must be byte-identical"
        ),
        _ => panic!("{label}: one run traced spans, the other not"),
    }
}

#[test]
fn candidates_match_reference_on_every_platform() {
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (label, cfg) in platforms(&study, 2) {
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let mut cand = with_policy(cfg.clone(), policy);
            cand.hostprof = true;
            let c = run_program(cand, &prog).expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
            if matches!(policy, SchedPolicy::Parallel { .. }) {
                // Every core model here publishes a transparent scan
                // profile, so the parallel run must really have forked —
                // admitted ops through the fork-side environment and met
                // its shared-op stop — or the equivalence above never
                // exercised the private path on the fork side.
                let a = c.hostprof.as_ref().expect("hostprof attached").admission;
                assert!(
                    a.rounds > 0 && a.admitted_ops > 0 && a.rejected_shared > 0,
                    "{label}/{pname}: forking never happened: {a:?}"
                );
            }
        }
    }
}

#[test]
fn candidates_match_reference_with_profiler_attached() {
    // The profiler widens the observable surface (per-op marks, wall vs
    // in-op charges, time-phase buckets), so equivalence is asserted
    // under it too.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (label, cfg) in platforms(&study, 2) {
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_with_telemetry_and_spans() {
    // Telemetry buckets are per-window sums and span sampling happens
    // only on the serial shared paths, so both exports must be
    // byte-identical under the parallel policy's fork/join rounds too —
    // at four nodes, where rounds actually fork several nodes at once.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 4, FftBlocking::Cache);
    for (label, mut cfg) in platforms(&study, 4) {
        cfg.telemetry = Some(TimeDelta::from_us(1));
        cfg.spans = Some(SpanPlan::all(7));
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

/// A checkpoint's state: everything after the three header lines (the
/// provenance names the scheduling policy) and before the checksum.
fn ckpt_state(text: &str) -> &str {
    let body = text.splitn(4, '\n').nth(3).expect("a header");
    &body[..body.rfind("checksum=").expect("a trailer")]
}

#[test]
fn observer_windows_lose_nothing_across_forks_and_barrier_cuts() {
    // The per-op observer writes — hit/miss counters, the compute
    // residual — are folded in per-node windows and reach the registry
    // and the ledger once per bucket. With telemetry and the profiler
    // both attached, at four nodes (rounds fork several at once) and a
    // checkpoint cut at every barrier release: every policy must export
    // Reference's bytes, checkpoint Reference's state (registry and
    // ledger are serialized mid-run, so everything has to be published by
    // then), and count every hit the caches counted.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 4, FftBlocking::Cache);
    let run = |cfg: MachineConfig| {
        let ckpts = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ckpts);
        let mut m = Machine::new(cfg, &prog).expect("machine builds");
        m.attach_ckpt_sink(Box::new(move |_seq, _at: Time, text: &str| {
            let mut ckpts = sink.lock().expect("sink lock");
            ckpts.push(ckpt_state(text).to_owned());
        }));
        let result = m.run().expect("run completes");
        drop(m);
        let ckpts = std::mem::take(&mut *ckpts.lock().expect("sink lock"));
        let series = result.telemetry.as_ref().expect("telemetry attached");
        // (The miss counters also count upgrades, which the caches' own
        // statistics do not.)
        for (metric, stat) in [("mem.l1_hits", "l1.hits"), ("mem.l2_hits", "l2.hits")] {
            let metric = series.get(metric).expect("registered");
            assert_eq!(
                metric.total as f64,
                result.stats.get_or_zero(stat),
                "{} must count every access behind {stat}",
                metric.name
            );
            assert_eq!(
                metric.buckets.iter().sum::<u64>(),
                metric.total,
                "the {} series must add up to its total",
                metric.name
            );
        }
        (result, ckpts)
    };
    for (label, mut cfg) in platforms(&study, 4) {
        cfg.telemetry = Some(TimeDelta::from_us(1));
        cfg.profile = true;
        let (r, r_ckpts) = run(with_policy(cfg.clone(), SchedPolicy::Reference));
        assert!(
            r_ckpts.len() > 1,
            "{label}: a multi-barrier run must cut several checkpoints"
        );
        for (pname, policy) in candidates() {
            let mut cand = with_policy(cfg.clone(), policy);
            cand.hostprof = true;
            let (c, c_ckpts) = run(cand);
            assert_identical(&format!("{label}/{pname}"), &c, &r);
            assert_eq!(c_ckpts.len(), r_ckpts.len(), "{label}/{pname}: cuts");
            for (i, (c_state, r_state)) in c_ckpts.iter().zip(&r_ckpts).enumerate() {
                assert!(
                    c_state == r_state,
                    "{label}/{pname}: checkpoint {i} differs from Reference's"
                );
            }
            if matches!(policy, SchedPolicy::Parallel { .. }) {
                let a = c.hostprof.as_ref().expect("hostprof attached").admission;
                assert!(
                    a.rounds > 0 && a.admitted_ops > 0,
                    "{label}/{pname}: no op ran on the fork side: {a:?}"
                );
            }
        }
    }
}

#[test]
fn candidates_match_reference_on_sync_heavy_storm() {
    // Lock hand-off chains, queueing, and per-round barriers: the batch
    // breaker, the post-sync heap rebuild, and the parallel policy's
    // horizon collapse (every node's next shared op is a sync) get
    // exercised constantly.
    let study = Study::scaled();
    let prog = SyncStorm::new(4, 6, 5);
    for (label, cfg) in platforms(&study, 4) {
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_on_snbench_chase() {
    // The single-runnable-node regime (node 0 chasing alone between
    // barriers) is where batching earns its speedup and where the
    // parallel policy must degrade gracefully to serial batches.
    let study = Study::scaled();
    let prog = Snbench::new(SnCase::all()[2], study.geometry.l2.bytes);
    for (label, cfg) in [
        ("hardware".to_owned(), study.hardware(4)),
        (
            "simos-mipsy".to_owned(),
            study.sim(Sim::SimosMipsy(150), 4, MemModel::FlashLite),
        ),
    ] {
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_under_fault_injection() {
    // Latency perturbation draws from the injector's shared RNG on every
    // memory transaction, so the *order* of shared interactions is
    // directly observable: any schedule divergence scrambles the draws
    // and the stats.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let plan = FaultPlan {
        seed: 0xFA57,
        latency_prob: 0.25,
        latency_spread: 1.5,
        ..FaultPlan::none()
    };
    for (label, mut cfg) in platforms(&study, 2) {
        cfg.faults = Some(plan);
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_on_injected_stall_failure() {
    // A stalled node starves the machine; every policy must fail with
    // the same structured error (same op count, same node snapshots).
    // The parallel policy's fork phase runs the same per-op stall check,
    // so the node parks at exactly the same consumed-op count.
    let study = Study::scaled();
    let prog = SyncStorm::new(2, 4, 3);
    let plan = FaultPlan {
        seed: 7,
        stall_node: Some(1),
        stall_after_ops: 120,
        ..FaultPlan::none()
    };
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.faults = Some(plan);
    let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
        .expect_err("stalled run must fail");
    for (pname, policy) in candidates() {
        let c = run_program(with_policy(cfg.clone(), policy), &prog)
            .expect_err("stalled run must fail");
        assert_eq!(
            format!("{c:?}"),
            format!("{r:?}"),
            "{pname}: structured stall failures must be identical"
        );
    }
}

#[test]
fn parallel_restore_from_checkpoint_matches_reference() {
    // The sched-equivalence contract must survive a checkpoint cycle
    // under the parallel policy: snapshot a Parallel run mid-flight at a
    // quiescent point, restore it (checkpoints are worker-count
    // invariant — `key()` omits the count), resume under Parallel, and
    // land exactly on the Reference policy's numbers.
    let study = Study::scaled();
    let program = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let base = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    let observed = |mut cfg: MachineConfig| {
        cfg.profile = true;
        cfg.telemetry = Some(TimeDelta::from_ns(500));
        cfg
    };
    let mut reference = base.clone();
    reference.sched = SchedPolicy::Reference;
    let ref_straight = run_program(observed(reference), &program).expect("reference run");

    let par = with_policy(
        base.clone(),
        SchedPolicy::Parallel {
            workers: eq_workers(),
        },
    );
    let ckpts: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ckpts);
    let mut m = Machine::new(observed(par.clone()), &program).expect("machine builds");
    m.attach_ckpt_sink(Box::new(move |seq, _at: Time, text: &str| {
        sink.lock().expect("sink lock").push((seq, text.to_owned()));
    }));
    let straight = m.run().expect("parallel run completes");
    drop(m);
    assert_identical("parallel straight vs reference", &straight, &ref_straight);

    let ckpts = ckpts.lock().expect("sink lock").clone();
    assert!(
        ckpts.len() >= 2,
        "multi-barrier FFT must checkpoint repeatedly"
    );
    let mid = &ckpts[ckpts.len() / 2];
    let mut m = Machine::restore(observed(par), &program, &mid.1).expect("parallel ckpt restores");
    let resumed = m.run().expect("resumed parallel run completes");
    assert_identical("parallel restore vs reference", &resumed, &ref_straight);
}

/// A program made of the places where the optimized schedulers' serial
/// epoch has to end or the laggard has to leave the heap: every thread's
/// first op is a barrier, barriers come back to back, a lock ping-pongs
/// with zero to two ops between acquire and release, a contested phase
/// long enough for thousands of scheduling decisions, and a solo phase in
/// which only thread 0 is runnable (one unbounded batch).
#[derive(Debug, Clone, Copy)]
struct EpochEdges {
    threads: usize,
    /// Ops per thread in the contested phase.
    grind: u64,
    /// Ops thread 0 runs alone while the others wait at the last barrier.
    solo: u64,
}

const EDGE_LOCK: u64 = 0x10000;
const EDGE_DATA: u64 = 0x100000;
const EDGE_BYTES: u64 = 32 * 1024;

impl EpochEdges {
    /// Loads, stores and ALU ops over the thread's own region, at a pace
    /// that differs per thread so the laggard keeps changing.
    fn work(sink: &mut Sink, tid: usize, ops: u64) {
        let base = EDGE_DATA + tid as u64 * EDGE_BYTES;
        for k in 0..ops {
            match (k + tid as u64) % 4 {
                0 => {
                    sink.load(VAddr(base + (k * 72) % EDGE_BYTES));
                }
                1 => sink.store(VAddr(base + (k * 40) % EDGE_BYTES)),
                _ => sink.alu(1),
            }
        }
    }
}

impl Program for EpochEdges {
    fn name(&self) -> String {
        "epoch-edges".into()
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn segments(&self) -> Vec<Segment> {
        vec![
            Segment::new(
                "data",
                VAddr(EDGE_DATA),
                EDGE_BYTES * self.threads as u64,
                Placement::Blocked,
            ),
            Segment::new("lock", VAddr(EDGE_LOCK), 4096, Placement::Node(0)),
        ]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let prog = *self;
        Box::new(move |sink| {
            sink.barrier();
            sink.barrier();
            for round in 0..9 {
                sink.lock(1, VAddr(EDGE_LOCK));
                for _ in 0..(round + tid) % 3 {
                    sink.store(VAddr(EDGE_LOCK + 0x80));
                }
                sink.unlock(1, VAddr(EDGE_LOCK));
            }
            sink.barrier();
            EpochEdges::work(sink, tid, prog.grind);
            sink.barrier();
            sink.barrier();
            if tid == 0 {
                EpochEdges::work(sink, tid, prog.solo);
            }
            sink.barrier();
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(1)
    }
}

#[test]
fn candidates_match_reference_across_epoch_boundaries() {
    let study = Study::scaled();
    let prog = EpochEdges {
        threads: 4,
        grind: 600,
        solo: 900,
    };
    let mut clean_ops = Vec::new();
    for (label, cfg) in platforms(&study, 4) {
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
        clean_ops = r.ops_per_node;
    }

    // Failures must be the same structured error — same dispatch count,
    // same per-node clocks, op counts and blocked-on states.
    let total: u64 = clean_ops.iter().sum();
    let mut failures: Vec<(String, Option<FaultPlan>, Watchdog)> = Vec::new();
    // A stall that parks the current laggard mid-batch: thread 0 inside
    // its solo run (the only runnable node), thread 2 in the middle of
    // the contested phase, thread 1 inside the lock ping-pong.
    for (node, after) in [(0, clean_ops[0] - prog.solo / 2), (2, 350), (1, 12)] {
        let plan = FaultPlan {
            seed: 3,
            stall_node: Some(node),
            stall_after_ops: after,
            ..FaultPlan::none()
        };
        failures.push((
            format!("stall node {node} after {after}"),
            Some(plan),
            Watchdog::default(),
        ));
    }
    // A watchdog budget that expires mid-batch. Mid-flight state is
    // policy-invariant only where one node is runnable (elsewhere the
    // optimized policies legitimately reorder private ops), so the
    // budgets land inside thread 0's solo batch; the last one expires
    // on the barrier op that ends it.
    for short in [prog.solo / 2, 2, 1] {
        failures.push((
            format!("budget {}", total - short),
            None,
            Watchdog::with_budget(total - short),
        ));
    }
    for (label, base) in [
        ("hardware", study.hardware(4)),
        (
            "simos-mipsy",
            study.sim(Sim::SimosMipsy(150), 4, MemModel::FlashLite),
        ),
    ] {
        for (what, plan, watchdog) in &failures {
            let mut cfg = base.clone();
            cfg.faults = *plan;
            cfg.watchdog = *watchdog;
            let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
                .expect_err("run must fail");
            for (pname, policy) in candidates() {
                let c = run_program(with_policy(cfg.clone(), policy), &prog)
                    .expect_err("run must fail");
                assert_eq!(
                    format!("{c:?}"),
                    format!("{r:?}"),
                    "{label}/{pname}/{what}: structured failures must be identical"
                );
            }
        }
    }
}

/// Sixty-four threads that meet at a barrier every few hundred ops and,
/// in between, queue on one lock: most sync ops only park their node (a
/// barrier arrival that does not release, an acquire that queues), which
/// the production schedule handles by popping that node off the heap
/// instead of rebuilding it.
#[derive(Debug, Clone, Copy)]
struct SyncGrid {
    threads: usize,
    rounds: u64,
}

impl Program for SyncGrid {
    fn name(&self) -> String {
        "sync-grid".into()
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn segments(&self) -> Vec<Segment> {
        EpochEdges {
            threads: self.threads,
            grind: 0,
            solo: 0,
        }
        .segments()
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let prog = *self;
        Box::new(move |sink| {
            sink.barrier();
            for round in 0..prog.rounds {
                // Uneven paces, so arrivals and lock requests interleave.
                EpochEdges::work(sink, tid, 150 + 5 * ((tid as u64 + round) % 29));
                if (tid as u64 + round).is_multiple_of(3) {
                    sink.lock(1, VAddr(EDGE_LOCK));
                    sink.store(VAddr(EDGE_LOCK + 0x80));
                    sink.unlock(1, VAddr(EDGE_LOCK));
                }
                sink.barrier();
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

#[test]
fn candidates_match_reference_at_64_nodes_with_parking_sync_ops() {
    let study = Study::scaled();
    let prog = SyncGrid {
        threads: 64,
        rounds: 6,
    };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut policies = vec![("batched".to_owned(), SchedPolicy::Batched)];
    for workers in [1, 2, host] {
        let parallel = SchedPolicy::Parallel { workers };
        policies.push((format!("parallel(workers={workers})"), parallel));
    }
    for (label, cfg) in [
        ("hardware".to_owned(), study.hardware(64)),
        (
            "simos-mipsy".to_owned(),
            study.sim(Sim::SimosMipsy(150), 64, MemModel::FlashLite),
        ),
    ] {
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        assert_eq!(r.barrier_releases.len() as u64, 1 + prog.rounds);
        assert!(
            r.stats.get_or_zero("proto.upgrade.count")
                + r.stats.get_or_zero("proto.remote_dirty_remote.count")
                > 0.0,
            "{label}: the lock line never moved between nodes"
        );
        for (pname, policy) in &policies {
            let c = run_profiled(with_policy(cfg.clone(), *policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn attaching_a_heartbeat_changes_no_simulated_byte() {
    // An attached heartbeat samples the wall clock every 4096th
    // scheduling decision, which ends the optimized schedulers' serial
    // epoch there. The interval is an hour, so nothing is ever printed.
    let study = Study::scaled();
    let prog = EpochEdges {
        threads: 4,
        grind: 9000,
        solo: 50,
    };
    for (label, mut cfg) in [
        ("hardware", study.hardware(4)),
        (
            "simos-mipsy",
            study.sim(Sim::SimosMipsy(150), 4, MemModel::FlashLite),
        ),
    ] {
        cfg.profile = true;
        cfg.telemetry = Some(TimeDelta::from_us(1));
        cfg.spans = Some(SpanPlan::all(7));
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let quiet = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            cfg.heartbeat = Some(std::time::Duration::from_secs(3600));
            let beating = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run with a heartbeat completes");
            cfg.heartbeat = None;
            assert_identical(&format!("{label}/{pname}/heartbeat"), &beating, &quiet);
            assert_identical(&format!("{label}/{pname}"), &beating, &r);
            if policy == SchedPolicy::Batched {
                let decisions = beating
                    .telemetry
                    .as_ref()
                    .and_then(|t| t.get("sched.batches"))
                    .map_or(0, |m| m.total);
                assert!(
                    decisions > 2 * 4096,
                    "{label}: {decisions} decisions never reach the heartbeat's cadence"
                );
            }
        }
    }
}
