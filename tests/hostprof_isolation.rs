//! The host-time self-profiler's isolation contract: attaching
//! `hostprof` observes the simulator, it never participates in it. Host
//! clock reads feed phase accumulators and nothing else, so a run with
//! the profiler attached must be *byte-identical* to the same run
//! without it on every simulated observable — stats JSON, accounting,
//! cycle times, per-node op counts, barrier releases, telemetry JSONL,
//! span JSONL, and every per-barrier checkpoint — on every platform,
//! under both the serial Reference policy and the Parallel policy (where
//! the profiler instruments the fork/join rounds themselves).

use flashsim::engine::{SpanPlan, Time, TimeDelta};
use flashsim::journal::render_artifacts;
use flashsim::machine::{run_program, Machine, MachineConfig, RunResult, SchedPolicy};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::runner::CellOutcome;
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};
use std::sync::{Arc, Mutex};

/// Worker count for the `Parallel` policy under test (same variable the
/// sched-equivalence suite sweeps in CI).
fn eq_workers() -> usize {
    std::env::var("FLASHSIM_EQ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
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

/// Both scheduling policies the profiler instruments.
fn policies() -> Vec<(String, SchedPolicy)> {
    vec![
        ("reference".to_owned(), SchedPolicy::Reference),
        (
            format!("parallel(workers={})", eq_workers()),
            SchedPolicy::Parallel {
                workers: eq_workers(),
            },
        ),
    ]
}

/// Folds every simulated observable of a run into one comparable blob.
/// Host-side fields (`manifest` wall numbers, `hostprof` itself) are
/// deliberately excluded — they are *allowed* to differ.
fn observable_bytes(r: &RunResult) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
        r.stats.to_json(),
        r.total_time,
        r.parallel_time,
        r.ops_per_node,
        r.barrier_releases,
        r.accounting
            .as_ref()
            .map(|a| a.to_json())
            .unwrap_or_default(),
        r.telemetry
            .as_ref()
            .map(|t| t.to_jsonl())
            .unwrap_or_default(),
        r.spans.as_ref().map(|s| s.to_jsonl()).unwrap_or_default(),
    )
}

#[test]
fn attaching_hostprof_changes_no_simulated_byte() {
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (label, base) in platforms(&study, 2) {
        for (pname, policy) in policies() {
            let mut cfg = base.clone();
            cfg.sched = policy;
            cfg.profile = true;
            cfg.telemetry = Some(TimeDelta::from_us(1));
            cfg.spans = Some(SpanPlan::all(7));
            let mut on = cfg.clone();
            on.hostprof = true;
            let detached = run_program(cfg, &prog).expect("detached run completes");
            let attached = run_program(on, &prog).expect("attached run completes");
            assert_eq!(
                observable_bytes(&attached),
                observable_bytes(&detached),
                "{label}/{pname}: hostprof must not change simulated state"
            );
            assert!(
                detached.hostprof.is_none(),
                "{label}/{pname}: detached run must carry no host report"
            );
            let report = attached
                .hostprof
                .as_ref()
                .expect("attached run carries a host report");
            assert_eq!(
                report.phase_ns.iter().sum::<u64>(),
                report.total_ns,
                "{label}/{pname}: phase times must tile the run window exactly"
            );
        }
    }
}

#[test]
fn hostprof_leaves_checkpoints_and_artifacts_untouched() {
    // The checkpoint cut is instrumented from inside (the `Ckpt` phase
    // guard wraps the serialization and the sink call), so it is where
    // an isolation bug would leak first: every per-barrier checkpoint and
    // the cell's `flashsim-artifacts-v1` rendering must not move a byte.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.sched = SchedPolicy::Parallel {
        workers: eq_workers(),
    };
    cfg.telemetry = Some(TimeDelta::from_us(1));
    cfg.profile = true;
    let run = |hostprof: bool| {
        let mut c = cfg.clone();
        c.hostprof = hostprof;
        let ckpts = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&ckpts);
        let mut m = Machine::new(c, &prog).expect("machine builds");
        m.attach_ckpt_sink(Box::new(move |seq, _at: Time, text: &str| {
            sink.lock().expect("sink lock").push((seq, text.to_owned()));
        }));
        let result = m.run().expect("checkpointed run completes");
        drop(m);
        let ckpts = std::mem::take(&mut *ckpts.lock().expect("sink lock"));
        let artifacts = render_artifacts(&CellOutcome::Completed(Box::new(result)));
        (ckpts, artifacts)
    };
    let (off_ckpts, off_artifacts) = run(false);
    let (on_ckpts, on_artifacts) = run(true);
    assert!(off_ckpts.len() > 1, "a multi-barrier run cuts checkpoints");
    assert!(
        on_ckpts == off_ckpts,
        "hostprof must not perturb any per-barrier checkpoint"
    );
    assert_eq!(
        on_artifacts, off_artifacts,
        "hostprof must not perturb the artifacts"
    );
}
