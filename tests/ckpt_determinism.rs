//! The checkpoint/restore correctness contract: snapshotting a machine at
//! a barrier release and restoring it — even into a freshly built machine
//! in another process — must be *invisible* in every simulated
//! observable. A run that checkpoints at every barrier finishes
//! byte-identical to one that never checkpoints; a run restored from any
//! of those checkpoints finishes byte-identical too, on every platform of
//! the study, under both scheduling policies, with an active fault plan,
//! and across stats, accounting, telemetry JSONL, and span JSONL. A
//! checkpoint that has been corrupted or truncated must be rejected with
//! a structured error, never mis-restored. The checkpoint bytes and the
//! telemetry, span and hostprof export bytes are each pinned to digests
//! recorded before their writers were last rewritten.

use flashsim::engine::ckpt::{self, CkptError};
use flashsim::engine::{
    FaultPlan, ForkAdmission, HostPhase, HostReport, SpanPlan, Time, TimeDelta, WorkerLane,
};
use flashsim::machine::{
    run_program, Machine, MachineConfig, RestoreError, RunResult, SchedPolicy,
};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};
use std::sync::{Arc, Mutex};

/// Every platform family of the study at 2 nodes: the gold-standard
/// hardware plus each simulator × memory-system combination.
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

/// Attaches every optional observer so byte-identity covers stats,
/// accounting, telemetry, and spans at once.
fn observed(mut cfg: MachineConfig) -> MachineConfig {
    cfg.profile = true;
    cfg.telemetry = Some(TimeDelta::from_ns(500));
    cfg.spans = Some(SpanPlan::all(7));
    cfg
}

fn prog() -> Fft {
    Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache)
}

/// Runs with a checkpoint sink attached, returning the result and every
/// `(seq, text)` checkpoint emitted.
fn run_with_ckpts(cfg: MachineConfig, program: &Fft) -> (RunResult, Vec<(u64, String)>) {
    let ckpts: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ckpts);
    let mut m = Machine::new(cfg, program).expect("machine builds");
    m.attach_ckpt_sink(Box::new(move |seq, _at: Time, text: &str| {
        sink.lock().expect("sink lock").push((seq, text.to_owned()));
    }));
    let result = m.run().expect("instrumented run completes");
    drop(m);
    let ckpts = Arc::try_unwrap(ckpts)
        .expect("sink dropped")
        .into_inner()
        .expect("lock");
    (result, ckpts)
}

/// Asserts every simulated observable of two runs is byte-identical.
fn assert_identical(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.total_time, b.total_time, "{label}: total time");
    assert_eq!(a.parallel_time, b.parallel_time, "{label}: parallel time");
    assert_eq!(a.ops_per_node, b.ops_per_node, "{label}: per-node ops");
    assert_eq!(
        a.barrier_releases, b.barrier_releases,
        "{label}: barrier releases"
    );
    assert_eq!(
        a.stats.to_json(),
        b.stats.to_json(),
        "{label}: stats JSON must be byte-identical"
    );
    match (&a.accounting, &b.accounting) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.to_json(), y.to_json(), "{label}: accounting JSON")
        }
        _ => panic!("{label}: one run profiled, the other not"),
    }
    match (&a.telemetry, &b.telemetry) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.to_jsonl(), y.to_jsonl(), "{label}: telemetry JSONL")
        }
        _ => panic!("{label}: one run sampled telemetry, the other not"),
    }
    match (&a.spans, &b.spans) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.to_jsonl(), y.to_jsonl(), "{label}: span JSONL")
        }
        _ => panic!("{label}: one run traced spans, the other not"),
    }
}

#[test]
fn snapshotting_at_every_barrier_changes_nothing_on_any_platform() {
    let study = Study::scaled();
    let program = prog();
    for (label, cfg) in platforms(&study, 2) {
        let straight = run_program(observed(cfg.clone()), &program).expect("straight run");
        let (instrumented, ckpts) = run_with_ckpts(observed(cfg), &program);
        assert!(
            ckpts.len() >= 2,
            "{label}: multi-barrier FFT must checkpoint repeatedly"
        );
        assert_identical(&label, &straight, &instrumented);
    }
}

#[test]
fn restore_from_every_barrier_is_byte_identical_on_every_platform() {
    let study = Study::scaled();
    let program = prog();
    for (label, cfg) in platforms(&study, 2) {
        let (straight, ckpts) = run_with_ckpts(observed(cfg.clone()), &program);
        for (seq, text) in &ckpts {
            let mut m = Machine::restore(observed(cfg.clone()), &program, text)
                .unwrap_or_else(|e| panic!("{label}: restore ckpt {seq}: {e}"));
            let resumed = m.run().expect("resumed run completes");
            assert_identical(&format!("{label} ckpt {seq}"), &straight, &resumed);
        }
    }
}

#[test]
fn batched_restore_still_matches_reference_policy() {
    let study = Study::scaled();
    let program = prog();
    let base = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    let mut reference = base.clone();
    reference.sched = SchedPolicy::Reference;
    let ref_straight = run_program(observed(reference), &program).expect("reference run");
    let (_, ckpts) = run_with_ckpts(observed(base.clone()), &program);
    let mid = &ckpts[ckpts.len() / 2];
    let mut m = Machine::restore(observed(base), &program, &mid.1).expect("batched ckpt restores");
    let resumed = m.run().expect("resumed batched run completes");
    // The sched-equivalence contract must survive a checkpoint cycle:
    // a Batched run restored mid-flight still lands exactly on the
    // Reference policy's numbers.
    assert_identical("batched-restore vs reference", &ref_straight, &resumed);
}

#[test]
fn a_run_profiled_machine_checkpoints_under_the_config_it_ran() {
    use flashsim::attrib::{profiled, run_profiled};
    let study = Study::scaled();
    let program = prog();
    let base = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    let straight = run_profiled(base.clone(), &program).expect("straight profiled run");
    assert!(straight.accounting.is_some());
    // `profiled(cfg)` is the config `run_profiled` builds its machine
    // from, so the checkpoint's provenance says `profile=true` and the
    // restored machine has a ledger to load into. (A profiler attached
    // behind a `profile=false` config passed the provenance check and
    // then failed in the ledger with `Parse { key: "enabled" }`.)
    let (_, ckpts) = run_with_ckpts(profiled(base.clone()), &program);
    let mid = &ckpts[ckpts.len() / 2];
    let mut m = Machine::restore(profiled(base), &program, &mid.1).expect("profiled ckpt restores");
    let resumed = m.run().expect("resumed profiled run completes");
    assert_identical("run_profiled restore", &straight, &resumed);
}

#[test]
fn restore_under_active_fault_plan_preserves_the_fault_schedule() {
    let study = Study::scaled();
    let program = prog();
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.faults = Some(FaultPlan {
        seed: 0xFA117,
        latency_prob: 0.5,
        latency_spread: 1.0,
        ..FaultPlan::default()
    });
    let (straight, ckpts) = run_with_ckpts(cfg.clone(), &program);
    assert!(
        straight.stats.get_or_zero("fault.perturbed") > 0.0,
        "fault plan must actually perturb the run"
    );
    for (seq, text) in &ckpts {
        let mut m = Machine::restore(cfg.clone(), &program, text).expect("faulted restore");
        let resumed = m.run().expect("resumed faulted run completes");
        assert_identical(&format!("faulted ckpt {seq}"), &straight, &resumed);
    }
    // A checkpoint from the faulted run must refuse to restore into a
    // fault-free config: the fault plan is part of the run's identity.
    let mut clean = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    clean.faults = None;
    let err = Machine::restore(clean, &program, &ckpts[0].1).expect_err("wrong fault plan");
    assert!(
        matches!(&err, RestoreError::Ckpt(CkptError::ManifestMismatch { .. })),
        "got {err}"
    );
}

/// The fxhash digest of every barrier checkpoint `cfg` emits on `prog()`,
/// concatenated in emission order.
fn ckpt_digest(cfg: MachineConfig) -> String {
    let (_, ckpts) = run_with_ckpts(cfg, &prog());
    let texts: String = ckpts.iter().map(|(_, text)| text.as_str()).collect();
    ckpt::provenance_hash(&texts)
}

/// Whole-machine checkpoint bytes recorded at the commit before every
/// component's save/load pair became one walk (`006a5c7`): each of the
/// seven platforms under every observer, and a FlashLite cell under a
/// fault plan that perturbs latency, drops and delays messages, clamps the
/// directory pointer pool (a live free list) and the MAGIC queue (NACKs
/// and retries). A moved digest means a checkpoint on disk no longer
/// restores: the format is a contract, not an implementation detail.
#[test]
fn checkpoint_bytes_are_the_recorded_ones() {
    let study = Study::scaled();
    let recorded = [
        ("hardware", "9c17981c045f3f68"),
        ("simos-mipsy-150/flashlite", "0083e173f8667e7b"),
        ("simos-mipsy-150/numa", "9ed12f96c5f2401d"),
        ("solo-mipsy-150/flashlite", "1a247f531155f394"),
        ("solo-mipsy-150/numa", "e125e35d08493637"),
        ("simos-mxs/flashlite", "fcf68ee54c94abc9"),
        ("simos-mxs/numa", "8270d0d1cc376c92"),
    ];
    let platforms = platforms(&study, 2);
    assert_eq!(platforms.len(), recorded.len());
    for ((label, cfg), (want_label, want)) in platforms.into_iter().zip(recorded) {
        assert_eq!(label, want_label);
        assert_eq!(
            ckpt_digest(observed(cfg)),
            want,
            "{label}: checkpoint bytes moved"
        );
    }
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.faults = Some(FaultPlan {
        seed: 0xB17E5,
        latency_prob: 0.3,
        latency_spread: 1.0,
        drop_prob: 0.02,
        drop_timeout: TimeDelta::from_ns(1_000),
        delay_prob: 0.1,
        delay: TimeDelta::from_ns(500),
        dir_pool_cap: Some(2),
        magic_queue_ns: Some(20),
        ..FaultPlan::default()
    });
    assert_eq!(
        ckpt_digest(observed(cfg)),
        "a6af9a22c3b5d0d5",
        "fault-plan cell: checkpoint bytes moved"
    );
}

/// Export bytes recorded at the commit before each `flashsim-*-v1` JSONL
/// writer and its validator became one walk (`fbf2e80`): the telemetry
/// and span documents of the observed FFT on each of the seven platforms,
/// and the hostprof document of one hand-built report (a run's host wall
/// times differ from run to run). The determinism suites compare one
/// run's export with another run's, so only a digest sees a writer change
/// that moves every run's bytes the same way.
#[test]
fn export_bytes_are_the_recorded_ones() {
    let study = Study::scaled();
    let recorded = [
        ("hardware", "1e67de6e2e95f108", "f02435e1ae1a88d4"),
        (
            "simos-mipsy-150/flashlite",
            "764826b491f1a5d0",
            "06ba570fab9a0e9f",
        ),
        (
            "simos-mipsy-150/numa",
            "29883ac53f608192",
            "ca1357536527cdb0",
        ),
        (
            "solo-mipsy-150/flashlite",
            "cd79d6566c6cd443",
            "2829152523a2d4fd",
        ),
        (
            "solo-mipsy-150/numa",
            "3858d7ea01066f27",
            "872e075726ebf7c6",
        ),
        (
            "simos-mxs/flashlite",
            "bd47c6bdcc357097",
            "7a7328de813d848f",
        ),
        ("simos-mxs/numa", "8d686568867ac051", "302dd1d8fd47ea34"),
    ];
    let platforms = platforms(&study, 2);
    assert_eq!(platforms.len(), recorded.len());
    for ((label, cfg), (want_label, telemetry, spans)) in platforms.into_iter().zip(recorded) {
        assert_eq!(label, want_label);
        let r = run_program(observed(cfg), &prog()).expect("observed run");
        let digest = |text: String| ckpt::provenance_hash(&text);
        assert_eq!(
            digest(r.telemetry.expect("telemetry").to_jsonl()),
            telemetry,
            "{label}: telemetry bytes moved"
        );
        assert_eq!(
            digest(r.spans.expect("spans").to_jsonl()),
            spans,
            "{label}: span bytes moved"
        );
    }
    let mut phase_ns = [0; HostPhase::COUNT];
    for (i, ns) in phase_ns.iter_mut().enumerate() {
        *ns = 1_000 * (i as u64 + 1) + 7;
    }
    let report = HostReport {
        total_ns: phase_ns.iter().sum(),
        phase_ns,
        admission: ForkAdmission {
            rounds: 12,
            admitted_ops: 3_456,
            forked_nodes: 20,
            rejected_horizon: 3,
            rejected_shared: 2,
            rejected_opaque: 1,
            stopped_sync: 5,
            stopped_quota: 4,
            stopped_end: 6,
        },
        workers: vec![
            WorkerLane {
                execute_ns: 9_000,
                steal_ns: 40,
                idle_ns: 1_200,
                jobs: 11,
                steals: 2,
            },
            WorkerLane::default(),
        ],
    };
    assert_eq!(
        ckpt::provenance_hash(&report.to_jsonl()),
        "7fe2adc8524bc233",
        "hostprof bytes moved"
    );
}

#[test]
fn corrupted_and_truncated_checkpoints_are_rejected_structurally() {
    let study = Study::scaled();
    let program = prog();
    let cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    let (_, ckpts) = run_with_ckpts(cfg.clone(), &program);
    let good = &ckpts[0].1;
    ckpt::validate(good).expect("pristine checkpoint validates");

    // Truncation anywhere — including mid-line — fails closed.
    for frac in [4, 2] {
        let cut = &good[..good.len() / frac];
        let err = ckpt::validate(cut).expect_err("truncated checkpoint");
        assert!(
            matches!(err, CkptError::Truncated | CkptError::BadMagic { .. }),
            "truncation at 1/{frac} gave {err}"
        );
        assert!(Machine::restore(cfg.clone(), &program, cut).is_err());
    }

    // A single flipped payload byte fails the checksum.
    let corrupt = good.replacen("consumed=", "consumed=7", 1);
    assert!(matches!(
        ckpt::validate(&corrupt),
        Err(CkptError::ChecksumMismatch { .. })
    ));
    let err = Machine::restore(cfg.clone(), &program, &corrupt).expect_err("corrupt");
    assert!(matches!(
        err,
        RestoreError::Ckpt(CkptError::ChecksumMismatch { .. })
    ));

    // A future format version is recognized as such, not parsed further,
    // and arbitrary garbage fails closed too.
    assert!(matches!(
        ckpt::validate(&good.replacen("flashsim-ckpt-v1", "flashsim-ckpt-v9", 1)),
        Err(CkptError::BadMagic { .. })
    ));
    assert!(ckpt::validate("not-a-checkpoint\nkey=1\n").is_err());
}
