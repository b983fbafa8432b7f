//! The checkpoint/restore correctness contract: snapshotting a machine at
//! a barrier release and restoring it — even into a freshly built machine
//! in another process — must be *invisible* in every simulated
//! observable. A run that checkpoints at every barrier finishes
//! byte-identical to one that never checkpoints; a run restored from any
//! of those checkpoints finishes byte-identical too, on every platform of
//! the study, with an active fault plan, and across stats, accounting,
//! telemetry JSONL, and span JSONL. A checkpoint that has been corrupted
//! or truncated must be rejected with a structured error, never
//! mis-restored. The checkpoint bytes and the telemetry, span and
//! hostprof export bytes are each pinned to digests recorded before their
//! writers were last rewritten.
//!
//! The runs are the `ckpt` cells of the digest matrix
//! (`tests/matrix/mod.rs`): the 2-node FFT under every observer with a
//! checkpoint sink and restored from each checkpoint it cut, on every
//! platform and under a fault plan, and bare with a sink. Each must
//! reproduce its class's recorded row, which the straight cells of the
//! other suites (`Reference`, `Parallel`, host observers) reproduce too.

mod matrix;

use flashsim::engine::ckpt::{self, CkptError};
use flashsim::engine::{ForkAdmission, HostPhase, HostReport, WorkerLane};
use flashsim::machine::{Machine, RestoreError};
use matrix::{Class, Ran};

/// The straight sink cell of a class and the cells restored from it.
fn sink_and_restores(ran: &[Ran]) -> (&Ran, Vec<&Ran>) {
    let sink = ran.iter().find(|r| r.cell.sink).expect("a sink cell");
    let restored = ran.iter().filter(|r| r.cell.restore.is_some()).collect();
    (sink, restored)
}

/// The simulated observables of a completed cell are all held to the row.
fn assert_observables(class: &Class, r: &Ran) {
    for field in ["run", "acct", "tel", "spans"] {
        assert!(r.has(field), "{}: {field}", r.label);
    }
    assert!(class.cfg.profile, "{}", class.name);
}

#[test]
fn snapshotting_at_every_barrier_changes_nothing_on_any_platform() {
    let classes = matrix::ran("fft2/all");
    assert_eq!(classes.len(), 7, "every platform");
    for (class, ran) in classes {
        let (sink, _) = sink_and_restores(ran);
        assert!(
            sink.ckpts.len() >= 2,
            "{}: multi-barrier FFT must checkpoint repeatedly",
            class.name
        );
        assert_observables(class, sink);
    }
}

#[test]
fn restore_from_every_barrier_is_byte_identical_on_every_platform() {
    for (class, ran) in matrix::ran("fft2/all") {
        let (sink, restored) = sink_and_restores(ran);
        assert_eq!(restored.len(), sink.ckpts.len(), "{}", class.name);
        for r in restored {
            assert_observables(class, r);
        }
    }
}

/// The sched-equivalence contract survives a checkpoint cycle: a
/// `Batched` run restored mid-flight lands on the recorded row, which the
/// `Reference` cells of the class reproduce (`telemetry_determinism`).
#[test]
fn batched_restore_still_matches_reference_policy() {
    for (class, ran) in matrix::ran("fft2/all") {
        let reference = class.cells.iter().any(|(_, token)| token.starts_with('R'));
        assert!(reference, "{}: the table runs a Reference cell", class.name);
        let (_, restored) = sink_and_restores(ran);
        let mid = restored[restored.len() / 2];
        assert_eq!(mid.cell.letter, 'B');
        assert_observables(class, mid);
    }
}

/// Every profiled class is built with `attrib::profiled`, the config
/// a profiled run builds its machine from, so a checkpoint's provenance
/// says `profile=true` and the restored machine has a ledger to load into.
/// (A profiler attached behind a `profile=false` config passed the
/// provenance check and then failed in the ledger with
/// `Parse { key: "enabled" }`.)
#[test]
fn a_run_profiled_machine_checkpoints_under_the_config_it_ran() {
    for (class, ran) in matrix::ran("fft2/all") {
        let (sink, restored) = sink_and_restores(ran);
        assert!(
            sink.ckpts.iter().all(|t| t.contains("profile=true")),
            "{}",
            class.name
        );
        for r in restored {
            assert!(r.ok().accounting.is_some(), "{}", r.label);
        }
    }
}

#[test]
fn restore_under_active_fault_plan_preserves_the_fault_schedule() {
    let classes = matrix::ran("fft2/all/faults");
    let (class, ran) = classes[0];
    let (straight, restored) = sink_and_restores(ran);
    assert!(
        straight.ok().stats.get_or_zero("fault.perturbed") > 0.0,
        "fault plan must actually perturb the run"
    );
    assert_eq!(restored.len(), straight.ckpts.len());
    for r in ran {
        assert_observables(class, r);
    }
    // A checkpoint from the faulted run must refuse to restore into a
    // fault-free config: the fault plan is part of the run's identity.
    let mut clean = class.cfg.clone();
    clean.faults = None;
    let err = Machine::restore(clean, &*class.prog, &straight.ckpts[0]).expect_err("faults");
    assert!(
        matches!(&err, RestoreError::Ckpt(CkptError::ManifestMismatch { .. })),
        "got {err}"
    );
}

/// Every barrier checkpoint of the seven platforms and of the fault-plan
/// cell, each file whole, is the recorded one (the row's `texts`).
#[test]
fn checkpoint_bytes_are_the_recorded_ones() {
    let mut classes = matrix::ran("fft2/all");
    classes.extend(matrix::ran("fft2/all/faults"));
    assert_eq!(classes.len(), 8);
    for (class, ran) in classes {
        let (sink, _) = sink_and_restores(ran);
        assert!(sink.has("texts"), "{}", class.name);
    }
}

/// The telemetry and span exports of the seven platforms are the
/// recorded ones (the rows' `tel` and `spans`), and so are the
/// `flashsim-hostprof-v1` bytes of one hand-built report (a run's host
/// wall times differ from run to run).
#[test]
fn export_bytes_are_the_recorded_ones() {
    for (class, ran) in matrix::ran("fft2/all") {
        let (sink, _) = sink_and_restores(ran);
        assert!(sink.has("tel") && sink.has("spans"), "{}", class.name);
    }
    let phase_ns: [u64; HostPhase::COUNT] = std::array::from_fn(|i| 1_000 * (i as u64 + 1) + 7);
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
        "7fe2adc8524bc233"
    );
}

#[test]
fn corrupted_and_truncated_checkpoints_are_rejected_structurally() {
    let (class, ran) = matrix::class("fft2/none/simos-mipsy-150/flashlite");
    let restore = |text: &str| Machine::restore(class.cfg.clone(), &*class.prog, text);
    let good = &ran[0].ckpts[0];
    ckpt::validate(good).expect("pristine checkpoint validates");

    // Truncation anywhere — including mid-line — fails closed.
    for frac in [4, 2] {
        let cut = &good[..good.len() / frac];
        let err = ckpt::validate(cut).expect_err("truncated checkpoint");
        assert!(
            matches!(err, CkptError::Truncated | CkptError::BadMagic { .. }),
            "truncation at 1/{frac} gave {err}"
        );
        assert!(restore(cut).is_err());
    }

    // A single flipped payload byte fails the checksum.
    let corrupt = good.replacen("consumed=", "consumed=7", 1);
    assert!(matches!(
        ckpt::validate(&corrupt),
        Err(CkptError::ChecksumMismatch { .. })
    ));
    let err = restore(&corrupt).expect_err("corrupt");
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
