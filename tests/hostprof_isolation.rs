//! The host-time self-profiler's isolation contract: attaching
//! `hostprof` observes the simulator, it never participates in it. Host
//! clock reads feed phase accumulators and nothing else, so a run with
//! the profiler attached must be *byte-identical* to the same run
//! without it on every simulated observable — stats JSON, accounting,
//! cycle times, per-node op counts, barrier releases, telemetry JSONL,
//! span JSONL, and every per-barrier checkpoint — on every platform,
//! under the serial Reference and Batched policies and the Parallel
//! policy (where the profiler instruments the fork/join rounds
//! themselves).
//!
//! The runs are the `hostprof` cells of the digest matrix
//! (`tests/matrix/mod.rs`): the 2-node FFT under every observer with the
//! host profiler attached, on every platform, and the long contested
//! phase of `EpochEdges` under `Batched` and `Parallel`. Each must
//! reproduce its class's recorded row, which the other suites' cells
//! reproduce with the profiler detached — and carry no host report, which
//! the matrix checks of every cell.

mod matrix;

#[test]
fn attaching_hostprof_changes_no_simulated_byte() {
    let classes = matrix::ran("fft2/all");
    assert_eq!(classes.len(), 7, "every platform");
    for (class, ran) in classes {
        let attached: Vec<_> = ran.iter().filter(|r| r.cell.host).collect();
        let letters: String = attached.iter().map(|r| r.cell.letter).collect();
        assert_eq!(letters, "RP", "{}: both policies", class.name);
        for r in attached {
            for field in ["run", "acct", "tel", "spans"] {
                assert!(r.has(field), "{}: {field}", r.label);
            }
            let report = r
                .ok()
                .hostprof
                .as_ref()
                .expect("attached run carries a host report");
            assert_eq!(
                report.phase_ns.iter().sum::<u64>(),
                report.total_ns,
                "{}: phase times must tile the run window exactly",
                r.label
            );
        }
    }
}

/// The checkpoint cut is instrumented from inside (the `Ckpt` phase
/// guard wraps the serialization and the sink call), so it is where an
/// isolation bug would leak first: every per-barrier checkpoint and the
/// cell's `flashsim-artifacts-v1` rendering (the row's `ckpt` and `run`)
/// must not move a byte, and a checkpoint cut with the profiler attached
/// restores into a config without it.
#[test]
fn hostprof_leaves_checkpoints_and_artifacts_untouched() {
    for (class, ran) in matrix::ran("fft2/all") {
        let sink = ran.iter().find(|r| r.cell.host && r.cell.sink);
        let sink = sink.unwrap_or_else(|| panic!("{}: a host sink cell", class.name));
        assert!(sink.ckpts.len() > 1, "a multi-barrier run cuts checkpoints");
        assert!(sink.has("ckpt") && sink.has("run"), "{}", sink.label);
        let restored = ran.iter().find(|r| r.cell.restore.is_some());
        let restored = restored.unwrap_or_else(|| panic!("{}: a restore", class.name));
        assert!(
            !restored.cell.host && restored.has("run"),
            "{}",
            restored.label
        );
    }
}

/// `Batched` runs its serial decisions inside long epochs, timed by the
/// `Serial` phase guard: over a contested phase of more than 8192
/// decisions, the `B+host` and `P+host` cells reproduce the class's
/// recorded row on both platforms, its `Batched`-only `series` included.
#[test]
fn hostprof_changes_no_simulated_byte_under_batched() {
    let classes = matrix::ran("edges-long/all");
    assert_eq!(classes.len(), 2, "hardware and SimOS-Mipsy");
    for (class, ran) in classes {
        assert_eq!(matrix::letters(ran), "BP", "{}", class.name);
        for r in ran {
            assert!(r.cell.host, "{}", r.label);
            for field in ["run", "acct", "tel", "spans"] {
                assert!(r.has(field), "{}: {field}", r.label);
            }
        }
        let batched = &ran[0];
        assert!(batched.has("series"), "{}", batched.label);
        let series = batched.ok().telemetry.as_ref().expect("telemetry");
        let decisions = series.get("sched.batches").map_or(0, |m| m.total);
        assert!(decisions > 8192, "{}: {decisions} decisions", batched.label);
    }
}
