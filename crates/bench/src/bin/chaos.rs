//! Chaos sweep: seeded fault plans × all platforms, asserting every cell
//! completes or fails with a structured error — never a hang, never a
//! panic — and printing the survival matrix. Every failed cell is retried
//! once with the identical seed; a retry that changes the outcome is
//! reported as *flaky* (a determinism bug), a reproduced failure as
//! *deterministic-failure*.
//!
//! Usage:
//!
//! ```text
//! chaos [--seeds N] [--base S] [--full]
//! chaos --kill-resume [--kills N] [--seed S] [--dir D]
//! chaos --validate-ckpt DIR
//! ```
//!
//! `--seeds N` sweeps N fault plans (default 20, the robustness floor);
//! `--base S` offsets the seed range so different sweeps explore
//! different plans while staying reproducible. Exits nonzero if any cell
//! panicked or was flaky.
//!
//! `--kill-resume` is the crash-consistency gate: it runs a journaled
//! multi-barrier matrix straight, then re-runs it while killing the
//! process (SIGKILL-style `exit(137)`, no destructors) at seeded points
//! mid-matrix, resumes until convergence, and byte-compares every cell's
//! artifacts *and* the deterministic events of each live
//! `flashsim-stream-v1` file against the straight run's (advisory
//! `progress` lines are wall-clock-driven and excluded). Each kill also snapshots the streams it interrupted as
//! `cell<i>.stream.killed` — the torn files a real crash leaves — for
//! `watch --validate` to check. It also structurally validates every
//! `flashsim-ckpt-v1` file left on disk. `--validate-ckpt DIR` runs
//! just that structural validation over an existing directory.

use flashsim_bench::chaos::{survival_matrix, CELL_BUDGET};
use flashsim_bench::Args;
use flashsim_core::journal::{self, run_matrix_journaled};
use flashsim_core::platform::{MemModel, Sim, Study};
use flashsim_core::runner::MatrixCell;
use flashsim_engine::{ckpt, stream};
use flashsim_engine::{Rng, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::SchedPolicy;
use flashsim_workloads::{Fft, FftBlocking};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Watchdog op budget for kill-resume cells.
const KILL_RESUME_BUDGET: u64 = 200_000_000;
/// Exit status the self-kill uses; distinguishable from panics (101).
const KILL_STATUS: i32 = 137;

/// The journaled matrix the kill-resume gate runs: a multi-barrier FFT
/// on three platforms, covering the gold standard, a simulator, and the
/// Reference scheduling policy. Telemetry and profiling are on so each
/// cell's live stream carries real bucket values and per-class
/// accounting deltas through the kill/resume byte-compare.
fn kill_resume_cells() -> Vec<MatrixCell> {
    let study = Study::scaled();
    let fft: Arc<dyn Program> = Arc::new(Fft::new(1 << 10, 2, FftBlocking::Tlb));
    let mut reference = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    reference.sched = SchedPolicy::Reference;
    let mut cells: Vec<MatrixCell> = vec![
        (study.hardware(2), Arc::clone(&fft)),
        (
            study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite),
            Arc::clone(&fft),
        ),
        (reference, fft),
    ];
    for (cfg, _) in &mut cells {
        cfg.telemetry = Some(TimeDelta::from_us(1));
        cfg.profile = true;
    }
    cells
}

/// Child mode: run the journaled matrix in `dir`; if
/// `FLASHSIM_KILL_AFTER_CKPTS=N` is set, a watcher thread hard-kills the
/// process (`exit(137)`, no unwinding, no flushing) once the journal
/// records N checkpoint lines — an honest stand-in for SIGKILL.
fn kill_resume_child(dir: &Path) -> ! {
    if let Some(n) = std::env::var("FLASHSIM_KILL_AFTER_CKPTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        let jpath = journal::journal_path(dir);
        std::thread::spawn(move || loop {
            if let Ok(text) = std::fs::read_to_string(&jpath) {
                if text.lines().filter(|l| l.starts_with("ckpt ")).count() >= n {
                    std::process::exit(KILL_STATUS);
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
    }
    match run_matrix_journaled(kill_resume_cells(), Some(KILL_RESUME_BUDGET), dir) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("child: journaled matrix failed to set up: {e}");
            std::process::exit(2);
        }
    }
}

/// Structurally validates every `cell*.ckpt-*` file in `dir`. Returns
/// `(valid, invalid)` counts, printing one line per file.
fn validate_ckpts(dir: &Path) -> (usize, usize) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("cell") && n.contains(".ckpt-"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    let (mut valid, mut invalid) = (0usize, 0usize);
    for path in files {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(text) => match ckpt::validate(&text) {
                Ok(stats) => {
                    valid += 1;
                    println!(
                        "  {name}: ok ({} sections, {} fields)",
                        stats.sections, stats.fields
                    );
                }
                Err(e) => {
                    invalid += 1;
                    println!("  {name}: INVALID ({e})");
                }
            },
            Err(e) => {
                invalid += 1;
                println!("  {name}: UNREADABLE ({e})");
            }
        }
    }
    (valid, invalid)
}

/// Parent mode: straight run, then kill-and-resume until convergence,
/// then byte-compare artifacts and validate checkpoints. Exits nonzero
/// on any divergence.
fn kill_resume(kills: u64, seed: u64, base: &Path) {
    let straight_dir = base.join("straight");
    let killed_dir = base.join("killed");
    let _ = std::fs::remove_dir_all(&straight_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
    let cells = kill_resume_cells();
    let n_cells = cells.len();

    println!(
        "straight journaled run ({n_cells} cells) -> {}",
        straight_dir.display()
    );
    if let Err(e) = run_matrix_journaled(cells, Some(KILL_RESUME_BUDGET), &straight_dir) {
        eprintln!("FAIL: straight run setup: {e}");
        std::process::exit(1);
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: cannot locate own binary for self-exec: {e}");
            std::process::exit(1);
        }
    };
    let mut rng = Rng::seeded(seed);
    let mut attempt = 0u64;
    loop {
        attempt += 1;
        let killing = attempt <= kills;
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--kill-resume-child").arg(&killed_dir);
        if killing {
            // Kill after a seeded number of checkpoint emissions, anywhere
            // in the matrix; later attempts use later points so the run
            // makes progress even under repeated kills.
            let after = attempt + rng.gen_range(4);
            cmd.env("FLASHSIM_KILL_AFTER_CKPTS", after.to_string());
            println!("attempt {attempt}: kill after {after} checkpoint(s)");
        } else {
            cmd.env_remove("FLASHSIM_KILL_AFTER_CKPTS");
            println!("attempt {attempt}: running to completion");
        }
        match cmd.status() {
            Ok(status) if status.code() == Some(0) => {
                println!("attempt {attempt}: matrix converged");
                break;
            }
            Ok(status) if status.code() == Some(KILL_STATUS) => {
                // Snapshot each cell's stream before the resume trims it:
                // these `.stream.killed` files are exactly what a crashed
                // run leaves behind (possibly with a torn tail and events
                // past the durable checkpoint), and the `watch` validator
                // must accept them as-is.
                for idx in 0..n_cells {
                    let spath = journal::stream_path(&killed_dir, idx);
                    if spath.exists() {
                        let mut killed = spath.clone().into_os_string();
                        killed.push(".killed");
                        let _ = std::fs::copy(&spath, PathBuf::from(killed));
                    }
                }
                continue;
            }
            Ok(status) => {
                eprintln!("FAIL: child exited with unexpected status {status}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("FAIL: spawning child: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut mismatches = 0usize;
    for idx in 0..n_cells {
        let a = std::fs::read(journal::artifacts_path(&straight_dir, idx));
        let b = std::fs::read(journal::artifacts_path(&killed_dir, idx));
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {
                println!("cell {idx}: artifacts byte-identical ({} bytes)", a.len());
            }
            (Ok(_), Ok(_)) => {
                mismatches += 1;
                eprintln!("cell {idx}: ARTIFACTS DIVERGED after kill-and-resume");
            }
            (a, b) => {
                mismatches += 1;
                eprintln!(
                    "cell {idx}: missing artifacts (straight: {}, killed: {})",
                    a.is_ok(),
                    b.is_ok()
                );
            }
        }
        let a = std::fs::read_to_string(journal::stream_path(&straight_dir, idx));
        let b = std::fs::read_to_string(journal::stream_path(&killed_dir, idx));
        match (a, b) {
            // Advisory `progress` lines are wall-clock-driven (a resumed run
            // may heartbeat where the straight run did not); the contract is
            // over the deterministic events only.
            (Ok(a), Ok(b))
                if stream::deterministic_lines(&a) == stream::deterministic_lines(&b) =>
            {
                println!(
                    "cell {idx}: stream deterministic events identical ({})",
                    stream::deterministic_lines(&a).len()
                );
            }
            (Ok(_), Ok(_)) => {
                mismatches += 1;
                eprintln!("cell {idx}: STREAM DIVERGED after kill-and-resume");
            }
            (a, b) => {
                mismatches += 1;
                eprintln!(
                    "cell {idx}: missing stream (straight: {}, killed: {})",
                    a.is_ok(),
                    b.is_ok()
                );
            }
        }
    }
    println!("validating checkpoints left in {}", killed_dir.display());
    let (valid, invalid) = validate_ckpts(&killed_dir);
    println!("checkpoints: {valid} valid, {invalid} invalid");
    if mismatches > 0 || invalid > 0 {
        eprintln!("FAIL: {mismatches} artifact mismatch(es), {invalid} invalid checkpoint(s)");
        std::process::exit(1);
    }
    println!("OK: kill-and-resume converged byte-identically; all checkpoints validate");
}

fn main() {
    let args = Args::parse(&[]);

    // Internal self-exec entry point; must not print the banner.
    if let Some(dir) = args.value("--kill-resume-child") {
        kill_resume_child(Path::new(dir));
    }

    if let Some(dir) = args.value("--validate-ckpt") {
        println!("validating flashsim-ckpt-v1 files in {dir}");
        let (valid, invalid) = validate_ckpts(Path::new(dir));
        println!("checkpoints: {valid} valid, {invalid} invalid");
        std::process::exit(i32::from(invalid > 0));
    }

    let setup = args.setup();
    if args.has("--kill-resume") {
        flashsim_bench::header("chaos kill-and-resume (crash-consistency gate)", &setup);
        let kills: u64 = args.get("--kills").unwrap_or(3);
        let seed: u64 = args.get("--seed").unwrap_or(0xC0FFEE);
        let base = args.value("--dir").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("flashsim-kill-resume-{}", std::process::id()))
        });
        kill_resume(kills, seed, &base);
        return;
    }

    flashsim_bench::header("chaos sweep (fault-injection survival matrix)", &setup);
    let n: u64 = args.get("--seeds").unwrap_or(20);
    let base: u64 = args.get("--base").unwrap_or(0);
    let seeds: Vec<u64> = (base..base + n).collect();

    println!(
        "sweeping {n} seeded fault plans x all platforms (watchdog budget {CELL_BUDGET} ops/cell)"
    );
    println!();
    let s = survival_matrix(&setup.study, &seeds);
    print!("{}", s.grid);
    println!();
    println!(
        "{} cells: {} completed, {} structured failures ({} deterministic on retry, {} flaky), {} panics",
        s.cells, s.completed, s.structured_failures, s.deterministic_failures, s.flaky, s.panics
    );
    if s.panics > 0 || s.flaky > 0 {
        eprintln!(
            "FAIL: {} panic(s), {} flaky cell(s) — see grid above",
            s.panics, s.flaky
        );
        std::process::exit(1);
    }
    println!("OK: every cell completed or failed diagnosably and reproducibly");
}
