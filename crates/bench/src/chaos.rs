//! The chaos harness: sweeps seeded fault plans across every platform
//! and reports a survival matrix, and gates crash consistency by killing
//! and resuming a journaled matrix.
//!
//! Usage:
//!
//! ```text
//! flashsim chaos [--seeds N] [--base S] [--full]
//! flashsim chaos --kill-resume [--kills N] [--seed S] [--dir D]
//! ```
//!
//! Robustness claim under test: under *any* seeded [`FaultPlan`] — latency
//! perturbation, dropped/delayed protocol messages, stalled nodes,
//! directory-pool pressure, MAGIC queue pressure — every platform either
//! completes or fails with a structured [`flashsim_machine::SimError`].
//! No cell may hang (the watchdog budget bounds it) and no cell may panic
//! (a caught panic renders as `P` and fails the sweep). Every failed cell
//! is retried once with the identical seed; a retry that changes the
//! outcome is reported as *flaky* (a determinism bug), a reproduced
//! failure as *deterministic-failure*.
//!
//! `--seeds N` sweeps N fault plans (default 20, the robustness floor);
//! `--base S` offsets the seed range so different sweeps explore
//! different plans while staying reproducible. Exits nonzero if any cell
//! panicked or was flaky. Everything here is deterministic: the same
//! seed list produces a byte-identical survival grid, which is itself a
//! regression test for the fault injector's reproducibility.
//!
//! `--kill-resume` is the crash-consistency gate: it runs a journaled
//! multi-barrier matrix straight, then re-runs it while killing the
//! process (SIGKILL-style `exit(137)`, no destructors) at seeded points
//! mid-matrix, resumes until convergence, and byte-compares every cell's
//! `flashsim-artifacts-v1` file (accounting, telemetry and span exports)
//! against the straight run's. The `cell<i>.ckpt-<n>` files it leaves
//! under `--dir` are what `flashsim validate ckpt` checks next
//! (`scripts/check.sh` does).

use crate::{header, Args};
use flashsim_core::journal::{self, run_matrix_journaled};
use flashsim_core::platform::{MemModel, Sim, Study};
use flashsim_core::runner::{run_matrix, CellOutcome, MatrixCell};
use flashsim_engine::{FaultPlan, Rng, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::{MachineConfig, SchedPolicy, Watchdog};
use flashsim_workloads::micro::{SnCase, Snbench};
use flashsim_workloads::{Fft, FftBlocking};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Watchdog op budget applied to every chaos cell: far above any snbench
/// run, so it only trips on genuine loss of forward progress.
pub const CELL_BUDGET: u64 = 50_000_000;

/// The platform sweep: every simulator family plus the gold-standard
/// hardware, as short column labels.
pub fn platforms(study: &Study, nodes: u32) -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("hardware", study.hardware(nodes)),
        (
            "mipsy/fl",
            study.sim(Sim::SimosMipsy(150), nodes, MemModel::FlashLite),
        ),
        (
            "solo/fl",
            study.sim(Sim::SoloMipsy(300), nodes, MemModel::FlashLite),
        ),
        (
            "mxs/fl",
            study.sim(Sim::SimosMxs, nodes, MemModel::FlashLite),
        ),
        (
            "mipsy/numa",
            study.sim(Sim::SimosMipsy(150), nodes, MemModel::Numa),
        ),
    ]
}

/// Single-character cell verdict: `.` for a completed run, otherwise the
/// failure kind (`D`eadlock, `S`talled, `T`imeout, `U`nmapped, oo`M`,
/// unheld-`L`ock, `B`uild, `P`anic).
pub fn outcome_char(outcome: &CellOutcome) -> char {
    match outcome.error() {
        None => '.',
        Some(e) => match e.kind() {
            "deadlock" => 'D',
            "stalled" => 'S',
            "timeout" => 'T',
            "unmapped" => 'U',
            "oom" => 'M',
            "unheld_lock" => 'L',
            "build" => 'B',
            "panic" => 'P',
            _ => '?',
        },
    }
}

/// The rendered survival sweep.
#[derive(Debug, Clone)]
pub struct Survival {
    /// The seeds × platforms grid plus legend, ready to print.
    /// Byte-identical for identical seed lists.
    pub grid: String,
    /// Total cells swept.
    pub cells: usize,
    /// Cells that ran to completion.
    pub completed: usize,
    /// Cells that failed with a structured error.
    pub structured_failures: usize,
    /// Cells that panicked (caught); any nonzero count is a bug.
    pub panics: usize,
    /// Failed cells whose single same-seed retry produced a *different*
    /// outcome. The whole stack is deterministic, so any nonzero count
    /// is itself a reproducibility bug.
    pub flaky: usize,
    /// Failed cells whose retry reproduced the same failure kind — the
    /// expected, diagnosable behaviour under an active fault plan.
    pub deterministic_failures: usize,
}

/// Sweeps `seeds` chaos fault plans across every platform, one snbench
/// cell per (seed, platform), all supervised and watchdog-bounded.
pub fn survival_matrix(study: &Study, seeds: &[u64]) -> Survival {
    let nodes = Snbench::NODES as u32;
    let plats = platforms(study, nodes);
    let bench: Arc<dyn Program> = Arc::new(Snbench::new(SnCase::all()[2], study.geometry.l2.bytes));

    let mut cells: Vec<MatrixCell> = Vec::with_capacity(seeds.len() * plats.len());
    for seed in seeds {
        for (_, cfg) in &plats {
            let mut cfg = cfg.clone();
            cfg.faults = Some(FaultPlan::chaos(*seed));
            cfg.watchdog = Watchdog::with_budget(CELL_BUDGET);
            cells.push((cfg, Arc::clone(&bench)));
        }
    }
    let retry_cells: Vec<MatrixCell> = cells
        .iter()
        .map(|(cfg, prog)| (cfg.clone(), Arc::clone(prog)))
        .collect();
    let outcomes = run_matrix(cells, None);

    // Retry every failed cell exactly once with the identical seed and
    // config: a reproduced failure kind is a *deterministic failure*
    // (diagnosable, expected under chaos); a changed outcome is *flaky*
    // and indicts the stack's determinism contract itself.
    let retries: Vec<Option<CellOutcome>> = {
        let to_retry: Vec<MatrixCell> = outcomes
            .iter()
            .zip(&retry_cells)
            .filter(|(o, _)| !o.is_completed())
            .map(|(_, (cfg, prog))| (cfg.clone(), Arc::clone(prog)))
            .collect();
        let mut rerun = run_matrix(to_retry, None).into_iter();
        outcomes
            .iter()
            .map(|o| if o.is_completed() { None } else { rerun.next() })
            .collect()
    };
    let mut flaky = 0usize;
    let mut deterministic_failures = 0usize;
    for (outcome, retry) in outcomes.iter().zip(&retries) {
        if let (Some(first), Some(retry)) = (outcome.error(), retry.as_ref()) {
            match retry.error() {
                Some(second) if second.kind() == first.kind() => deterministic_failures += 1,
                _ => flaky += 1,
            }
        }
    }

    let mut grid = String::new();
    let _ = write!(grid, "{:<12}", "seed");
    for (label, _) in &plats {
        let _ = write!(grid, "{label:>12}");
    }
    let _ = writeln!(grid);

    let mut completed = 0usize;
    let mut panics = 0usize;
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (row, seed) in seeds.iter().enumerate() {
        let _ = write!(grid, "{:<12}", format!("{seed:#06x}"));
        for col in 0..plats.len() {
            let outcome = &outcomes[row * plats.len() + col];
            match outcome.error() {
                None => completed += 1,
                Some(e) => {
                    *by_kind.entry(e.kind()).or_default() += 1;
                    if e.kind() == "panic" {
                        panics += 1;
                    }
                }
            }
            let _ = write!(grid, "{:>12}", outcome_char(outcome));
        }
        let _ = writeln!(grid);
    }
    let cells = outcomes.len();
    let _ = writeln!(
        grid,
        "legend: . ok  D deadlock  S stalled  T timeout  U unmapped  M oom  L unheld-lock  \
         B build  P panic"
    );
    let _ = write!(grid, "survival: {completed}/{cells} completed");
    for (kind, n) in &by_kind {
        let _ = write!(grid, "  {kind}:{n}");
    }
    let _ = writeln!(grid);
    let _ = writeln!(
        grid,
        "retry: {} failure(s) retried once with the same seed: \
         {deterministic_failures} deterministic-failure, {flaky} flaky",
        flaky + deterministic_failures
    );

    Survival {
        grid,
        cells,
        completed,
        structured_failures: cells - completed - panics,
        panics,
        flaky,
        deterministic_failures,
    }
}

/// Watchdog op budget for kill-resume cells.
const KILL_RESUME_BUDGET: u64 = 200_000_000;
/// Exit status the self-kill uses; distinguishable from panics (101).
const KILL_STATUS: i32 = 137;

/// The journaled matrix the kill-resume gate runs: a multi-barrier FFT
/// on three platforms, covering the gold standard, a simulator, and the
/// Reference scheduling policy. Telemetry and profiling are on so their
/// checkpointed state goes through the kill/resume byte-compare.
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

/// Parent mode: straight run, then kill-and-resume until convergence,
/// then byte-compare artifacts. Exits nonzero on any divergence.
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
        cmd.args(["chaos", "--kill-resume-child"]).arg(&killed_dir);
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
            Ok(status) if status.code() == Some(KILL_STATUS) => continue,
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
    }
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} artifact mismatch(es)");
        std::process::exit(1);
    }
    println!("OK: kill-and-resume converged byte-identically");
}

/// The flags of `chaos` that take a value.
pub const VALUE_FLAGS: &[&str] = &[
    "--kills",
    "--seed",
    "--dir",
    "--seeds",
    "--base",
    "--kill-resume-child",
];

/// `flashsim chaos`: see the module documentation.
pub fn run(args: &Args) {
    // Internal self-exec entry point; must not print the banner.
    if let Some(dir) = args.value("--kill-resume-child") {
        kill_resume_child(Path::new(dir));
    }

    let setup = args.setup();
    if args.has("--kill-resume") {
        header("chaos kill-and-resume (crash-consistency gate)", &setup);
        let kills: u64 = args.get("--kills").unwrap_or(3);
        let seed: u64 = args.get("--seed").unwrap_or(0xC0FFEE);
        let base = args.value("--dir").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("flashsim-kill-resume-{}", std::process::id()))
        });
        kill_resume(kills, seed, &base);
        return;
    }

    header("chaos sweep (fault-injection survival matrix)", &setup);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seed_lists_give_byte_identical_survival_grids() {
        let study = Study::scaled();
        let seeds = [3u64, 7];
        let a = survival_matrix(&study, &seeds);
        let b = survival_matrix(&study, &seeds);
        assert_eq!(a.grid, b.grid, "chaos sweeps must be deterministic");
        assert_eq!(a.cells, seeds.len() * platforms(&study, 1).len());
        assert_eq!(a.panics, 0, "no cell may panic:\n{}", a.grid);
        assert_eq!(a.completed + a.structured_failures, a.cells);
        // Same-seed retries must reproduce the same failure kind: the
        // whole stack is deterministic, so nothing may be flaky.
        assert_eq!(a.flaky, 0, "flaky retries:\n{}", a.grid);
        assert_eq!(
            a.flaky + a.deterministic_failures,
            a.structured_failures + a.panics,
            "every failed cell must be retried exactly once"
        );
        assert!(a.grid.contains("retry:"), "grid must report retry verdicts");
    }

    #[test]
    fn outcome_chars_are_distinct_per_kind() {
        // The legend relies on one char per failure kind.
        let chars = ['.', 'D', 'S', 'T', 'U', 'M', 'L', 'B', 'P'];
        let mut sorted = chars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), chars.len());
    }
}
