//! Set-up, the cell runner, and the untraced run that yields the
//! end-to-end metrics.
//!
//! The benchmark is a closed loop with one client: this thread runs one
//! cell at a time. The only other threads are the library's own: one
//! op-generator thread per simulated node (and, in the traced run's
//! `Parallel` drives, the pool workers they ask for). Modelled caches
//! start empty in every cell, and a cell's wall covers `Machine::new` as
//! well as `Machine::run`.

use crate::cells::{self, Cell};
use crate::check::{sim_digest, Ledger};
use crate::registry::Workload;
use crate::report::{median, Report};
use flashsim_core::calibrate::calibrate;
use flashsim_core::metrics::mare;
use flashsim_core::platform::Study;
use flashsim_machine::{Machine, MachineConfig, RunResult, SchedPolicy};
use std::time::{Duration, Instant};

/// Passes every run makes at least.
const MIN_PASSES: usize = 3;
/// Full set-ups an untraced run makes; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything done before the first timed pass.
pub struct Setup {
    /// The workload's cells, simulators tuned by this set-up's calibration.
    pub cells: Vec<Cell>,
    /// Index of the oracle cell.
    pub oracle: usize,
    /// Its digest when re-run under `SchedPolicy::Reference`.
    pub oracle_digest: Result<u64, String>,
    /// Seconds inside `core::calibrate::calibrate`.
    pub calibrate_s: f64,
    /// Seconds the whole set-up took.
    pub wall_s: f64,
}

/// Sets the workload up: calibrates the simulators against the hardware
/// model on the microbenchmarks (the SPLASH-2 and storm inputs are held
/// back from tuning), builds the programs from `seed`, and runs the
/// oracle cell under the reference policy.
pub fn set_up(workload: Workload, seed: u64) -> Setup {
    let started = Instant::now();
    let study = Study::scaled();
    let calibration = calibrate(&study);
    let calibrate_s = started.elapsed().as_secs_f64();
    let cells = cells::build(workload, seed, &study, &calibration.tuning);
    let oracle = cells
        .iter()
        .position(|c| c.oracle)
        .expect("every workload marks an oracle cell");
    let mut reference = cells[oracle].cfg.clone();
    reference.sched = SchedPolicy::Reference;
    let oracle_digest = outcome(&cells[oracle], &run_cell(&cells[oracle], reference));
    Setup {
        cells,
        oracle,
        oracle_digest,
        calibrate_s,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// One run of one cell, with the instants a trace needs.
pub struct CellRun {
    /// Before `Machine::new`.
    pub started: Instant,
    /// Between `Machine::new` and `Machine::run`.
    pub built: Instant,
    /// After `Machine::run` returned and the machine was dropped.
    pub finished: Instant,
    /// The run's result, or the error of whichever call failed.
    pub result: Result<RunResult, String>,
}

impl CellRun {
    /// Host seconds the whole cell took.
    pub fn wall_s(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }
}

/// Builds `cell`'s machine under `cfg` and runs its program.
pub fn run_cell(cell: &Cell, cfg: MachineConfig) -> CellRun {
    let started = Instant::now();
    let machine = Machine::new(cfg, cell.program.as_ref());
    let built = Instant::now();
    let result = match machine {
        Ok(mut machine) => machine.run().map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    CellRun {
        started,
        built,
        finished: Instant::now(),
        result,
    }
}

/// What the ledger records for a run: the digest of a good result, or
/// why the run counts as failed.
pub fn outcome(cell: &Cell, run: &CellRun) -> Result<u64, String> {
    let result = run.result.as_ref().map_err(String::clone)?;
    if cell.observed {
        let accounted = result
            .accounting
            .as_ref()
            .is_some_and(|a| !a.nodes.is_empty());
        let sampled = result
            .telemetry
            .as_ref()
            .is_some_and(|t| !t.metrics.is_empty());
        let spanned = result.spans.as_ref().is_some_and(|s| !s.txns.is_empty());
        if !(accounted && sampled && spanned) {
            return Err(format!(
                "observer output missing: accounting={accounted} telemetry={sampled} spans={spanned}"
            ));
        }
    }
    Ok(sim_digest(result))
}

/// One pass: every cell of the workload once, in fixed order.
pub struct Pass {
    /// Each cell's run.
    pub runs: Vec<CellRun>,
}

impl Pass {
    /// Sum of the cells' walls: the pass wall the throughput metric uses.
    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(CellRun::wall_s).sum()
    }
}

/// Runs one pass, each cell under `cfg_of(cell)`, recording every outcome.
pub fn run_pass(
    cells: &[Cell],
    ledger: &mut Ledger,
    cfg_of: impl Fn(&Cell) -> MachineConfig,
) -> Pass {
    let runs = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let run = run_cell(cell, cfg_of(cell));
            ledger.record(i, outcome(cell, &run));
            run
        })
        .collect();
    Pass { runs }
}

/// A ledger that already holds the set-up's oracle outcome.
pub fn ledger_for(setup: &Setup) -> Ledger {
    let mut ledger = Ledger::new(setup.cells.len());
    ledger.record(setup.oracle, setup.oracle_digest.clone());
    ledger
}

/// `accuracy_mare`: mean absolute relative error of simulated
/// `parallel_time` against the hardware model's, over every sim cell
/// whose program also has a hardware cell in the workload.
pub fn accuracy_mare(cells: &[Cell], pass: &Pass) -> f64 {
    let parallel_ns = |i: usize| {
        pass.runs[i]
            .result
            .as_ref()
            .ok()
            .map(|r| r.parallel_time.as_ns_f64())
    };
    let mut relatives = Vec::new();
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| !c.hardware) {
        let hardware = cells
            .iter()
            .position(|h| h.hardware && h.program_id == cell.program_id);
        if let (Some(sim), Some(hw)) = (parallel_ns(i), hardware.and_then(parallel_ns)) {
            relatives.push(sim / hw);
        }
    }
    mare(&relatives)
}

/// Ops a pass simulated in cell `i` (0 if the cell failed).
pub fn cell_ops(pass: &Pass, i: usize) -> u64 {
    pass.runs[i].result.as_ref().map_or(0, RunResult::total_ops)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// The untraced run: three set-ups, then passes until `seconds` are
/// spent (never fewer than [`MIN_PASSES`]), then the end-to-end metrics.
///
/// Throughput is read from each cell's *fastest* pass. Host interference
/// only ever slows a run down, and on a shared two-core host it does so
/// in bursts (a pure ALU spin varies by 10 % at a 0.2 s grain): the
/// median of three passes moved 5-10 % between runs of the same code,
/// the fastest a third of that. The pass-median rate is printed beside
/// it, and `min=`/`max=` give the rate at each cell's second-fastest and
/// fastest pass — the two quietest samples, whose gap is the metric's
/// own spread.
pub fn untraced(workload: Workload, seed: u64, seconds: u32) -> Report {
    let setups: Vec<Setup> = (0..SETUPS).map(|_| set_up(workload, seed)).collect();
    let mut setup_walls: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    setup_walls.sort_by(f64::total_cmp);
    let setup = setups.into_iter().next_back().expect("SETUPS > 0");
    let mut ledger = ledger_for(&setup);
    let cells = &setup.cells;

    let budget = Duration::from_secs(u64::from(seconds));
    let measuring = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    while passes.len() < MIN_PASSES
        || measuring.elapsed() + Duration::from_secs_f64(passes[0].wall_s()) <= budget
    {
        passes.push(run_pass(cells, &mut ledger, |c| c.cfg.clone()));
        if passes.len() == 1 {
            // Set-up plus every cell once is what a user pays; later
            // passes add only allocator retention, which varies with
            // thread timing.
            peak_rss = peak_rss_mib();
        }
    }
    let ops: Vec<f64> = (0..cells.len())
        .map(|i| cell_ops(&passes[0], i) as f64)
        .collect();
    // Each cell's walls over the passes, fastest first.
    let walls: Vec<Vec<f64>> = (0..cells.len())
        .map(|i| {
            let mut walls: Vec<f64> = passes.iter().map(|p| p.runs[i].wall_s()).collect();
            walls.sort_by(f64::total_cmp);
            walls
        })
        .collect();
    let pass_walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let accuracy = accuracy_mare(cells, &passes[0]);

    let mut report = Report::new(workload);
    let n = passes.len();
    let total_ops: f64 = ops.iter().sum();
    let rate_at = |rank: usize| total_ops / walls.iter().map(|w| w[rank]).sum::<f64>();
    report.metric(
        "sim_ops_per_s",
        rate_at(0),
        &format!(
            "n={n} min={} max={} pass_median={} accuracy_mare={accuracy}",
            rate_at(1),
            rate_at(0),
            total_ops / median(&pass_walls)
        ),
    );
    let cell_rate_at = |i: usize, rank: usize| ops[i] / walls[i][rank];
    let mut slowest = 0;
    for (i, cell) in cells.iter().enumerate() {
        report.note(
            "cell",
            &format!(
                "cell={} ops={} ops_per_s={} median={}",
                cell.label,
                ops[i],
                cell_rate_at(i, 0),
                ops[i] / median(&walls[i])
            ),
        );
        if cell_rate_at(i, 0) < cell_rate_at(slowest, 0) {
            slowest = i;
        }
    }
    report.metric(
        "min_cell_ops_per_s",
        cell_rate_at(slowest, 0),
        &format!(
            "n={n} min={} max={} cell={}",
            cell_rate_at(slowest, 1),
            cell_rate_at(slowest, 0),
            cells[slowest].label
        ),
    );
    report.metric("peak_rss_mib", peak_rss, "");
    report.metric("accuracy_mare", accuracy, "");
    report.metric(
        "setup_s",
        median(&setup_walls),
        &format!(
            "n={SETUPS} min={} max={}",
            setup_walls[0],
            setup_walls[SETUPS - 1]
        ),
    );
    report.note(
        "host",
        &format!(
            "nproc={} seed={seed} passes={n}",
            std::thread::available_parallelism().map_or(1, |p| p.get()),
        ),
    );
    report.close(&ledger, cells);
    report
}
