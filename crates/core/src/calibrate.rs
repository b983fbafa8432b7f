//! The §3.1.2 tuning loop: "closing the simulation loop".
//!
//! The paper fixes its simulators by comparing microbenchmark
//! measurements against the hardware and adjusting model parameters until
//! they agree:
//!
//! 1. **TLB refill**: a page-walking microbenchmark times TLB misses on
//!    the gold standard; the inferred per-miss cost (the paper measures
//!    65 cycles where Mipsy charged 25 and MXS 35) becomes the
//!    simulators' refill parameter.
//! 2. **FlashLite latencies**: snbench dependent-load chains measure the
//!    five Table-3 protocol cases on the gold standard; a damped Newton
//!    fit then adjusts five FlashLite knobs (reply path, remote directory
//!    handler, processor intervention, dirty-path handler, network-out
//!    handler) until the simulated latencies match — the paper's "we
//!    easily tuned FlashLite parameters until read latencies for all five
//!    protocol read cases matched".
//! 3. **Mipsy's secondary-cache interface**: the residual wall-clock gap
//!    on back-to-back local misses is the occupancy of the R10000's
//!    external cache interface; it becomes Mipsy's tuned
//!    `l2_interface_transfer`.
//!
//! [`calibrate`] runs all three and returns the [`Tuning`] used by every
//! "tuned" platform in Figures 3–7, with each step's record
//! ([`Calibration::tlb`], [`Calibration::table3`],
//! [`Calibration::rounds`]). No run of a step depends on another run of
//! the same step, so each step is one batch on host threads
//! ([`parallel_map`]): an opening batch (the TLB pair, and every case on
//! the hardware and on untuned FlashLite), then per Newton round the
//! Jacobian's 25 runs and the 5 re-measures. The results, and so the
//! arithmetic, come back in the serial loop's order.

use crate::platform::{MemModel, Sim, Study, Tuning};
use crate::runner::{parallel_map, run_once};
use flashsim_engine::{Clock, TimeDelta};
use flashsim_flashlite::FlashLiteParams;
use flashsim_isa::Program;
use flashsim_machine::{MachineConfig, RunResult};
use flashsim_mem::ProtocolCase;
use flashsim_workloads::micro::{SnCase, Snbench, TlbTimer};

/// One row of the Table-3 reproduction.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The protocol case.
    pub case: ProtocolCase,
    /// Gold-standard ("hardware") dependent-load latency, ns.
    pub hardware_ns: f64,
    /// Untuned FlashLite latency, ns.
    pub untuned_ns: f64,
    /// Tuned FlashLite latency, ns.
    pub tuned_ns: f64,
}

impl Table3Row {
    /// Untuned latency relative to hardware (paper's parenthesized value).
    pub fn untuned_relative(&self) -> f64 {
        self.untuned_ns / self.hardware_ns
    }

    /// Tuned latency relative to hardware.
    pub fn tuned_relative(&self) -> f64 {
        self.tuned_ns / self.hardware_ns
    }
}

/// The TLB-timer calibration record.
#[derive(Debug, Clone)]
pub struct TlbCalibration {
    /// Per-load time with TLB misses on every access, ns.
    pub missing_per_load_ns: f64,
    /// Per-load time with a TLB large enough to never miss, ns.
    pub baseline_per_load_ns: f64,
    /// Inferred refill cost in 150 MHz CPU cycles.
    pub inferred_refill_cycles: u64,
}

/// The complete calibration outcome.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The tuned parameters, ready for [`Study::sim_tuned`].
    pub tuning: Tuning,
    /// The Table-3 reproduction (hardware vs untuned vs tuned).
    pub table3: Vec<Table3Row>,
    /// The TLB measurement.
    pub tlb: TlbCalibration,
    /// Coordinate-descent rounds the FlashLite fit needed.
    pub rounds: u32,
}

/// Runs a batch of independent measurements on host threads
/// ([`parallel_map`]) and returns their results in input order. A run
/// that panics re-raises its panic on the caller once the batch drains.
fn run_batch(jobs: Vec<(MachineConfig, &dyn Program)>) -> Vec<RunResult> {
    parallel_map(jobs, |(cfg, program)| run_once(cfg, program))
}

/// The five snbench programs, one per Table-3 case, sized to the study's
/// L2.
fn snbenches(study: &Study) -> Vec<Snbench> {
    let l2 = study.geometry.l2.bytes;
    SnCase::all()
        .into_iter()
        .map(|case| Snbench::new(case, l2))
        .collect()
}

/// One job per snbench: on the gold standard (`params` is `None`) or on
/// Mipsy over FlashLite with `params`.
fn case_jobs<'a>(
    study: &Study,
    params: Option<FlashLiteParams>,
    benches: &'a [Snbench],
) -> Vec<(MachineConfig, &'a dyn Program)> {
    let cfg = match params {
        None => study.hardware(Snbench::NODES as u32),
        Some(p) => {
            let mut cfg = study.sim(
                Sim::SimosMipsy(150),
                Snbench::NODES as u32,
                MemModel::FlashLite,
            );
            cfg.memsys = flashsim_machine::MemSysKind::FlashLite(p);
            cfg
        }
    };
    benches
        .iter()
        .map(|bench| (cfg.clone(), bench as &dyn Program))
        .collect()
}

/// The mean dependent-load latency of each case's run, ns.
fn case_means(runs: &[RunResult]) -> Vec<f64> {
    SnCase::all()
        .into_iter()
        .zip(runs)
        .map(|(case, r)| {
            let key = format!("proto.{}.mean_ns", case.case().key());
            r.stats
                .get(&key)
                // A missing snbench stat is a programming error in this
                // crate's own microbenchmark, not a runtime condition. gate: allow
                .unwrap_or_else(|| panic!("snbench run produced no {key}: {}", r.stats))
        })
        .collect()
}

/// The five FlashLite knobs the fit adjusts, all handled in nanoseconds
/// (cycle-granular fields are rounded to MAGIC cycles when written back).
const KNOBS: usize = 5;

fn read_knobs(p: &FlashLiteParams) -> [f64; KNOBS] {
    let period = p.magic_clock.period().as_ns_f64();
    [
        p.reply_fill.as_ns_f64(),
        p.pp_dir_remote as f64 * period,
        p.proc_intervention.as_ns_f64(),
        p.pp_dirty_extra as f64 * period,
        p.pp_ni_out as f64 * period,
    ]
}

fn write_knobs(p: &mut FlashLiteParams, knobs: [f64; KNOBS]) {
    let period = p.magic_clock.period().as_ns_f64();
    let td = |ns: f64| TimeDelta::from_ps((ns.max(0.0) * 1000.0) as u64);
    let cyc = |ns: f64| (ns.max(0.0) / period).round() as u64;
    p.reply_fill = td(knobs[0]);
    p.pp_dir_remote = cyc(knobs[1]);
    p.proc_intervention = td(knobs[2]);
    p.pp_dirty_extra = cyc(knobs[3]);
    p.pp_ni_out = cyc(knobs[4]);
}

/// Solves `a . x = b` for a small dense system by Gaussian elimination
/// with partial pivoting. Returns `None` on a (numerically) singular
/// matrix.
#[allow(clippy::needless_range_loop)] // rows of `a` alias; zipping obscures the elimination
fn solve_linear(mut a: [[f64; KNOBS]; KNOBS], mut b: [f64; KNOBS]) -> Option<[f64; KNOBS]> {
    for col in 0..KNOBS {
        let pivot = (col..KNOBS).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite Jacobian") // gate: allow
        })?;
        // (partial pivoting keeps the elimination stable)
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..KNOBS {
            let f = a[row][col] / a[col][col];
            for k in col..KNOBS {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; KNOBS];
    for col in (0..KNOBS).rev() {
        let mut acc = b[col];
        for (k, xk) in x.iter().enumerate().take(KNOBS).skip(col + 1) {
            acc -= a[col][k] * xk;
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// The outcome of [`fit_flashlite`].
struct Fit {
    params: FlashLiteParams,
    table3: Vec<Table3Row>,
    rounds: u32,
    /// The snbench runs of the fitted `params`, one per case.
    tuned: Vec<RunResult>,
}

/// Fits FlashLite to the gold standard's snbench latencies, from the
/// hardware and untuned runs of each case.
///
/// The fit is a damped Newton iteration: the Jacobian of the five
/// Table-3 case latencies with respect to the five timing knobs (reply
/// path, remote directory handler, processor intervention, dirty-path
/// handler, network-out handler) is measured by finite differences —
/// knobs interact, since the reply path is on every case's critical path
/// and the network-out handler is charged on up to three legs of a
/// dirty-remote transaction, so independent per-case adjustment
/// oscillates — and a linear solve yields the joint update. Each round
/// measures its Jacobian as one batch of 5 × 5 runs and its update as one
/// batch of 5.
#[allow(clippy::needless_range_loop)] // small fixed-size matrix assembly
fn fit_flashlite(
    study: &Study,
    benches: &[Snbench],
    hardware_runs: &[RunResult],
    untuned_runs: Vec<RunResult>,
) -> Fit {
    let hardware = case_means(hardware_runs);
    let untuned = case_means(&untuned_runs);

    let mut params = FlashLiteParams::untuned();
    let mut rounds = 0;
    const MAX_ROUNDS: u32 = 8;
    const TOLERANCE: f64 = 0.02;
    const STEP_NS: f64 = 100.0;
    const DAMPING: f64 = 0.9;
    const LAMBDA: f64 = 0.05;
    const MAX_STEP_NS: f64 = 400.0;

    let mut current = untuned.clone();
    let mut current_runs = untuned_runs;
    while rounds < MAX_ROUNDS {
        let worst = hardware
            .iter()
            .zip(current.iter())
            .map(|(h, s)| ((h - s) / h).abs())
            .fold(0.0, f64::max);
        if worst < TOLERANCE {
            break;
        }
        rounds += 1;

        // Finite-difference Jacobian: jac[case][knob], knob k's five runs
        // at jobs 5k..5k+5 of one batch.
        let knobs = read_knobs(&params);
        let jobs = (0..KNOBS)
            .flat_map(|k| {
                let mut perturbed = knobs;
                perturbed[k] += STEP_NS;
                let mut p = params;
                write_knobs(&mut p, perturbed);
                case_jobs(study, Some(p), benches)
            })
            .collect();
        let runs = run_batch(jobs);
        let mut jac = [[0.0; KNOBS]; KNOBS];
        for (k, knob_runs) in runs.chunks(KNOBS).enumerate() {
            let measured = case_means(knob_runs);
            for (case, (m, cur)) in measured.iter().zip(current.iter()).enumerate() {
                jac[case][k] = (m - cur) / STEP_NS;
            }
        }

        let mut residual = [0.0; KNOBS];
        for case in 0..KNOBS {
            residual[case] = hardware[case] - current[case];
        }
        // Levenberg-style regularized normal equations: the LDR and RDH
        // rows are nearly collinear (both cross the same dirty path), so
        // a raw Newton step can be enormous along the near-null
        // direction. Solve (J'J + lambda I) dx = J' r and clamp the step.
        let mut jtj = [[0.0; KNOBS]; KNOBS];
        let mut jtr = [0.0; KNOBS];
        for i in 0..KNOBS {
            for j in 0..KNOBS {
                for c in 0..KNOBS {
                    jtj[i][j] += jac[c][i] * jac[c][j];
                }
            }
            for c in 0..KNOBS {
                jtr[i] += jac[c][i] * residual[c];
            }
            jtj[i][i] += LAMBDA;
        }
        let Some(dx) = solve_linear(jtj, jtr) else {
            break; // singular: keep the best fit so far
        };
        let mut next = knobs;
        for k in 0..KNOBS {
            next[k] += (dx[k] * DAMPING).clamp(-MAX_STEP_NS, MAX_STEP_NS);
        }
        write_knobs(&mut params, next);
        current_runs = run_batch(case_jobs(study, Some(params), benches));
        current = case_means(&current_runs);
    }

    let table3 = SnCase::all()
        .into_iter()
        .enumerate()
        .map(|(idx, case)| Table3Row {
            case: case.case(),
            hardware_ns: hardware[idx],
            untuned_ns: untuned[idx],
            tuned_ns: current[idx],
        })
        .collect();
    Fit {
        params,
        table3,
        rounds,
        tuned: current_runs,
    }
}

/// The page-walk timer and its two machines: the gold standard, and the
/// gold standard with a TLB big enough to always hit.
fn tlb_jobs(study: &Study) -> (TlbTimer, [MachineConfig; 2]) {
    let entries = study.geometry.tlb_entries as u64;
    let pages = entries * 4;
    let mut base_cfg = study.hardware(1);
    base_cfg.os = base_cfg.os.with_tlb_entries((pages * 2) as usize);
    (
        TlbTimer::new(pages, study.geometry.page_bytes),
        [study.hardware(1), base_cfg],
    )
}

/// The TLB record from the timer's missing and baseline runs.
fn tlb_calibration(timer: &TlbTimer, missing: &RunResult, baseline: &RunResult) -> TlbCalibration {
    let missing_per = missing.parallel_time.as_ns_f64() / timer.loads() as f64;
    let baseline_per = baseline.parallel_time.as_ns_f64() / timer.loads() as f64;
    let cpu = Clock::from_mhz(150);
    let refill_ns = (missing_per - baseline_per).max(0.0);
    let inferred = (refill_ns / cpu.period().as_ns_f64()).round() as u64;
    TlbCalibration {
        missing_per_load_ns: missing_per,
        baseline_per_load_ns: baseline_per,
        inferred_refill_cycles: inferred,
    }
}

/// The interface occupancy from the local-clean chase `bench` on the gold
/// standard (`hw`) and on tuned Mipsy over FlashLite (`sim`).
fn mipsy_iface(bench: &Snbench, hw: &RunResult, sim: &RunResult) -> Option<TimeDelta> {
    let loads = bench.chase_loads() as f64;
    let hw_per = hw.parallel_time.as_ns_f64() / loads;
    let sim_per = sim.parallel_time.as_ns_f64() / loads;
    let gap = hw_per - sim_per;
    if gap < 5.0 {
        None
    } else {
        Some(TimeDelta::from_ps((gap.min(500.0) * 1000.0) as u64))
    }
}

/// Runs the full calibration: TLB, FlashLite, then the Mipsy interface.
///
/// The runs that do not depend on the fit — the TLB pair, and every
/// case on the hardware and on untuned FlashLite — are one opening
/// batch. The Mipsy interface reads the hardware and final tuned
/// local-clean runs the fit already made.
pub fn calibrate(study: &Study) -> Calibration {
    let (timer, tlb_cfgs) = tlb_jobs(study);
    let benches = snbenches(study);
    let mut jobs: Vec<(MachineConfig, &dyn Program)> =
        tlb_cfgs.map(|cfg| (cfg, &timer as &dyn Program)).into();
    jobs.extend(case_jobs(study, None, &benches));
    jobs.extend(case_jobs(study, Some(FlashLiteParams::untuned()), &benches));
    let mut opening = run_batch(jobs);
    let untuned = opening.split_off(2 + benches.len());
    let tlb = tlb_calibration(&timer, &opening[0], &opening[1]);
    let hardware = &opening[2..];
    let fit = fit_flashlite(study, &benches, hardware, untuned);
    let mipsy_l2_iface = mipsy_iface(&benches[0], &hardware[0], &fit.tuned[0]);
    Calibration {
        tuning: Tuning {
            tlb_refill_cycles: tlb.inferred_refill_cycles,
            mipsy_l2_iface,
            flashlite: fit.params,
        },
        table3: fit.table3,
        tlb,
        rounds: fit.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The one scaled-study calibration every test here reads.
    fn cal() -> &'static Calibration {
        static CAL: OnceLock<Calibration> = OnceLock::new();
        CAL.get_or_init(|| calibrate(&Study::scaled()))
    }

    #[test]
    fn tlb_calibration_recovers_the_true_cost() {
        let cal = &cal().tlb;
        assert!(
            (55..=80).contains(&cal.inferred_refill_cycles),
            "inferred {} cycles, expected ≈65",
            cal.inferred_refill_cycles
        );
        assert!(cal.missing_per_load_ns > cal.baseline_per_load_ns);
    }

    #[test]
    fn flashlite_calibration_converges() {
        let cal = cal();
        let (params, table3) = (cal.tuning.flashlite, &cal.table3);
        assert!(cal.rounds <= 8);
        assert_eq!(table3.len(), 5);
        for row in table3 {
            assert!(
                (row.tuned_relative() - 1.0).abs() < 0.05,
                "{}: tuned {} vs hw {} (rel {:.3})",
                row.case,
                row.tuned_ns,
                row.hardware_ns,
                row.tuned_relative()
            );
        }
        // Tuning must actually improve on untuned for the worst case.
        let worst_untuned = table3
            .iter()
            .map(|r| (r.untuned_relative() - 1.0).abs())
            .fold(0.0, f64::max);
        let worst_tuned = table3
            .iter()
            .map(|r| (r.tuned_relative() - 1.0).abs())
            .fold(0.0, f64::max);
        assert!(worst_tuned < worst_untuned);
        // And the fitted parameters move toward the hardware truth.
        let hw = FlashLiteParams::hardware();
        let fitted = params.proc_intervention.as_ns_f64();
        let start = FlashLiteParams::untuned().proc_intervention.as_ns_f64();
        assert!(
            (fitted - hw.proc_intervention.as_ns_f64()).abs()
                < (start - hw.proc_intervention.as_ns_f64()).abs()
        );
    }

    #[test]
    fn untuned_table3_errors_have_paper_signs() {
        let table3 = &cal().table3;
        // Paper Table 3: untuned FlashLite is fast on Local-clean and slow
        // on Remote-dirty-remote.
        let lc = &table3[0];
        let rdr = &table3[4];
        assert!(
            lc.untuned_relative() < 1.0,
            "LC untuned {}",
            lc.untuned_relative()
        );
        assert!(
            rdr.untuned_relative() > 1.0,
            "RDR untuned {}",
            rdr.untuned_relative()
        );
    }

    #[test]
    fn mipsy_iface_calibration_finds_the_occupancy() {
        let ns = cal()
            .tuning
            .mipsy_l2_iface
            .expect("gold standard has interface occupancy")
            .as_ns_f64();
        assert!(
            (60.0..=400.0).contains(&ns),
            "calibrated interface occupancy {ns}ns implausible (true value 160ns)"
        );
    }
}
