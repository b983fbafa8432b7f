//! The §3.1.2 tuning loop: "closing the simulation loop".
//!
//! The paper fixes its simulators by comparing microbenchmark
//! measurements against the hardware and adjusting model parameters until
//! they agree:
//!
//! 1. **TLB refill** ([`calibrate_tlb`]): a page-walking microbenchmark
//!    times TLB misses on the gold standard; the inferred per-miss cost
//!    (the paper measures 65 cycles where Mipsy charged 25 and MXS 35)
//!    becomes the simulators' refill parameter.
//! 2. **FlashLite latencies** ([`calibrate_flashlite`]): snbench
//!    dependent-load chains measure the five Table-3 protocol cases on the
//!    gold standard; coordinate descent then adjusts one FlashLite knob
//!    per case (reply path, remote directory handler, processor
//!    intervention, dirty-path handler, network-out handler) until the
//!    simulated latencies match — the paper's "we easily tuned FlashLite
//!    parameters until read latencies for all five protocol read cases
//!    matched".
//! 3. **Mipsy's secondary-cache interface** ([`calibrate_mipsy_iface`]):
//!    the residual wall-clock gap on back-to-back local misses is the
//!    occupancy of the R10000's external cache interface; it becomes
//!    Mipsy's tuned `l2_interface_transfer`.
//!
//! [`calibrate`] runs all three and returns the [`Tuning`] used by every
//! "tuned" platform in Figures 3–7.

use crate::platform::{MemModel, Sim, Study, Tuning};
use crate::runner::run_once;
use flashsim_engine::{Clock, TimeDelta};
use flashsim_flashlite::FlashLiteParams;
use flashsim_machine::MachineConfig;
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

/// Measures the mean dependent-load latency for `case` under `cfg`.
fn snbench_mean_ns(cfg: MachineConfig, case: SnCase, l2_bytes: u64) -> f64 {
    let bench = Snbench::new(case, l2_bytes);
    let r = run_once(cfg, &bench);
    let key = format!("proto.{}.mean_ns", case.case().key());
    r.stats
        .get(&key)
        // A missing snbench stat is a programming error in this crate's
        // own microbenchmark, not a runtime condition. gate: allow
        .unwrap_or_else(|| panic!("snbench run produced no {key}: {}", r.stats))
}

fn all_case_means(study: &Study, params: Option<FlashLiteParams>) -> Vec<f64> {
    let l2 = study.geometry.l2.bytes;
    SnCase::all()
        .into_iter()
        .map(|case| {
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
            snbench_mean_ns(cfg, case, l2)
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

/// Calibrates FlashLite against the gold standard's snbench latencies.
///
/// The fit is a damped Newton iteration: the Jacobian of the five
/// Table-3 case latencies with respect to the five timing knobs (reply
/// path, remote directory handler, processor intervention, dirty-path
/// handler, network-out handler) is measured by finite differences —
/// knobs interact, since the reply path is on every case's critical path
/// and the network-out handler is charged on up to three legs of a
/// dirty-remote transaction, so independent per-case adjustment
/// oscillates — and a linear solve yields the joint update. Returns the
/// fitted parameters, the Table-3 record, and the Newton rounds taken.
#[allow(clippy::needless_range_loop)] // small fixed-size matrix assembly
pub fn calibrate_flashlite(study: &Study) -> (FlashLiteParams, Vec<Table3Row>, u32) {
    let hardware = all_case_means(study, None);
    let untuned = all_case_means(study, Some(FlashLiteParams::untuned()));

    let mut params = FlashLiteParams::untuned();
    let mut rounds = 0;
    const MAX_ROUNDS: u32 = 8;
    const TOLERANCE: f64 = 0.02;
    const STEP_NS: f64 = 100.0;
    const DAMPING: f64 = 0.9;
    const LAMBDA: f64 = 0.05;
    const MAX_STEP_NS: f64 = 400.0;

    let mut current = untuned.clone();
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

        // Finite-difference Jacobian: jac[case][knob].
        let knobs = read_knobs(&params);
        let mut jac = [[0.0; KNOBS]; KNOBS];
        for k in 0..KNOBS {
            let mut perturbed = knobs;
            perturbed[k] += STEP_NS;
            let mut p = params;
            write_knobs(&mut p, perturbed);
            let measured = all_case_means(study, Some(p));
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
        current = all_case_means(study, Some(params));
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
    (params, table3, rounds)
}

/// Calibrates the TLB refill cost from the page-walk timer.
pub fn calibrate_tlb(study: &Study) -> TlbCalibration {
    let entries = study.geometry.tlb_entries as u64;
    let pages = entries * 4;
    let timer = TlbTimer::new(pages, study.geometry.page_bytes);

    let missing = run_once(study.hardware(1), &timer);
    let missing_per = missing.parallel_time.as_ns_f64() / timer.loads() as f64;

    // Baseline: the same walk with a TLB big enough to always hit.
    let mut base_cfg = study.hardware(1);
    base_cfg.os = base_cfg.os.with_tlb_entries((pages * 2) as usize);
    let baseline = run_once(base_cfg, &timer);
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

/// Calibrates Mipsy's secondary-cache interface occupancy: the residual
/// wall-clock gap per back-to-back local miss after FlashLite is tuned.
pub fn calibrate_mipsy_iface(study: &Study, flashlite: FlashLiteParams) -> Option<TimeDelta> {
    let l2 = study.geometry.l2.bytes;
    let bench = Snbench::new(SnCase::all()[0], l2); // local clean chase
    let loads = bench.chase_loads() as f64;

    let hw = run_once(study.hardware(Snbench::NODES as u32), &bench);
    let hw_per = hw.parallel_time.as_ns_f64() / loads;

    let mut cfg = study.sim(
        Sim::SimosMipsy(150),
        Snbench::NODES as u32,
        MemModel::FlashLite,
    );
    cfg.memsys = flashsim_machine::MemSysKind::FlashLite(flashlite);
    let sim = run_once(cfg, &bench);
    let sim_per = sim.parallel_time.as_ns_f64() / loads;

    let gap = hw_per - sim_per;
    if gap < 5.0 {
        None
    } else {
        Some(TimeDelta::from_ps((gap.min(500.0) * 1000.0) as u64))
    }
}

/// Runs the full calibration: TLB, FlashLite, then the Mipsy interface.
pub fn calibrate(study: &Study) -> Calibration {
    let tlb = calibrate_tlb(study);
    let (flashlite, table3, rounds) = calibrate_flashlite(study);
    let mipsy_l2_iface = calibrate_mipsy_iface(study, flashlite);
    Calibration {
        tuning: Tuning {
            tlb_refill_cycles: tlb.inferred_refill_cycles,
            mipsy_l2_iface,
            flashlite,
        },
        table3,
        tlb,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_calibration_recovers_the_true_cost() {
        let cal = calibrate_tlb(&Study::scaled());
        assert!(
            (55..=80).contains(&cal.inferred_refill_cycles),
            "inferred {} cycles, expected ≈65",
            cal.inferred_refill_cycles
        );
        assert!(cal.missing_per_load_ns > cal.baseline_per_load_ns);
    }

    #[test]
    fn flashlite_calibration_converges() {
        let (params, table3, rounds) = calibrate_flashlite(&Study::scaled());
        assert!(rounds <= 8);
        assert_eq!(table3.len(), 5);
        for row in &table3 {
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
        let (_, table3, _) = calibrate_flashlite(&Study::scaled());
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
        let study = Study::scaled();
        let (flashlite, _, _) = calibrate_flashlite(&study);
        let iface = calibrate_mipsy_iface(&study, flashlite);
        let ns = iface
            .expect("gold standard has interface occupancy")
            .as_ns_f64();
        assert!(
            (60.0..=400.0).contains(&ns),
            "calibrated interface occupancy {ns}ns implausible (true value 160ns)"
        );
    }
}
