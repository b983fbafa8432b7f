//! Data generation for every figure in the paper's evaluation.
//!
//! Each `figN` function runs the exact experiment matrix behind the
//! corresponding figure and returns structured data; `flashsim-bench`
//! binaries render them. A figure is one list of cells — the hardware and
//! every simulator at every application or processor count — run by one
//! [`run_matrix`] call, so its cells run side by side on host threads
//! (each simulation is single-threaded and independent) and a failed cell
//! degrades only the points it measures or normalises.
//!
//! | Function | Paper figure | Matrix |
//! |---|---|---|
//! | [`fig1`] | Figure 1 | untuned apps × untuned sims, uniprocessor |
//! | [`fig2`] | Figure 2 | TLB-blocking app fixes applied |
//! | [`fig3`] | Figure 3 | + calibrated simulators |
//! | [`fig4`] | Figure 4 | same, four processors |
//! | [`fig5`] | Figure 5 | FFT speedup: hardware, SimOS-MXS, SimOS-Mipsy-300 |
//! | [`fig6`] | Figure 6 | Radix speedup: hardware, SimOS-Mipsy-225, Solo-Mipsy-225 |
//! | [`fig7`] | Figure 7 | unplaced Radix: FlashLite (un/tuned) vs NUMA |
//! | [`latency_ablation`] | §3.1.3 | Radix on SimOS-Mipsy-225 ± real mul/div latencies |

use crate::platform::{MemModel, Sim, Study, Tuning};
use crate::runner::{hardware_mean, relative_time, run_matrix, speedup, CellOutcome, MatrixCell};
use flashsim_engine::TimeDelta;
use flashsim_isa::Program;
use flashsim_machine::CpuModel;
use flashsim_workloads::{Fft, FftBlocking, Lu, Ocean, ProblemScale, Radix};
use std::sync::Arc;

/// A cell's measured time, or the kind of its failure.
fn time_of(cell: &CellOutcome) -> Result<TimeDelta, &'static str> {
    match cell {
        CellOutcome::Completed(r) => Ok(r.parallel_time),
        CellOutcome::Failed { error, .. } => Err(error.kind()),
    }
}

/// A hardware cell's time as the paper measures it: the mean of
/// [`HARDWARE_RUNS`](crate::runner::HARDWARE_RUNS) jittered runs.
fn hardware_time(cell: &CellOutcome) -> Result<TimeDelta, &'static str> {
    time_of(cell).map(|t| hardware_mean(t, cell.manifest().nodes).0)
}

/// `sim` over `hw`, or the failure kind of the cell that failed.
fn relative(
    sim: Result<TimeDelta, &'static str>,
    hw: Result<TimeDelta, &'static str>,
) -> Result<f64, &'static str> {
    Ok(relative_time(sim?, hw?))
}

/// The four applications at a given thread count, in figure order.
/// `apps_tuned` applies the Figure-2 TLB-blocking fixes.
pub fn apps_untuned(scale: ProblemScale, threads: usize) -> Vec<(&'static str, Arc<dyn Program>)> {
    vec![
        (
            "FFT",
            Arc::new(Fft::sized(scale, threads, FftBlocking::Cache)) as Arc<dyn Program>,
        ),
        ("Radix-Sort", Arc::new(Radix::untuned(scale, threads))),
        ("LU", Arc::new(Lu::sized(scale, threads))),
        ("Ocean", Arc::new(Ocean::sized(scale, threads))),
    ]
}

/// The applications with the paper's §3.1.2 input fixes (FFT blocked for
/// the TLB; Radix-Sort with the reduced radix).
pub fn apps_tuned(scale: ProblemScale, threads: usize) -> Vec<(&'static str, Arc<dyn Program>)> {
    vec![
        (
            "FFT",
            Arc::new(Fft::sized(scale, threads, FftBlocking::Tlb)) as Arc<dyn Program>,
        ),
        ("Radix-Sort", Arc::new(Radix::tuned(scale, threads))),
        ("LU", Arc::new(Lu::sized(scale, threads))),
        ("Ocean", Arc::new(Ocean::sized(scale, threads))),
    ]
}

/// One bar of a relative-execution-time figure.
#[derive(Debug, Clone)]
pub struct RelativePoint {
    /// Application name.
    pub app: &'static str,
    /// Simulator column label.
    pub sim: String,
    /// Simulated time / hardware time (1.0 = exact). NaN when the cell
    /// failed (see [`RelativePoint::error`]).
    pub relative: f64,
    /// The failure kind (`"deadlock"`, `"stalled"`, ...) if the cell's
    /// run did not complete; `None` for healthy cells.
    pub error: Option<String>,
}

impl RelativePoint {
    /// A healthy measured bar.
    pub fn measured(app: &'static str, sim: String, relative: f64) -> RelativePoint {
        RelativePoint {
            app,
            sim,
            relative,
            error: None,
        }
    }
}

/// A Figure-1/2/3/4-style dataset.
#[derive(Debug, Clone)]
pub struct RelativeFigure {
    /// Figure title.
    pub title: String,
    /// Node count of every run.
    pub nodes: u32,
    /// All bars.
    pub points: Vec<RelativePoint>,
}

impl RelativeFigure {
    /// The bar for (`app`, `sim` label), if present.
    pub fn get(&self, app: &str, sim: &str) -> Option<f64> {
        self.point(app, sim).map(|p| p.relative)
    }

    /// The full point for (`app`, `sim` label), if present.
    pub fn point(&self, app: &str, sim: &str) -> Option<&RelativePoint> {
        self.points.iter().find(|p| p.app == app && p.sim == sim)
    }

    /// Number of cells that failed to produce a measurement.
    pub fn failed_cells(&self) -> usize {
        self.points.iter().filter(|p| p.error.is_some()).count()
    }
}

fn relative_figure(
    study: &Study,
    title: &str,
    nodes: u32,
    apps: Vec<(&'static str, Arc<dyn Program>)>,
    tuning: Option<&Tuning>,
) -> RelativeFigure {
    let sims = Sim::figure_order();
    // Per app: the hardware cell, then one cell per simulator.
    let mut cells: Vec<MatrixCell> = Vec::new();
    for (_, prog) in &apps {
        cells.push((study.hardware(nodes), Arc::clone(prog)));
        for &sim in &sims {
            let cfg = study.sim_with(sim, nodes, MemModel::FlashLite, tuning);
            cells.push((cfg, Arc::clone(prog)));
        }
    }
    let outcomes = run_matrix(cells, None);
    let mut points = Vec::new();
    for ((app, _), row) in apps.iter().zip(outcomes.chunks(1 + sims.len())) {
        let hw = hardware_time(&row[0]);
        for (sim, cell) in sims.iter().zip(&row[1..]) {
            let r = relative(time_of(cell), hw);
            points.push(RelativePoint {
                app,
                sim: sim.label(),
                relative: r.unwrap_or(f64::NAN),
                error: r.err().map(str::to_owned),
            });
        }
    }
    RelativeFigure {
        title: title.to_owned(),
        nodes,
        points,
    }
}

/// Figure 1: initial uniprocessor comparison — untuned applications on
/// untuned simulators.
pub fn fig1(study: &Study, scale: ProblemScale) -> RelativeFigure {
    relative_figure(
        study,
        "Figure 1: Initial uniprocessor SPLASH-2 results before simulator tuning",
        1,
        apps_untuned(scale, 1),
        None,
    )
}

/// Figure 2: after the application TLB-blocking fixes.
pub fn fig2(study: &Study, scale: ProblemScale) -> RelativeFigure {
    relative_figure(
        study,
        "Figure 2: Uniprocessor SPLASH-2 results after blocking fixes",
        1,
        apps_tuned(scale, 1),
        None,
    )
}

/// Figure 3: final uniprocessor comparison with calibrated simulators.
pub fn fig3(study: &Study, scale: ProblemScale, tuning: &Tuning) -> RelativeFigure {
    relative_figure(
        study,
        "Figure 3: Final uniprocessor SPLASH-2 comparison",
        1,
        apps_tuned(scale, 1),
        Some(tuning),
    )
}

/// Figure 4: final four-processor comparison.
pub fn fig4(study: &Study, scale: ProblemScale, tuning: &Tuning) -> RelativeFigure {
    relative_figure(
        study,
        "Figure 4: Final 4-processor SPLASH-2 comparison",
        4,
        apps_tuned(scale, 4),
        Some(tuning),
    )
}

/// One platform's speedup curve.
#[derive(Debug, Clone)]
pub struct SpeedupCurve {
    /// Platform label.
    pub platform: String,
    /// `(processors, speedup)` points.
    pub points: Vec<(u32, f64)>,
}

impl SpeedupCurve {
    /// The speedup at `p` processors, if measured.
    pub fn at(&self, p: u32) -> Option<f64> {
        self.points.iter().find(|(n, _)| *n == p).map(|(_, s)| *s)
    }
}

/// A Figure-5/6/7-style dataset.
#[derive(Debug, Clone)]
pub struct SpeedupFigure {
    /// Figure title.
    pub title: String,
    /// One curve per platform.
    pub curves: Vec<SpeedupCurve>,
}

impl SpeedupFigure {
    /// The curve with the given platform label.
    pub fn curve(&self, platform: &str) -> Option<&SpeedupCurve> {
        self.curves.iter().find(|c| c.platform == platform)
    }
}

/// One simulator curve of a speedup figure: its label, and the simulator,
/// memory model and tuning it runs at every processor count.
type SimCurve<'a> = (String, Sim, MemModel, Option<&'a Tuning>);

/// A speedup figure: the hardware curve, then one curve per entry of
/// `sims`, each over `counts` processors running `make_prog(p)`.
fn speedup_figure(
    study: &Study,
    title: &str,
    counts: &[u32],
    make_prog: impl Fn(u32) -> Arc<dyn Program>,
    sims: &[SimCurve<'_>],
) -> SpeedupFigure {
    // `None` is the hardware.
    let platforms: Vec<Option<&SimCurve<'_>>> =
        std::iter::once(None).chain(sims.iter().map(Some)).collect();
    let progs: Vec<Arc<dyn Program>> = counts.iter().map(|&p| make_prog(p)).collect();
    let mut cells: Vec<MatrixCell> = Vec::new();
    for platform in &platforms {
        for (&p, prog) in counts.iter().zip(&progs) {
            let cfg = match platform {
                None => study.hardware(p),
                Some(&(_, sim, mem, tuning)) => study.sim_with(sim, p, mem, tuning),
            };
            cells.push((cfg, Arc::clone(prog)));
        }
    }
    let outcomes = run_matrix(cells, None);
    let curves = platforms
        .iter()
        .zip(outcomes.chunks(counts.len()))
        .map(|(platform, row)| match platform {
            None => speedup_curve("FLASH 150MHz", counts, row.iter().map(hardware_time)),
            Some((label, ..)) => speedup_curve(label, counts, row.iter().map(time_of)),
        })
        .collect();
    SpeedupFigure {
        title: title.to_owned(),
        curves,
    }
}

/// One platform's speedup curve from its cells' `times` at `counts`
/// processors. A failed cell drops its point; if the P=1 baseline fails,
/// the curve keeps its label (so renderers can mark it degraded) and has
/// no points.
fn speedup_curve(
    platform: &str,
    counts: &[u32],
    times: impl Iterator<Item = Result<TimeDelta, &'static str>>,
) -> SpeedupCurve {
    let times: Vec<(u32, TimeDelta)> = counts
        .iter()
        .zip(times)
        .filter_map(|(&p, t)| Some((p, t.ok()?)))
        .collect();
    let points = match times.iter().find(|(p, _)| *p == 1) {
        Some(&(_, t1)) => times.iter().map(|&(p, t)| (p, speedup(t1, t))).collect(),
        None => Vec::new(),
    };
    SpeedupCurve {
        platform: platform.to_owned(),
        points,
    }
}

/// The processor counts of the speedup studies.
pub const SPEEDUP_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// Figure 5: FFT speedup — hardware, SimOS-MXS, and the misleading
/// SimOS-Mipsy at 300 MHz (plus 150 MHz for reference).
pub fn fig5(study: &Study, scale: ProblemScale, tuning: &Tuning) -> SpeedupFigure {
    speedup_figure(
        study,
        "Figure 5: Speedup trend study for FFT",
        &SPEEDUP_COUNTS,
        |p| Arc::new(Fft::sized(scale, p as usize, FftBlocking::Tlb)),
        &[Sim::SimosMxs, Sim::SimosMipsy(300), Sim::SimosMipsy(150)]
            .map(|sim| (sim.label(), sim, MemModel::FlashLite, Some(tuning))),
    )
}

/// Figure 6: Radix speedup — hardware, SimOS-Mipsy-225, and Solo-Mipsy-225
/// (which wrongly predicts good speedup).
pub fn fig6(study: &Study, scale: ProblemScale, tuning: &Tuning) -> SpeedupFigure {
    speedup_figure(
        study,
        "Figure 6: Speedup trend study for Radix",
        &SPEEDUP_COUNTS,
        |p| Arc::new(Radix::tuned(scale, p as usize)),
        &[Sim::SimosMipsy(225), Sim::SoloMipsy(225)]
            .map(|sim| (sim.label(), sim, MemModel::FlashLite, Some(tuning))),
    )
}

/// Figure 7: unplaced Radix-Sort speedup under SimOS-Mipsy-225 — the
/// hotspot experiment separating FlashLite (occupancy) from NUMA
/// (latency only).
pub fn fig7(study: &Study, scale: ProblemScale, tuning: &Tuning) -> SpeedupFigure {
    let sim = Sim::SimosMipsy(225);
    speedup_figure(
        study,
        "Figure 7: Speedup for unplaced Radix-Sort (SimOS-Mipsy 225MHz)",
        &[1, 8, 16],
        |p| Arc::new(Radix::unplaced(scale, p as usize)),
        &[
            ("Tuned FlashLite", MemModel::FlashLite, Some(tuning)),
            ("Untuned FlashLite", MemModel::FlashLite, None),
            ("NUMA", MemModel::Numa, Some(tuning)),
        ]
        .map(|(label, mem, tuning)| (label.to_owned(), sim, mem, tuning)),
    )
}

/// The §3.1.3 instruction-latency ablation: Radix-Sort relative time on
/// SimOS-Mipsy-225 without and with the R10000's mul/div latencies.
/// The paper reports 0.71 → 1.02. A failed cell makes its value NaN.
pub fn latency_ablation(study: &Study, scale: ProblemScale, tuning: &Tuning) -> (f64, f64) {
    let radix: Arc<dyn Program> = Arc::new(Radix::tuned(scale, 1));
    let without = study.sim_tuned(Sim::SimosMipsy(225), 1, MemModel::FlashLite, tuning);
    let mut with = without.clone();
    if let CpuModel::Mipsy {
        model_int_latencies,
        ..
    } = &mut with.cpu
    {
        *model_int_latencies = true;
    }
    let cells = [study.hardware(1), without, with]
        .into_iter()
        .map(|cfg| (cfg, Arc::clone(&radix)))
        .collect();
    let outcomes = run_matrix(cells, None);
    let hw = hardware_time(&outcomes[0]);
    let rel = |cell| relative(time_of(cell), hw).unwrap_or(f64::NAN);
    (rel(&outcomes[1]), rel(&outcomes[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_isa::{Placement, Segment, Sink, VAddr};

    const BASE: u64 = 0x1_0000;

    /// Thread 0 skips the barrier every other thread waits at: one
    /// thread runs to completion, two or more deadlock.
    struct SkippedBarrier(usize);
    impl Program for SkippedBarrier {
        fn name(&self) -> String {
            "skipped-barrier".into()
        }
        fn num_threads(&self) -> usize {
            self.0
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(move |sink| {
                sink.load(VAddr(BASE));
                if tid != 0 {
                    sink.barrier();
                }
            })
        }
    }

    #[test]
    fn a_failed_hardware_cell_degrades_every_bar_it_normalises() {
        let apps = vec![("skip", Arc::new(SkippedBarrier(2)) as Arc<dyn Program>)];
        let fig = relative_figure(&Study::scaled(), "t", 2, apps, None);
        assert_eq!(fig.points.len(), Sim::figure_order().len());
        assert_eq!(fig.failed_cells(), fig.points.len());
        for p in &fig.points {
            assert!(p.relative.is_nan(), "{p:?}");
            assert_eq!(p.error.as_deref(), Some("deadlock"), "{p:?}");
        }
    }

    #[test]
    fn a_failed_cell_drops_its_speedup_point_and_a_failed_baseline_empties_the_curve() {
        let study = Study::scaled();
        let solo = Sim::SoloMipsy(150);
        let sims = [(solo.label(), solo, MemModel::FlashLite, None)];
        let make = |p: u32| Arc::new(SkippedBarrier(p as usize)) as Arc<dyn Program>;
        let fig = speedup_figure(&study, "t", &[1, 2], make, &sims);
        let labels: Vec<_> = fig.curves.iter().map(|c| c.platform.as_str()).collect();
        assert_eq!(labels, ["FLASH 150MHz", "Solo-Mipsy 150MHz"]);
        assert!(fig.curves.iter().all(|c| c.points == [(1, 1.0)]));
        let fig = speedup_figure(&study, "t", &[2, 4], make, &sims);
        assert_eq!(fig.curves.len(), 2);
        assert!(fig.curves.iter().all(|c| c.points.is_empty()));
    }

    #[test]
    fn app_lists_cover_table2_in_order() {
        let apps = apps_untuned(ProblemScale::Tiny, 1);
        let names: Vec<_> = apps.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["FFT", "Radix-Sort", "LU", "Ocean"]);
        let tuned = apps_tuned(ProblemScale::Tiny, 2);
        assert_eq!(tuned.len(), 4);
        for (_, p) in &tuned {
            assert_eq!(p.num_threads(), 2);
        }
    }

    #[test]
    fn relative_figure_lookup() {
        let fig = RelativeFigure {
            title: "t".into(),
            nodes: 1,
            points: vec![
                RelativePoint::measured("FFT", "SimOS-MXS 150MHz".into(), 0.8),
                RelativePoint {
                    app: "LU",
                    sim: "SimOS-MXS 150MHz".into(),
                    relative: f64::NAN,
                    error: Some("deadlock".into()),
                },
            ],
        };
        assert_eq!(fig.get("FFT", "SimOS-MXS 150MHz"), Some(0.8));
        assert!(fig.get("LU", "SimOS-MXS 150MHz").unwrap().is_nan());
        assert_eq!(fig.get("Ocean", "SimOS-MXS 150MHz"), None);
        assert_eq!(fig.failed_cells(), 1);
        assert_eq!(
            fig.point("LU", "SimOS-MXS 150MHz")
                .unwrap()
                .error
                .as_deref(),
            Some("deadlock")
        );
    }

    #[test]
    fn speedup_figure_lookup() {
        let fig = SpeedupFigure {
            title: "t".into(),
            curves: vec![SpeedupCurve {
                platform: "FLASH 150MHz".into(),
                points: vec![(1, 1.0), (16, 12.0)],
            }],
        };
        let c = fig.curve("FLASH 150MHz").unwrap();
        assert_eq!(c.at(16), Some(12.0));
        assert_eq!(c.at(8), None);
        assert!(fig.curve("nope").is_none());
    }
}
