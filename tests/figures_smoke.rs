//! End-to-end smoke test of the figure machinery at tiny problem size:
//! the full 7-simulator × 4-application matrix runs, produces a complete
//! grid, and renders cleanly.

use flashsim::figures::{apps_tuned, RelativeFigure, RelativePoint};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::report::render_relative;
use flashsim::runner::{hardware_mean, parallel_map, relative_time, run_once};
use flashsim::workloads::ProblemScale;
use std::sync::Arc;

/// Builds a Figure-2-shaped grid at tiny scale (the figures crate's own
/// functions are pinned to the experiment problem sizes; this test drives
/// the same machinery through the public API).
fn tiny_grid() -> RelativeFigure {
    let study = Study::scaled();
    let apps = apps_tuned(ProblemScale::Tiny, 1);
    let hw: Vec<_> = apps
        .iter()
        .map(|(_, p)| hardware_mean(run_once(study.hardware(1), p.as_ref()).parallel_time, 1))
        .collect();

    let mut jobs = Vec::new();
    for (idx, (_, prog)) in apps.iter().enumerate() {
        for sim in Sim::figure_order() {
            jobs.push((idx, sim, Arc::clone(prog)));
        }
    }
    let points = parallel_map(jobs, |(idx, sim, prog)| {
        let cfg = study.sim(sim, 1, MemModel::FlashLite);
        let t = run_once(cfg, prog.as_ref()).parallel_time;
        RelativePoint::measured(apps[idx].0, sim.label(), relative_time(t, hw[idx]))
    });
    RelativeFigure {
        title: "tiny smoke grid".into(),
        nodes: 1,
        points,
    }
}

#[test]
fn full_matrix_produces_a_complete_grid() {
    let fig = tiny_grid();
    assert_eq!(fig.points.len(), 7 * 4, "7 simulators x 4 applications");
    for p in &fig.points {
        assert!(
            p.relative > 0.05 && p.relative < 20.0,
            "{} on {}: implausible relative {:.3}",
            p.sim,
            p.app,
            p.relative
        );
    }
    // Every (app, sim) cell is present exactly once.
    for app in ["FFT", "Radix-Sort", "LU", "Ocean"] {
        for sim in Sim::figure_order() {
            assert!(
                fig.get(app, &sim.label()).is_some(),
                "missing cell ({app}, {})",
                sim.label()
            );
        }
    }

    // Rendering covers the whole grid.
    let rendered = render_relative(&fig);
    assert_eq!(rendered.lines().count(), 2 + 1 + 7);
}

#[test]
fn clock_scaling_is_visible_in_the_grid() {
    let fig = tiny_grid();
    for app in ["FFT", "Radix-Sort", "LU", "Ocean"] {
        let r150 = fig.get(app, "SimOS-Mipsy 150MHz").unwrap();
        let r300 = fig.get(app, "SimOS-Mipsy 300MHz").unwrap();
        assert!(
            r300 < r150,
            "{app}: 300MHz ({r300:.2}) must predict faster than 150MHz ({r150:.2})"
        );
    }
}

#[test]
fn full_size_geometry_constructs_and_runs() {
    // The --full experiment path: Table-1 geometry (2MB L2, 64-entry TLB,
    // 256MB/node). A microbenchmark suffices to verify the machinery;
    // full Table-2 workloads are exercised by the (slow) --full binaries.
    let study = Study::full();
    let probe = flashsim::workloads::RestartProbe::new(20_000);
    let r = run_once(study.hardware(1), &probe);
    assert!(r.parallel_time.as_ns() > 0);
    let cal_geometry = study.geometry;
    assert_eq!(cal_geometry.tlb_entries, 64);
    assert_eq!(cal_geometry.l2.bytes, 2 * 1024 * 1024);
}
