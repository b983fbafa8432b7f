//! Cycle-accounting profile: run the gold-standard hardware and a
//! simulator over the same workload with the accounting profiler
//! attached, print each platform's per-class/per-phase breakdown, and
//! attribute the simulator's error to stall classes ("18% optimistic,
//! of which 11 points TLB, 5 occupancy, 2 network").
//!
//! Usage:
//!
//! ```text
//! profile [SIM] [--mem numa|flashlite] [--nodes N] [--phases]
//!         [--csv PREFIX] [--prom PATH] [--full]
//! ```
//!
//! `SIM` is one of `simos-mipsy` (default), `solo-mipsy`, `simos-mxs`.
//! `--phases` additionally prints the 64-interval time-phase table for
//! both platforms. `--csv PREFIX` writes `PREFIX-{hw,sim}.csv`,
//! `PREFIX-{hw,sim}-phases.csv`, and `PREFIX-attrib.csv`. `--prom PATH`
//! writes the simulator's breakdown in Prometheus text format.
//!
//! Always verifies conservation (every node's per-class sums equal its
//! total cycles on both platforms, and the attribution residual is
//! below 1e-9) and exits nonzero on violation — `scripts/check.sh` runs
//! this as a gate.

use flashsim_bench::{header, platform_from_args, Args};
use flashsim_core::attrib::{attribute, run_profiled};
use flashsim_engine::Accounting;
use flashsim_isa::Program;
use flashsim_machine::MachineConfig;
use flashsim_workloads::{Fft, FftBlocking};

fn profiled(cfg: MachineConfig, prog: &dyn Program) -> (Accounting, String) {
    let label = cfg.label();
    let result = run_profiled(cfg, prog).expect("profiled run completes");
    let acc = result.accounting.expect("profiler was attached");
    (acc, label)
}

fn main() {
    let args = Args::parse(&["--mem", "--nodes", "--csv", "--prom"]);
    let setup = args.setup();
    header("cycle-accounting profile + error attribution", &setup);
    let (sim, mem, nodes) = platform_from_args(&args);
    let show_phases = args.has("--phases");

    let fft = Fft::sized(setup.scale, nodes as usize, FftBlocking::Cache);
    println!("workload: {} over {nodes} nodes", fft.name());
    println!();

    let (hw_acc, hw_label) = profiled(setup.study.hardware(nodes), &fft);
    let (sim_acc, sim_label) = profiled(setup.study.sim(sim, nodes, mem), &fft);

    for (acc, label) in [(&hw_acc, &hw_label), (&sim_acc, &sim_label)] {
        println!("-- {label} --");
        print!("{}", acc.render());
        if show_phases {
            print!("{}", acc.render_phases());
        }
        println!();
    }

    let report = attribute(&sim_acc, &sim_label, &hw_acc, &hw_label);
    print!("{}", report.render());

    if let Some(prefix) = args.value("--csv") {
        let files = [
            (format!("{prefix}-hw.csv"), hw_acc.to_csv()),
            (format!("{prefix}-sim.csv"), sim_acc.to_csv()),
            (format!("{prefix}-hw-phases.csv"), hw_acc.phases_to_csv()),
            (format!("{prefix}-sim-phases.csv"), sim_acc.phases_to_csv()),
            (format!("{prefix}-attrib.csv"), report.to_csv()),
        ];
        for (path, body) in files {
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("wrote {path}");
        }
    }
    if let Some(path) = args.value("--prom") {
        std::fs::write(path, sim_acc.to_prometheus())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    // Conservation gate: every simulated cycle is attributed exactly once.
    println!();
    let mut ok = true;
    for (acc, label) in [(&hw_acc, &hw_label), (&sim_acc, &sim_label)] {
        if acc.conserved() {
            println!("conservation OK: {label} ({} ps accounted)", acc.total_ps());
        } else {
            eprintln!("FAIL: {label} accounting is not conserved");
            ok = false;
        }
    }
    let residual = report.residual().abs();
    if residual < 1e-9 {
        println!("attribution OK: per-class contributions sum to the total error (residual {residual:.1e})");
    } else {
        eprintln!("FAIL: attribution residual {residual:.1e} exceeds 1e-9");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}
