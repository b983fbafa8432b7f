//! Unified run report: run the gold-standard hardware and a simulator
//! over the same workload through the supervised run matrix with
//! cycle-accounting *and* sim-time telemetry attached, then stitch each
//! cell's manifest + accounting + telemetry series into one text report,
//! attribute the simulator's error to stall classes ("18% optimistic, of
//! which 11 points TLB, 5 occupancy, 2 network"), and write the
//! machine-readable exports.
//!
//! Usage:
//!
//! ```text
//! flashsim report [SIM] [--mem numa|flashlite] [--nodes N] [--workers N]
//!        [--cadence-us N] [--phases] [--hostprof]
//!        [--out PATH] [--jsonl PATH] [--spans-jsonl PATH]
//!        [--hostprof-jsonl PATH] [--full]
//! ```
//!
//! `SIM` is one of `simos-mipsy` (default), `solo-mipsy`, `simos-mxs`.
//! `--workers N` runs both cells under the parallel scheduling policy
//! with `N` host worker threads (0 = one per host core). `--cadence-us`
//! sets the telemetry bucket width (default 1 µs of sim time; buckets
//! merge-double as the run grows). `--phases` adds the 64-interval
//! time-phase table to each cell.
//!
//! `--hostprof` attaches the host-time self-profiler to both cells and
//! adds a host-time section per cell: where the simulator's own wall
//! clock went by phase (the phases tile the profiled window exactly, and
//! the window is reconciled against the run's wall clock within 1 %),
//! the fork-admission breakdown, the worker lanes, and an Amdahl-style
//! account of why the parallel policy did or didn't scale. Host numbers
//! are advisory — they never enter the gates below and attaching the
//! profiler changes no simulated byte (`tests/hostprof_isolation.rs`).
//!
//! The exports come from the simulator cell: `--jsonl` its
//! `flashsim-telemetry-v1` series, `--spans-jsonl` its sampled span
//! trees (`flashsim-span-v1`; both cells run a seeded span sampler,
//! recorded in each manifest), `--hostprof-jsonl` (which implies
//! `--hostprof`) its `flashsim-hostprof-v1` profile. Every file export
//! is a [`Schema`] format, validated before it is written;
//! `flashsim validate` re-checks a file. `--out PATH` writes the stitched
//! text report there instead of to stdout.
//!
//! The report gates on conservation: cycle accounting must be conserved
//! on both platforms, every telemetry occupancy integral must equal its
//! bucket sum exactly (integer picoseconds), the attribution's per-class
//! contributions must sum to the total error (residual < 1e-9), and
//! every export must validate. Any violation exits nonzero —
//! `scripts/check.sh` runs it as a gate. An export that cannot be
//! written is `writing PATH: <io error>` on stderr and exit status 1.

use crate::{header, platform_from_args, Args};
use flashsim_core::attrib::attribute;
use flashsim_core::runner::{run_matrix, CellOutcome, MatrixCell};
use flashsim_engine::{Accounting, HostPhase, HostReport, Schema, SpanPlan, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::SchedPolicy;
use flashsim_workloads::{Fft, FftBlocking};
use std::sync::Arc;

/// Renders one matrix cell's section of the report.
fn render_cell(outcome: &CellOutcome, phases: bool, failures: &mut Vec<String>) -> String {
    let mut out = String::new();
    let m = outcome.manifest();
    out.push_str(&format!("-- {} --\n", m.config));
    out.push_str(&format!("manifest: {}\n", m.to_json()));
    let Some(result) = outcome.result() else {
        let err = outcome.error().expect("failed cell carries its error");
        failures.push(format!("{}: run failed: {err}", m.config));
        out.push_str(&format!("RUN FAILED: {err}\n\n"));
        return out;
    };
    out.push_str(&format!(
        "sim time {:.3} ms over {} ops ({:.2} simulated MIPS on this host)\n\n",
        m.simulated_seconds * 1e3,
        m.total_ops,
        m.sim_mips,
    ));
    match &result.accounting {
        Some(acc) => {
            out.push_str(&acc.render());
            if phases {
                out.push_str(&acc.render_phases());
            }
            if !acc.conserved() {
                failures.push(format!("{}: cycle accounting not conserved", m.config));
            }
        }
        None => failures.push(format!("{}: no accounting attached", m.config)),
    }
    out.push('\n');
    match &result.telemetry {
        Some(series) => {
            out.push_str(&series.render());
            if !series.conserved() {
                failures.push(format!(
                    "{}: telemetry occupancy integrals not conserved",
                    m.config
                ));
            }
            if let Err(e) = Schema::Telemetry.validate(&series.to_jsonl()) {
                failures.push(format!("{}: telemetry JSONL invalid: {e}", m.config));
            }
        }
        None => failures.push(format!("{}: no telemetry attached", m.config)),
    }
    if let Some(host) = &result.hostprof {
        out.push('\n');
        out.push_str(&render_host(host, m.wall_seconds));
    }
    out.push('\n');
    out
}

/// Renders one cell's host-time section: where this run's *wall clock*
/// went, by scheduler phase — the host-side complement to the simulated
/// cycle accounting above it — reconciled against the manifest's wall
/// time, with the fork-admission and worker-lane breakdown and, for a
/// pooled run, an Amdahl-style account of where the scaling went.
fn render_host(r: &HostReport, wall_seconds: f64) -> String {
    let pct = |part: u64, whole: u64| part as f64 * 100.0 / whole.max(1) as f64;
    let mut out = format!(
        "host time (self-profile): {:.3} ms wall, {} scheduler rounds\n",
        r.total_ns as f64 / 1e6,
        r.admission.rounds
    );
    for p in HostPhase::ALL {
        let ns = r.phase(p);
        if ns > 0 {
            out.push_str(&format!(
                "  {:<7} {:>14} ns  {:>5.1}%\n",
                p.key(),
                ns,
                r.fraction(p) * 100.0
            ));
        }
    }
    let sum: u64 = r.phase_ns.iter().sum();
    let wall_ns = wall_seconds * 1e9;
    let skew = if wall_ns > 0.0 {
        (wall_ns - sum as f64).abs() * 100.0 / wall_ns
    } else {
        0.0
    };
    out.push_str(&format!(
        "  sum     {sum:>14} ns vs wall {wall_ns:.0} ns: {}\n",
        if skew <= 1.0 {
            format!("reconciled ({skew:.2}% skew)")
        } else {
            format!("SKEW {skew:.2}%")
        }
    ));
    let a = &r.admission;
    if a.rounds == 0 {
        return out;
    }
    out.push_str(&format!(
        "  fork admission: {} ops over {} forked node-rounds; rejected {} horizon / {} shared / {} opaque\n",
        a.admitted_ops, a.forked_nodes, a.rejected_horizon, a.rejected_shared, a.rejected_opaque
    ));
    out.push_str(&format!(
        "  fork stops: {} sync, {} quota, {} end-of-stream\n",
        a.stopped_sync, a.stopped_quota, a.stopped_end
    ));
    let (mut observed, mut idle) = (0u64, 0u64);
    for (w, lane) in r.workers.iter().enumerate() {
        let lane_total = lane.execute_ns + lane.steal_ns + lane.idle_ns;
        observed += lane_total;
        idle += lane.idle_ns;
        out.push_str(&format!(
            "  worker {w}: {:>5.1}% execute / {:>4.1}% steal / {:>5.1}% idle  ({} jobs, {} stolen)\n",
            pct(lane.execute_ns, lane_total),
            pct(lane.steal_ns, lane_total),
            pct(lane.idle_ns, lane_total),
            lane.jobs,
            lane.steals
        ));
    }
    // Each line is a reason the wall clock didn't shrink by the worker
    // count.
    let driver_serial =
        r.phase(HostPhase::Drive) + r.phase(HostPhase::Serial) + r.phase(HostPhase::Scan);
    let rejections = a.rejected_horizon + a.rejected_shared + a.rejected_opaque;
    out.push_str(&format!(
        "  why parallel didn't scale:\n\
         \x20   driver-serial execution {:>5.1}% of host time (drive+serial+scan)\n\
         \x20   join/commit barrier     {:>5.1}% of host time\n\
         \x20   checkpoint services     {:>5.1}% of host time\n\
         \x20   worker idle             {:>5.1}% of observed worker time\n\
         \x20   admission rejections    {rejections} over {} rounds ({:.2}/round)\n",
        pct(driver_serial, r.total_ns),
        r.fraction(HostPhase::Commit) * 100.0,
        r.fraction(HostPhase::Ckpt) * 100.0,
        pct(idle, observed),
        a.rounds,
        rejections as f64 / a.rounds as f64
    ));
    out
}

/// A completed cell's cycle accounting.
fn accounting(outcome: &CellOutcome) -> Option<&Accounting> {
    outcome.result()?.accounting.as_ref()
}

/// Writes one export file and records it in the `wrote` list; a path
/// that cannot be written ends the report with exit status 1.
fn write(path: &str, body: &str, wrote: &mut String) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
    wrote.push_str(&format!("wrote {path}\n"));
}

/// The flags of `report` that take a value.
pub const VALUE_FLAGS: &[&str] = &[
    "--mem",
    "--nodes",
    "--workers",
    "--cadence-us",
    "--out",
    "--jsonl",
    "--spans-jsonl",
    "--hostprof-jsonl",
];

/// The flags of `report` that take no value.
pub const SWITCHES: &[&str] = &["--phases", "--hostprof", "--full"];

/// `flashsim report`: see the module documentation.
pub fn run(args: &Args) {
    let setup = args.setup();
    let (sim, mem, nodes) = platform_from_args(args);
    header(
        "unified run report (manifest + accounting + telemetry)",
        &setup,
    );

    let cadence_us: u64 = args.get("--cadence-us").unwrap_or(1);
    let workers: Option<usize> = args.get("--workers");
    let hostprof = args.has("--hostprof") || args.value("--hostprof-jsonl").is_some();

    let fft = Fft::sized(setup.scale, nodes as usize, FftBlocking::Cache);
    println!("workload: {} over {nodes} nodes", fft.name());
    println!();

    // Both cells carry telemetry + profiling through the supervised
    // matrix; the report is stitched from whatever the cells return.
    let mut cells: Vec<MatrixCell> = Vec::new();
    for cfg in [
        setup.study.hardware(nodes),
        setup.study.sim(sim, nodes, mem),
    ] {
        let mut cfg = cfg;
        cfg.telemetry = Some(TimeDelta::from_us(cadence_us.max(1)));
        cfg.profile = true;
        cfg.spans = Some(SpanPlan::sampled(7, 64));
        cfg.hostprof = hostprof;
        if let Some(workers) = workers {
            cfg.sched = SchedPolicy::Parallel { workers };
        }
        cells.push((
            cfg,
            Arc::new(Fft::sized(setup.scale, nodes as usize, FftBlocking::Cache))
                as Arc<dyn Program>,
        ));
    }
    let outcomes = run_matrix(cells, Some(500_000_000));

    let mut failures: Vec<String> = Vec::new();
    let mut report = String::new();
    for outcome in &outcomes {
        report.push_str(&render_cell(outcome, args.has("--phases"), &mut failures));
    }
    report.push_str("-- gates --\n");
    if failures.is_empty() {
        report.push_str("conservation OK: accounting and telemetry integrals closed exactly\n");
        report.push_str("schema OK: telemetry JSONL validates as flashsim-telemetry-v1\n");
    } else {
        for f in &failures {
            report.push_str(&format!("FAIL: {f}\n"));
        }
    }

    // The simulator's error against hardware, by stall class. It follows
    // the stitched document rather than joining it: `--out` stays the
    // per-cell report, byte for byte.
    let (hw, sim_cell) = (&outcomes[0], &outcomes[1]);
    let mut attribution = String::new();
    let mut wrote = String::new();
    if let (Some(hw_acc), Some(sim_acc)) = (accounting(hw), accounting(sim_cell)) {
        let a = attribute(
            sim_acc,
            &sim_cell.manifest().config,
            hw_acc,
            &hw.manifest().config,
        );
        attribution.push_str(&a.render());
        let residual = a.residual().abs();
        if residual < 1e-9 {
            attribution.push_str(&format!(
                "attribution OK: per-class contributions sum to the total error (residual {residual:.1e})\n"
            ));
        } else {
            failures.push(format!("attribution residual {residual:.1e} exceeds 1e-9"));
        }
    }

    // Machine-readable exports come from the simulator cell (the last
    // one); the hardware cell is the reference platform in the report.
    let exports = [
        (
            "--jsonl",
            Schema::Telemetry,
            sim_cell.telemetry().map(|series| series.to_jsonl()),
        ),
        (
            "--spans-jsonl",
            Schema::Span,
            sim_cell.spans().map(|set| set.to_jsonl()),
        ),
        (
            "--hostprof-jsonl",
            Schema::HostProf,
            sim_cell
                .result()
                .and_then(|r| r.hostprof.as_ref())
                .map(|h| h.to_jsonl()),
        ),
    ];
    for (flag, schema, jsonl) in exports {
        let Some(path) = args.value(flag) else {
            continue;
        };
        match jsonl {
            Some(jsonl) => {
                if let Err(e) = schema.validate(&jsonl) {
                    failures.push(format!("{} JSONL invalid: {e}", schema.key()));
                }
                write(path, &jsonl, &mut wrote);
            }
            None => failures.push(format!(
                "no {} export attached to the simulator cell",
                schema.key()
            )),
        }
    }

    // Stdout comes last, after every file is written: a reader that
    // closes the pipe early (`report … | head`) must not cost an export.
    match args.value("--out") {
        Some(path) => write(path, &report, &mut wrote),
        None => print!("{report}"),
    }
    print!("{attribution}{wrote}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
