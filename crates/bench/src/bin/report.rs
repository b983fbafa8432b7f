//! Unified run report: run the gold-standard hardware and a simulator
//! over the same workload through the supervised run matrix with
//! cycle-accounting *and* sim-time telemetry attached, then stitch each
//! cell's manifest + accounting + telemetry series into one report
//! (text, optionally HTML), with machine-readable exports.
//!
//! Usage:
//!
//! ```text
//! report [SIM] [--mem numa|flashlite] [--nodes N] [--cadence-us N]
//!        [--heartbeat MS] [--hostprof] [--out PATH] [--html PATH]
//!        [--jsonl PATH] [--prom PATH] [--spans-jsonl PATH] [--full]
//! report --validate PATH
//! report --from-stream PATH
//! ```
//!
//! `--hostprof` attaches the host-time self-profiler to both cells and
//! adds a host-time section per cell (where the simulator's own wall
//! clock went, by phase); with `--prom` the host metrics are appended
//! to the telemetry exposition. Host numbers are advisory — they never
//! enter the gates below and attaching the profiler changes no
//! simulated byte (see `tests/hostprof_isolation.rs`).
//!
//! `SIM` is one of `simos-mipsy` (default), `solo-mipsy`, `simos-mxs`.
//! `--cadence-us` sets the telemetry bucket width (default 1 µs of sim
//! time; buckets merge-double as the run grows). `--heartbeat MS`
//! enables the live stderr progress line. `--jsonl` / `--prom` write the
//! simulator cell's telemetry series in the `flashsim-telemetry-v1`
//! JSONL and Prometheus text formats. `--spans-jsonl` writes the
//! simulator cell's sampled span trees as `flashsim-span-v1` JSONL
//! (the run attaches a seeded span sampler to both cells, recorded in
//! each manifest).
//!
//! `--validate PATH` runs nothing: it checks an existing JSONL export
//! against the schema and exits nonzero on violation — `scripts/check.sh`
//! uses it as a gate.
//!
//! `--from-stream PATH` also runs nothing: it stitches a *partial*
//! report from a `flashsim-stream-v1` tail — run header, phase,
//! per-barrier metric sparklines, and the per-class accounting ledger
//! accumulated so far. It works on the torn file a crashed or killed
//! run leaves behind, which is the point: the report you can still get
//! when there is no finished run to report on.
//!
//! The report itself gates on conservation: cycle accounting must be
//! conserved on both platforms, every telemetry occupancy integral must
//! equal its bucket sum exactly (integer picoseconds), and the JSONL
//! export must validate. Any violation exits nonzero.

use flashsim_bench::streamview::TailSummary;
use flashsim_bench::{header, platform_from_args, Args};
use flashsim_core::runner::{run_matrix, CellOutcome, MatrixCell};
use flashsim_engine::{span, telemetry, HostPhase, HostReport, SpanPlan, TimeDelta};
use flashsim_isa::Program;
use flashsim_workloads::{Fft, FftBlocking};
use std::sync::Arc;

/// Renders one matrix cell's section of the report.
fn render_cell(outcome: &CellOutcome, failures: &mut Vec<String>) -> String {
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
            if let Err(e) = telemetry::validate_jsonl(&series.to_jsonl()) {
                failures.push(format!("{}: telemetry JSONL invalid: {e}", m.config));
            }
        }
        None => failures.push(format!("{}: no telemetry attached", m.config)),
    }
    if let Some(host) = &result.hostprof {
        out.push('\n');
        out.push_str(&render_host(host));
    }
    out.push('\n');
    out
}

/// Renders one cell's host-time section: where this run's *wall clock*
/// went, by scheduler phase — the host-side complement to the simulated
/// cycle accounting above it.
fn render_host(r: &HostReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "host time (self-profile): {:.3} ms wall, {} scheduler rounds\n",
        r.total_ns as f64 / 1e6,
        r.admission.rounds
    ));
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
    let a = &r.admission;
    if a.rounds > 0 {
        out.push_str(&format!(
            "  fork admission: {} ops over {} forked node-rounds; rejected {} horizon / {} shared / {} opaque\n",
            a.admitted_ops, a.forked_nodes, a.rejected_horizon, a.rejected_shared, a.rejected_opaque
        ));
    }
    for (w, lane) in r.workers.iter().enumerate() {
        let lane_total = (lane.execute_ns + lane.steal_ns + lane.idle_ns).max(1);
        out.push_str(&format!(
            "  worker {w}: {:.1}% execute, {} jobs ({} stolen)\n",
            lane.execute_ns as f64 * 100.0 / lane_total as f64,
            lane.jobs,
            lane.steals
        ));
    }
    out
}

/// Wraps the text report in a minimal self-contained HTML page.
fn to_html(text: &str) -> String {
    let mut body = String::with_capacity(text.len() + 256);
    for c in text.chars() {
        match c {
            '&' => body.push_str("&amp;"),
            '<' => body.push_str("&lt;"),
            '>' => body.push_str("&gt;"),
            _ => body.push(c),
        }
    }
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>flashsim run report</title></head>\n\
         <body><h1>flashsim run report</h1>\n<pre>\n{body}</pre></body></html>\n"
    )
}

fn main() {
    let args = Args::parse(&[
        "--mem",
        "--nodes",
        "--cadence-us",
        "--heartbeat",
        "--out",
        "--html",
        "--jsonl",
        "--prom",
        "--spans-jsonl",
    ]);

    // Validation-only mode: no simulation, just the schema gate.
    if let Some(path) = args.value("--validate") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        match telemetry::validate_jsonl(&text) {
            Ok(()) => println!("telemetry schema OK: {path}"),
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Partial-report mode: stitch a report from a stream tail. Tolerant
    // of torn tails by construction — this is the post-mortem view of a
    // crashed or still-running cell.
    if let Some(path) = args.value("--from-stream") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        println!("== flashsim :: partial report from a live stream tail ==");
        println!("source: {path}");
        println!();
        print!("{}", TailSummary::from_text(&text).render());
        return;
    }

    let setup = args.setup();
    header(
        "unified run report (manifest + accounting + telemetry)",
        &setup,
    );

    let (sim, mem, nodes) = platform_from_args(&args);
    let cadence_us: u64 = args.get("--cadence-us").unwrap_or(1);
    let heartbeat_ms: Option<u64> = args.get("--heartbeat");
    let hostprof = args.has("--hostprof");

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
        if let Some(ms) = heartbeat_ms {
            cfg.heartbeat = Some(std::time::Duration::from_millis(ms.max(1)));
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
        report.push_str(&render_cell(outcome, &mut failures));
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

    let mut wrote = String::new();
    if let Some(path) = args.value("--html") {
        std::fs::write(path, to_html(&report)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        wrote.push_str(&format!("wrote {path}\n"));
    }
    // Machine-readable exports come from the simulator cell (the last
    // one); the hardware cell is the reference platform in the report.
    if let Some(series) = outcomes.last().and_then(|o| o.telemetry()) {
        if let Some(path) = args.value("--jsonl") {
            std::fs::write(path, series.to_jsonl())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            wrote.push_str(&format!("wrote {path}\n"));
        }
        if let Some(path) = args.value("--prom") {
            let mut text = series.to_prometheus();
            if let Some(host) = outcomes
                .last()
                .and_then(|o| o.result())
                .and_then(|r| r.hostprof.as_ref())
            {
                text.push_str(&host.to_prometheus());
            }
            std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            wrote.push_str(&format!("wrote {path}\n"));
        }
    }
    if let Some(path) = args.value("--spans-jsonl") {
        match outcomes.last().and_then(|o| o.spans()) {
            Some(set) => {
                let jsonl = set.to_jsonl();
                if let Err(e) = span::validate_jsonl(&jsonl) {
                    failures.push(format!("span JSONL invalid: {e}"));
                }
                std::fs::write(path, jsonl).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                wrote.push_str(&format!("wrote {path}\n"));
            }
            None => failures.push("no span trees attached to the simulator cell".to_owned()),
        }
    }

    // Stdout comes last, after every file is written: a reader that
    // closes the pipe early (`report … | head`) must not cost an export.
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &report).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            wrote.push_str(&format!("wrote {path}\n"));
        }
        None => print!("{report}"),
    }
    print!("{wrote}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
