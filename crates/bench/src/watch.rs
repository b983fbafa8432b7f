//! Multi-run stream supervisor: tail `flashsim-stream-v1` files from
//! journaled matrix cells and render a live aggregated dashboard.
//!
//! Usage:
//!
//! ```text
//! flashsim watch [--follow] [--interval MS] [--prom PATH] FILE...
//! ```
//!
//! The default mode renders one dashboard frame and exits: one row per
//! stream with its phase (`empty`/`started`/`barrier N`/`done`/
//! `failed:<kind>`), closed-bucket count, simulated time, op count,
//! live events/sec and host worker occupancy from the newest advisory
//! progress sample, the newest checkpoint, and a bucket-wise occupancy
//! sparkline. Parallel cells whose progress samples carry per-worker
//! occupancy (`wbusy`) get an indented utilization-bar sub-row, one bar
//! per host worker.
//! `--follow` re-reads and re-renders every `--interval` ms (default
//! 500) until every stream has ended. `--prom PATH` rewrites a
//! Prometheus textfile (temp-then-rename, so scrapers never see a torn
//! file) on every frame. Strict validation of the same files is
//! `flashsim validate stream FILE...`.

use crate::streamview::{sparkline, worker_bars, SparkFold, TailSummary};
use crate::{fail, Args};
use flashsim_core::journal::write_atomic;
use flashsim_engine::prom;
use std::path::Path;

/// Short display name for a stream file: file name without a trailing
/// `.stream`, plus the parent directory when there is one (matrix runs
/// use identical cell names across directories).
fn display_name(path: &str) -> String {
    let p = Path::new(path);
    let name = p
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned());
    let name = name.strip_suffix(".stream").unwrap_or(&name).to_owned();
    match p.parent().and_then(Path::file_name) {
        Some(dir) => format!("{}/{name}", dir.to_string_lossy()),
        None => name,
    }
}

/// Reads every stream (a missing file is an empty stream — the cell
/// just hasn't started) and folds each into a summary row.
fn read_rows(files: &[String]) -> Vec<(String, TailSummary)> {
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            (display_name(path), TailSummary::from_text(&text))
        })
        .collect()
}

/// Renders one dashboard frame.
fn render_frame(rows: &[(String, TailSummary)]) -> String {
    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<name_w$}  {:<14}  {:>7}  {:>10}  {:>12}  {:>9}  {:>4}  {:>5}  occupancy\n",
        "cell", "phase", "buckets", "sim ms", "ops", "live/s", "busy", "ckpt"
    );
    for (name, s) in rows {
        let phase = format!(
            "{}{}",
            s.phase(),
            if s.torn { "*" } else { "" } // * = torn tail
        );
        let ops = s.ops().map(|o| o.to_string()).unwrap_or_else(|| "-".into());
        let live = s
            .progress
            .as_ref()
            .map(|p| format!("{:.0}", p.live))
            .unwrap_or_else(|| "-".into());
        let busy = s
            .progress
            .as_ref()
            .and_then(|p| p.busy)
            .map(|f| format!("{:.0}%", f * 100.0))
            .unwrap_or_else(|| "-".into());
        let ckpt = s
            .last_ckpt
            .map(|(seq, _)| seq.to_string())
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{name:<name_w$}  {phase:<14}  {:>7}  {:>10.3}  {ops:>12}  {live:>9}  {busy:>4}  {ckpt:>5}  |{}|\n",
            s.buckets(),
            s.end_ps as f64 / 1e9,
            sparkline(&s.occupancy_row(), 32, SparkFold::Sum),
        ));
        // Parallel cells carry per-worker occupancy on their progress
        // samples; render them as an indented utilization sub-row.
        if let Some(p) = &s.progress {
            if !p.worker_busy.is_empty() {
                out.push_str(&format!(
                    "{:<name_w$}  {}\n",
                    "",
                    worker_bars(&p.worker_busy, 8)
                ));
            }
        }
    }
    let done = rows.iter().filter(|(_, s)| s.ended.is_some()).count();
    out.push_str(&format!("{done}/{} stream(s) ended\n", rows.len()));
    out
}

/// Renders the Prometheus textfile for one frame.
fn render_prom(rows: &[(String, TailSummary)]) -> String {
    let mut out = String::new();
    prom::push_type(&mut out, "flashsim_stream_buckets", "gauge");
    for (name, s) in rows {
        prom::push_sample(
            &mut out,
            "flashsim_stream_buckets",
            &[("cell", name)],
            s.buckets() as u64,
        );
    }
    prom::push_type(&mut out, "flashsim_stream_sim_ps", "gauge");
    for (name, s) in rows {
        prom::push_sample(
            &mut out,
            "flashsim_stream_sim_ps",
            &[("cell", name)],
            s.end_ps,
        );
    }
    prom::push_type(&mut out, "flashsim_stream_ops", "gauge");
    for (name, s) in rows {
        if let Some(ops) = s.ops() {
            prom::push_sample(&mut out, "flashsim_stream_ops", &[("cell", name)], ops);
        }
    }
    prom::push_type(&mut out, "flashsim_stream_live_ops_per_sec", "gauge");
    for (name, s) in rows {
        if let Some(p) = &s.progress {
            prom::push_sample(
                &mut out,
                "flashsim_stream_live_ops_per_sec",
                &[("cell", name)],
                p.live.max(0.0) as u64,
            );
        }
    }
    prom::push_type(&mut out, "flashsim_stream_worker_busy_percent", "gauge");
    for (name, s) in rows {
        if let Some(busy) = s.progress.as_ref().and_then(|p| p.busy) {
            prom::push_sample(
                &mut out,
                "flashsim_stream_worker_busy_percent",
                &[("cell", name)],
                (busy * 100.0).round() as u64,
            );
        }
    }
    prom::push_type(
        &mut out,
        "flashsim_stream_worker_lane_busy_percent",
        "gauge",
    );
    for (name, s) in rows {
        if let Some(p) = &s.progress {
            for (w, f) in p.worker_busy.iter().enumerate() {
                let worker = w.to_string();
                prom::push_sample(
                    &mut out,
                    "flashsim_stream_worker_lane_busy_percent",
                    &[("cell", name), ("worker", &worker)],
                    (f.clamp(0.0, 1.0) * 100.0).round() as u64,
                );
            }
        }
    }
    prom::push_type(&mut out, "flashsim_stream_last_ckpt", "gauge");
    for (name, s) in rows {
        if let Some((seq, _)) = s.last_ckpt {
            prom::push_sample(
                &mut out,
                "flashsim_stream_last_ckpt",
                &[("cell", name)],
                seq,
            );
        }
    }
    prom::push_type(&mut out, "flashsim_stream_ended", "gauge");
    for (name, s) in rows {
        if let Some((kind, _, _)) = &s.ended {
            prom::push_sample(
                &mut out,
                "flashsim_stream_ended",
                &[("cell", name), ("kind", kind)],
                1,
            );
        }
    }
    prom::push_type(&mut out, "flashsim_stream_account_ps", "gauge");
    for (name, s) in rows {
        for (class, &ps) in s.classes.iter().zip(&s.account) {
            prom::push_sample(
                &mut out,
                "flashsim_stream_account_ps",
                &[("cell", name), ("class", class)],
                ps,
            );
        }
    }
    out
}

/// The flags of `watch` that take a value.
pub const VALUE_FLAGS: &[&str] = &["--interval", "--prom"];

/// `flashsim watch`: see the module documentation.
pub fn run(args: &Args) {
    let files: Vec<String> = args.positionals().map(str::to_owned).collect();
    if files.is_empty() {
        fail("usage: flashsim watch [--follow] [--interval MS] [--prom PATH] FILE...");
    }

    let follow = args.has("--follow");
    let interval_ms: u64 = args.get("--interval").unwrap_or(500);
    let prom_path = args.value("--prom");

    loop {
        let rows = read_rows(&files);
        let frame = render_frame(&rows);
        if follow {
            // Home + clear so the dashboard repaints in place.
            print!("\x1b[H\x1b[2J");
        }
        print!("{frame}");
        if let Some(path) = prom_path {
            write_atomic(Path::new(path), &render_prom(&rows))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        }
        let all_ended = rows.iter().all(|(_, s)| s.ended.is_some());
        if !follow || all_ended {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
