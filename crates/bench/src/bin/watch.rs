//! Multi-run stream supervisor: tail `flashsim-stream-v1` files from
//! journaled matrix cells and render a live aggregated dashboard — or
//! strictly validate them as a CI gate.
//!
//! Usage:
//!
//! ```text
//! watch [--follow] [--interval MS] [--prom PATH] FILE...
//! watch --validate FILE...
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
//! file) on every frame.
//!
//! `--validate` runs nothing live: each file is checked against the
//! full `flashsim-stream-v1` contract (header, dense sequence numbers,
//! gapless bucket chaining, checkpoint placement, monotone progress,
//! torn-tail tolerance), and files sharing a provenance hash — reruns
//! of the same cell, including mid-kill snapshots — are checked for
//! *prefix stability*: their deterministic event lines must agree on
//! every common position. Exits nonzero on any violation;
//! `scripts/check.sh` runs it over every stream the kill-resume gate
//! produces.

use flashsim_bench::streamview::{sparkline, worker_bars, SparkFold, TailSummary};
use flashsim_bench::{fail, Args};
use flashsim_engine::{prom, stream};
use std::path::{Path, PathBuf};

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

/// One validated stream inside a provenance group: file path plus its
/// deterministic lines.
type GroupMember = (String, Vec<String>);

/// Strict validation gate over every file, plus cross-file prefix
/// stability within each provenance group.
fn validate(files: &[String]) -> ! {
    let mut invalid = 0usize;
    // provenance -> [(file, deterministic lines)]
    let mut groups: Vec<(String, Vec<GroupMember>)> = Vec::new();
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                invalid += 1;
                println!("  {path}: UNREADABLE ({e})");
                continue;
            }
        };
        match stream::validate_jsonl(&text) {
            Ok(()) => {
                let det = stream::deterministic_lines(&text);
                println!("  {path}: ok ({} deterministic events)", det.len());
                if let Some(prov) = stream::provenance_of(&text) {
                    match groups.iter_mut().find(|(p, _)| *p == prov) {
                        Some((_, members)) => members.push((path.clone(), det)),
                        None => groups.push((prov, vec![(path.clone(), det)])),
                    }
                }
            }
            Err(e) => {
                invalid += 1;
                println!("  {path}: INVALID ({e})");
            }
        }
    }
    let mut unstable = 0usize;
    for (prov, members) in &groups {
        if members.len() < 2 {
            continue;
        }
        let mut ok = true;
        for (i, (a_path, a)) in members.iter().enumerate() {
            for (b_path, b) in &members[i + 1..] {
                let common = a.len().min(b.len());
                if let Some(k) = (0..common).find(|&k| a[k] != b[k]) {
                    ok = false;
                    println!(
                        "  provenance {prov}: PREFIX DIVERGED at deterministic event {k}:\n    {a_path}: {}\n    {b_path}: {}",
                        a[k], b[k]
                    );
                }
            }
        }
        if ok {
            let longest = members.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
            println!(
                "  provenance {prov}: {} stream(s) prefix-stable over {longest} deterministic events",
                members.len()
            );
        } else {
            unstable += 1;
        }
    }
    println!(
        "{} stream file(s): {} valid, {invalid} invalid; {} provenance group(s), {unstable} unstable",
        files.len(),
        files.len() - invalid,
        groups.len(),
    );
    if invalid > 0 || unstable > 0 {
        eprintln!("FAIL: {invalid} invalid stream(s), {unstable} unstable provenance group(s)");
        std::process::exit(1);
    }
    std::process::exit(0);
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

/// Temp-then-rename write so a scraper never reads a torn textfile.
fn write_atomic(path: &str, text: &str) -> std::io::Result<()> {
    let mut tmp_name = std::ffi::OsString::from(path);
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

fn main() {
    let args = Args::parse(&["--interval", "--prom"]);
    let files: Vec<String> = args.positionals().map(str::to_owned).collect();
    if files.is_empty() {
        fail("usage: watch [--validate] [--follow] [--interval MS] [--prom PATH] FILE...");
    }

    if args.has("--validate") {
        println!("validating flashsim-stream-v1 files");
        validate(&files);
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
            write_atomic(path, &render_prom(&rows))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        }
        let all_ended = rows.iter().all(|(_, s)| s.ended.is_some());
        if !follow || all_ended {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
