//! The `flashsim` binary's exit statuses: 2 (through `fail`) for a
//! command line it cannot read, 1 for a validation that found a
//! violation or an export it could not write — an unreadable file or an
//! unwritable path is a reported failure, not a panic.

use std::process::Command;

fn flashsim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flashsim"))
        .args(args)
        .output()
        .expect("flashsim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_subcommands_and_formats_list_the_choices_and_exit_2() {
    let (code, _, err) = flashsim(&["profile"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown subcommand profile") && err.contains("report|"));
    let (code, _, err) = flashsim(&["validate", "journal", "x"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("telemetry|span|hostprof|ckpt"), "{err}");
    assert_eq!(flashsim(&[]).0, Some(2));
    for gone in ["diverge", "watch"] {
        let (code, _, err) = flashsim(&[gone]);
        assert_eq!(code, Some(2));
        assert_eq!(
            err.lines().last(),
            Some("usage: flashsim figures|report|spans|chaos|diag|validate [ARGS]")
        );
    }
    // The live stream is gone with its tool: no format, no report mode.
    let (code, _, err) = flashsim(&["validate", "stream", "x"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown format stream"), "{err}");
    assert!(!flashsim_bench::report::VALUE_FLAGS.contains(&"--from-stream"));
    assert!(!include_str!("../src/report.rs").contains("from-stream"));
}

#[test]
fn an_undeclared_flag_exits_2_before_anything_runs() {
    // The deleted Prometheus, CSV and HTML exports and stderr progress
    // line, typo'd switches that used to be read as "not given", and flags
    // of another subcommand.
    const REPORT: &str = "--mem --nodes --workers --cadence-us --out --jsonl \
                          --spans-jsonl --hostprof-jsonl --phases --hostprof --full";
    for (line, takes) in [
        (&["report", "--prom", "F"][..], REPORT),
        (&["report", "--heartbeat", "100"], REPORT),
        (&["report", "--csv", "P"], REPORT),
        (&["report", "--html", "F"], REPORT),
        (&["report", "--phses"], REPORT),
        (
            &["chaos", "--kill-resum"],
            "--kills --seed --dir --seeds --base --kill-resume-child --kill-resume --full",
        ),
        (&["figures", "--nodes", "2", "fig3"], "--full"),
        (&["validate", "--full", "span", "x"], "no flags"),
    ] {
        let (code, out, err) = flashsim(line);
        assert_eq!(code, Some(2), "{line:?}");
        assert!(out.is_empty(), "{line:?} printed {out}");
        assert_eq!(
            err,
            format!(
                "unknown flag {}\nflashsim {} takes: {takes}\n",
                line[1], line[0]
            )
        );
    }
}

/// The `flashsim` command lines of `scripts/check.sh`: every `$flashsim`
/// invocation, continuation lines joined, cut at the first redirection
/// or pipe.
fn check_sh_command_lines() -> Vec<Vec<String>> {
    let script = include_str!("../../../scripts/check.sh").replace("\\\n", " ");
    script
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once("$flashsim ").map(|(_, rest)| rest))
        .map(|rest| {
            rest.split_whitespace()
                .take_while(|t| !t.starts_with(['>', '|', ';']) && !t.starts_with("2>"))
                .map(str::to_owned)
                .collect()
        })
        .collect()
}

#[test]
fn every_command_line_in_check_sh_parses() {
    let lines = check_sh_command_lines();
    for tool in ["figures", "report", "spans", "chaos", "validate"] {
        assert!(
            lines.iter().any(|l| l[0] == tool),
            "check.sh runs no `flashsim {tool}`: {lines:?}"
        );
    }
    for line in lines {
        if let Err(e) = flashsim_bench::select(line.clone()) {
            panic!("check.sh line {line:?} does not parse: {e}");
        }
    }
}

/// Zero nodes, a count FlashLite's hypercube cannot span, and more than
/// the largest machine anything builds: `report --nodes` and `diag
/// THREADS` report each with exit 2 before a machine or a generator
/// thread exists.
#[test]
fn report_rejects_node_counts_it_cannot_run_without_panicking() {
    for (tool, what) in [
        (["report", "--nodes"], "--nodes"),
        (["diag", "fft"], "THREADS"),
    ] {
        for nodes in ["0", "3", "128"] {
            let line = [&tool[..], &[nodes]].concat();
            let (code, out, err) = flashsim(&line);
            assert_eq!(code, Some(2), "{line:?}: {out}{err}");
            assert!(out.is_empty(), "{line:?} printed {out}");
            let message =
                format!("{what} takes a power-of-two node count from 1 to 64, got {nodes}");
            assert_eq!(err, message + "\n");
        }
    }
}

#[test]
fn an_export_that_cannot_be_written_exits_1_with_one_line() {
    let path = "/no/such/dir/x.jsonl";
    let (code, _, err) = flashsim(&["report", "--nodes", "2", "--jsonl", path]);
    assert_eq!(code, Some(1), "{err}");
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "{err}");
    assert!(lines[0].starts_with(&format!("writing {path}: ")), "{err}");
}

#[test]
fn a_value_flag_without_its_value_exits_2() {
    for (line, flag) in [
        (&["spans", "--jsonl-fl"][..], "--jsonl-fl"),
        (&["spans", "--jsonl-fl", "--degree", "3"], "--jsonl-fl"),
        (&["chaos", "--seeds"], "--seeds"),
    ] {
        let (code, _, err) = flashsim(line);
        assert_eq!(code, Some(2), "{line:?}");
        assert!(err.contains(&format!("{flag} takes a value")), "{err}");
    }
}

/// The rows of `spans SIM`'s per-leg table: (leg, hardware, simulator,
/// simulator - hardware), the last row being `end to end`.
fn leg_rows(out: &str) -> Vec<(String, u64, u64, i128)> {
    out.lines()
        .skip_while(|l| !l.starts_with("per-leg charge over "))
        .skip(2)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let mut fields: Vec<&str> = l.split_whitespace().collect();
            let mut number = || fields.pop().expect("a number column");
            let (delta, sim, hw) = (number(), number(), number());
            (
                fields.join(" "),
                hw.parse().expect("hardware ps"),
                sim.parse().expect("simulator ps"),
                delta.parse().expect("signed delta"),
            )
        })
        .collect()
}

#[test]
fn spans_sim_names_the_legs_that_own_the_gap_and_reruns_byte_identically() {
    let (code, out, err) = flashsim(&["spans", "simos-mipsy"]);
    assert_eq!(code, Some(0), "{err}");
    let aligned: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("aligned transactions: "))
        .and_then(|n| n.parse().ok())
        .expect("an aligned-transactions line");
    assert!(aligned > 0);
    assert!(
        out.contains("per-leg deltas sum to the end-to-end gap exactly"),
        "{out}"
    );
    // The printed table closes: every row's delta is its own difference,
    // and the legs' deltas sum to the end-to-end row's.
    let mut rows = leg_rows(&out);
    let (label, _, _, gap) = rows.pop().expect("an end-to-end row");
    assert_eq!(label, "end to end");
    assert!(rows.iter().any(|r| r.3 != 0), "no leg owns any gap: {out}");
    for (leg, hw, sim, delta) in &rows {
        assert_eq!(i128::from(*sim) - i128::from(*hw), *delta, "{leg}");
    }
    assert_eq!(rows.iter().map(|r| r.3).sum::<i128>(), gap);
    // Reproducibility at the span level: no wall-clock byte in the output.
    assert_eq!(flashsim(&["spans", "simos-mipsy"]).1, out);
}

#[test]
fn spans_sim_lists_the_numa_controller_legs_as_simulator_only() {
    let (code, out, err) = flashsim(&[
        "spans",
        "solo-mipsy",
        "--mem",
        "numa",
        "--case",
        "local_dirty_remote",
    ]);
    assert_eq!(code, Some(0), "{err}");
    let only = out
        .lines()
        .find(|l| l.starts_with("  legs only on simulator:"))
        .expect("a simulator-only line");
    for leg in ["ctrl_request", "ctrl_out", "ctrl_reply"] {
        assert!(only.contains(leg), "{only}");
    }
}

#[test]
fn validate_counts_an_unreadable_file_and_rejects_an_empty_one() {
    let dir = std::env::temp_dir().join(format!("flashsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = dir.join("empty").to_string_lossy().into_owned();
    std::fs::write(&empty, "").expect("write");
    let missing = dir.join("missing").to_string_lossy().into_owned();

    for kind in ["telemetry", "span", "hostprof", "ckpt"] {
        let (code, out, _) = flashsim(&["validate", kind, &empty]);
        assert_eq!(code, Some(1), "{kind}");
        assert!(out.contains("INVALID"), "{out}");
    }
    let (code, out, _) = flashsim(&["validate", "span", &missing]);
    assert_eq!(code, Some(1));
    assert!(out.contains("UNREADABLE"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
