//! What one run of one workload prints.
//!
//! Every metric is a line `name unit value key=value…`; lines starting
//! with `#` carry what is not a metric (per-cell rates, digests, the
//! host). The last line is the JSON object the benchmark contract asks
//! for. `compare` reads the same lines back, so there is one format.

use crate::cells::Cell;
use crate::check::Ledger;
use crate::registry::{self, Workload};
use std::fmt::Write as _;

/// The metrics and notes of one run, in print order.
pub struct Report {
    workload: Workload,
    lines: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: usize,
    failed: usize,
    exit_code: u8,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: Workload) -> Report {
        Report {
            workload,
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            exit_code: 1, // until closed over a clean ledger
        }
    }

    /// Adds a registered metric. `notes` are `key=value` words printed
    /// after the value (pass counts, min/max, the cell that set a minimum).
    /// A metric of [`registry::PRINTED`] gets its line but stays out of
    /// the JSON object, which holds what `BENCHMARK.json` declares.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the registry or `value` is not finite:
    /// both are bugs in the benchmark, and a report must not hide them.
    pub fn metric(&mut self, name: &str, value: f64, notes: &str) {
        let spec = registry::find(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        assert!(value.is_finite(), "{name} = {value}");
        let mut line = format!(
            "{} {} {value} workload={}",
            spec.name,
            spec.unit,
            self.workload.name()
        );
        if !notes.is_empty() {
            let _ = write!(line, " {notes}");
        }
        self.lines.push(line);
        if !registry::PRINTED.iter().any(|m| m.name == spec.name) {
            self.metrics.push((spec.name, spec.unit, value));
        }
    }

    /// Adds a `# kind workload=… words…` line that is not a metric.
    pub fn note(&mut self, kind: &str, words: &str) {
        self.lines.push(format!(
            "# {kind} workload={} {words}",
            self.workload.name()
        ));
    }

    /// The value of a metric already added.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
    }

    /// Closes the report with the ledger's verdict: every cell's agreed
    /// digest, every failure and why, and the attempted/failed counts.
    pub fn close(&mut self, ledger: &Ledger, cells: &[Cell]) {
        for (i, cell) in cells.iter().enumerate() {
            if let Some(digest) = ledger.digest(i) {
                self.note("digest", &format!("cell={} {digest:016x}", cell.label));
            }
        }
        for (i, why) in ledger.failures() {
            self.note("FAILED", &format!("cell={} {why}", cells[i].label));
        }
        self.attempted = ledger.attempted();
        self.failed = ledger.failed();
        self.exit_code = ledger.exit_code();
    }

    /// Prints every line, the cell counts, then the contract's JSON object
    /// as the last line of standard output.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let workload = self.workload.name();
        println!(
            "cells_attempted count {} workload={workload}",
            self.attempted
        );
        println!("cells_failed count {} workload={workload}", self.failed);
        println!("{}", self.json());
    }

    /// The exit code the run forces: the ledger's, so non-zero if any
    /// cell failed.
    pub fn exit_code(&self) -> u8 {
        self.exit_code
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{build, test_tuning};
    use flashsim_core::platform::Study;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_carries_counts_and_every_metric() {
        let mut report = Report::new(Workload::UniCompute);
        report.metric("setup_s", 1.5, "n=3");
        report.metric("sim_ops_per_s", 2.5e7, "");
        report.metric("min_cell_ops_per_s", 3.0, ""); // printed, not gated
        assert!(report.lines[2].starts_with("min_cell_ops_per_s ops/s 3 "));
        let cells = build(Workload::Mp16Observed, 1, &Study::scaled(), &test_tuning());
        let mut ledger = Ledger::new(cells.len());
        ledger.record(0, Ok(0xabc));
        ledger.record(1, Err("boom".to_owned()));
        report.close(&ledger, &cells);
        assert_eq!(report.exit_code(), 1);
        assert!(report
            .lines
            .iter()
            .any(|l| l.contains("# FAILED") && l.ends_with("boom")));
        assert!(report
            .lines
            .iter()
            .any(|l| l.contains("# digest") && l.ends_with("0abc")));
        assert_eq!(
            report.json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"sim_ops_per_s\": {\"value\": 25000000, \"unit\": \"ops/s\"}}}"
        );
        assert_eq!(report.value("setup_s"), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unregistered_metric_is_refused() {
        Report::new(Workload::UniCompute).metric("made.up", 1.0, "");
    }
}
