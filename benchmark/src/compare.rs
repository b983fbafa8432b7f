//! `--compare SET_A SET_B`: the self-check behind `run.sh --selfcheck`.
//!
//! Two sets of runs of the same build must agree: every end-to-end
//! median within its bound, and everything simulated — `accuracy_mare`,
//! every `count.*`, `sim.parallel_time_ps`, every cell digest — exactly.
//! A metric whose own samples spread wider than its bound is reported as
//! `unresolved`, never as unchanged, and fails the check.

use crate::registry::{self, END_TO_END, PRINTED};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// One metric line of a set.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    value: f64,
    /// `(max - min) / value` of the metric's own samples, where printed.
    spread: Option<f64>,
}

/// What a set file holds, keyed by `(workload, metric or cell)`.
#[derive(Debug, Default, PartialEq)]
struct Set {
    metrics: BTreeMap<(String, String), Sample>,
    digests: BTreeMap<(String, String), String>,
}

fn note<'a>(words: &[&'a str], key: &str) -> Option<&'a str> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

fn parse(text: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for (n, line) in text.lines().enumerate() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let bad = |what: &str| format!("line {}: {what}: {line}", n + 1);
        match words.as_slice() {
            ["#", "digest", rest @ ..] => {
                let workload = note(rest, "workload").ok_or_else(|| bad("no workload"))?;
                let cell = note(rest, "cell").ok_or_else(|| bad("no cell"))?;
                let digest = rest.last().ok_or_else(|| bad("no digest"))?;
                set.digests
                    .insert((workload.to_owned(), cell.to_owned()), (*digest).to_owned());
            }
            [name, _unit, value, rest @ ..] if !name.starts_with(['#', '{']) => {
                let Some(workload) = note(rest, "workload") else {
                    continue; // not one of ours (a build tool's chatter)
                };
                let value: f64 = value.parse().map_err(|_| bad("value is not a number"))?;
                let bound = |key| note(rest, key).and_then(|v| v.parse::<f64>().ok());
                let spread = match (bound("min"), bound("max")) {
                    (Some(min), Some(max)) if value != 0.0 => Some((max - min) / value.abs()),
                    _ => None,
                };
                set.metrics.insert(
                    (workload.to_owned(), (*name).to_owned()),
                    Sample { value, spread },
                );
            }
            _ => {}
        }
    }
    if set.metrics.is_empty() {
        return Err("no metric lines".to_owned());
    }
    Ok(set)
}

/// How a metric of two sets of the same build must agree.
enum Rule {
    /// Simulated: bit-for-bit.
    Exact,
    /// Host-time: medians within `bound`, own spread within `bound`.
    Within(f64),
    /// Per-layer host-time: printed, never judged (they carry no bound).
    Informational,
}

fn rule(name: &str) -> Rule {
    let simulated = name == "accuracy_mare"
        || name == "sim.parallel_time_ps"
        || name.starts_with("count.")
        || name.starts_with("cells_");
    if simulated {
        return Rule::Exact;
    }
    match END_TO_END.iter().chain(PRINTED).find(|m| m.name == name) {
        Some(metric) => Rule::Within(metric.bound.expect("end-to-end metrics carry a bound")),
        None => Rule::Informational,
    }
}

/// Compares two sets; returns the verdict lines and how many failed.
fn compare(a: &Set, b: &Set) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut failed = 0;
    let mut verdict = |ok: bool, word: &str, key: &(String, String), detail: String| {
        failed += usize::from(!ok);
        lines.push(format!("{word:10} {:18} {:46} {detail}", key.0, key.1));
    };
    let keys: BTreeSet<_> = a.metrics.keys().chain(b.metrics.keys()).collect();
    for key in keys {
        let (Some(x), Some(y)) = (a.metrics.get(key), b.metrics.get(key)) else {
            verdict(false, "MISSING", key, "present in only one set".to_owned());
            continue;
        };
        let unit = registry::find(&key.1).map_or("count", |m| m.unit);
        let pair = format!("{} vs {} {unit}", x.value, y.value);
        match rule(&key.1) {
            Rule::Exact => {
                let same = x.value == y.value;
                verdict(same, if same { "exact" } else { "DIFFERS" }, key, pair);
            }
            Rule::Informational => {
                let change = (y.value / x.value - 1.0) * 100.0;
                verdict(true, "info", key, format!("{pair} ({change:+.1}%)"));
            }
            Rule::Within(bound) => {
                let spread = x.spread.unwrap_or(0.0).max(y.spread.unwrap_or(0.0));
                let change = (y.value / x.value - 1.0).abs();
                let detail = format!(
                    "{pair} (change {:.2}%, own spread {:.2}%, bound {:.0}%)",
                    change * 100.0,
                    spread * 100.0,
                    bound * 100.0
                );
                if spread > bound {
                    verdict(false, "unresolved", key, detail);
                } else {
                    let ok = change <= bound;
                    verdict(ok, if ok { "within" } else { "DIFFERS" }, key, detail);
                }
            }
        }
    }
    let cells: BTreeSet<_> = a.digests.keys().chain(b.digests.keys()).collect();
    for key in cells {
        match (a.digests.get(key), b.digests.get(key)) {
            (Some(x), Some(y)) if x == y => verdict(true, "exact", key, format!("digest {x}")),
            (Some(x), Some(y)) => verdict(false, "DIFFERS", key, format!("digest {x} vs {y}")),
            _ => verdict(false, "MISSING", key, "digest in only one set".to_owned()),
        }
    }
    (lines, failed)
}

/// Reads the two set files, prints one verdict per metric and digest, and
/// exits non-zero unless all of them agree.
pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .map_err(|why| eprintln!("{path}: {why}"))
    };
    let (Ok(a), Ok(b)) = (read(path_a), read(path_b)) else {
        return ExitCode::from(2);
    };
    let (lines, failed) = compare(&a, &b);
    for line in &lines {
        println!("{line}");
    }
    println!("selfcheck: {} checked, {failed} failed", lines.len());
    ExitCode::from(u8::from(failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SET: &str = "\
   Compiling something v0.1.0
sim_ops_per_s ops/s 1000 workload=uni-compute n=3 min=990 max=1010 accuracy_mare=0.4
accuracy_mare ratio 0.4 workload=uni-compute
peak_rss_mib MiB 12.5 workload=uni-compute
count.ops count 79328008 workload=uni-compute
isa.stream.ns_per_op ns 7.5 workload=uni-compute
cells_failed count 0 workload=uni-compute
# digest workload=uni-compute cell=lu/1@hw 00ff
# cell workload=uni-compute cell=lu/1@hw ops=5
{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {}}
";

    fn failed(a: &str, b: &str) -> (Vec<String>, usize) {
        compare(&parse(a).unwrap(), &parse(b).unwrap())
    }

    #[test]
    fn a_set_agrees_with_itself() {
        let set = parse(SET).unwrap();
        assert_eq!(set.metrics.len(), 6);
        assert_eq!(set.digests.len(), 1);
        let (lines, failures) = failed(SET, SET);
        assert_eq!(failures, 0, "{lines:#?}");
        assert_eq!(lines.len(), 7);
    }

    /// `sim_ops_per_s`'s value in [`SET`] scaled to `1 + bound * factor`.
    fn ops_per_s_at(factor: f64) -> String {
        let bound = registry::find("sim_ops_per_s").unwrap().bound.unwrap();
        format!("{}", 1000.0 * (1.0 + bound * factor))
    }

    #[test]
    fn timing_inside_the_bound_passes_and_outside_fails() {
        let near = SET.replace("ops/s 1000", &format!("ops/s {}", ops_per_s_at(0.5)));
        assert_eq!(failed(SET, &near).1, 0);
        let far = SET.replace("ops/s 1000", &format!("ops/s {}", ops_per_s_at(1.5)));
        let (lines, failures) = failed(SET, &far);
        assert_eq!(failures, 1);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("DIFFERS") && l.contains("sim_ops_per_s")));
    }

    #[test]
    fn a_metric_noisier_than_its_bound_is_unresolved_not_unchanged() {
        let noisy = SET.replace("max=1010", &format!("max={}", ops_per_s_at(1.5)));
        let (lines, failures) = failed(SET, &noisy);
        assert_eq!(failures, 1);
        assert!(lines.iter().any(|l| l.starts_with("unresolved")));
    }

    #[test]
    fn anything_simulated_must_match_exactly() {
        for (from, to) in [
            ("ratio 0.4", "ratio 0.4000001"),
            ("count 79328008", "count 79328009"),
            ("00ff", "00fe"),
            ("cells_failed count 0", "cells_failed count 1"),
        ] {
            let moved = SET.replace(from, to);
            assert_eq!(failed(SET, &moved).1, 1, "{from} -> {to}");
        }
        let faster_layer = SET.replace("ns 7.5", "ns 3");
        assert_eq!(failed(SET, &faster_layer).1, 0);
    }

    #[test]
    fn a_metric_missing_from_one_set_fails() {
        let short = SET.replace("peak_rss_mib MiB 12.5 workload=uni-compute\n", "");
        assert_eq!(failed(SET, &short).1, 1);
        assert!(parse("nothing here").is_err());
    }
}
