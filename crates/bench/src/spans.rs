//! Span diff: trace the same sampled transaction causally on two
//! platforms, and report which legs exist only on one of them and which
//! legs own the latency gap. The span sampler is a pure function of
//! (seed, node, line, per-line ordinal), so the *same* transactions are
//! sampled on both platforms and can be aligned one-to-one.
//!
//! Usage:
//!
//! ```text
//! flashsim spans SIM [--mem flashlite|numa] [--case KEY] [--seed N] [--full]
//! flashsim spans [--degree N] [--rounds N] [--seed N] [--period N]
//!       [--jsonl-fl PATH] [--jsonl-numa PATH] [--full]
//! ```
//!
//! # Hardware vs a simulator (`SIM` given)
//!
//! `SIM` is `simos-mipsy`, `solo-mipsy` or `simos-mxs`; `--case` picks
//! the snbench protocol case (default `remote_clean`). The gold-standard
//! hardware and the simulator run the same microbenchmark through
//! [`Machine`] with every transaction sampled. The tool prints the
//! aligned pair with the largest latency gap, leg by leg, and one table
//! of every leg kind's charge summed over all aligned pairs on each
//! side. Charges tile each transaction's latency in integer picoseconds,
//! so the table's deltas must sum to the summed end-to-end gap exactly;
//! the run fails if they do not. The leg with the largest delta is the
//! single feature that owns the disagreement — the paper's §3.1 question
//! (the 25-vs-65-cycle TLB handler, the missing L2-interface occupancy)
//! asked of one transaction.
//!
//! # FlashLite vs NUMA (no `SIM`)
//!
//! Both models are driven directly (no cores) with the hotspot request
//! stream from `tests/telemetry_hotspot.rs`: every round, `--degree`
//! nodes miss to lines homed at node 0, so node 0's MAGIC queues on
//! FlashLite while the NUMA model's directory never does.
//!
//! The run gates on the paper's omitted-occupancy signature: the
//! aligned hotspot transaction must carry MAGIC occupancy legs
//! (`pi_request`, NACK/backoff, NI handlers) on FlashLite that have no
//! counterpart on the NUMA side, and both exports must validate as
//! `flashsim-span-v1` — including the charge-tiling invariant
//! (per-transaction charges sum to the end-to-end latency in integer
//! picoseconds). `scripts/check.sh` runs it as a gate.

use crate::{fail, header, platform_from_args, Args};
use flashsim_engine::{
    span, Observers, Schema, SpanPlan, SpanSet, SpanTracer, SpanTxn, Time, TimeDelta,
};
use flashsim_flashlite::{FlashLite, FlashLiteParams};
use flashsim_isa::Program;
use flashsim_machine::{Machine, MachineConfig};
use flashsim_mem::{AccessKind, LineAddr, MemRequest, MemorySystem};
use flashsim_numa::{Numa, NumaParams};
use flashsim_workloads::micro::{SnCase, Snbench};

const NODES: u32 = 8;
const NODE_MEM: u64 = 1 << 24;

/// The hotspot drive: each round, nodes `1..=degree` read distinct lines
/// all homed at node 0. The driver opens/closes the span transaction the
/// way the machine layer does around `MemorySystem::access`.
fn drive(mem: &mut dyn MemorySystem, spans: &SpanTracer, rounds: u64, degree: u32) {
    for round in 0..rounds {
        let now = Time::ZERO + TimeDelta::from_us(round * 10);
        for n in 1..=degree {
            let line = LineAddr(((round * u64::from(degree) + u64::from(n)) * 128) % NODE_MEM);
            let on = spans.txn_try_begin(n, line.get(), "read", now);
            let out = mem.access(MemRequest {
                node: n,
                line,
                kind: AccessKind::ReadShared,
                now,
            });
            if on {
                spans.txn_end(out.done_at, out.case.key());
            }
        }
    }
}

fn collect(flashlite: bool, plan: SpanPlan, rounds: u64, degree: u32) -> SpanSet {
    let tracer = SpanTracer::new(plan);
    let mut mem: Box<dyn MemorySystem> = if flashlite {
        Box::new(
            FlashLite::new(NODES, NODE_MEM, FlashLiteParams::hardware())
                .expect("power-of-two node count"),
        )
    } else {
        Box::new(Numa::new(NODES, NODE_MEM, NumaParams::matched()))
    };
    mem.attach(&Observers {
        spans: tracer.clone(),
        ..Observers::disabled()
    });
    drive(&mut *mem, &tracer, rounds, degree);
    tracer.snapshot().expect("tracer is enabled")
}

fn render_txn(label: &str, t: &SpanTxn) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{label}: case={} total={}ns charges={}ns ({} spans, nested={})\n",
        t.case,
        t.total().as_ns(),
        t.charge_total().as_ns(),
        t.spans.len(),
        t.nested(),
    ));
    out.push_str("  critical path (charged legs, causal order):\n");
    for s in t.critical_path() {
        let class = s.class.map_or("none", |c| c.key());
        out.push_str(&format!(
            "    {:>18} node={} [{:>10}..{:>10}]ps charge={:>9}ps {}\n",
            s.kind,
            s.node,
            s.start.as_ps(),
            s.end.as_ps(),
            s.charge.as_ps(),
            class,
        ));
    }
    out.push_str("  per-leg attribution:\n");
    for (kind, charge) in t.leg_attribution() {
        out.push_str(&format!("    {kind:>18} {:>9}ps\n", charge.as_ps()));
    }
    out
}

/// One side of a diff: what to call it and what it sampled.
type Side<'a> = (&'a str, &'a SpanSet);

/// Prints both sides' populations, checks both exports against the span
/// schema (which includes charge tiling), and pairs up the transactions
/// sampled on both.
fn align<'a>(
    a: Side<'a>,
    b: Side<'a>,
    failures: &mut Vec<String>,
) -> Vec<(&'a SpanTxn, &'a SpanTxn)> {
    for (name, set) in [a, b] {
        println!(
            "{name}: {} txns sampled ({} truncated)",
            set.txns.len(),
            set.truncated
        );
        if let Err(e) = Schema::Span.validate(&set.to_jsonl()) {
            failures.push(format!("{name}: span JSONL invalid: {e}"));
        }
    }
    let aligned = a.1.align(b.1);
    println!("aligned transactions: {}", aligned.len());
    println!();
    if aligned.is_empty() {
        failures.push("no aligned transactions — sampler drift across platforms".to_owned());
    }
    aligned
}

/// Prints one aligned pair leg by leg and returns the leg kinds only
/// `a` and only `b` have.
fn print_pair<'a>(
    why: &str,
    (la, a): (&str, &'a SpanTxn),
    (lb, b): (&str, &'a SpanTxn),
) -> (Vec<&'a str>, Vec<&'a str>) {
    println!(
        "-- exemplar: node={} line={:#x} index={} ({why}) --",
        a.node, a.line, a.index
    );
    print!("{}", render_txn(la, a));
    print!("{}", render_txn(lb, b));
    let a_only = span::kinds_only_in(a, b);
    let b_only = span::kinds_only_in(b, a);
    let width = la.len().max(lb.len()) + 1;
    println!("  legs only on {:<width$} {a_only:?}", format!("{la}:"));
    println!("  legs only on {:<width$} {b_only:?}", format!("{lb}:"));
    println!(
        "  latency gap: {la} {}ns vs {lb} {}ns",
        a.total().as_ns(),
        b.total().as_ns()
    );
    (a_only, b_only)
}

/// Ends the run: the `ok` line, or every failure and exit status 1.
fn finish(failures: &[String], ok: &str) {
    println!();
    if failures.is_empty() {
        println!("{ok}");
    } else {
        for f in failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Runs `prog` through a [`Machine`] built from `cfg` with every
/// transaction sampled; returns the platform label and its spans.
fn machine_spans(mut cfg: MachineConfig, prog: &dyn Program, seed: u64) -> (String, SpanSet) {
    cfg.spans = Some(SpanPlan::all(seed));
    let label = cfg.label();
    let result = Machine::new(cfg, prog)
        .expect("valid microbenchmark configuration")
        .run()
        .expect("microbenchmark runs to completion");
    (label, result.spans.expect("span tracer is attached"))
}

/// Every leg kind's charge in picoseconds, summed over the aligned pairs
/// on each side (`[first, second]`), largest absolute difference first.
fn leg_table(aligned: &[(&SpanTxn, &SpanTxn)]) -> Vec<(&'static str, [u64; 2])> {
    let mut rows: Vec<(&'static str, [u64; 2])> = Vec::new();
    for (a, b) in aligned {
        for (side, txn) in [a, b].into_iter().enumerate() {
            for (kind, charge) in txn.leg_attribution() {
                let at = rows.iter().position(|r| r.0 == kind).unwrap_or_else(|| {
                    rows.push((kind, [0, 0]));
                    rows.len() - 1
                });
                rows[at].1[side] += charge.as_ps();
            }
        }
    }
    rows.sort_by_key(|&(kind, [a, b])| (std::cmp::Reverse(a.abs_diff(b)), kind));
    rows
}

/// `flashsim spans SIM`: hardware against one simulator, over an snbench
/// case.
fn versus_hardware(args: &Args) {
    let setup = args.setup();
    header("span diff (gold-standard hardware vs simulator)", &setup);
    let (sim, mem, _) = platform_from_args(args);
    let case_key = args.value("--case").unwrap_or("remote_clean");
    let case = SnCase::all()
        .into_iter()
        .find(|c| c.case().key() == case_key)
        .unwrap_or_else(|| {
            let keys: Vec<&str> = SnCase::all().iter().map(|c| c.case().key()).collect();
            fail(&format!(
                "unknown snbench case {case_key} ({})",
                keys.join("|")
            ))
        });
    let seed: u64 = args.get("--seed").unwrap_or(7);
    let bench = Snbench::new(case, setup.study.geometry.l2.bytes);
    let nodes = Snbench::NODES as u32;
    println!(
        "workload: {} over {nodes} nodes, plan {}",
        bench.name(),
        SpanPlan::all(seed).describe()
    );

    let (label_hw, hw) = machine_spans(setup.study.hardware(nodes), &bench, seed);
    let (label_sim, sm) = machine_spans(setup.study.sim(sim, nodes, mem), &bench, seed);
    println!("hardware  = {label_hw}");
    println!("simulator = {label_sim}");
    println!();

    let mut failures: Vec<String> = Vec::new();
    let aligned = align(("hardware", &hw), ("simulator", &sm), &mut failures);

    if let Some((h, s)) = aligned
        .iter()
        .max_by_key(|(h, s)| h.total().as_ps().abs_diff(s.total().as_ps()))
    {
        print_pair("largest latency gap", ("hardware", h), ("simulator", s));
        println!();
    }

    // Which legs own the gap, over every aligned pair. Charges tile each
    // transaction, so the per-leg deltas sum to the end-to-end gap.
    let signed = |a: u64, b: u64| i128::from(b) - i128::from(a);
    println!(
        "per-leg charge over {} aligned transactions (ps):",
        aligned.len()
    );
    println!(
        "  {:>18} {:>14} {:>14} {:>15}",
        "leg", "hardware", "simulator", "sim - hw"
    );
    let rows = leg_table(&aligned);
    for &(kind, [a, b]) in &rows {
        println!("  {kind:>18} {a:>14} {b:>14} {:>+15}", signed(a, b));
    }
    let leg_gap: i128 = rows.iter().map(|&(_, [a, b])| signed(a, b)).sum();
    let total_hw: u64 = aligned.iter().map(|(h, _)| h.total().as_ps()).sum();
    let total_sim: u64 = aligned.iter().map(|(_, s)| s.total().as_ps()).sum();
    let gap = signed(total_hw, total_sim);
    println!(
        "  {:>18} {total_hw:>14} {total_sim:>14} {gap:>+15}",
        "end to end"
    );
    if leg_gap != gap {
        failures.push(format!(
            "per-leg deltas sum to {leg_gap:+}ps but the end-to-end gap is {gap:+}ps"
        ));
    }
    finish(
        &failures,
        "gates OK: schema valid, per-leg deltas sum to the end-to-end gap exactly",
    );
}

/// The flags of `spans` that take a value.
pub const VALUE_FLAGS: &[&str] = &[
    "--mem",
    "--case",
    "--degree",
    "--rounds",
    "--seed",
    "--period",
    "--jsonl-fl",
    "--jsonl-numa",
];

/// `flashsim spans`: see the module documentation.
pub fn run(args: &Args) {
    if args.positional().is_some() {
        return versus_hardware(args);
    }
    let full = args.has("--full");
    let degree: u32 = args.get("--degree").unwrap_or(7).clamp(1, NODES - 1);
    let rounds: u64 = args.get("--rounds").unwrap_or(if full { 400 } else { 40 });
    let seed: u64 = args.get("--seed").unwrap_or(7);
    let period: u64 = args.get("--period").unwrap_or(4);
    let plan = SpanPlan::sampled(seed, period);

    println!("== flashsim :: span diff (FlashLite vs NUMA) ==");
    println!(
        "hotspot drive: {rounds} rounds x {degree} requesters -> home 0, plan {}",
        plan.describe()
    );
    println!();

    let fl = collect(true, plan, rounds, degree);
    let nu = collect(false, plan, rounds, degree);
    let mut failures: Vec<String> = Vec::new();
    let aligned = align(("flashlite", &fl), ("numa", &nu), &mut failures);

    // Exemplar: the aligned transaction where FlashLite suffered most —
    // the hotspot victim whose queueing the NUMA model cannot see.
    if let Some((ft, nt)) = aligned.iter().max_by_key(|(f, _)| f.total()) {
        let (fl_only, nu_only) = print_pair(
            "slowest aligned on FlashLite",
            ("flashlite", ft),
            ("numa", nt),
        );
        // The paper's signature, as a causal statement about ONE
        // transaction: MAGIC's PI/NI occupancy legs exist only on
        // FlashLite, the ctrl_* pure-latency legs only on NUMA.
        if !fl_only.contains(&"pi_request") {
            failures
                .push("exemplar lacks FlashLite-only MAGIC occupancy legs (pi_request)".to_owned());
        }
        if !nu_only.contains(&"ctrl_request") {
            failures.push("exemplar lacks NUMA-only ctrl_request leg".to_owned());
        }
    }

    if let Some(path) = args.value("--jsonl-fl") {
        std::fs::write(path, fl.to_jsonl()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = args.value("--jsonl-numa") {
        std::fs::write(path, nu.to_jsonl()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    finish(
        &failures,
        "gates OK: schema valid, charges tile, MAGIC-leg signature present",
    );
}
