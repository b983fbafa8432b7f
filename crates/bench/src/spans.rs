//! Span diff: trace the same sampled transaction causally on FlashLite
//! and on the latency-only NUMA model, and report which legs exist only
//! on one platform.
//!
//! Both models are driven directly (no cores) with the hotspot request
//! stream from `tests/telemetry_hotspot.rs`: every round, `--degree`
//! nodes miss to lines homed at node 0, so node 0's MAGIC queues on
//! FlashLite while the NUMA model's directory never does. The span
//! sampler is a pure function of (seed, node, line, per-line ordinal),
//! so the *same* transactions are sampled on both platforms and can be
//! aligned one-to-one.
//!
//! Usage:
//!
//! ```text
//! flashsim spans [--degree N] [--rounds N] [--seed N] [--period N]
//!       [--jsonl-fl PATH] [--jsonl-numa PATH] [--full]
//! ```
//!
//! The run gates on the paper's omitted-occupancy signature: the
//! aligned hotspot transaction must carry MAGIC occupancy legs
//! (`pi_request`, NACK/backoff, NI handlers) on FlashLite that have no
//! counterpart on the NUMA side, and both exports must validate as
//! `flashsim-span-v1` — including the charge-tiling invariant
//! (per-transaction charges sum to the end-to-end latency in integer
//! picoseconds). `scripts/check.sh` runs it as a gate.

use crate::Args;
use flashsim_engine::{span, Observers, Schema, SpanPlan, SpanSet, SpanTracer, Time, TimeDelta};
use flashsim_flashlite::{FlashLite, FlashLiteParams};
use flashsim_mem::{AccessKind, LineAddr, MemRequest, MemorySystem};
use flashsim_numa::{Numa, NumaParams};

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

fn render_txn(label: &str, t: &flashsim_engine::SpanTxn) -> String {
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

/// `flashsim spans`: see the module documentation.
pub fn run(args: &Args) {
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

    for (name, set) in [("flashlite", &fl), ("numa", &nu)] {
        println!(
            "{name}: {} txns sampled ({} truncated)",
            set.txns.len(),
            set.truncated
        );
        if let Err(e) = Schema::Span.validate(&set.to_jsonl()) {
            failures.push(format!("{name}: span JSONL invalid: {e}"));
        }
    }

    let aligned = fl.align(&nu);
    println!("aligned transactions: {}", aligned.len());
    println!();
    if aligned.is_empty() {
        failures.push("no aligned transactions — sampler drift across platforms".to_owned());
    }

    // Exemplar: the aligned transaction where FlashLite suffered most —
    // the hotspot victim whose queueing the NUMA model cannot see.
    if let Some((ft, nt)) = aligned.iter().max_by_key(|(f, _)| f.total()) {
        println!(
            "-- exemplar: node={} line={:#x} index={} (slowest aligned on FlashLite) --",
            ft.node, ft.line, ft.index
        );
        print!("{}", render_txn("flashlite", ft));
        print!("{}", render_txn("numa", nt));
        let fl_only = span::kinds_only_in(ft, nt);
        let nu_only = span::kinds_only_in(nt, ft);
        println!("  legs only on flashlite: {fl_only:?}");
        println!("  legs only on numa:      {nu_only:?}");
        println!(
            "  latency gap: flashlite {}ns vs numa {}ns",
            ft.total().as_ns(),
            nt.total().as_ns()
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

    println!();
    if failures.is_empty() {
        println!("gates OK: schema valid, charges tile, MAGIC-leg signature present");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
