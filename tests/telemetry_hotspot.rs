//! The paper's hotspot signature, read off the telemetry series: on
//! FlashLite, MAGIC inbound-queue occupancy at the hot home node rises
//! with the hotspot degree (how many nodes hammer lines homed there at
//! once); on the contention-free NUMA model the metric does not exist at
//! all — the model deliberately registers no `magic.queue_ps`, because
//! it models no inbound queueing to occupy. Traced by the causal span
//! recorder instead, the same drive shows MAGIC occupancy legs only on
//! FlashLite; a coherence-rich script shows the seeded sampler
//! deterministic and every span tree tiling its transaction exactly.

use flashsim::engine::span::{kinds_only_in, validate_jsonl};
use flashsim::engine::{Observers, SpanPlan, SpanSet, SpanTracer, Telemetry, Time, TimeDelta};
use flashsim::flashlite::{FlashLite, FlashLiteParams};
use flashsim::mem::{AccessKind, LineAddr, MemOutcome, MemRequest, MemorySystem};
use flashsim::numa::{Numa, NumaParams};

const NODES: u32 = 8;
const NODE_MEM: u64 = 1 << 24;
const ROUNDS: u64 = 40;

fn flashlite() -> FlashLite {
    FlashLite::new(NODES, NODE_MEM, FlashLiteParams::hardware()).expect("power-of-two node count")
}

fn numa() -> Numa {
    Numa::new(NODES, NODE_MEM, NumaParams::matched())
}

/// One demand access driven the way the machine layer drives it: the
/// span transaction opens at issue and closes at completion.
fn access(
    mem: &mut dyn MemorySystem,
    spans: &SpanTracer,
    node: u32,
    line: u64,
    kind: AccessKind,
    now: Time,
) -> MemOutcome {
    let on = spans.txn_try_begin(node, line, kind.key(), now);
    let out = mem.access(MemRequest {
        node,
        line: LineAddr(line),
        kind,
        now,
    });
    if on {
        spans.txn_end(out.done_at, out.case.key());
    }
    out
}

/// Drives `degree` requesters at lines homed on node 0, all arriving
/// simultaneously each round — a synthetic hotspot phase — with
/// `observers` attached.
fn drive_hotspot(mem: &mut dyn MemorySystem, degree: u32, observers: &Observers) {
    mem.attach(observers);
    for round in 0..ROUNDS {
        // Space rounds far enough apart that each round's backlog fully
        // drains: the occupancy each round then isolates the simultaneous
        // arrival burst, which scales with the degree.
        let now = Time::ZERO + TimeDelta::from_us(10) * round;
        for n in 1..=degree {
            // Distinct lines, all with address < NODE_MEM: homed at 0.
            let line = ((round * u64::from(degree) + u64::from(n)) * 128) % NODE_MEM;
            access(mem, &observers.spans, n, line, AccessKind::ReadShared, now);
        }
    }
}

/// [`drive_hotspot`] with telemetry attached; returns the sampled series.
fn sample_hotspot(mem: &mut dyn MemorySystem, degree: u32) -> Telemetry {
    let telemetry = Telemetry::with_cadence(TimeDelta::from_us(1));
    let observers = Observers {
        telemetry: telemetry.clone(),
        ..Observers::disabled()
    };
    drive_hotspot(mem, degree, &observers);
    telemetry
}

fn queue_total(telemetry: &Telemetry) -> Option<u64> {
    let series = telemetry
        .snapshot(Time::ZERO + TimeDelta::from_us(10) * ROUNDS)
        .expect("telemetry is enabled");
    assert!(series.conserved(), "occupancy integrals must close exactly");
    series.get("magic.queue_ps").map(|m| m.total)
}

#[test]
fn flashlite_magic_queue_occupancy_rises_with_hotspot_degree() {
    let mut totals = Vec::new();
    for degree in [1u32, 2, 4, 7] {
        let mut fl = flashlite();
        let telemetry = sample_hotspot(&mut fl, degree);
        let total =
            queue_total(&telemetry).expect("FlashLite must register MAGIC inbound-queue occupancy");
        totals.push((degree, total));
    }
    for pair in totals.windows(2) {
        let (d_lo, t_lo) = pair[0];
        let (d_hi, t_hi) = pair[1];
        assert!(
            t_hi > t_lo,
            "MAGIC queue occupancy must rise with hotspot degree: \
             degree {d_lo} -> {t_lo} ps, degree {d_hi} -> {t_hi} ps"
        );
    }
    // Degree 1 has no simultaneous contender, so the inbound queue is
    // (nearly) empty; the hotspot signal is the growth, not the floor.
    let (_, base) = totals[0];
    let (_, top) = totals[totals.len() - 1];
    assert!(
        top > base.saturating_mul(2),
        "hotspot occupancy must grow substantially ({base} -> {top} ps)"
    );
}

#[test]
fn numa_has_no_magic_queue_metric_at_any_degree() {
    for degree in [1u32, 4, 7] {
        let telemetry = sample_hotspot(&mut numa(), degree);
        assert_eq!(
            queue_total(&telemetry),
            None,
            "the NUMA model must not register magic.queue_ps at degree {degree}: \
             it models no inbound queueing — the paper's omitted-occupancy signature"
        );
    }
}

/// A coherence-rich script exercising every protocol path — clean remote
/// reads, dirty-owner interventions (with the off-path sharing
/// writeback), demand-write invalidation rounds, and ownership upgrades
/// with sharers — traced under `plan`. Lines are homed at node 0;
/// requesters are remote. Returns the spans and each access's outcome in
/// issue order.
fn trace_protocol_mix(mut m: Box<dyn MemorySystem>, plan: SpanPlan) -> (SpanSet, Vec<MemOutcome>) {
    let tracer = SpanTracer::new(plan);
    m.attach(&Observers {
        spans: tracer.clone(),
        ..Observers::disabled()
    });
    let script = [
        // Clean read from memory at the home.
        (1, 0x1000, AccessKind::ReadShared),
        // Dirty the line at node 2, then read it from node 3: owner
        // intervention plus the background sharing writeback to home 0.
        (2, 0x2000, AccessKind::ReadExclusive),
        (3, 0x2000, AccessKind::ReadShared),
        // Build a sharing list, then write: demand invalidation round.
        (1, 0x3000, AccessKind::ReadShared),
        (4, 0x3000, AccessKind::ReadShared),
        (5, 0x3000, AccessKind::ReadExclusive),
        // Shared at two nodes, then upgrade at one: the round IS the path.
        (6, 0x4000, AccessKind::ReadShared),
        (7, 0x4000, AccessKind::ReadShared),
        (6, 0x4000, AccessKind::Upgrade),
    ];
    let mut t = Time::ZERO;
    let outs = script.map(|(node, line, kind)| {
        let out = access(&mut *m, &tracer, node, line, kind, t);
        t = out.done_at + TimeDelta::from_ns(100);
        out
    });
    (tracer.snapshot().expect("tracer is enabled"), outs.to_vec())
}

#[test]
fn sampler_is_deterministic_and_seed_sensitive() {
    let (a, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::sampled(7, 2));
    let (b, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::sampled(7, 2));
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "same plan, same drive: the export must be byte-identical"
    );
    // Different seeds pick different subsets (the drive has 9 demand
    // transactions; at period 2 a collision of all picks is absurd).
    let keys = |s: &SpanSet| s.txns.iter().map(|t| t.key()).collect::<Vec<_>>();
    let mut distinct = false;
    for seed in 1..=8 {
        let (c, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::sampled(seed, 2));
        if keys(&c) != keys(&a) {
            distinct = true;
            break;
        }
    }
    assert!(distinct, "seeds 1..=8 all sampled the same transactions");
    // Period 1 records every demand access; the disabled tracer, none.
    let (all, outs) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::all(7));
    assert_eq!(all.txns.len(), outs.len());
    assert!(SpanTracer::disabled().snapshot().is_none());
}

#[test]
fn charges_tile_and_reconcile_with_latency_breakdown_exactly() {
    use flashsim::engine::SpanClass;
    for (label, mem) in [
        ("flashlite", Box::new(flashlite()) as Box<dyn MemorySystem>),
        ("numa", Box::new(numa())),
    ] {
        let (set, outs) = trace_protocol_mix(mem, SpanPlan::all(7));
        assert_eq!(set.txns.len(), outs.len(), "{label}: period 1 records all");
        for (txn, out) in set.txns.iter().zip(&outs) {
            let id = format!("{label}/{}/{:#x}", txn.kind, txn.line);
            assert!(txn.nested(), "{id}: spans must nest within parents");
            // The tiling invariant: charges sum to the end-to-end
            // latency, so the critical path explains every picosecond.
            assert_eq!(txn.charge_total(), txn.total(), "{id}: legs must tile");
            let path_sum = txn
                .critical_path()
                .iter()
                .fold(TimeDelta::ZERO, |acc, s| acc + s.charge);
            assert_eq!(path_sum, txn.total(), "{id}: critical path sum");
            // Exact integer-ps reconciliation against the transaction's
            // LatencyBreakdown, class by class.
            assert_eq!(
                txn.class_total(SpanClass::Occupancy),
                out.breakdown.occupancy,
                "{id}: occupancy class"
            );
            assert_eq!(
                txn.class_total(SpanClass::Network),
                out.breakdown.network,
                "{id}: network class"
            );
            assert_eq!(
                txn.class_total(SpanClass::Memory),
                out.breakdown.memory,
                "{id}: memory class"
            );
        }
        let jsonl = set.to_jsonl();
        validate_jsonl(&jsonl).unwrap_or_else(|e| panic!("{label}: export invalid: {e}"));
    }
}

#[test]
fn span_diff_shows_magic_legs_only_on_flashlite_for_the_same_txn() {
    // The hotspot drive at degree 7, spans attached.
    let plan = SpanPlan::sampled(7, 4);
    let collect = |mem: &mut dyn MemorySystem| {
        let tracer = SpanTracer::new(plan);
        let observers = Observers {
            spans: tracer.clone(),
            ..Observers::disabled()
        };
        drive_hotspot(mem, 7, &observers);
        tracer.snapshot().expect("tracer is enabled")
    };
    let fl = collect(&mut flashlite());
    let nu = collect(&mut numa());
    let aligned = fl.align(&nu);
    assert!(
        !aligned.is_empty(),
        "the platform-independent sampler must pick the same transactions"
    );
    for (ft, nt) in &aligned {
        assert_eq!(ft.key(), nt.key());
        let fl_only = kinds_only_in(ft, nt);
        let nu_only = kinds_only_in(nt, ft);
        // MAGIC's occupancy legs exist only where MAGIC is modeled; the
        // NUMA side replaces them with fixed-latency controller legs.
        assert!(
            fl_only.contains(&"pi_request"),
            "{:?}: FlashLite must show MAGIC PI occupancy, got {fl_only:?}",
            ft.key()
        );
        assert!(
            nu_only.contains(&"ctrl_request"),
            "{:?}: NUMA must show its fixed-latency controller, got {nu_only:?}",
            nt.key()
        );
        assert!(
            !kinds_only_in(nt, ft).contains(&"pi_request"),
            "MAGIC legs must never appear on the NUMA side"
        );
    }
}
