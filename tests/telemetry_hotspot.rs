//! The paper's hotspot signature, read off the telemetry series: on
//! FlashLite, MAGIC inbound-queue occupancy at the hot home node rises
//! with the hotspot degree (how many nodes hammer lines homed there at
//! once); on the contention-free NUMA model the metric does not exist at
//! all — the model deliberately registers no `magic.queue_ps`, because
//! it models no inbound queueing to occupy.

use flashsim::engine::{Observers, Telemetry, Time, TimeDelta};
use flashsim::flashlite::{FlashLite, FlashLiteParams};
use flashsim::mem::{AccessKind, LineAddr, MemRequest, MemorySystem};
use flashsim::numa::{Numa, NumaParams};

const NODES: u32 = 8;
const NODE_MEM: u64 = 1 << 24;
const ROUNDS: u64 = 40;

/// Drives `degree` requesters at lines homed on node 0, all arriving
/// simultaneously each round — a synthetic hotspot phase — and returns
/// the sampled telemetry.
fn drive_hotspot(mem: &mut dyn MemorySystem, degree: u32) -> Telemetry {
    let telemetry = Telemetry::with_cadence(TimeDelta::from_us(1));
    mem.attach(&Observers {
        telemetry: telemetry.clone(),
        ..Observers::disabled()
    });
    for round in 0..ROUNDS {
        // Space rounds far enough apart that each round's backlog fully
        // drains: the occupancy each round then isolates the simultaneous
        // arrival burst, which scales with the degree.
        let now = Time::ZERO + TimeDelta::from_us(10) * round;
        for n in 1..=degree {
            // Distinct lines, all with address < NODE_MEM: homed at 0.
            let line = LineAddr(((round * u64::from(degree) + u64::from(n)) * 128) % NODE_MEM);
            let _ = mem.access(MemRequest {
                node: n,
                line,
                kind: AccessKind::ReadShared,
                now,
            });
        }
    }
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
        let mut fl = FlashLite::new(NODES, NODE_MEM, FlashLiteParams::hardware())
            .expect("power-of-two node count");
        let telemetry = drive_hotspot(&mut fl, degree);
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
        let mut numa = Numa::new(NODES, NODE_MEM, NumaParams::matched());
        let telemetry = drive_hotspot(&mut numa, degree);
        assert_eq!(
            queue_total(&telemetry),
            None,
            "the NUMA model must not register magic.queue_ps at degree {degree}: \
             it models no inbound queueing — the paper's omitted-occupancy signature"
        );
    }
}
