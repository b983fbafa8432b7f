//! The directory transaction walk, pinned from outside the model crates.
//!
//! One seeded, model-independent script of memory-system requests is
//! driven through FlashLite (with and without a fault plan) and through
//! the NUMA model:
//!
//! - the full `MemOutcome` sequence plus `stats()` of each run hashes to a
//!   digest recorded from the build *before* the two models shared one
//!   walk (PR 16's tree), so any change to a latency, a protocol case, a
//!   coherence action or a breakdown component on either model fails here;
//! - both models run the same protocol: with equal pointer pools the
//!   script yields the same `case`/`exclusive`/`actions` on every access
//!   and the same final sharer sets, whatever their timing;
//! - every demand access's breakdown tiles its latency exactly.

use flashsim::engine::{FaultInjector, FaultPlan, Rng, Time, TimeDelta};
use flashsim::flashlite::{FlashLite, FlashLiteParams};
use flashsim::mem::{AccessKind, LineAddr, MemOutcome, MemRequest, MemorySystem, ProtocolCase};
use flashsim::numa::{Numa, NumaParams};

const NODES: u32 = 16;
const NODE_MEM: u64 = 1 << 24;
/// Pointer-pool capacity per home: far below the hot set's sharer count,
/// so reads reclaim pointers (and invalidate the sharers they named).
const DIR_POOL: u32 = 6;
const ACCESSES: usize = 4000;

fn flashlite() -> FlashLite {
    let params = FlashLiteParams {
        dir_pool: DIR_POOL,
        ..FlashLiteParams::hardware()
    };
    FlashLite::new(NODES, NODE_MEM, params).expect("power-of-two node count")
}

fn numa() -> Numa {
    let params = NumaParams {
        dir_pool: DIR_POOL,
        ..NumaParams::matched()
    };
    Numa::new(NODES, NODE_MEM, params)
}

/// Message drops (retransmitted after a timeout) and delays on FlashLite's
/// network legs.
fn faults() -> FaultInjector {
    FaultInjector::new(FaultPlan {
        seed: 9,
        drop_prob: 0.02,
        drop_timeout: TimeDelta::from_ns(1_500),
        delay_prob: 0.1,
        delay: TimeDelta::from_ns(700),
        ..FaultPlan::default()
    })
}

/// What the generator remembers of a line, so that upgrades come from
/// nodes that read it and writebacks from the node that dirtied it (most
/// of the time: a reclaim or an intervening request makes some of them
/// stale, which the protocol must absorb too).
#[derive(Default)]
struct Touched {
    readers: Vec<u32>,
    writer: Option<u32>,
}

/// The seeded request script. Twelve hot lines are homed at node 0 and
/// take 40 % of the traffic. Every 256 requests the machine goes quiet for
/// 40 µs (backlogs drain), then 31 requests arrive within a microsecond —
/// a dozen of them at node 0, whose protocol-processor queue passes the
/// 4 µs NACK threshold — and the rest arrive 1.5 µs apart on average, a
/// rate node 0 keeps up with. (A busy-until timeline serves reservations
/// in call order, so an open loop that outruns one home never recovers:
/// every later latency is the backlog, and the digest would pin little
/// else.)
fn script(seed: u64) -> Vec<MemRequest> {
    let mut rng = Rng::seeded(seed);
    let mut lines: Vec<(LineAddr, Touched)> = (0..12u64)
        .map(|i| LineAddr(0x1000 + i * 128))
        .chain((0..48u64).map(|i| LineAddr(((i % 16) << 24) + 0x8000 + (i / 16) * 128 * 33)))
        .map(|l| (l, Touched::default()))
        .collect();
    let mut now = Time::ZERO;
    (0..ACCESSES)
        .map(|i| {
            now += match i % 256 {
                0 => TimeDelta::from_us(40),
                1..=31 => TimeDelta::from_ns(rng.gen_range(40)),
                _ => TimeDelta::from_ns(rng.gen_range(3000)),
            };
            let at = if rng.gen_range(10) < 4 {
                rng.gen_range(12)
            } else {
                12 + rng.gen_range(48)
            };
            let (line, seen) = &mut lines[at as usize];
            let mut node = rng.gen_range(u64::from(NODES)) as u32;
            let kind = match rng.gen_range(20) {
                0..=9 => AccessKind::ReadShared,
                10..=13 => AccessKind::ReadExclusive,
                14..=16 if !seen.readers.is_empty() => {
                    node = seen.readers[rng.gen_range(seen.readers.len() as u64) as usize];
                    AccessKind::Upgrade
                }
                14..=16 => AccessKind::ReadShared,
                _ => match seen.writer.take() {
                    Some(writer) => {
                        node = writer;
                        AccessKind::Writeback
                    }
                    None => AccessKind::ReadExclusive,
                },
            };
            match kind {
                AccessKind::ReadShared => {
                    seen.readers.push(node);
                    seen.writer = None;
                }
                AccessKind::ReadExclusive | AccessKind::Upgrade => {
                    seen.readers.clear();
                    seen.writer = Some(node);
                }
                AccessKind::Writeback => {}
            }
            MemRequest {
                node,
                line: *line,
                kind,
                now,
            }
        })
        .collect()
}

/// NUMA's old three-access unit test
/// (`protocol_state_identical_to_flashlite_semantics`): two readers, then
/// one of them upgrades and the other must be invalidated.
fn two_readers_then_upgrade() -> Vec<MemRequest> {
    [
        (1, AccessKind::ReadShared, 0),
        (2, AccessKind::ReadShared, 10_000),
        (1, AccessKind::Upgrade, 50_000),
    ]
    .into_iter()
    .map(|(node, kind, at_ns)| MemRequest {
        node,
        line: LineAddr(0x100),
        kind,
        now: Time::from_ns(at_ns),
    })
    .collect()
}

/// Issues the script as written: an open loop, so what one model returns
/// never changes what the next request is or when it leaves.
fn drive(mem: &mut dyn MemorySystem, script: &[MemRequest]) -> Vec<MemOutcome> {
    script.iter().map(|&req| mem.access(req)).collect()
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every field of every outcome, then the model's statistics.
fn digest(outs: &[MemOutcome], mem: &dyn MemorySystem) -> u64 {
    let mut d = Digest::new();
    for out in outs {
        d.word(out.done_at.as_ps());
        d.word(out.case.index() as u64);
        d.word(u64::from(out.exclusive));
        d.word(out.actions.invalidate.len() as u64);
        for &v in &out.actions.invalidate {
            d.word(u64::from(v));
        }
        d.word(out.actions.downgrade.map_or(0, |n| u64::from(n) + 1));
        d.word(out.breakdown.occupancy.as_ps());
        d.word(out.breakdown.network.as_ps());
        d.word(out.breakdown.memory.as_ps());
    }
    for b in mem.stats().to_json().bytes() {
        d.word(u64::from(b));
    }
    d.0
}

/// The script reaches what it is meant to reach; otherwise a digest
/// would pin less than it claims.
fn assert_covers_the_protocol(label: &str, outs: &[MemOutcome]) {
    for case in ProtocolCase::ALL {
        assert!(
            outs.iter().any(|o| o.case == case),
            "{label}: no {} transaction in the script",
            case.key()
        );
    }
    assert!(
        outs.iter().any(|o| o.actions.invalidate.len() > 1),
        "{label}: no multi-sharer invalidation round"
    );
}

#[test]
fn outcomes_and_stats_match_the_digests_recorded_before_the_shared_walk() {
    let script = script(0x5eed_0a1c);
    assert!(script.len() >= 2000);

    let mut fl = flashlite();
    let outs = drive(&mut fl, &script);
    assert_covers_the_protocol("flashlite", &outs);
    let stats = fl.stats();
    assert!(
        stats.get_or_zero("proto.dir_reclaims") > 0.0,
        "the pointer pool never filled"
    );
    assert!(stats.get_or_zero("magic.nacks") > 0.0, "no NACK");
    assert!(stats.get_or_zero("magic.retries") > 0.0, "no retry");
    assert_eq!(digest(&outs, &fl), 10255508394135723391, "flashlite");

    let mut faulted = flashlite();
    let injector = faults();
    faulted.attach_faults(injector.clone());
    let outs = drive(&mut faulted, &script);
    let mut injected = flashsim::engine::StatSet::new();
    injector.absorb_into(&mut injected);
    assert!(
        injected.iter().any(|(_, v)| v > 0.0),
        "the fault plan never fired"
    );
    assert_eq!(
        digest(&outs, &faulted),
        1694184235717261763,
        "flashlite under faults"
    );

    let mut nm = numa();
    let outs = drive(&mut nm, &script);
    assert_covers_the_protocol("numa", &outs);
    assert_eq!(digest(&outs, &nm), 16956455712619436654, "numa");
}

#[test]
fn both_models_run_one_protocol_and_tile_every_demand_latency() {
    for (label, script) in [
        ("seeded script", script(0x5eed_0a1c)),
        ("a second seed", script(77)),
        ("two readers then an upgrade", two_readers_then_upgrade()),
    ] {
        let (mut fl, mut nm) = (flashlite(), numa());
        let on_fl = drive(&mut fl, &script);
        let on_numa = drive(&mut nm, &script);
        for (i, ((req, a), b)) in script.iter().zip(&on_fl).zip(&on_numa).enumerate() {
            let id = format!("{label}, access {i} ({req:?})");
            assert_eq!(a.case, b.case, "{id}");
            assert_eq!(a.exclusive, b.exclusive, "{id}");
            assert_eq!(a.actions, b.actions, "{id}");
            if req.kind != AccessKind::Writeback {
                for (model, out) in [("flashlite", a), ("numa", b)] {
                    assert_eq!(
                        out.breakdown.total(),
                        out.done_at - req.now,
                        "{id}: {model} breakdown does not tile the latency"
                    );
                }
            }
        }
        for req in &script {
            let home = fl.home_of(req.line) as usize;
            assert_eq!(
                fl.walk().dirs()[home].sharers(req.line),
                nm.walk().dirs()[home].sharers(req.line),
                "{label}: final sharers of {:?}",
                req.line
            );
        }
        if label == "two readers then an upgrade" {
            let last = on_numa.last().expect("three accesses");
            assert!(last.exclusive);
            assert!(last.actions.invalidate.contains(&2));
        }
    }
}
