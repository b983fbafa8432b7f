//! Property-style tests for the processor timing models: time
//! monotonicity, latency sensitivity, and cross-model op accounting.
//! Randomized cases come from seeded loops over the in-tree
//! [`flashsim_engine::Rng`] (this workspace builds offline, so no
//! external property-testing framework).

use flashsim_cpu::env::{Core, FixedEnv};
use flashsim_cpu::mipsy::{Mipsy, MipsyConfig};
use flashsim_cpu::ooo::{mxs, r10000};
use flashsim_engine::{Rng, Time, TimeDelta};
use flashsim_isa::{Op, OpClass, Reg, VAddr};

/// One random op, with roughly the seed mix of a real stream: mostly ALU
/// and loads, some stores and FP, a sprinkle of long-latency and control.
fn random_op(rng: &mut Rng, i: usize) -> Op {
    let r = Reg(8 + (i % 32) as u8);
    match rng.gen_range(16) {
        0..=3 => Op::compute(OpClass::IntAlu, r, Reg::ZERO, Reg::ZERO),
        4 => Op::compute(OpClass::IntMul, r, Reg::ZERO, Reg::ZERO),
        5 => Op::compute(OpClass::IntDiv, r, Reg::ZERO, Reg::ZERO),
        6 | 7 => Op::compute(OpClass::FpAdd, r, Reg::ZERO, Reg::ZERO),
        8..=11 => Op::load(VAddr(rng.gen_range(0x10000) & !7), r, Reg::ZERO),
        12 | 13 => Op::store(VAddr(rng.gen_range(0x10000) & !7), Reg::ZERO, r),
        14 => Op::prefetch(VAddr(rng.gen_range(0x10000) & !7)),
        _ => Op::branch(3, rng.gen_range(2) == 0, Reg::ZERO),
    }
}

fn random_ops(rng: &mut Rng, min: u64, max: u64) -> Vec<Op> {
    let n = min + rng.gen_range(max - min);
    (0..n as usize).map(|i| random_op(rng, i)).collect()
}

fn run(core: &mut dyn Core, ops: &[Op], miss_from: u64, miss_ns: u64) -> Time {
    let mut env = FixedEnv::new(miss_from, TimeDelta::from_ns(miss_ns));
    for op in ops {
        core.execute(op, &mut env);
    }
    core.drain()
}

/// Time never decreases as ops execute, on every model.
#[test]
fn time_is_monotone() {
    let mut rng = Rng::seeded(0x7107);
    for _ in 0..128 {
        let ops = random_ops(&mut rng, 1, 200);
        for core in [
            &mut Mipsy::new(MipsyConfig::at_mhz(150)) as &mut dyn Core,
            &mut mxs(),
            &mut r10000(),
        ] {
            let mut env = FixedEnv::new(0x8000, TimeDelta::from_ns(500));
            let mut last = core.now();
            for op in &ops {
                core.execute(op, &mut env);
                assert!(core.now() >= last, "{} went backwards", core.model_name());
                last = core.now();
            }
            let drained = core.drain();
            assert!(drained >= last);
        }
    }
}

/// Raising the memory-miss latency never makes any model finish earlier
/// (timing monotonicity in the environment).
#[test]
fn slower_memory_never_helps() {
    let mut rng = Rng::seeded(0x510e);
    for _ in 0..128 {
        let ops = random_ops(&mut rng, 1, 150);
        let fast = run(&mut Mipsy::new(MipsyConfig::at_mhz(150)), &ops, 0x4000, 200);
        let slow = run(
            &mut Mipsy::new(MipsyConfig::at_mhz(150)),
            &ops,
            0x4000,
            2000,
        );
        assert!(slow >= fast, "mipsy: {slow:?} < {fast:?}");

        let fast = run(&mut mxs(), &ops, 0x4000, 200);
        let slow = run(&mut mxs(), &ops, 0x4000, 2000);
        assert!(slow >= fast, "mxs: {slow:?} < {fast:?}");
    }
}

/// Mipsy is single-issue: it can never finish faster than one cycle per
/// op, and with everything hitting it finishes at exactly one cycle per op.
#[test]
fn mipsy_is_exactly_single_issue_on_hits() {
    let mut rng = Rng::seeded(0x51e5);
    for _ in 0..128 {
        let ops = random_ops(&mut rng, 1, 200);
        let mut core = Mipsy::new(MipsyConfig::at_mhz(150));
        let t = run(&mut core, &ops, u64::MAX, 0);
        let period = flashsim_engine::Clock::from_mhz(150).period();
        assert_eq!(t - Time::ZERO, period * ops.len() as u64);
    }
}

/// The gold standard never beats MXS on the same stream (the paper's
/// implementation constraints only remove performance).
#[test]
fn r10000_never_beats_mxs() {
    let mut rng = Rng::seeded(0x901d);
    for _ in 0..128 {
        let ops = random_ops(&mut rng, 10, 200);
        let t_mxs = run(&mut mxs(), &ops, 0x8000, 500);
        let t_gold = run(&mut r10000(), &ops, 0x8000, 500);
        // Allow a tiny tolerance for rounding in the fetch arithmetic.
        assert!(
            t_gold + TimeDelta::from_ns(10) >= t_mxs,
            "gold {t_gold:?} beat mxs {t_mxs:?}"
        );
    }
}

/// Op counts reported in stats match what was executed.
#[test]
fn stats_count_every_op() {
    let mut rng = Rng::seeded(0xc047);
    for _ in 0..128 {
        let ops = random_ops(&mut rng, 1, 100);
        for core in [
            &mut Mipsy::new(MipsyConfig::at_mhz(225)) as &mut dyn Core,
            &mut mxs(),
            &mut r10000(),
        ] {
            let mut env = FixedEnv::all_hits();
            for op in &ops {
                core.execute(op, &mut env);
            }
            assert_eq!(
                core.stats().get_or_zero("cpu.ops") as usize,
                ops.len(),
                "{} miscounted",
                core.model_name()
            );
        }
    }
}

/// A random node-local op: every compute class and branches, each reading
/// a recent result (a dependence) or nothing.
fn random_local(rng: &mut Rng, i: usize) -> Op {
    let dst = Reg(8 + (i % 24) as u8);
    let src = |rng: &mut Rng| match rng.gen_range(3) {
        0 => Reg::ZERO,
        _ => Reg(8 + ((i + 23 - rng.gen_range(3) as usize) % 24) as u8),
    };
    let classes = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
    ];
    match rng.gen_range(8) {
        6 | 7 => Op::branch(rng.gen_range(5) as u32, rng.gen_range(3) != 0, src(rng)),
        k => Op::compute(classes[k as usize], dst, src(rng), src(rng)),
    }
}

/// The core's checkpoint bytes.
fn ckpt_bytes(core: &mut dyn Core) -> String {
    let mut w = flashsim_engine::Ckpt::save("run-local");
    w.section("core").unwrap();
    core.ckpt(&mut w).expect("saves");
    w.finish().unwrap()
}

/// The clocks after each of `ops` on a copy of `core` restored into
/// `fresh`: the values at which a bound is exactly met.
fn clocks_after(core: &mut dyn Core, mut fresh: Box<dyn Core>, ops: &[Op]) -> Vec<u64> {
    let text = ckpt_bytes(core);
    let mut r = flashsim_engine::Ckpt::open(&text).expect("opens");
    r.section("core").expect("a core section");
    fresh.ckpt(&mut r).expect("restores");
    let mut env = FixedEnv::all_hits();
    ops.iter()
        .map(|op| fresh.execute(op, &mut env).as_ps())
        .collect()
}

/// `Core::run_local` is the one-op `execute` loop under its rule: the
/// first op always runs, a later one only if it is local and the clock
/// before it is below `stop`, and the run ends after the op whose
/// completion reaches `tick`.
#[test]
fn run_local_is_the_one_op_loop() {
    fn ablation() -> Box<dyn Core> {
        let mut cfg = MipsyConfig::at_mhz(225);
        cfg.model_int_latencies = true;
        Box::new(Mipsy::new(cfg))
    }
    let models: [fn() -> Box<dyn Core>; 4] = [
        || Box::new(Mipsy::new(MipsyConfig::at_mhz(150))),
        ablation,
        || Box::new(mxs()),
        || Box::new(r10000()),
    ];
    let mut rng = Rng::seeded(0x10CA1);
    for make in models {
        let (mut run, mut one) = (make(), make());
        let name = run.model_name();
        let mut env = FixedEnv::new(0x8000, TimeDelta::from_ns(400));
        for round in 0..400 {
            // Some memory ops first, so misses and stores are in flight.
            for op in random_ops(&mut rng, 0, 6) {
                run.execute(&op, &mut env);
                one.execute(&op, &mut env);
            }
            let mut ops: Vec<Op> = (0..1 + rng.gen_range(40) as usize)
                .map(|i| random_local(&mut rng, i))
                .collect();
            if rng.gen_range(3) == 0 {
                // A memory op ends the run where it stands.
                let at = rng.gen_range(ops.len() as u64) as usize;
                ops.insert(at.max(1), Op::load(VAddr(0x9000), Reg(9), Reg::ZERO));
            }
            // Bounds at or below the first op's clock, exactly at a clock
            // the run reaches, between clocks, or out of reach.
            let start = one.now().as_ps();
            let clocks = clocks_after(&mut *one, make(), &ops);
            let bound = |rng: &mut Rng| match rng.gen_range(5) {
                0 => Time::from_ps(start.saturating_sub(rng.gen_range(20_000))),
                1 => Time::from_ps(clocks[rng.gen_range(clocks.len() as u64) as usize]),
                2 => Time::from_ps(start + rng.gen_range(200_000)),
                _ => Time::MAX,
            };
            let (stop, tick) = (bound(&mut rng), bound(&mut rng));

            let got = run.run_local(&ops, stop, tick, &mut env);
            let mut now = one.now();
            let mut ran = 0;
            for op in &ops {
                if ran > 0 && (!op.class.is_local() || now >= stop) {
                    break;
                }
                now = one.execute(op, &mut env);
                ran += 1;
                if now >= tick {
                    break;
                }
            }
            let case = format!("{name} round {round}: stop {stop:?} tick {tick:?}");
            assert_eq!(got, (ran, now), "{case}");
            assert_eq!(run.now(), one.now(), "{case}");
            assert_eq!(run.stats().to_json(), one.stats().to_json(), "{case}");
            assert_eq!(ckpt_bytes(&mut *run), ckpt_bytes(&mut *one), "{case}");
        }
        run.drain();
        one.drain();
        assert_eq!(ckpt_bytes(&mut *run), ckpt_bytes(&mut *one), "{name}");
    }
}
