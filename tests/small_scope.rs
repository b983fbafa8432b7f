//! Small-scope equivalence: instead of hand-picked rows, every program of
//! a small scope runs under `Reference` and `Batched`, which must agree
//! on `parallel_time`, the `StatSet` and the `Accounting`, or on the error
//! text of a run that fails. The scope is every 2-node program of three
//! letters per thread over `alu(1)`, `alu(50)`, a store to a shared line
//! and a load of a private line (4 096 programs), on the hardware config
//! with the profiler on, with no stall and with node 1 stalled after one
//! and after two ops. A mismatch prints its program as a `TABLE` line for
//! `tests/matrix/mod.rs`. Watchdog budgets are left out: a budget stop
//! still splits ops between the nodes by policy (ROADMAP item 21(b)).

#[path = "matrix/scope.rs"]
mod scope;

use flashsim::engine::{Accounting, FaultPlan, StatSet, TimeDelta};
use flashsim::machine::{Machine, MachineConfig, SchedPolicy};
use flashsim::platform::Study;
use flashsim::runner::parallel_map;
use flashsim_isa::Program;
use scope::{Scope, ALPHABET};

/// What a run leaves that the policies must agree on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ran(TimeDelta, StatSet, Option<Accounting>),
    Failed(String),
}

/// The profiled 2-node hardware config, with node 1 stalled after
/// `stall` ops if given, and the watchdog budget `budget`.
fn config(stall: Option<u64>, budget: Option<u64>) -> MachineConfig {
    let mut cfg = Study::scaled().hardware(2);
    cfg.profile = true;
    cfg.max_ops = budget;
    cfg.faults = stall.map(|ops| FaultPlan {
        stall_node: Some(1),
        stall_after_ops: ops,
        ..FaultPlan::none()
    });
    cfg
}

fn outcome(cfg: &MachineConfig, prog: &Scope, sched: SchedPolicy) -> Outcome {
    let cfg = MachineConfig {
        sched,
        ..cfg.clone()
    };
    match Machine::new(cfg, prog).expect("machine builds").run() {
        Ok(r) => Outcome::Ran(r.parallel_time, r.stats, r.accounting),
        Err(e) => Outcome::Failed(format!("{e:?}")),
    }
}

/// Every program under every config, under `Reference` and `Batched`:
/// for each pair of runs that differ, `describe(program, config index)`
/// and both outcomes.
fn mismatches(
    programs: Vec<Scope>,
    cfgs: &[MachineConfig],
    describe: impl Fn(&Scope, usize) -> String + Sync,
) -> Vec<String> {
    let found = parallel_map(programs, |prog| {
        let differ = cfgs.iter().enumerate().filter_map(|(k, cfg)| {
            let reference = outcome(cfg, &prog, SchedPolicy::Reference);
            let batched = outcome(cfg, &prog, SchedPolicy::Batched);
            (reference != batched).then(|| {
                let what = describe(&prog, k);
                format!("{what}\n  R: {reference:?}\n  B: {batched:?}")
            })
        });
        differ.collect::<Vec<_>>()
    });
    found.into_iter().flatten().collect()
}

/// Every string of `len` letters of [`ALPHABET`].
fn words(len: u32) -> Vec<String> {
    let n = ALPHABET.len();
    (0..n.pow(len))
        .map(|k| (0..len).map(|i| ALPHABET[k / n.pow(i) % n]).collect())
        .collect()
}

#[test]
fn every_small_program_runs_alike_under_both_policies() {
    let words = words(3);
    let programs: Vec<Scope> = words
        .iter()
        .flat_map(|t0| words.iter().map(move |t1| Scope::new(&[t0, t1])))
        .collect();
    assert_eq!(programs.len(), 4096);
    let plans = [None, Some(1), Some(2)];
    let cfgs: Vec<MachineConfig> = plans.iter().map(|&s| config(s, None)).collect();
    let runs = 2 * programs.len() * cfgs.len();
    let found = mismatches(programs, &cfgs, |prog, k| {
        let fault = plans[k].map_or("Clean".into(), |ops| format!("Stall(0, 1, {ops})"));
        let name = prog.name();
        format!("    (\"{name}\", \"profile\", {fault}, \"hardware\", \"sched: R B\"),")
    });
    println!("small scope: {runs} runs, {} mismatches", found.len());
    assert!(found.is_empty(), "R and B differ on:\n{}", found.join("\n"));
}

/// The per-decision stall check, which no program of the scope above
/// reaches: its node's consumed count moves only in its own walk, which
/// checks it before every op. A barrier moves it outside: node 1 reaches
/// its stall point at the barrier's release, and must be stalled before
/// node 0 runs on. A budget stop shows the difference, in node 1's state,
/// at every budget: after the release node 0 runs alone, in the reference
/// order under both policies.
#[test]
fn a_stall_reached_at_a_barrier_stops_node_1_before_node_0_runs_on() {
    let programs: Vec<Scope> = words(3)
        .iter()
        .map(|t0| Scope::new(&[&format!("b{t0}"), "b"]))
        .collect();
    let cfgs: Vec<MachineConfig> = (1..=6).map(|b| config(Some(1), Some(b))).collect();
    let found = mismatches(programs, &cfgs, |prog, k| {
        format!("{} budget {}", prog.name(), k + 1)
    });
    assert!(found.is_empty(), "R and B differ on:\n{}", found.join("\n"));
}
