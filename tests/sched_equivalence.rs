//! The optimized schedulers' correctness contract: on every platform, a
//! run under the default `Batched` policy *and* under the `Parallel`
//! policy (nodes sharded across host worker threads under the
//! conservative lookahead horizon) is *bit-identical* to the same run
//! under the `Reference` policy (one op per scheduling decision, the
//! laggard re-read from its own clock vector) — same stats JSON, same accounting, same parallel/total
//! times, same barrier releases, same per-node op counts, same telemetry
//! and span JSONL. The batching, the laggard heap, the flat stream
//! cursor, the L1-hit fast path, and the fork/join rounds are all pure
//! host-side optimizations; nothing about the simulated machine may
//! move, at any worker count (`FLASHSIM_EQ_WORKERS` sweeps it in CI).
//!
//! The runs are the `sched` cells of the digest matrix
//! (`tests/matrix/mod.rs`). Every cell reproduces its class's recorded
//! row — the `run` field is the `flashsim-artifacts-v1` rendering of
//! times, per-node ops, barrier releases, stats, accounting and
//! telemetry — so policies that each reproduce it are identical.

mod matrix;

use flashsim::machine::{NodeState, SimError};
use matrix::{letters, Class, Ran};

/// Every class of `row` ran the policies `expect` (letters of its
/// unrestored cells) and produced each of `fields`.
fn assert_policies(
    row: &str,
    expect: &str,
    fields: &[&str],
) -> Vec<(&'static Class, &'static [Ran])> {
    let classes = matrix::ran(row);
    for (class, ran) in &classes {
        assert_eq!(letters(ran), expect, "{}", class.name);
        for r in ran.iter() {
            for field in fields {
                assert!(r.has(field), "{}: {field}", r.label);
            }
        }
    }
    classes
}

/// The parallel run really forked — admitted ops through the fork-side
/// environment and met its shared-op stop — or the equivalence never
/// exercised the private path on the fork side.
fn assert_forked(r: &Ran) {
    let a = r
        .ok()
        .hostprof
        .as_ref()
        .expect("hostprof attached")
        .admission;
    assert!(
        a.rounds > 0 && a.admitted_ops > 0 && a.rejected_shared > 0,
        "{}: forking never happened: {a:?}",
        r.label
    );
}

#[test]
fn candidates_match_reference_on_every_platform() {
    let classes = assert_policies("fft2/none", "RBP", &["run"]);
    assert_eq!(classes.len(), 7, "every platform");
    for (_, ran) in classes {
        ran.iter()
            .filter(|r| r.cell.letter == 'P')
            .for_each(assert_forked);
    }
}

/// The profiler widens the observable surface (per-op marks, wall vs
/// in-op charges, time-phase buckets), so equivalence is asserted under
/// it too: these candidates reproduce the row `account_determinism`'s
/// `Reference` cells reproduce.
#[test]
fn candidates_match_reference_with_profiler_attached() {
    let classes = assert_policies("fft2/profile", "BP", &["run", "acct"]);
    assert_eq!(classes.len(), 7, "every platform");
    for (class, _) in classes {
        let reference = class.cells.iter().any(|(_, token)| *token == "R");
        assert!(reference, "{}: the table runs a Reference cell", class.name);
    }
}

/// Telemetry buckets are per-window sums and span sampling happens only
/// on the serial shared paths, so both exports must be byte-identical
/// under the parallel policy's fork/join rounds too — at four nodes,
/// where rounds actually fork several nodes at once.
#[test]
fn candidates_match_reference_with_telemetry_and_spans() {
    let classes = assert_policies("fft4/all", "RBP", &["run", "tel", "spans"]);
    assert_eq!(classes.len(), 7, "every platform");
}

/// The per-op observer writes — hit/miss counters, the compute residual —
/// are folded in per-node windows and reach the registry and the ledger
/// once per bucket. With telemetry and the profiler both attached, at
/// four nodes and a checkpoint cut at every barrier release: every policy
/// must export the recorded bytes, checkpoint the recorded state (the
/// row's `ckpt`: registry and ledger are serialized mid-run, so
/// everything has to be published by then), and count every hit the
/// caches counted.
#[test]
fn observer_windows_lose_nothing_across_forks_and_barrier_cuts() {
    for (_, ran) in matrix::ran("fft4/all") {
        for r in ran {
            let series = r.ok().telemetry.as_ref().expect("telemetry attached");
            matrix::check_telemetry(&r.label, series, &r.ok().stats);
            if r.cell.sink {
                assert!(r.ckpts.len() > 1, "{}: several cuts", r.label);
                assert!(r.has("ckpt"), "{}", r.label);
            }
        }
        let cut: String = ran
            .iter()
            .filter(|r| r.cell.sink)
            .map(|r| r.cell.letter)
            .collect();
        assert_eq!(cut, "BP");
        ran.iter()
            .filter(|r| r.cell.letter == 'P')
            .for_each(assert_forked);
    }
}

/// Lock hand-off chains, queueing, and per-round barriers: the batch
/// breaker, the post-sync heap rebuild, and the parallel policy's
/// horizon collapse (every node's next shared op is a sync) get
/// exercised constantly.
#[test]
fn candidates_match_reference_on_sync_heavy_storm() {
    let classes = assert_policies("storm/profile", "RBP", &["run", "acct"]);
    assert_eq!(classes.len(), 7, "every platform");
}

/// The single-runnable-node regime (node 0 chasing alone between
/// barriers) is where batching earns its speedup and where the parallel
/// policy must degrade gracefully to serial batches.
#[test]
fn candidates_match_reference_on_snbench_chase() {
    let classes = assert_policies("snbench/none", "RBP", &["run"]);
    assert_eq!(classes.len(), 2, "hardware and SimOS-Mipsy");
}

/// Node 1 dirtying the region alone, 180 ALU ops after every store: the
/// batched walk hands each run of them to the core in one call, which
/// ends a run at the op that makes a timer tick due (every 100 µs here),
/// at the watchdog budget and at the injected stall, both here 91 ops
/// into a group, and at the profiler's phase-bucket boundary.
#[test]
fn candidates_match_reference_over_local_runs() {
    for (class, ran) in assert_policies("snbench-dirty/none/tick100us", "RBP", &["run"]) {
        let ticks = ran[0].ok().total_time.as_ns() / 100_000;
        assert!(ticks > 100, "{}: {ticks} ticks", class.name);
    }
    let row = format!("snbench-dirty/none/budget{}", matrix::SN_BUDGET);
    for (class, ran) in assert_policies(&row, "RB", &["err"]) {
        let Err(SimError::Stalled { nodes, .. }) = &ran[0].result else {
            panic!("{}: not a stall", class.name);
        };
        let ops: Vec<u64> = nodes.iter().map(|n| n.ops).collect();
        assert_eq!(ops, [1, 300 * 181 + 91, 1, 1], "{}", class.name);
    }
    let row = format!("snbench-dirty/none/stall1@{}", matrix::SN_STALL);
    for (class, ran) in assert_policies(&row, "RBP", &["err"]) {
        let Err(SimError::Stalled { nodes, .. }) = &ran[0].result else {
            panic!("{}: not a stall", class.name);
        };
        assert_eq!(nodes[1].state, NodeState::Stalled, "{}", class.name);
        assert_eq!(nodes[1].ops, matrix::SN_STALL, "{}", class.name);
    }
    assert_policies("snbench-dirty/profile", "RBP", &["run", "acct"]);
}

/// Latency perturbation draws from the injector's shared RNG on every
/// memory transaction, so the *order* of shared interactions is directly
/// observable: any schedule divergence scrambles the draws and the stats.
#[test]
fn candidates_match_reference_under_fault_injection() {
    let classes = assert_policies("fft2/profile/faults", "RBP", &["run", "acct"]);
    assert_eq!(classes.len(), 7, "every platform");
    for (class, ran) in classes {
        let perturbed = ran[0].ok().stats.get_or_zero("fault.perturbed");
        assert!(perturbed > 0.0, "{}: the plan perturbs the run", class.name);
    }
    assert_policies("fft2/all/faults", "P", &["run", "acct", "tel", "spans"]);
}

/// A stalled node starves the machine; every policy must fail with the
/// same structured error (same op count, same node snapshots). The
/// parallel policy's fork phase runs the same per-op stall check, so the
/// node parks at exactly the same consumed-op count.
#[test]
fn candidates_match_reference_on_injected_stall_failure() {
    let classes = assert_policies("storm2/none/stall1@120", "RBP", &["err"]);
    for (_, ran) in classes {
        assert!(
            ran.iter().all(|r| r.result.is_err()),
            "stalled run must fail"
        );
    }
}

/// The sched-equivalence contract must survive a checkpoint cycle under
/// the parallel policy: snapshot a Parallel run mid-flight at a quiescent
/// point, restore it (checkpoints are worker-count invariant — `key()`
/// omits the count), resume under Parallel, and land exactly on the
/// recorded row the Reference policy's cells reproduce — under every
/// observer and a fault plan whose state the checkpoint carries.
#[test]
fn parallel_restore_from_checkpoint_matches_reference() {
    for (class, ran) in matrix::ran("fft2/all/faults") {
        assert_eq!(letters(ran), "P", "{}", class.name);
        let sink = ran.iter().find(|r| r.cell.sink).expect("a sink cell");
        assert!(
            sink.ckpts.len() >= 2,
            "multi-barrier FFT must checkpoint repeatedly"
        );
        assert!(sink.has("ckpt"), "{}", sink.label);
        let restored: Vec<_> = ran.iter().filter(|r| r.cell.restore.is_some()).collect();
        assert_eq!(
            restored.len(),
            1,
            "{}: restored from the middle",
            class.name
        );
        for field in ["run", "acct", "tel", "spans"] {
            assert!(restored[0].has(field), "{}: {field}", restored[0].label);
        }
    }
}

/// The matrix's `EpochEdges` program clean, then failing mid-batch at the stalls and
/// budgets of the table: every policy ends the serial epoch and leaves
/// the heap where `Reference` does, and fails with the same error; and,
/// clean, over a contested phase of more than 8192 decisions.
#[test]
fn candidates_match_reference_across_epoch_boundaries() {
    assert_policies("edges/profile", "RBP", &["run", "acct"]);
    assert_policies("edges-long/all", "RBP", &["run", "acct", "tel", "spans"]);
    // The table's stall and budget counts are taken from these counts.
    let (_, ran) = matrix::class("edges/profile/hardware");
    assert_eq!(
        ran[0].ok().ops_per_node,
        [1533, 633, 633, 633],
        "the table's stalls and budgets"
    );
    let failing = matrix::ran_if(|c| c.row.starts_with("edges/none/"), "edges/none");
    assert_eq!(failing.len(), 12, "six plans on two platforms");
    for (class, ran) in failing {
        assert_eq!(letters(ran), "RBP", "{}", class.name);
        assert!(ran.iter().all(|r| r.has("err")), "{}", class.name);
    }
}

/// Sixty-four nodes whose sync ops mostly only park their node.
#[test]
fn candidates_match_reference_at_64_nodes_with_parking_sync_ops() {
    let classes = matrix::ran("grid64/profile");
    for (class, ran) in &classes {
        // `P:host` is `P:2` again on a two-core host, and runs once.
        assert!(letters(ran).starts_with("RBPP"), "{}", class.name);
        let r = ran[0].ok();
        assert_eq!(r.barrier_releases.len(), 7, "{}: one per round", class.name);
        let moved = r.stats.get_or_zero("proto.upgrade.count")
            + r.stats.get_or_zero("proto.remote_dirty_remote.count");
        assert!(moved > 0.0, "{}: the lock line never moved", class.name);
    }
    assert_eq!(classes.len(), 2, "hardware and SimOS-Mipsy");
}

/// The same 64 nodes failing mid-run: node 37 stalled after 500 of its
/// ops, stopping `Reference` exactly where `Batched` stops; and a
/// watchdog budget expiring after 40 000 dispatches, which only the
/// oracle's row pins (see the table). Both stop with most nodes still
/// holding work.
#[test]
fn reference_stops_mid_run_at_64_nodes() {
    for (row, policies) in [
        ("grid64/none/stall37@500", "RB"),
        ("grid64/none/budget40000", "R"),
    ] {
        for (class, ran) in assert_policies(row, policies, &["err"]) {
            let Err(SimError::Stalled { nodes, .. }) = &ran[0].result else {
                panic!(
                    "{}: not a stall: {:?}",
                    class.name,
                    ran[0].result.as_ref().err()
                );
            };
            let done = nodes.iter().filter(|n| n.state == NodeState::Done).count();
            assert!(done < nodes.len() / 2, "{}: stopped mid-run", class.name);
        }
    }
}

/// The small scope's programs in the table: `tests/small_scope.rs` prints
/// each program it finds the policies disagreeing on as such a line.
#[test]
fn candidates_match_reference_on_small_scope_programs() {
    let found = matrix::ran_if(|c| c.row.starts_with("scope-"), "scope-");
    for (class, ran) in found {
        assert_eq!(letters(ran), "RB", "{}", class.name);
    }
}
