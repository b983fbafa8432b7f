//! The paper's methodological bedrock: "the same application binaries are
//! used for all platforms". In this workspace that means a program's op
//! stream must be bit-identical no matter which platform consumes it —
//! these tests run every workload on radically different platforms and
//! assert identical per-node op counts.

use flashsim::platform::{MemModel, Sim, Study};
use flashsim::runner::run_once;
use flashsim::workloads::{Fft, FftBlocking, Lu, Ocean, ProblemScale, Radix, SnCase, Snbench};
use flashsim_isa::Program;

fn op_counts(study: &Study, prog: &dyn Program, nodes: u32) -> Vec<Vec<u64>> {
    let mut all = Vec::new();
    all.push(run_once(study.hardware(nodes), prog).ops_per_node);
    for sim in [Sim::SimosMipsy(300), Sim::SimosMxs, Sim::SoloMipsy(150)] {
        all.push(run_once(study.sim(sim, nodes, MemModel::FlashLite), prog).ops_per_node);
    }
    all.push(run_once(study.sim(Sim::SimosMipsy(225), nodes, MemModel::Numa), prog).ops_per_node);
    all
}

fn assert_same_binary(prog: &dyn Program, nodes: u32) {
    let study = Study::scaled();
    let counts = op_counts(&study, prog, nodes);
    for c in &counts[1..] {
        assert_eq!(
            c,
            &counts[0],
            "{}: op streams differ across platforms",
            prog.name()
        );
    }
    assert!(counts[0].iter().all(|n| *n > 0), "empty node stream");
}

#[test]
fn fft_is_the_same_binary_everywhere() {
    assert_same_binary(&Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Tlb), 2);
}

#[test]
fn radix_is_the_same_binary_everywhere() {
    assert_same_binary(&Radix::tuned(ProblemScale::Tiny, 2), 2);
}

#[test]
fn lu_is_the_same_binary_everywhere() {
    assert_same_binary(&Lu::sized(ProblemScale::Tiny, 2), 2);
}

#[test]
fn ocean_is_the_same_binary_everywhere() {
    assert_same_binary(&Ocean::sized(ProblemScale::Tiny, 2), 2);
}

#[test]
fn snbench_is_the_same_binary_everywhere() {
    for case in SnCase::all() {
        assert_same_binary(&Snbench::new(case, 64 * 1024), Snbench::NODES as u32);
    }
}

#[test]
fn runs_are_deterministic() {
    let study = Study::scaled();
    let prog = Radix::tuned(ProblemScale::Tiny, 4);
    let a = run_once(study.hardware(4), &prog);
    let b = run_once(study.hardware(4), &prog);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.parallel_time, b.parallel_time);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.barrier_releases, b.barrier_releases);
}

/// `Program::fingerprint()` values recorded at the commit before `Op`
/// lost its `taken` byte. Resumable run journals key on the fingerprint
/// (`core/journal.rs`), so a change to how an op is stored must not move
/// it: a moved value orphans every journal on disk.
#[test]
fn fingerprints_are_the_recorded_ones() {
    type Make = fn(usize) -> Box<dyn Program>;
    let apps: [(Make, [u64; 2]); 4] = [
        (
            |t| Box::new(Fft::sized(ProblemScale::Scaled, t, FftBlocking::Tlb)),
            [0x6f97_ab68_c0bb_7faf, 0xf036_20b9_7173_e281],
        ),
        (
            |t| Box::new(Radix::tuned(ProblemScale::Scaled, t)),
            [0x5ed4_8183_c08a_22c1, 0xc832_8a54_e112_72e7],
        ),
        (
            |t| Box::new(Lu::sized(ProblemScale::Scaled, t)),
            [0x7b08_f565_77e0_92aa, 0x3882_68e2_317a_84a1],
        ),
        (
            |t| Box::new(Ocean::sized(ProblemScale::Scaled, t)),
            [0x7686_35bd_aa7f_7425, 0x17c3_803d_25d8_127b],
        ),
    ];
    for (make, recorded) in apps {
        for (threads, want) in [1, 4].into_iter().zip(recorded) {
            let prog = make(threads);
            assert_eq!(
                prog.fingerprint(),
                want,
                "{} at {threads} threads: fingerprint moved",
                prog.name()
            );
        }
    }
}
