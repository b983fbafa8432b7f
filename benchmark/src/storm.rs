//! `ShareStorm`: the seeded shared-miss program behind the `share-storm`
//! workload.
//!
//! The SPLASH-2 kernels miss the secondary cache on under 2 % of their
//! ops, so the memory-system models (`flashlite`/`numa` `access`, the
//! directory, the network, `engine::Resource`) get a sliver of any run's
//! host time. This program inverts the mix: every thread issues loads and
//! stores to uniformly random lines of a shared segment 16× the scaled
//! L2, so almost every memory op is a shared miss and the memory system
//! dominates. The three variants use that one layer differently — reads
//! only, reads and writes (invalidations), and a single hot home node
//! (MAGIC queueing, NACKs and retries) — so a read-path gain that costs
//! the write or retry path shows up between them.

use flashsim_engine::Rng;
use flashsim_isa::{Placement, Program, Segment, Sink, VAddr};
use flashsim_workloads::layout::SEG_A;

/// Coherence unit of every geometry in the study.
const LINE_BYTES: u64 = 128;
/// Shared segment size: 16× the scaled 256 KiB secondary cache, and 64×
/// the reach of its 16-entry TLB.
const SEGMENT_BYTES: u64 = 4 << 20;
/// Memory ops between barriers.
const BARRIER_EVERY: u32 = 4096;

/// Which way a storm uses the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormVariant {
    /// Loads only, pages interleaved across homes.
    Read,
    /// 30 % stores, pages interleaved across homes.
    ReadWrite,
    /// 30 % stores, every page homed on node 0.
    Hot,
}

impl StormVariant {
    /// Every variant, in workload order.
    pub const ALL: [StormVariant; 3] = [
        StormVariant::Read,
        StormVariant::ReadWrite,
        StormVariant::Hot,
    ];

    /// The variant's short name (`storm-read` / `storm-rw` / `storm-hot`).
    pub fn key(self) -> &'static str {
        match self {
            StormVariant::Read => "storm-read",
            StormVariant::ReadWrite => "storm-rw",
            StormVariant::Hot => "storm-hot",
        }
    }

    fn write_percent(self) -> u64 {
        match self {
            StormVariant::Read => 0,
            StormVariant::ReadWrite | StormVariant::Hot => 30,
        }
    }

    fn placement(self) -> Placement {
        match self {
            StormVariant::Read | StormVariant::ReadWrite => Placement::Interleaved,
            StormVariant::Hot => Placement::Node(0),
        }
    }
}

/// A seeded all-shared-miss program.
#[derive(Debug, Clone)]
pub struct ShareStorm {
    variant: StormVariant,
    threads: usize,
    accesses: u32,
    seed: u64,
}

impl ShareStorm {
    /// A storm of `threads` threads, each issuing `accesses` loads/stores
    /// whose addresses and read/write choices derive from `seed`.
    pub fn new(variant: StormVariant, threads: usize, accesses: u32, seed: u64) -> ShareStorm {
        assert!(threads > 0 && accesses > 0);
        ShareStorm {
            variant,
            threads,
            accesses,
            seed,
        }
    }
}

impl Program for ShareStorm {
    fn name(&self) -> String {
        self.variant.key().to_owned()
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn segments(&self) -> Vec<Segment> {
        vec![Segment::new(
            "storm",
            SEG_A,
            SEGMENT_BYTES,
            self.variant.placement(),
        )]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let accesses = self.accesses;
        let write_percent = self.variant.write_percent();
        let mut rng = Rng::seeded(self.seed).fork(tid as u64);
        Box::new(move |sink| {
            sink.barrier(); // barrier 0: timing starts
            for i in 1..=accesses {
                let line = rng.gen_range(SEGMENT_BYTES / LINE_BYTES);
                let addr = VAddr(SEG_A.get() + line * LINE_BYTES);
                if rng.gen_range(100) < write_percent {
                    sink.store(addr);
                } else {
                    sink.load(addr);
                }
                sink.alu(2);
                if i % BARRIER_EVERY == 0 {
                    sink.barrier();
                }
            }
            sink.barrier();
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }

    fn seed(&self) -> Option<u64> {
        Some(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_core::platform::{MemModel, Sim, Study};
    use flashsim_machine::run_program;

    const NODES: usize = 16;
    // Long enough that misses on the segment's 32 Ki lines, not the
    // start-up barrier, set the miss ratio; short enough for a debug test.
    const ACCESSES: u32 = 2_000;

    #[test]
    fn equal_seeds_give_equal_programs_and_different_seeds_differ() {
        for variant in StormVariant::ALL {
            let a = ShareStorm::new(variant, 4, 500, 7).fingerprint();
            let b = ShareStorm::new(variant, 4, 500, 7).fingerprint();
            let c = ShareStorm::new(variant, 4, 500, 8).fingerprint();
            assert_eq!(a, b, "{}", variant.key());
            assert_ne!(a, c, "{}", variant.key());
        }
    }

    #[test]
    fn every_variant_completes_everywhere_and_misses_on_both_models() {
        let study = Study::scaled();
        for variant in StormVariant::ALL {
            let storm = ShareStorm::new(variant, NODES, ACCESSES, 1);
            let hw = run_program(study.hardware(NODES as u32), &storm).expect("hardware");
            assert_eq!(hw.total_ops(), storm_ops(ACCESSES) * NODES as u64);
            for mem in [MemModel::FlashLite, MemModel::Numa] {
                let cfg = study.sim(Sim::SimosMipsy(150), NODES as u32, mem);
                let r = run_program(cfg, &storm).expect("simulator");
                let ratio = r.stats.get_or_zero("l2.misses") / r.total_ops() as f64;
                assert!(
                    ratio >= 0.25,
                    "{} on {mem:?}: l2.misses/ops = {ratio:.3}",
                    variant.key()
                );
            }
        }
    }

    /// Ops one thread emits: a load/store and two ALU ops per access, the
    /// start and end barriers, and one barrier per `BARRIER_EVERY`.
    fn storm_ops(accesses: u32) -> u64 {
        u64::from(accesses) * 3 + 2 + u64::from(accesses / BARRIER_EVERY)
    }
}
