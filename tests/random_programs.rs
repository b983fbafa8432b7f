//! Machine-level property-style tests: randomly generated parallel
//! programs (random segments, access patterns, barrier structure) must
//! run to completion on every platform with identical op streams, no
//! deadlock, and deterministic results. Randomized cases come from seeded
//! loops over the in-tree [`flashsim::engine::Rng`] (this workspace
//! builds offline, so no external property-testing framework).

use flashsim::engine::Rng;
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::runner::run_once;
use flashsim_isa::{OpClass, Placement, Program, Segment, Sink, VAddr};

/// A randomly shaped but well-formed parallel program.
#[derive(Debug, Clone)]
struct RandomProgram {
    threads: usize,
    /// Per phase: (ops per thread, stride, shared: everyone reads thread
    /// 0's region instead of their own).
    phases: Vec<(u16, u8, bool)>,
    use_lock: bool,
    placement: Placement,
}

const SEG_BYTES: u64 = 64 * 1024;
const BASE: u64 = 0x100000;

impl Program for RandomProgram {
    fn name(&self) -> String {
        "random".into()
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn segments(&self) -> Vec<Segment> {
        vec![
            Segment::new(
                "data",
                VAddr(BASE),
                SEG_BYTES * self.threads as u64,
                self.placement,
            ),
            Segment::new("lock", VAddr(0x10000), 4096, Placement::Node(0)),
        ]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let prog = self.clone();
        Box::new(move |sink| {
            let my_base = BASE + tid as u64 * SEG_BYTES;
            // Touch my region so placement happens.
            for i in (0..SEG_BYTES).step_by(4096) {
                sink.store(VAddr(my_base + i));
            }
            sink.barrier();
            for &(ops, stride, shared) in &prog.phases {
                let base = if shared { BASE } else { my_base };
                let stride = u64::from(stride.max(1)) * 8;
                for k in 0..u64::from(ops) {
                    let addr = base + (k * stride) % SEG_BYTES;
                    match k % 5 {
                        0 | 1 => {
                            sink.load(VAddr(addr));
                        }
                        2 => sink.store(VAddr(addr)),
                        3 => sink.work(OpClass::FpMul, 2),
                        _ => sink.alu(3),
                    }
                }
                if prog.use_lock {
                    sink.lock(7, VAddr(0x10000));
                    sink.store(VAddr(0x10080));
                    sink.unlock(7, VAddr(0x10000));
                }
                sink.barrier();
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

fn random_program(rng: &mut Rng) -> RandomProgram {
    let threads = [1usize, 2, 4][rng.gen_range(3) as usize];
    let phases = (0..1 + rng.gen_range(3))
        .map(|_| {
            (
                1 + rng.gen_range(399) as u16,
                1 + rng.gen_range(31) as u8,
                rng.gen_range(2) == 0,
            )
        })
        .collect();
    let placement = [
        Placement::Blocked,
        Placement::Node(0),
        Placement::Interleaved,
    ][rng.gen_range(3) as usize];
    RandomProgram {
        threads,
        phases,
        use_lock: rng.gen_range(2) == 0,
        placement,
    }
}

/// Any well-formed program completes on every platform with the same op
/// stream, and repeated runs are bit-identical. In debug builds (tier-1's)
/// every run also passes the machine's quiescent check at each barrier
/// release and at its end: each node's pending-fill table holds only
/// lines its L2 holds, and a finished node's is empty.
#[test]
fn random_programs_run_everywhere() {
    let mut rng = Rng::seeded(0xf1a5);
    for _ in 0..24 {
        let prog = random_program(&mut rng);
        let study = Study::scaled();
        let nodes = prog.threads as u32;

        let hw = run_once(study.hardware(nodes), &prog);
        assert!(hw.total_time.as_ns() > 0);
        assert!(hw.parallel_time <= hw.total_time);

        for sim in [Sim::SimosMipsy(150), Sim::SoloMipsy(300), Sim::SimosMxs] {
            for mem in [MemModel::FlashLite, MemModel::Numa] {
                let cfg = study.sim(sim, nodes, mem);
                let label = cfg.label();
                let run = run_once(cfg, &prog);
                assert_eq!(
                    &run.ops_per_node, &hw.ops_per_node,
                    "{label}: same binary violated"
                );
            }
        }

        // Every barrier released exactly once, in id order.
        let ids: Vec<u32> = hw.barrier_releases.iter().map(|(id, _)| *id).collect();
        let expect: Vec<u32> = (0..ids.len() as u32).collect();
        assert_eq!(ids, expect);

        // Determinism.
        let again = run_once(study.hardware(nodes), &prog);
        assert_eq!(again.total_time, hw.total_time);
        assert_eq!(again.stats, hw.stats);
    }
}
