//! Run orchestration: the hardware normaliser, relative-time metrics, and
//! supervised parallel run matrices.
//!
//! The paper "take\[s\] the average of at least 5 hardware runs to avoid
//! reporting any spurious system effects"; our gold standard is a
//! deterministic model, so [`hardware_mean`] averages [`HARDWARE_RUNS`]
//! copies of one run's time, each scaled by a small seeded multiplicative
//! jitter, reproducing the measurement protocol. Every figure divides by
//! that mean. The copies' spread would be the random stream's, not the
//! machine's, so only the mean is returned.
//!
//! Experiment matrices run *supervised*: [`run_matrix`] wraps each cell in
//! `catch_unwind` and converts structured [`SimError`]s and caught panics
//! into [`CellOutcome::Failed`], so one broken cell — deadlocked
//! workload, exhausted directory pool, injected fault — never takes down
//! the rest of the matrix. Every figure is one matrix, and renders with
//! its degraded cells marked.

use flashsim_engine::pool::WorkerPool;
use flashsim_engine::{Rng, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::{run_program, MachineConfig, RunManifest, RunResult, SimError};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Hardware runs averaged per measurement (paper: "at least 5").
pub const HARDWARE_RUNS: usize = 5;
/// Run-to-run spread of the modelled hardware (±1 %).
pub const HARDWARE_JITTER: f64 = 0.01;

/// Runs `program` once under `cfg`.
///
/// # Panics
///
/// Panics if the machine cannot be built (thread/segment mismatch) — the
/// experiment definitions in this crate guarantee it can.
pub fn run_once(cfg: MachineConfig, program: &dyn Program) -> RunResult {
    run_program(cfg, program).expect("experiment configuration is valid") // gate: allow
}

/// The outcome of one supervised run-matrix cell.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The run finished; the full result is attached.
    Completed(Box<RunResult>),
    /// The run failed with a structured error (or a caught panic).
    Failed {
        /// Why the cell failed.
        error: SimError,
        /// Provenance of the failed cell (config label, nodes, workload,
        /// seed). Throughput fields are NaN: the run never finished.
        manifest: Box<RunManifest>,
    },
}

impl CellOutcome {
    /// True if the cell ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, CellOutcome::Completed(_))
    }

    /// The run result, if the cell completed.
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            CellOutcome::Completed(r) => Some(r),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// The failure, if the cell failed.
    pub fn error(&self) -> Option<&SimError> {
        match self {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// The measured parallel time, if the cell completed.
    pub fn parallel_time(&self) -> Option<TimeDelta> {
        self.result().map(|r| r.parallel_time)
    }

    /// The cell's manifest, whether it completed or failed.
    pub fn manifest(&self) -> &RunManifest {
        match self {
            CellOutcome::Completed(r) => &r.manifest,
            CellOutcome::Failed { manifest, .. } => manifest,
        }
    }

    /// The cell's sampled telemetry series, if the cell completed with a
    /// telemetry registry attached (see
    /// [`flashsim_machine::MachineConfig::telemetry`]).
    pub fn telemetry(&self) -> Option<&flashsim_engine::TelemetrySeries> {
        self.result().and_then(|r| r.telemetry.as_ref())
    }

    /// The cell's sampled span trees, if the cell completed with a span
    /// tracer attached (see [`flashsim_machine::MachineConfig::spans`]).
    pub fn spans(&self) -> Option<&flashsim_engine::SpanSet> {
        self.result().and_then(|r| r.spans.as_ref())
    }
}

/// A provenance manifest for a cell that never produced a result.
pub(crate) fn failed_manifest(cfg: &MachineConfig, program: &dyn Program) -> RunManifest {
    RunManifest {
        config: cfg.label(),
        nodes: cfg.nodes,
        workload: program.name(),
        seed: program.seed(),
        sched: cfg.sched.key().to_owned(),
        faults: cfg
            .faults
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| p.summary()),
        wall_seconds: 0.0,
        total_ops: 0,
        simulated_seconds: 0.0,
        events_per_sec: f64::NAN,
        sim_mips: f64::NAN,
        account: None,
        spans: cfg.spans.as_ref().map(|p| p.describe()),
    }
}

/// Runs `f` under `catch_unwind`, converting its structured error — or a
/// caught panic — into [`CellOutcome::Failed`] carrying `manifest`. The
/// journaled matrix uses this to supervise restored machines the same way
/// [`run_matrix`] supervises fresh ones.
pub(crate) fn supervise(
    manifest: Box<RunManifest>,
    f: impl FnOnce() -> Result<RunResult, SimError>,
) -> CellOutcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(result)) => CellOutcome::Completed(Box::new(result)),
        Ok(Err(error)) => CellOutcome::Failed { error, manifest },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            CellOutcome::Failed {
                error: SimError::Panic(msg),
                manifest,
            }
        }
    }
}

/// One cell of a supervised run matrix.
pub type MatrixCell = (MachineConfig, Arc<dyn Program>);

/// Runs every cell of an experiment matrix under supervision, in parallel
/// on host threads, preserving order. A failed or deadlocked cell becomes
/// [`CellOutcome::Failed`] while every other cell still produces its
/// result.
///
/// `budget` is a watchdog op budget applied to cells whose own
/// [`MachineConfig::max_ops`] is unbounded, so a cell that stops making
/// forward progress is reported as [`SimError::Stalled`] instead of
/// hanging the whole matrix.
pub fn run_matrix(cells: Vec<MatrixCell>, budget: Option<u64>) -> Vec<CellOutcome> {
    parallel_map(cells, |(cfg, prog)| {
        let cfg = budgeted(cfg, budget);
        let manifest = Box::new(failed_manifest(&cfg, prog.as_ref()));
        supervise(manifest, || run_program(cfg, prog.as_ref()))
    })
}

/// `cfg` under the matrix op `budget`, unless it carries a budget of its
/// own.
pub(crate) fn budgeted(mut cfg: MachineConfig, budget: Option<u64>) -> MachineConfig {
    cfg.max_ops = cfg.max_ops.or(budget);
    cfg
}

/// The hardware time of a `nodes`-processor run whose deterministic
/// time is `base`, as the paper measures it: the mean of
/// [`HARDWARE_RUNS`] runs, each jittered by [`HARDWARE_JITTER`] from a
/// stream seeded by `nodes`. Every relative time divides by this.
pub fn hardware_mean(base: TimeDelta, nodes: u32) -> TimeDelta {
    let mut rng = Rng::seeded(0xF1A5_4000 + u64::from(nodes));
    let sum: f64 = (0..HARDWARE_RUNS)
        .map(|_| base.as_ns_f64() * rng.jitter(HARDWARE_JITTER))
        .sum();
    TimeDelta::from_ps((sum / HARDWARE_RUNS as f64 * 1000.0) as u64)
}

/// Relative execution time as the paper plots it: simulator time divided
/// by hardware time (1.0 = exact; < 1 = simulator optimistic).
pub fn relative_time(sim: TimeDelta, hardware: TimeDelta) -> f64 {
    sim.as_ns_f64() / hardware.as_ns_f64()
}

/// Speedup: uniprocessor time over `p`-processor time on the same
/// platform.
pub fn speedup(t1: TimeDelta, tp: TimeDelta) -> f64 {
    t1.as_ns_f64() / tp.as_ns_f64()
}

/// Runs independent jobs on a bounded set of host worker threads and
/// collects results in input order.
///
/// At most `min(host parallelism, jobs)` threads run jobs: the caller and
/// one fewer scoped threads, so jobs may borrow the caller's state and a
/// large experiment matrix never spawns one thread per cell; each thread
/// claims the next unclaimed job through an atomic index until none is
/// left. With one usable core the jobs run inline on the caller's thread
/// alone. The caller works rather than waits: a thread's first allocation
/// gives it an allocator arena that keeps memory after the thread exits,
/// so each thread a batch spawns adds to the process's peak RSS. A job
/// that panics does not stop the others: the batch drains, then the
/// earliest such job's panic is re-raised on the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let run = |item| catch_unwind(AssertUnwindSafe(|| f(item)));
    let (n, workers) = (items.len(), WorkerPool::host_parallelism().min(items.len()));
    let done: Vec<std::thread::Result<R>> = if workers <= 1 {
        items.into_iter().map(run).collect()
    } else {
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let worker = || {
            std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
                .take_while(|&i| i < n)
                .filter_map(|i| {
                    // Each index is claimed once, so the slot is still full.
                    let item = items[i].lock().unwrap_or_else(|e| e.into_inner()).take()?;
                    Some((i, run(item)))
                })
                .collect::<Vec<_>>()
        };
        let mut done: Vec<(usize, std::thread::Result<R>)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut claimed = worker();
            claimed.extend(
                threads
                    .into_iter()
                    .flat_map(|t| t.join().unwrap_or_else(|payload| resume_unwind(payload))),
            );
            claimed
        });
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    };
    done.into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Study;
    use flashsim_isa::{Placement, Segment, Sink, VAddr};
    use flashsim_workloads::micro::RestartProbe;

    const BASE: u64 = 0x1_0000;

    /// Thread 0 skips the barrier thread 1 waits at: a guaranteed
    /// deadlock.
    struct SkippedBarrier;
    impl Program for SkippedBarrier {
        fn name(&self) -> String {
            "skipped-barrier".into()
        }
        fn num_threads(&self) -> usize {
            2
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(move |sink| {
                sink.load(VAddr(BASE));
                if tid != 0 {
                    sink.barrier();
                }
            })
        }
    }

    /// A kernel that panics while generating its op stream.
    struct PanickingKernel;
    impl Program for PanickingKernel {
        fn name(&self) -> String {
            "panicking-kernel".into()
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(|sink| {
                sink.load(VAddr(BASE));
                panic!("kernel exploded on purpose");
            })
        }
    }

    #[test]
    fn relative_time_math() {
        assert!(
            (relative_time(TimeDelta::from_ns(70), TimeDelta::from_ns(100)) - 0.7).abs() < 1e-12
        );
        assert!((speedup(TimeDelta::from_ns(100), TimeDelta::from_ns(25)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hardware_measurement_averages_jittered_runs() {
        let study = Study::scaled();
        let base = run_once(study.hardware(1), &RestartProbe::new(10_000)).parallel_time;
        let mean = hardware_mean(base, 1);
        // The jitter moves the mean, by less than one run's jitter.
        assert_ne!(mean, base);
        let (base, mean) = (base.as_ns_f64(), mean.as_ns_f64());
        assert!((mean - base).abs() / base < HARDWARE_JITTER);
    }

    #[test]
    fn hardware_measurement_is_reproducible() {
        let study = Study::scaled();
        let probe = RestartProbe::new(5_000);
        let a = run_once(study.hardware(1), &probe).parallel_time;
        let b = run_once(study.hardware(1), &probe).parallel_time;
        assert_eq!(a, b);
        assert_eq!(hardware_mean(a, 1), hardware_mean(b, 1));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect(), |x: i32| x * x);
        assert_eq!(out, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_many_more_jobs_than_cores() {
        // Far more jobs than any host has cores: the bounded pool must
        // queue them rather than spawning 4096 threads, and still return
        // every result in order.
        let out = parallel_map((0..4096).collect(), |x: u64| x + 1);
        assert_eq!(out.len(), 4096);
        assert!(out.iter().enumerate().all(|(i, &r)| r == i as u64 + 1));
    }

    #[test]
    fn parallel_map_bounds_concurrent_jobs_to_host_parallelism() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let cap = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        parallel_map((0..64).collect(), |_: i32| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "peak {} exceeded host parallelism {}",
            peak.load(Ordering::SeqCst),
            cap
        );
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<i32> = parallel_map(Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7], |x: i32| x * 2), vec![14]);
    }

    #[test]
    fn parallel_map_jobs_borrow_caller_state() {
        let offsets: Vec<u64> = (0..257).map(|i| i * 3).collect();
        let mut hits = vec![0u64; 257];
        let out = parallel_map(hits.iter_mut().zip(&offsets).collect(), |(hit, off)| {
            *hit += 1;
            off + 1
        });
        assert!(out.iter().zip(&offsets).all(|(&r, &o)| r == o + 1));
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn parallel_map_panic_reaches_the_caller_after_the_batch_drains() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..8).collect(), |k: usize| {
                if k == 3 {
                    panic!("job 3 exploded"); // gate: allow
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 3 exploded"));
        assert_eq!(ran.load(Ordering::SeqCst), 7, "every other job ran first");
    }

    #[test]
    fn spread_is_finite_for_degenerate_measurements() {
        // A zero-length run normalises to zero at every node count, and
        // the longest representable run saturates rather than wrapping.
        for nodes in [1, 4, 16, 64] {
            assert_eq!(hardware_mean(TimeDelta::ZERO, nodes), TimeDelta::ZERO);
            let max = hardware_mean(TimeDelta::from_ps(u64::MAX), nodes);
            assert!(max.as_ps() > u64::MAX / 100 * 98, "{max:?}");
        }
    }

    #[test]
    fn deadlocked_cell_does_not_poison_the_matrix() {
        let study = Study::scaled();
        let cells: Vec<MatrixCell> = vec![
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(2_000)) as Arc<dyn Program>,
            ),
            (study.hardware(2), Arc::new(SkippedBarrier)),
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(3_000)) as Arc<dyn Program>,
            ),
        ];
        let outcomes = run_matrix(cells, Some(10_000_000));
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_completed());
        assert!(outcomes[2].is_completed());
        let err = outcomes[1].error().expect("deadlocked cell fails");
        assert_eq!(err.kind(), "deadlock");
        // The failed cell still carries its provenance.
        assert_eq!(outcomes[1].manifest().workload, "skipped-barrier");
        assert_eq!(outcomes[1].manifest().nodes, 2);
    }

    #[test]
    fn panicking_cell_is_caught_as_structured_error() {
        let study = Study::scaled();
        let outcomes = run_matrix(vec![(study.hardware(1), Arc::new(PanickingKernel))], None);
        let err = outcomes[0].error().expect("panic must be caught");
        assert_eq!(err.kind(), "panic");
        assert!(format!("{err}").contains("kernel exploded on purpose"));
    }

    #[test]
    fn unbuildable_cell_is_caught_as_structured_error() {
        let study = Study::scaled();
        let outcomes = run_matrix(vec![(study.hardware(2), Arc::new(PanickingKernel))], None);
        let err = outcomes[0].error().expect("one thread on two nodes");
        assert_eq!(err.kind(), "build");
        let text = err.to_string();
        assert!(text.starts_with("machine build failed: "), "{text}");
        assert_eq!(outcomes[0].manifest().nodes, 2);
    }
}
