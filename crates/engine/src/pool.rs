//! A bounded pool of persistent host worker threads with per-worker run
//! queues and work stealing.
//!
//! Two layers of the workspace fan work out across host cores: the study
//! runner executes independent matrix cells, and the machine's parallel
//! scheduling policy forks per-node op batches between synchronization
//! points. Both need the same substrate — a fixed set of long-lived
//! threads, a way to hand them a batch of closures, and a barrier that
//! returns once every closure ran — and both live under
//! `#![forbid(unsafe_code)]`, so the pool is built purely from the
//! standard library's safe primitives:
//!
//! - every worker owns a `Mutex<VecDeque<Job>>` run queue; submissions
//!   round-robin across queues, and an idle worker *steals from the back*
//!   of a sibling's queue (the classic ws-deque discipline: owners pop
//!   LIFO-front for locality, thieves take the oldest work),
//! - a ticket counter under a parking mutex + condvar puts idle workers
//!   to sleep without missed-wakeup races: one ticket is issued per
//!   submitted job, and a worker must hold a ticket before it may pop,
//! - a completion latch (counter + condvar) lets [`WorkerPool::run_all`]
//!   block until the whole batch has executed,
//! - a panicking job is caught at the worker, the latch still drops (so
//!   the barrier never wedges), and the first payload is re-thrown from
//!   `run_all` on the caller's thread.
//!
//! Jobs receive the executing worker's index, which is how the machine
//! attributes per-worker busy time to its `sched.worker_busy_ps`
//! telemetry without any shared mutable state inside the jobs.
//!
//! Every worker also keeps an always-on [`WorkerLane`]: wall-clock
//! nanoseconds split into *execute* (inside jobs), *steal* (winning a
//! job from a sibling's queue), and *idle* (parked waiting for
//! tickets), plus job/steal counts. These lanes are the single source
//! of truth for host-side occupancy — the stderr heartbeat's `busy`
//! fraction reads the execute lane via [`WorkerPool::busy_ns`], and the
//! host-time profiler (`crate::hostprof`) harvests full snapshots via
//! [`WorkerPool::lanes`].
//!
//! Determinism note: the pool makes **no ordering promises** between
//! jobs of one batch — callers must keep jobs independent and apply any
//! cross-job effects in a deterministic order after `run_all` returns.
//! That contract is exactly what keeps the parallel scheduling policy
//! byte-identical to the reference interleaving.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::pool::WorkerPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = WorkerPool::new(2);
//! let sum = Arc::new(AtomicU64::new(0));
//! pool.run_all(
//!     (1..=100u64)
//!         .map(|k| {
//!             let sum = Arc::clone(&sum);
//!             Box::new(move |_worker: usize| {
//!                 sum.fetch_add(k, Ordering::Relaxed);
//!             }) as Box<dyn FnOnce(usize) + Send>
//!         })
//!         .collect(),
//! );
//! assert_eq!(sum.load(Ordering::Relaxed), 5050);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// One unit of work: a closure taking the executing worker's index.
/// Scoped batches ([`WorkerPool::run_scoped`]) may borrow caller state
/// for the duration of the batch.
pub type ScopedJob<'env> = Box<dyn FnOnce(usize) + Send + 'env>;

/// One unit of work for a persistent pool: jobs outlive the submitting
/// call, so they must own their state.
pub type Job = ScopedJob<'static>;

/// Hard ceiling on explicit worker requests, bounding thread spawn on
/// any host. Generously above every simulated-node count in the study.
const MAX_WORKERS: usize = 256;

/// Snapshot of one worker's host-time lanes since the pool was built.
/// All counters are monotone; callers diff successive snapshots for
/// per-interval occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLane {
    /// Wall-clock nanoseconds spent executing jobs.
    pub execute_ns: u64,
    /// Wall-clock nanoseconds spent winning jobs from siblings' queues.
    pub steal_ns: u64,
    /// Wall-clock nanoseconds spent parked waiting for a job ticket.
    pub idle_ns: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Jobs obtained by stealing rather than from the worker's own queue.
    pub steals: u64,
}

/// The atomic cells behind one worker's [`WorkerLane`].
#[derive(Default)]
struct LaneCells {
    execute_ns: AtomicU64,
    steal_ns: AtomicU64,
    idle_ns: AtomicU64,
    jobs: AtomicU64,
    steals: AtomicU64,
}

impl LaneCells {
    fn snapshot(&self) -> WorkerLane {
        WorkerLane {
            execute_ns: self.execute_ns.load(Ordering::Relaxed),
            steal_ns: self.steal_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }
}

/// Locks `m`, recovering from poisoning: a worker panic is already
/// captured and re-thrown by [`WorkerPool::run_all`], and every
/// protected invariant is restored before unwinding, so the poison flag
/// carries no extra information here.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Waits on `cv`, recovering from poisoning (see [`lock_ok`]).
fn wait_ok<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Parking state: tickets for queued-but-unclaimed jobs plus the
/// shutdown flag. A worker must claim a ticket before popping, which
/// closes the submit/park race without busy-waiting.
struct Park {
    tickets: usize,
    shutdown: bool,
}

/// Completion latch for the in-flight batch.
struct Latch {
    inflight: usize,
    /// First panic payload harvested from a worker this batch.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared<'env> {
    queues: Vec<Mutex<VecDeque<ScopedJob<'env>>>>,
    park: Mutex<Park>,
    wake: Condvar,
    latch: Mutex<Latch>,
    done: Condvar,
    lanes: Vec<LaneCells>,
}

impl<'env> Shared<'env> {
    /// Claims one job ticket for worker `me`, parking until one is
    /// available; the wait is charged to the worker's idle lane. Returns
    /// `false` on shutdown with no tickets left.
    fn claim(&self, me: usize) -> bool {
        let started = std::time::Instant::now();
        let mut p = lock_ok(&self.park);
        let claimed = loop {
            if p.tickets > 0 {
                p.tickets -= 1;
                break true;
            }
            if p.shutdown {
                break false;
            }
            p = wait_ok(&self.wake, p);
        };
        drop(p);
        self.lanes[me]
            .idle_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        claimed
    }

    /// Pops a job for worker `me`: own queue front first (LIFO locality),
    /// then steal from the back of siblings' queues. A held ticket
    /// guarantees at least one job exists across all queues, so the scan
    /// retries (yielding) until it wins one. A win from a sibling's
    /// queue is charged to the worker's steal lane.
    fn pop(&self, me: usize) -> ScopedJob<'env> {
        let n = self.queues.len();
        let started = std::time::Instant::now();
        loop {
            if let Some(job) = lock_ok(&self.queues[me]).pop_front() {
                return job;
            }
            for k in 1..n {
                let victim = (me + k) % n;
                if let Some(job) = lock_ok(&self.queues[victim]).pop_back() {
                    let lane = &self.lanes[me];
                    lane.steal_ns
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    lane.steals.fetch_add(1, Ordering::Relaxed);
                    return job;
                }
            }
            // Another ticket holder popped "our" job between scans; the
            // ticket invariant says one is still out there.
            std::thread::yield_now();
        }
    }

    /// Runs one job with execute-lane accounting and panic capture, then
    /// drops the completion latch.
    fn execute(&self, me: usize, job: ScopedJob<'env>) {
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(move || job(me)));
        let spent = started.elapsed().as_nanos() as u64;
        let lane = &self.lanes[me];
        lane.execute_ns.fetch_add(spent, Ordering::Relaxed);
        lane.jobs.fetch_add(1, Ordering::Relaxed);
        let mut l = lock_ok(&self.latch);
        if let Err(payload) = outcome {
            if l.panic.is_none() {
                l.panic = Some(payload);
            }
        }
        l.inflight -= 1;
        if l.inflight == 0 {
            self.done.notify_all();
        }
    }
}

fn worker_main(shared: Arc<Shared<'static>>, me: usize) {
    while shared.claim(me) {
        let job = shared.pop(me);
        shared.execute(me, job);
    }
}

/// A fixed-size pool of persistent worker threads. See the module docs
/// for the queueing discipline and determinism contract.
pub struct WorkerPool {
    shared: Arc<Shared<'static>>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes concurrent `run_all` batches (the latch counts one
    /// batch at a time).
    gate: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// The host's available parallelism (≥ 1).
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Resolves a worker request to an actual thread count: `0` means
    /// "one per available host core", explicit requests are clamped to
    /// the [`MAX_WORKERS`] ceiling.
    fn sized(workers: usize) -> usize {
        if workers == 0 {
            WorkerPool::host_parallelism()
        } else {
            workers.min(MAX_WORKERS)
        }
    }

    /// Spawns a pool of `workers` threads. `0` means "one per available
    /// host core". An explicit request is honored even past the host's
    /// parallelism (oversubscription still exercises real concurrent
    /// interleavings, which the correctness gates rely on) but clamped
    /// to a hard ceiling so a typo can't spawn unbounded threads.
    pub fn new(workers: usize) -> WorkerPool {
        let size = WorkerPool::sized(workers);
        let shared = Arc::new(Shared {
            queues: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(Park {
                tickets: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            latch: Mutex::new(Latch {
                inflight: 0,
                panic: None,
            }),
            done: Condvar::new(),
            lanes: (0..size).map(|_| LaneCells::default()).collect(),
        });
        let handles = (0..size)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flashsim-worker-{me}"))
                    .spawn(move || worker_main(shared, me))
                    .expect("spawning pool worker thread") // gate: allow
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            gate: Mutex::new(()),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Cumulative wall-clock nanoseconds worker `w` has spent executing
    /// jobs since the pool was built — the execute lane of
    /// [`WorkerPool::lanes`]. Monotone; callers diff successive reads
    /// for per-interval occupancy.
    pub fn busy_ns(&self, w: usize) -> u64 {
        self.shared.lanes[w].execute_ns.load(Ordering::Relaxed)
    }

    /// Snapshot of every worker's host-time lanes, in worker order.
    pub fn lanes(&self) -> Vec<WorkerLane> {
        self.shared.lanes.iter().map(LaneCells::snapshot).collect()
    }

    /// Executes every job, blocking until all complete. Jobs run
    /// concurrently in no particular order; a panicking job is re-thrown
    /// here after the rest of the batch has finished (the latch always
    /// drains, so the pool stays usable).
    pub fn run_all(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let _batch = lock_ok(&self.gate);
        let count = jobs.len();
        {
            let mut l = lock_ok(&self.shared.latch);
            debug_assert_eq!(l.inflight, 0, "overlapping run_all batches");
            l.inflight = count;
        }
        for (k, job) in jobs.into_iter().enumerate() {
            let q = k % self.shared.queues.len();
            lock_ok(&self.shared.queues[q]).push_back(job);
        }
        {
            let mut p = lock_ok(&self.shared.park);
            p.tickets += count;
            self.shared.wake.notify_all();
        }
        let mut l = lock_ok(&self.shared.latch);
        while l.inflight > 0 {
            l = wait_ok(&self.shared.done, l);
        }
        if let Some(payload) = l.panic.take() {
            drop(l);
            resume_unwind(payload);
        }
    }

    /// Executes one batch of jobs that may *borrow* caller state, on a
    /// temporary set of scoped worker threads, blocking until all
    /// complete. Same queueing, stealing, and panic discipline as
    /// [`WorkerPool::run_all`]; `workers` resolves like
    /// [`WorkerPool::new`]. The study runner's `parallel_map` feeds its
    /// matrix cells through here so both fan-out layers of the
    /// workspace share one scheduling substrate.
    pub fn run_scoped(workers: usize, jobs: Vec<ScopedJob<'_>>) {
        if jobs.is_empty() {
            return;
        }
        let size = WorkerPool::sized(workers);
        let count = jobs.len();
        let shared = Shared {
            queues: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            // Tickets for the whole batch are issued up front and
            // shutdown is pre-signalled: workers drain the queues, then
            // the next claim fails and the scope joins them.
            park: Mutex::new(Park {
                tickets: count,
                shutdown: true,
            }),
            wake: Condvar::new(),
            latch: Mutex::new(Latch {
                inflight: count,
                panic: None,
            }),
            done: Condvar::new(),
            lanes: (0..size).map(|_| LaneCells::default()).collect(),
        };
        for (k, job) in jobs.into_iter().enumerate() {
            lock_ok(&shared.queues[k % size]).push_back(job);
        }
        std::thread::scope(|scope| {
            for me in 0..size {
                let shared = &shared;
                scope.spawn(move || {
                    while shared.claim(me) {
                        let job = shared.pop(me);
                        shared.execute(me, job);
                    }
                });
            }
        });
        let payload = lock_ok(&shared.latch).panic.take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut p = lock_ok(&self.shared.park);
            p.shutdown = true;
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked outside a job already unwound; the
            // pool still shuts down cleanly.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new((0..257).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        pool.run_all(
            (0..257)
                .map(|k| {
                    let hits = Arc::clone(&hits);
                    Box::new(move |_w: usize| {
                        hits[k].fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect(),
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let total = Arc::new(AtomicU64::new(0));
        for round in 1..=5u64 {
            pool.run_all(
                (0..8)
                    .map(|_| {
                        let total = Arc::clone(&total);
                        Box::new(move |_w: usize| {
                            total.fetch_add(round, Ordering::Relaxed);
                        }) as Job
                    })
                    .collect(),
            );
        }
        assert_eq!(total.load(Ordering::Relaxed), 8 * (1 + 2 + 3 + 4 + 5));
    }

    #[test]
    fn zero_means_host_parallelism_and_explicit_requests_are_honored() {
        assert_eq!(WorkerPool::new(0).size(), WorkerPool::host_parallelism());
        assert_eq!(WorkerPool::new(1).size(), 1);
        assert_eq!(WorkerPool::new(3).size(), 3);
        assert_eq!(WorkerPool::new(10_000).size(), MAX_WORKERS);
    }

    #[test]
    fn worker_indices_are_in_range() {
        let pool = WorkerPool::new(3);
        let size = pool.size();
        let bad = Arc::new(AtomicUsize::new(0));
        pool.run_all(
            (0..64)
                .map(|_| {
                    let bad = Arc::clone(&bad);
                    Box::new(move |w: usize| {
                        if w >= size {
                            bad.fetch_add(1, Ordering::Relaxed);
                        }
                    }) as Job
                })
                .collect(),
        );
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn busy_counters_accumulate() {
        let pool = WorkerPool::new(1);
        pool.run_all(vec![Box::new(|_w| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }) as Job]);
        assert!(pool.busy_ns(0) > 0);
    }

    #[test]
    fn lanes_expose_execute_idle_and_job_counts() {
        let pool = WorkerPool::new(2);
        pool.run_all(
            (0..16)
                .map(|_| {
                    Box::new(|_w: usize| {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }) as Job
                })
                .collect(),
        );
        // Let workers park again so idle time registers.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let lanes = pool.lanes();
        assert_eq!(lanes.len(), 2);
        let jobs: u64 = lanes.iter().map(|l| l.jobs).sum();
        assert_eq!(jobs, 16);
        let exec: u64 = lanes.iter().map(|l| l.execute_ns).sum();
        assert!(exec > 0);
        assert!(lanes.iter().any(|l| l.idle_ns > 0));
        // busy_ns is an alias for the execute lane.
        assert_eq!(pool.busy_ns(0), lanes[0].execute_ns);
        // Steal counts never exceed executed jobs.
        assert!(lanes.iter().all(|l| l.steals <= l.jobs));
    }

    #[test]
    fn panicking_job_propagates_without_wedging_the_pool() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_all(vec![
                Box::new(|_w| {}) as Job,
                Box::new(|_w| panic!("boom")) as Job, // gate: allow
                Box::new(|_w| {}) as Job,
            ]);
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        // The latch drained: the pool still runs fresh batches.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = Arc::clone(&ok);
        pool.run_all(vec![Box::new(move |_w| {
            ok2.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run_all(Vec::new());
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn scoped_batch_borrows_caller_state() {
        let mut out = vec![0u64; 257];
        let jobs = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move |_w: usize| {
                    *slot = i as u64 + 1;
                }) as ScopedJob
            })
            .collect();
        WorkerPool::run_scoped(3, jobs);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        WorkerPool::run_scoped(3, Vec::new());
    }

    #[test]
    fn scoped_panic_propagates_after_the_batch_drains() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::run_scoped(
                2,
                (0..8)
                    .map(|k| {
                        let ran = &ran;
                        Box::new(move |_w: usize| {
                            if k == 3 {
                                panic!("scoped boom"); // gate: allow
                            }
                            ran.fetch_add(1, Ordering::Relaxed);
                        }) as ScopedJob
                    })
                    .collect(),
            );
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        assert_eq!(ran.load(Ordering::Relaxed), 7, "other jobs still ran");
    }
}
