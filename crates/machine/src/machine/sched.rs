//! The scheduling loops: the `Reference` oracle (linear laggard scan, one
//! op per decision) and the production schedule shared by `Batched` and
//! `Parallel` — laggard selection through a [`LaggardHeap`] (one sorted
//! run of clocks), a batch of ops per decision under conservative
//! lookahead, run inside a borrow-split [`Epoch`].

use super::env::{ChargeSink, MachineEnv, Pager};
use super::fork::ForkCtx;
use super::observe::{SchedObs, HEARTBEAT_SAMPLE_MASK};
use super::{Machine, NodeStatus};
use crate::error::{NodeSnapshot, NodeState, SimError};
use flashsim_cpu::env::Core;
use flashsim_engine::{HostPhase, LaggardHeap, Observers, Time, TimeDelta};
use flashsim_isa::ThreadStream;

/// Why a serial epoch (see [`Epoch::run`]) handed control back to the
/// policy loop: each of these needs the whole `&mut Machine`.
pub(super) enum EpochEnd {
    /// No node is runnable: the run is over, deadlocked, or starved.
    Idle,
    /// Node `n` stopped at a sync op, left *unconsumed*: barrier and lock
    /// state live outside the epoch's borrows, so the policy loop
    /// executes it and closes the decision opened at `decision_at`.
    Sync {
        n: usize,
        decision_at: Time,
        ops_before: u64,
    },
    /// A fork/join round is due, at this per-node op quota.
    Fork(u64),
    /// The next decision's heartbeat tick is the one that reads the
    /// wall clock.
    Heartbeat,
    /// The wall-clock limit expired.
    Timeout(std::time::Duration),
    /// The watchdog's op budget expired.
    Budget,
    /// A program fault parked by [`MachineEnv::resolve`].
    Fault(SimError),
}

/// Why [`Epoch::step`]'s walk over one borrowed chunk of ops stopped.
enum Walk {
    /// Every op of the chunk was dispatched; the batch goes on in the next.
    Dry,
    /// The batch ended; the laggard stays in the heap iff `runnable`.
    Batch { runnable: bool },
    /// The epoch ends here.
    Epoch(EpochEnd),
}

/// Per-node fork-quota clamp and the adaptation loop's tuning knobs:
/// the quota tracks twice the admitted-ops EWMA so a phase that forks
/// well gets longer private runs, and a round that admits fewer than
/// `FORK_MIN_YIELD` ops per node sends the scheduler back to serial
/// batches for `SERIAL_BACKOFF` decisions before re-probing.
const FORK_MIN_QUOTA: f64 = 256.0;
const FORK_MAX_QUOTA: f64 = 8192.0;
const FORK_MIN_YIELD: f64 = 16.0;
const SERIAL_BACKOFF: u32 = 64;

/// Loop state of the batched and parallel policies: the runnable set
/// keyed by clock, the dispatch counter, and the loop-invariant knobs the
/// per-decision path would otherwise re-read from the config.
pub(super) struct Sched {
    heap: LaggardHeap,
    /// Ops dispatched so far; sync ops and end-of-stream discovery count,
    /// as in the reference loop.
    executed: u64,
    decisions: u64,
    lookahead: TimeDelta,
    inject_stalls: bool,
    budget: Option<u64>,
    wall_start: std::time::Instant,
    wall_limit: Option<std::time::Duration>,
    /// Whether fork/join rounds may run at all (parallel policy, two or
    /// more nodes, transparent scan profiles).
    can_fork: bool,
    /// Host observability: forking is off because a profile is opaque, so
    /// every serially run op is a rejected-opaque-profile admission
    /// outcome.
    opaque_serial: bool,
    /// EWMA of per-node ops admitted per round; sets the fork quota.
    ewma: f64,
    /// Serial decisions left before the next fork attempt.
    serial_backoff: u32,
}

impl Sched {
    /// Refills the heap from the Running set: after a sync op that woke
    /// parked nodes at new clocks or moved the executor's (a sync op that
    /// only parks the executor pops it instead), and after a fork/join
    /// round (which moved clocks and may have parked nodes).
    fn rebuild(&mut self, status: &[NodeStatus], cores: &[Box<dyn Core>]) {
        let running = cores
            .iter()
            .enumerate()
            .filter(|(n, _)| status[*n] == NodeStatus::Running)
            .map(|(n, core)| (n as u32, core.now()));
        self.heap.rebuild(running);
    }

    /// The per-node quota of the fork/join round due now, if one is. The
    /// fork phase cannot consult the global dispatch counter mid-round,
    /// so a round runs only when its worst case fits under the watchdog
    /// budget — exhaustion then always surfaces in a serial batch, at
    /// the same dispatch count as under the serial policies.
    fn fork_quota(&self) -> Option<u64> {
        if !self.can_fork || self.serial_backoff != 0 || self.heap.len() < 2 {
            return None;
        }
        let quota = (2.0 * self.ewma).clamp(FORK_MIN_QUOTA, FORK_MAX_QUOTA) as u64;
        let fits = self
            .budget
            .is_none_or(|b| self.executed + self.heap.len() as u64 * (quota + 1) <= b);
        fits.then_some(quota)
    }

    /// Closes the serial decision opened at `decision_at`: its op count
    /// goes to the volatile `sched.batch_ops` series (and the host
    /// profiler's opaque tally when forking is off).
    fn close_decision(
        &self,
        sched_obs: &mut SchedObs,
        obs: &Observers,
        decision_at: Time,
        ops_before: u64,
    ) {
        let ops = self.executed - ops_before;
        if self.opaque_serial {
            obs.hostprof.count_opaque(ops);
        }
        sched_obs.close(&obs.telemetry, decision_at, ops);
    }
}

/// A borrow-split view of the machine that lives across consecutive
/// serial decisions: the execution environment plus the per-node vectors
/// the scheduler steps, built once by [`Machine::epoch`]. An epoch ends
/// only where the whole `&mut Machine` is needed (see [`EpochEnd`]), so
/// the split, the clock and the observer handles are not paid for per
/// decision.
pub(super) struct Epoch<'a> {
    pub(super) env: MachineEnv<'a>,
    pub(super) cores: &'a mut [Box<dyn Core>],
    streams: &'a mut [ThreadStream],
    status: &'a mut [NodeStatus],
    sched_obs: &'a mut SchedObs,
    /// The attached heartbeat's decision-tick counter.
    hb_ticks: Option<&'a mut u64>,
}

impl Epoch<'_> {
    /// Runs serial scheduling decisions until one needs the whole
    /// machine. Each iteration is the per-decision prologue both policy
    /// loops have always run — wall-limit cadence, the stall sweep over
    /// every Running node, the fork gate — then one fused
    /// [`step`](Epoch::step). The caller ticks the heartbeat for the
    /// first decision; the ticks for the following ones happen here.
    fn run(&mut self, s: &mut Sched) -> EpochEnd {
        loop {
            s.decisions += 1;
            if let Some(limit) = s.wall_limit {
                // Amortized wall-clock check (first decision, then once
                // per 4096); batches and rounds both bound the time
                // between decisions.
                if s.decisions & 0xFFF == 1 && s.wall_start.elapsed() >= limit {
                    return EpochEnd::Timeout(limit);
                }
            }
            if s.inject_stalls {
                for n in 0..self.status.len() {
                    if self.status[n] == NodeStatus::Running
                        && self
                            .env
                            .faults
                            .node_stalled(n as u32, self.streams[n].consumed())
                    {
                        self.status[n] = NodeStatus::Stalled;
                        s.heap.remove(n as u32);
                    }
                }
            }
            if let Some(quota) = s.fork_quota() {
                return EpochEnd::Fork(quota);
            }
            s.serial_backoff = s.serial_backoff.saturating_sub(1);
            if let Some(end) = self.step(s) {
                return end;
            }
            if let Some(ticks) = self.hb_ticks.as_deref_mut() {
                if (*ticks + 1) & HEARTBEAT_SAMPLE_MASK == 0 {
                    return EpochEnd::Heartbeat;
                }
                *ticks += 1;
            }
        }
    }

    /// One serial decision, fused with its batch: the laggard at the
    /// queue's front executes a run of ops until a continuation rule
    /// fails, bounded by the runner-up's `(node, clock)` key (`None`
    /// when no other node is runnable: then nothing can contest the
    /// schedule and the batch runs to a sync op, stream end, stall,
    /// fault, or budget exhaustion), and is then re-keyed in place — or
    /// popped if it parked. The runner-up's key bounds the whole batch
    /// because no other node's clock, status, or stream can change while
    /// only the laggard executes.
    ///
    /// Per-op admission reproduces the reference loop's decision order
    /// exactly: (1) the injector stall check the reference sweep would
    /// have run before this op; (2) the schedule test — any op may run
    /// while `(clock, n)` still beats the runner-up (the reference scan
    /// would pick `n`), and past that point only node-private ops within
    /// the lookahead window; (3) the watchdog budget; (4) dispatch, with
    /// OS timer ticks charged inline (per-node state, not a batch
    /// breaker). The core's clock comes back from `execute`: the post-op
    /// reading is the next op's start and the next schedule test's key.
    /// Ops are read in place: the core executes `&ops[i]` out of the
    /// chunk the generator thread filled, never a copy.
    fn step(&mut self, s: &mut Sched) -> Option<EpochEnd> {
        let Some((laggard, decision_at)) = s.heap.peek() else {
            return Some(EpochEnd::Idle);
        };
        let limit = s.heap.runner_up();
        let n = laggard as usize;
        let ops_before = s.executed;
        let Epoch {
            env,
            cores,
            streams,
            status,
            sched_obs,
            ..
        } = self;
        let obs = env.sink.obs;
        let (core, stream) = (&mut cores[n], &mut streams[n]);
        debug_assert_eq!(core.now(), decision_at, "heap key is the node clock");
        env.sink.node = n;
        sched_obs.open(&obs.telemetry, decision_at, s.heap.len() as u64);
        let mut now = decision_at;
        let serial = obs.hostprof.phase(HostPhase::Serial);
        // The batch walks the generator's own chunk: `ops` is borrowed from
        // the stream, `i` counts the ops dispatched out of it, and one
        // `consume(i)` settles the cursor when the walk stops — at the
        // batch's end, or where the chunk runs dry and the next is fetched.
        let runnable = loop {
            let base = stream.consumed();
            let ops = stream.pending();
            let mut i = 0;
            let stop = loop {
                // (1) The stall sweep the reference loop runs before every
                // op. Only the executing node's consumed count moves inside
                // a batch, so checking just `n` here plus all Running nodes
                // per scheduling decision is equivalent.
                if s.inject_stalls && env.faults.node_stalled(laggard, base + i as u64) {
                    status[n] = NodeStatus::Stalled;
                    break Walk::Batch { runnable: false };
                }
                // `None` only at the end of the stream (an empty chunk).
                let op = ops.get(i);
                // (2) Would the reference scan still pick `n`? Past the
                // strict win only node-private ops may run (they touch no
                // shared timeline, so they commute with the runner-up's
                // ops), and only within the conservative lookahead window.
                if let Some((m, lim)) = limit {
                    if (now, laggard) >= (lim, m)
                        && !(now < lim + s.lookahead && op.is_some_and(|op| op.class.is_local()))
                    {
                        break Walk::Batch { runnable: true };
                    }
                }
                // (3) The watchdog budget, checked per dispatch as in the
                // reference loop (sync ops and end-of-stream discovery both
                // count as dispatches there).
                if s.budget.is_some_and(|b| s.executed >= b) {
                    break Walk::Epoch(EpochEnd::Budget);
                }
                // (4) Dispatch.
                let Some(op) = op else {
                    s.executed += 1;
                    let t = core.drain();
                    core.set_time(t);
                    status[n] = NodeStatus::Done;
                    break Walk::Batch { runnable: false };
                };
                if op.class.is_sync() {
                    break Walk::Epoch(EpochEnd::Sync {
                        n,
                        decision_at,
                        ops_before,
                    });
                }
                s.executed += 1;
                i += 1;
                env.mems[n].pending.retire(now);
                let done = core.execute(op, env);
                let busy = done.saturating_since(now);
                obs.profiler
                    .mark_op_in(&mut env.mems[n].obs.compute, laggard, now, busy);
                if let Some(e) = env.fault.take() {
                    break Walk::Epoch(EpochEnd::Fault(e));
                }
                now = env.sink.timer_ticks(&mut env.mems[n], &mut **core, done);
                if i == ops.len() {
                    break Walk::Dry;
                }
            };
            stream.consume(i);
            match stop {
                Walk::Dry => {}
                Walk::Batch { runnable } => break runnable,
                Walk::Epoch(end) => return Some(end),
            }
        };
        drop(serial);
        if runnable {
            s.heap.update_top(now);
        } else {
            // Done or stalled: the node re-enters the heap only through
            // a rebuild.
            s.heap.pop();
        }
        s.close_decision(sched_obs, obs, decision_at, ops_before);
        None
    }
}

impl Machine {
    /// Splits the machine into the execution environment of `node` plus
    /// the per-node vectors a scheduler steps — the one place the borrow
    /// split is written. `in_op` says whether resolutions happen inside a
    /// core op or between ops (see [`ChargeSink::in_op`]).
    pub(super) fn epoch(&mut self, node: usize, in_op: bool) -> Epoch<'_> {
        Epoch {
            env: MachineEnv {
                sink: ChargeSink {
                    node,
                    in_op,
                    cfg: &self.cfg,
                    clock: self.clock,
                    obs: &self.obs,
                    tel: self.tel,
                },
                mems: &mut self.mems,
                memsys: &mut *self.memsys,
                pager: Pager {
                    pt: &mut self.pt,
                    alloc: &mut self.alloc,
                    segments: &self.segments,
                },
                faults: &self.injector,
                fault: &mut self.fault,
            },
            cores: &mut self.cores,
            streams: &mut self.streams,
            status: &mut self.status,
            sched_obs: &mut self.sched_obs,
            hb_ticks: self.heartbeat.as_mut().map(|hb| &mut hb.ticks),
        }
    }

    /// The historical schedule: one op per decision, linear laggard scan.
    /// Kept as the oracle the batched policy is proven bit-identical
    /// against, and as a debugging fallback.
    pub(super) fn run_reference(&mut self, wall_start: std::time::Instant) -> Result<(), SimError> {
        let nodes = self.cfg.nodes as usize;
        let inject_stalls = self.injector.is_active();
        let wall_limit = self.cfg.watchdog.wall_limit;
        // Resumed runs re-enter mid-stream: the dispatch counter continues
        // from the restored streams' consumed ops, so watchdog budgets and
        // stall reports read the same as in an uninterrupted run. (At a
        // quiescent point no node has hit end-of-stream, so consumed ops
        // and dispatches agree.) Zero for fresh runs.
        let mut executed: u64 = self.streams.iter().map(|s| s.consumed()).sum();
        let mut decisions: u64 = 0;
        loop {
            self.heartbeat_tick(executed, None);
            decisions += 1;
            if let Some(limit) = wall_limit {
                // Amortized wall-clock check: the `Instant` read happens
                // on the first decision, then once per 4096.
                if decisions & 0xFFF == 1 && wall_start.elapsed() >= limit {
                    return Err(self.timeout_error(wall_start, limit));
                }
            }
            if inject_stalls {
                for n in 0..nodes {
                    if self.status[n] == NodeStatus::Running
                        && self
                            .injector
                            .node_stalled(n as u32, self.streams[n].consumed())
                    {
                        self.status[n] = NodeStatus::Stalled;
                    }
                }
            }

            // Laggard-first: the running node with the smallest clock.
            let next = (0..nodes)
                .filter(|n| self.status[*n] == NodeStatus::Running)
                .min_by_key(|n| self.cores[*n].now());
            let Some(n) = next else {
                return self.idle_outcome(executed);
            };
            if let Some(budget) = self.cfg.watchdog.max_ops {
                if executed >= budget {
                    return Err(self.stall_error(executed));
                }
            }
            executed += 1;
            self.step_node(n)?;
        }
    }

    /// The production schedule, shared by the batched policy (`fork` is
    /// `None`) and the parallel one: laggard selection through a
    /// sorted queue, and a *batch* of ops per decision under conservative
    /// lookahead.
    ///
    /// The heap mirrors the set of `Running` nodes keyed by their clocks,
    /// ordered `(clock, node)` — the reference scan's tie-break. Serial
    /// decisions run back to back inside an [`Epoch`]; this loop handles
    /// only what ends one: sync ops, fork/join rounds, the heartbeat's
    /// wall-clock sample, and the run's end.
    pub(super) fn run_scheduled(
        &mut self,
        mut fork: Option<ForkCtx<'_>>,
        wall_start: std::time::Instant,
    ) -> Result<(), SimError> {
        let nodes = self.cfg.nodes as usize;
        let transparent = fork.as_ref().is_some_and(|f| {
            f.shared
                .profiles
                .iter()
                .all(|p| p.min_ps_per_op > TimeDelta::ZERO)
        });
        let mut s = Sched {
            heap: LaggardHeap::new(nodes),
            // See run_reference: continues from restored streams on resume.
            executed: self.streams.iter().map(|s| s.consumed()).sum(),
            decisions: 0,
            lookahead: self.memsys.min_shared_latency(),
            inject_stalls: self.injector.is_active(),
            budget: self.cfg.watchdog.max_ops,
            wall_start,
            wall_limit: self.cfg.watchdog.wall_limit,
            can_fork: nodes >= 2 && transparent,
            opaque_serial: nodes >= 2 && fork.is_some() && !transparent,
            ewma: FORK_MAX_QUOTA / 2.0,
            serial_backoff: 0,
        };
        s.rebuild(&self.status, &self.cores);
        loop {
            self.heartbeat_tick(s.executed, fork.as_ref().map(|f| f.pool));
            // (`step` points the environment at each decision's laggard.)
            let end = self.epoch(0, true).run(&mut s);
            match end {
                EpochEnd::Heartbeat => {}
                EpochEnd::Sync {
                    n,
                    decision_at,
                    ops_before,
                } => {
                    {
                        let _serial = self.obs.hostprof.phase(HostPhase::Serial);
                        s.executed += 1;
                        let op = self.streams[n].next_op().expect("peeked sync op vanished"); // gate: allow
                        self.handle_sync(n, &op)?;
                    }
                    if matches!(
                        self.status[n],
                        NodeStatus::AtBarrier(_) | NodeStatus::WaitingLock(_)
                    ) {
                        // A barrier arrival that does not release, or a
                        // lock acquire that queues: only `n` changed — it
                        // parked. Every other key in the heap still stands.
                        s.heap.remove(n as u32);
                    } else {
                        s.rebuild(&self.status, &self.cores);
                    }
                    s.close_decision(&mut self.sched_obs, &self.obs, decision_at, ops_before);
                }
                EpochEnd::Fork(quota) => {
                    let Some(f) = fork.as_mut() else {
                        continue; // the gate never opens without a pool
                    };
                    let running = s.heap.len() as u64;
                    let decision_at = s.heap.peek().map_or(Time::ZERO, |(_, t)| t);
                    let admitted = self.parallel_round(f, quota);
                    s.executed += admitted;
                    let telemetry = &self.obs.telemetry;
                    self.sched_obs.open(telemetry, decision_at, running);
                    self.sched_obs.close(telemetry, decision_at, admitted);
                    for (w, prev) in f.busy_prev.iter_mut().enumerate() {
                        let b = f.pool.busy_ns(w);
                        telemetry.count(f.busy_ids[w], decision_at, (b - *prev) * 1000);
                        *prev = b;
                    }
                    let per_node = admitted as f64 / running.max(1) as f64;
                    s.ewma = 0.75 * s.ewma + 0.25 * per_node;
                    if per_node < FORK_MIN_YIELD {
                        s.serial_backoff = SERIAL_BACKOFF;
                    }
                    s.rebuild(&self.status, &self.cores);
                }
                EpochEnd::Idle => return self.idle_outcome(s.executed),
                EpochEnd::Timeout(limit) => return Err(self.timeout_error(wall_start, limit)),
                EpochEnd::Budget => return Err(self.stall_error(s.executed)),
                EpochEnd::Fault(e) => return Err(e),
            }
        }
    }

    /// How a run with no runnable node left ends: complete, starved by an
    /// injected stall, or deadlocked.
    fn idle_outcome(&self, executed: u64) -> Result<(), SimError> {
        if self.status.iter().all(|s| *s == NodeStatus::Done) {
            return Ok(());
        }
        // A stalled node is the root cause when present: the others are
        // merely waiting for it at barriers/locks.
        if self.status.contains(&NodeStatus::Stalled) {
            return Err(self.stall_error(executed));
        }
        Err(SimError::Deadlock {
            nodes: self.snapshots(),
        })
    }

    /// Per-node state snapshots for failure reports.
    fn snapshots(&self) -> Vec<NodeSnapshot> {
        (0..self.cfg.nodes as usize)
            .map(|n| {
                let state = match self.status[n] {
                    NodeStatus::Running => NodeState::Running,
                    NodeStatus::Done => NodeState::Done,
                    NodeStatus::Stalled => NodeState::Stalled,
                    NodeStatus::AtBarrier(id) => NodeState::AtBarrier {
                        id,
                        arrived: self.barrier_arrivals.get(&id).map_or(0, |v| v.len() as u32),
                        expected: self.cfg.nodes,
                    },
                    NodeStatus::WaitingLock(id) => {
                        let lock = self.locks.get(&id);
                        NodeState::WaitingLock {
                            id,
                            holder: lock.and_then(|l| l.held_by).map(|h| h as u32),
                            queue_len: lock.map_or(0, |l| l.queue.len() as u32),
                        }
                    }
                };
                NodeSnapshot {
                    node: n as u32,
                    at: self.cores[n].now(),
                    ops: self.streams[n].consumed(),
                    state,
                }
            })
            .collect()
    }

    fn stall_error(&self, executed: u64) -> SimError {
        SimError::Stalled {
            ops_executed: executed,
            nodes: self.snapshots(),
        }
    }

    fn timeout_error(
        &self,
        wall_start: std::time::Instant,
        budget: std::time::Duration,
    ) -> SimError {
        SimError::Timeout {
            elapsed: wall_start.elapsed(),
            budget,
            nodes: self.snapshots(),
        }
    }

    /// Executes exactly one op on node `n` (reference policy).
    fn step_node(&mut self, n: usize) -> Result<(), SimError> {
        let Some(op) = self.streams[n].next_op() else {
            let t = self.cores[n].drain();
            self.cores[n].set_time(t);
            self.status[n] = NodeStatus::Done;
            return Ok(());
        };

        if op.class.is_sync() {
            return self.handle_sync(n, &op);
        }

        let Epoch { env, cores, .. } = &mut self.epoch(n, true);
        let core = &mut *cores[n];
        let op_start = core.now();
        env.mems[n].pending.retire(op_start);
        let done = core.execute(&op, env);
        let busy = done.saturating_since(op_start);
        env.sink
            .obs
            .profiler
            .mark_op_in(&mut env.mems[n].obs.compute, n as u32, op_start, busy);
        if let Some(e) = env.fault.take() {
            return Err(e);
        }
        env.sink.timer_ticks(&mut env.mems[n], core, done);
        Ok(())
    }
}
