//! The scheduling loops: the `Reference` oracle (a flat clock vector, one
//! op per decision) and the production schedule shared by `Batched` and
//! `Parallel` — laggard selection through a [`LaggardHeap`] (one sorted
//! run of clocks), a batch of ops per decision under conservative
//! lookahead, run inside a borrow-split [`Epoch`].

use super::env::{ChargeSink, MachineEnv, Pager};
use super::fork::ForkCtx;
use super::observe::SchedObs;
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
    lookahead: TimeDelta,
    /// The stalled node and its stall point (`FaultInjector::stall_point`).
    stall: Option<(u32, u64)>,
    budget: Option<u64>,
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
}

impl Epoch<'_> {
    /// Runs serial scheduling decisions until one needs the whole
    /// machine. Each iteration is the per-decision prologue both policy
    /// loops have always run — the stall sweep, of the one node a sync op
    /// or a fork round may have brought to its stall point outside its own
    /// walk; the fork gate — then one fused [`step`](Epoch::step).
    fn run(&mut self, s: &mut Sched) -> EpochEnd {
        loop {
            if let Some((stall, at)) = s.stall {
                let n = stall as usize;
                if self.status.get(n) == Some(&NodeStatus::Running)
                    && self.streams[n].consumed() >= at
                {
                    self.status[n] = NodeStatus::Stalled;
                    s.heap.remove(stall);
                }
            }
            if let Some(quota) = s.fork_quota() {
                return EpochEnd::Fork(quota);
            }
            s.serial_backoff = s.serial_backoff.saturating_sub(1);
            if let Some(end) = self.step(s) {
                return end;
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
    /// breaker). The core's clock comes back from the dispatch: the
    /// post-op reading is the next op's start and the next schedule
    /// test's key. Ops are read in place: the core executes `&ops[i..]`
    /// out of the chunk the generator thread filled, never a copy.
    ///
    /// A local op is dispatched with the local ops after it as one
    /// [`Core::run_local`] run, with rules (1)–(4) as its bounds: (2) for
    /// a local op is `clock < stop`, worked out once per batch; (1) and
    /// (3) end the run at the stall point and the budget, known before it
    /// runs; it ends at the op whose completion reaches the node's next
    /// timer tick, so ticks are charged right after the op that makes
    /// them due; and its ops start below `Profiler::run_bound`, so one
    /// profiler mark at its start covers it. Between local ops nothing
    /// else moves: they call no environment, charge and fault nothing,
    /// and retire no fill that the next memory op's retire would not.
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
        } = self;
        let obs = env.sink.obs;
        let (core, stream) = (&mut cores[n], &mut streams[n]);
        debug_assert_eq!(core.now(), decision_at, "heap key is the node clock");
        env.sink.node = n;
        sched_obs.open(&obs.telemetry, decision_at, s.heap.len() as u64);
        let mut now = decision_at;
        let stop = local_stop(laggard, limit, s.lookahead);
        // The consumed count at which the injector stalls `laggard`.
        let stall_at = s.stall.and_then(|(m, at)| (m == laggard).then_some(at));
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
                // a batch, so checking just `n` here plus the stall node
                // per scheduling decision is equivalent.
                if stall_at.is_some_and(|at| base + i as u64 >= at) {
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
                env.mems[n].pending.retire(now);
                let (ran, done) = if !op.class.is_local() {
                    (1, core.execute(op, env))
                } else {
                    // Rules (3) and (1): the budget and the stall point.
                    let left = s.budget.map_or(u64::MAX, |b| b - s.executed);
                    let left = stall_at.map_or(left, |at| left.min(at - (base + i as u64)));
                    let end = ops.len().min(i.saturating_add(left as usize));
                    let mem = &env.mems[n];
                    let tick = env.sink.next_tick(mem);
                    let bound = obs.profiler.run_bound(&mem.obs.compute, laggard, now);
                    core.run_local(&ops[i..end], stop.min(bound), tick, env)
                };
                s.executed += ran as u64;
                i += ran;
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

/// Rule (2) of [`Epoch::step`] for a local op on `laggard`, as the clock
/// `stop` it must start below: the op runs while `(clock, laggard)` beats
/// the runner-up's key `(lim, m)` or the clock is inside the lookahead
/// window `lim + lookahead`; with no runner-up it always runs.
fn local_stop(laggard: u32, limit: Option<(u32, Time)>, lookahead: TimeDelta) -> Time {
    limit.map_or(Time::MAX, |(m, lim)| {
        // At `clock == lim` the key wins only on the node tie-break.
        let tie = TimeDelta::from_ps(u64::from(laggard < m));
        lim + lookahead.max(tie)
    })
}

/// Nodes per group of [`OracleClocks`]: the square root of the largest
/// machine, so a re-key at 64 nodes reads 8 + 8 entries, not 64.
const ORACLE_GROUP: usize = 8;

/// The reference oracle's running set, a flat clock vector: `clock[n]` is
/// node `n`'s clock while it is `Running` and `Time::MAX` otherwise, and
/// `least[g]` is the first minimum `(clock, node)` of the `g`-th group of
/// [`ORACLE_GROUP`] entries. The first minimum of `least` is the first
/// minimum of `clock`: the running node with the least `(clock, node)`.
#[derive(Default)]
struct OracleClocks {
    clock: Vec<Time>,
    least: Vec<(Time, usize)>,
}

impl OracleClocks {
    /// The first entry with the least clock; `(Time::MAX, usize::MAX)`
    /// when no clock is below `Time::MAX`.
    fn first_min(entries: impl Iterator<Item = (Time, usize)>) -> (Time, usize) {
        entries.fold(
            (Time::MAX, usize::MAX),
            |best, e| if e.0 < best.0 { e } else { best },
        )
    }

    /// Re-reads every node's entry from the machine.
    fn read(&mut self, m: &Machine) {
        self.clock.clear();
        self.clock
            .extend((0..m.cfg.nodes as usize).map(|n| m.oracle_clock(n)));
        let groups = self.clock.len().div_ceil(ORACLE_GROUP);
        self.least.resize(groups, (Time::MAX, usize::MAX));
        for g in 0..groups {
            self.rekey(g);
        }
    }

    /// Sets node `n`'s entry to `t`.
    fn set(&mut self, n: usize, t: Time) {
        self.clock[n] = t;
        self.rekey(n / ORACLE_GROUP);
    }

    /// Re-derives group `g`'s minimum from its entries.
    fn rekey(&mut self, g: usize) {
        let first = g * ORACLE_GROUP;
        let group = &self.clock[first..self.clock.len().min(first + ORACLE_GROUP)];
        self.least[g] = Self::first_min(group.iter().copied().zip(first..));
    }

    /// The running node with the least `(clock, node)`, or `None` when no
    /// entry is below `Time::MAX`.
    fn laggard(&self) -> Option<usize> {
        let (t, n) = Self::first_min(self.least.iter().copied());
        (t < Time::MAX).then_some(n)
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
        }
    }

    /// The historical schedule: one op per decision, the laggard re-derived
    /// before every op from an [`OracleClocks`] vector. Kept as the oracle
    /// the batched policy is proven bit-identical against, and as a
    /// debugging fallback.
    ///
    /// A non-sync op moves only its own node's clock and status (the
    /// borrow split hands it no other core and no status), so after one
    /// only that node's entry is refreshed; the whole vector is re-read at
    /// entry, after a sync op (a barrier release or a lock hand-off moves
    /// other clocks) and after the stall sweep stalls a node. A one-node
    /// machine skips the vector. Debug builds check every pick against the
    /// plain scan of `status` and the cores' clocks.
    pub(super) fn run_reference(&mut self) -> Result<(), SimError> {
        let nodes = self.cfg.nodes as usize;
        let stall = self.injector.stall_point();
        // Resumed runs re-enter mid-stream: the dispatch counter continues
        // from the restored streams' consumed ops, so watchdog budgets and
        // stall reports read the same as in an uninterrupted run. (At a
        // quiescent point no node has hit end-of-stream, so consumed ops
        // and dispatches agree.) Zero for fresh runs.
        let mut executed: u64 = self.streams.iter().map(|s| s.consumed()).sum();
        let mut clocks = OracleClocks::default();
        clocks.read(self);
        loop {
            if let Some((stall, at)) = stall {
                let n = stall as usize;
                if self.status.get(n) == Some(&NodeStatus::Running)
                    && self.streams[n].consumed() >= at
                {
                    self.status[n] = NodeStatus::Stalled;
                    clocks.read(self);
                }
            }

            // Laggard-first: the running node with the smallest clock, the
            // lowest-numbered on a tie. (Only when no running node is
            // below `Time::MAX` does the vector not tell them from parked
            // ones; then the plain scan's pick is the first running node.)
            // One node is the laggard while it runs: keeping the vector
            // would put its own clock on the path to every op's pick,
            // which cost lu/1 about a fifth of its wall.
            let next = if nodes == 1 {
                (self.status[0] == NodeStatus::Running).then_some(0)
            } else {
                clocks
                    .laggard()
                    .or_else(|| self.status.iter().position(|s| *s == NodeStatus::Running))
            };
            debug_assert_eq!(
                next,
                (0..nodes)
                    .filter(|n| self.status[*n] == NodeStatus::Running)
                    .min_by_key(|n| self.cores[*n].now()),
                "the clock vector's pick is the plain scan's"
            );
            let Some(n) = next else {
                return self.idle_outcome(executed);
            };
            if let Some(budget) = self.cfg.max_ops {
                if executed >= budget {
                    return Err(self.stall_error(executed));
                }
            }
            executed += 1;
            if self.step_node(n)? {
                clocks.read(self);
            } else if nodes > 1 {
                clocks.set(n, self.oracle_clock(n));
            }
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
    /// only what ends one: sync ops, fork/join rounds, and the run's end.
    pub(super) fn run_scheduled(&mut self, mut fork: Option<ForkCtx<'_>>) -> Result<(), SimError> {
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
            lookahead: self.memsys.min_shared_latency(),
            stall: self.injector.stall_point(),
            budget: self.cfg.max_ops,
            can_fork: nodes >= 2 && transparent,
            opaque_serial: nodes >= 2 && fork.is_some() && !transparent,
            ewma: FORK_MAX_QUOTA / 2.0,
            serial_backoff: 0,
        };
        s.rebuild(&self.status, &self.cores);
        loop {
            // (`step` points the environment at each decision's laggard.)
            let end = self.epoch(0, true).run(&mut s);
            match end {
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

    /// Node `n`'s entry in the reference oracle's clock vector: its clock
    /// while it is `Running`, `Time::MAX` otherwise.
    fn oracle_clock(&self, n: usize) -> Time {
        if self.status[n] == NodeStatus::Running {
            self.cores[n].now()
        } else {
            Time::MAX
        }
    }

    /// Executes exactly one op on node `n` (reference policy). Returns
    /// whether it was a sync op, the only kind that can move another
    /// node's clock or status.
    fn step_node(&mut self, n: usize) -> Result<bool, SimError> {
        let Some(op) = self.streams[n].next_op() else {
            let t = self.cores[n].drain();
            self.cores[n].set_time(t);
            self.status[n] = NodeStatus::Done;
            return Ok(false);
        };

        if op.class.is_sync() {
            self.handle_sync(n, &op)?;
            return Ok(true);
        }

        let split = &mut self.epoch(n, true);
        let (env, core) = (&mut split.env, &mut *split.cores[n]);
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
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `clock < local_stop(..)` is rule (2) for a local op, at every
    /// clock around the runner-up's, with and without a lookahead window
    /// and on both sides of the node tie-break.
    #[test]
    fn local_stop_is_rule_two_for_a_local_op() {
        let lim = Time::from_ps(1000);
        for lookahead in [0, 1, 7] {
            let lookahead = TimeDelta::from_ps(lookahead);
            for (laggard, m) in [(0, 1), (1, 0), (2, 5), (5, 2)] {
                let stop = local_stop(laggard, Some((m, lim)), lookahead);
                for clock in 990..1010 {
                    let now = Time::from_ps(clock);
                    let rule = (now, laggard) < (lim, m) || now < lim + lookahead;
                    assert_eq!(now < stop, rule, "{now:?} {laggard} {m} {lookahead:?}");
                }
            }
            assert_eq!(local_stop(3, None, lookahead), Time::MAX);
        }
    }
}
