//! Host-time self-profiling: where the simulator's *own* wall-clock goes.
//!
//! Every other observability layer in this workspace accounts for
//! simulated picoseconds (profiler, telemetry, spans); this one
//! accounts for host nanoseconds. A [`HostProf`] is a monotonic-clock
//! phase timer with the Profiler attachment idiom — always
//! compiled, one branch per probe when detached — that the machine's
//! scheduling loops drive through *switch semantics*: every clock read
//! closes the outgoing phase and opens the incoming one, so the per-phase
//! totals tile the run's wall-clock window **exactly** (the invariant
//! [`validate_jsonl`] enforces on the export). Time not inside any
//! declared phase lands in the base [`HostPhase::Drive`] bucket —
//! scheduler bookkeeping — never in an unaccounted residual.
//!
//! The phase taxonomy follows the parallel policy's round structure
//! (scan / fork / commit, with serial batches and checkpoint
//! serialization as the other places a run can spend host time),
//! plus per-round fork-admission outcome counters ([`ForkAdmission`]:
//! admitted vs rejected-horizon vs rejected-opaque-profile vs
//! rejected-predicted-shared) and per-worker lanes harvested from the
//! [`crate::pool::WorkerPool`] (execute / steal / idle — the pool's
//! always-on [`crate::pool::WorkerLane`] counters, which also back the
//! heartbeat's `busy` fraction, so there is one source of truth).
//!
//! The hard invariant is **isolation**: host clock reads never feed
//! simulated state. No [`HostProf`] method returns a time into the
//! caller's logic — the handle only absorbs — so attaching one cannot
//! change a single simulated byte (`tests/hostprof_isolation.rs` proves
//! it on every platform under every policy).
//!
//! Exports: a versioned [`HOSTPROF_SCHEMA`] JSONL with a strict
//! [`validate_jsonl`] (shared scanners from [`crate::jsonl`]) and
//! Prometheus text exposition via [`crate::prom`]
//! ([`HostReport::to_prometheus`]).

use crate::jsonl::{field_str, field_u64, numbered_lines};
use crate::pool::WorkerLane;
use crate::prom;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Schema identifier of the JSONL export.
pub const HOSTPROF_SCHEMA: &str = "flashsim-hostprof-v1";

/// One bucket of the host-time taxonomy. The machine switches phases at
/// round boundaries; everything between explicit phases is `Drive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Scheduler bookkeeping between the named phases: heap maintenance,
    /// horizon derivation, heartbeat ticks, loop overhead.
    Drive,
    /// Parallel round phase A: refreshing stale lookahead bounds
    /// (building scan jobs, running them on the pool, harvesting).
    Scan,
    /// Parallel round phase B: forked private execution (building fork
    /// jobs, the pool barrier that runs them).
    Fork,
    /// Parallel round join: reassembling bundles and applying cross-node
    /// effects in deterministic node order.
    Commit,
    /// Serial batch execution — the laggard loop's fused step, where
    /// every shared op (and every op under the serial policies) runs.
    Serial,
    /// Checkpoint serialization and the sink call at a barrier release.
    Ckpt,
    /// A lane nothing writes: it timed the live event stream, which is
    /// deleted. The variant (and its zero row in the export) stays only
    /// because `benchmark/src/traced.rs` reports `machine.host.<phase>.frac`
    /// over [`HostPhase::ALL`] and `BENCHMARK.json` lists
    /// `machine.host.stream.frac`; the `benchmark`-archetype PR that drops
    /// that row deletes the variant.
    Stream,
}

impl HostPhase {
    /// Every phase, in the fixed export order.
    pub const ALL: [HostPhase; 7] = [
        HostPhase::Drive,
        HostPhase::Scan,
        HostPhase::Fork,
        HostPhase::Commit,
        HostPhase::Serial,
        HostPhase::Ckpt,
        HostPhase::Stream,
    ];

    /// Number of phases.
    pub const COUNT: usize = HostPhase::ALL.len();

    /// Stable lower-case key used in every export.
    pub const fn key(self) -> &'static str {
        match self {
            HostPhase::Drive => "drive",
            HostPhase::Scan => "scan",
            HostPhase::Fork => "fork",
            HostPhase::Commit => "commit",
            HostPhase::Serial => "serial",
            HostPhase::Ckpt => "ckpt",
            HostPhase::Stream => "stream",
        }
    }

    const fn index(self) -> usize {
        match self {
            HostPhase::Drive => 0,
            HostPhase::Scan => 1,
            HostPhase::Fork => 2,
            HostPhase::Commit => 3,
            HostPhase::Serial => 4,
            HostPhase::Ckpt => 5,
            HostPhase::Stream => 6,
        }
    }
}

/// Cumulative fork-admission outcomes across all parallel rounds of a
/// run — the counters that answer "why didn't `Parallel` scale".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkAdmission {
    /// Fork/join rounds executed.
    pub rounds: u64,
    /// Ops dispatched inside forked private phases.
    pub admitted_ops: u64,
    /// Nodes that entered a forked private phase.
    pub forked_nodes: u64,
    /// Nodes denied a fork (or forks cut short) because their clock had
    /// already reached the conservative horizon.
    pub rejected_horizon: u64,
    /// Forks cut short by a memory op admission predicted *shared*
    /// (unmapped page, or classify said upgrade/miss).
    pub rejected_shared: u64,
    /// Ops executed serially because forking is disabled for the run —
    /// a core reported an opaque [`ScanProfile`](crate::Time) (no per-op
    /// clock floor) or a flight recorder is active.
    pub rejected_opaque: u64,
    /// Forks that stopped at a sync op (left for the serial sync arm).
    pub stopped_sync: u64,
    /// Forks that exhausted their per-node op quota.
    pub stopped_quota: u64,
    /// Forks that ran off the end of their op stream.
    pub stopped_end: u64,
}

/// One parallel round's admission tally, absorbed by
/// [`HostProf::round`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTally {
    /// Ops dispatched across all forked nodes this round.
    pub admitted_ops: u64,
    /// Nodes forked this round.
    pub forked_nodes: u64,
    /// Nodes skipped (already at the horizon) plus forks that stopped
    /// on the horizon check.
    pub rejected_horizon: u64,
    /// Forks stopped by a predicted-shared memory op.
    pub rejected_shared: u64,
    /// Forks stopped at a sync op.
    pub stopped_sync: u64,
    /// Forks that exhausted their quota.
    pub stopped_quota: u64,
    /// Forks that hit end-of-stream.
    pub stopped_end: u64,
}

#[derive(Debug)]
struct State {
    /// Monotonic epoch every timestamp is measured against.
    epoch: Instant,
    running: bool,
    /// Run-window start, ns since `epoch`.
    started_ns: u64,
    /// Last phase-transition timestamp, ns since `epoch`.
    last_ns: u64,
    /// Active phase stack; empty means [`HostPhase::Drive`].
    stack: Vec<HostPhase>,
    phase_ns: [u64; HostPhase::COUNT],
    adm: ForkAdmission,
    workers: Vec<WorkerLane>,
    /// Finalized run-window length (set by `run_end`).
    total_ns: u64,
}

impl State {
    fn new() -> State {
        State {
            epoch: Instant::now(),
            running: false,
            started_ns: 0,
            last_ns: 0,
            stack: Vec::new(),
            phase_ns: [0; HostPhase::COUNT],
            adm: ForkAdmission::default(),
            workers: Vec::new(),
            total_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes the open segment of the current phase at `now` — the
    /// single accounting primitive every transition goes through, which
    /// is what makes the phase totals tile the window exactly.
    fn touch(&mut self, now: u64) {
        let cur = self.stack.last().copied().unwrap_or(HostPhase::Drive);
        self.phase_ns[cur.index()] += now.saturating_sub(self.last_ns);
        self.last_ns = now;
    }
}

fn lock_state(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a host-time profiler. Cheap to clone; `disabled()` (the
/// default) costs one branch per probe. All mutation happens on the
/// machine's driver thread — worker-side time lives in the pool's
/// always-on lane counters and is *harvested* here, never recorded
/// concurrently.
#[derive(Debug, Clone, Default)]
pub struct HostProf {
    inner: Option<Arc<Mutex<State>>>,
}

impl HostProf {
    /// An enabled profiler.
    pub fn new() -> HostProf {
        HostProf {
            inner: Some(Arc::new(Mutex::new(State::new()))),
        }
    }

    /// The no-op handle: every probe is a single `None` branch.
    pub fn disabled() -> HostProf {
        HostProf { inner: None }
    }

    /// Whether probes record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens the run window. Resets all accumulators, so a handle
    /// re-used across runs reports the latest run only.
    pub fn run_begin(&self) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock_state(inner);
        let now = s.now_ns();
        s.running = true;
        s.started_ns = now;
        s.last_ns = now;
        s.stack.clear();
        s.phase_ns = [0; HostPhase::COUNT];
        s.adm = ForkAdmission::default();
        s.workers.clear();
        s.total_ns = 0;
    }

    /// Closes the run window, crediting the tail to the current phase.
    pub fn run_end(&self) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock_state(inner);
        if !s.running {
            return;
        }
        let now = s.now_ns();
        s.touch(now);
        s.total_ns = now - s.started_ns;
        s.running = false;
    }

    /// Enters `phase`, pausing the current one; the returned guard
    /// resumes it on drop. Nesting is explicit via the phase stack, so
    /// e.g. a checkpoint cut inside a serial batch charges `Ckpt`, not
    /// `Serial`.
    ///
    /// The scheduler calls this once per decision, so the detached case
    /// is an inlined `None` test; the lock and the clock read are out of
    /// line.
    #[inline]
    pub fn phase(&self, phase: HostPhase) -> PhaseGuard {
        match &self.inner {
            None => PhaseGuard { inner: None },
            Some(inner) => enter_phase(inner, phase),
        }
    }

    /// Absorbs one parallel round's fork-admission tally.
    pub fn round(&self, t: RoundTally) {
        let Some(inner) = &self.inner else { return };
        let mut s = lock_state(inner);
        s.adm.rounds += 1;
        s.adm.admitted_ops += t.admitted_ops;
        s.adm.forked_nodes += t.forked_nodes;
        s.adm.rejected_horizon += t.rejected_horizon;
        s.adm.rejected_shared += t.rejected_shared;
        s.adm.stopped_sync += t.stopped_sync;
        s.adm.stopped_quota += t.stopped_quota;
        s.adm.stopped_end += t.stopped_end;
    }

    /// Counts `ops` executed serially because forking is disabled for
    /// the whole run (opaque scan profile).
    pub fn count_opaque(&self, ops: u64) {
        let Some(inner) = &self.inner else { return };
        lock_state(inner).adm.rejected_opaque += ops;
    }

    /// Records the final per-worker lane snapshot (harvested from the
    /// pool before it is dropped).
    pub fn record_workers(&self, lanes: Vec<WorkerLane>) {
        let Some(inner) = &self.inner else { return };
        lock_state(inner).workers = lanes;
    }

    /// The finalized report, or `None` when detached (or `run_end` was
    /// never reached).
    pub fn report(&self) -> Option<HostReport> {
        let inner = self.inner.as_ref()?;
        let s = lock_state(inner);
        if s.running || s.total_ns == 0 {
            return None;
        }
        Some(HostReport {
            total_ns: s.total_ns,
            phase_ns: s.phase_ns,
            admission: s.adm,
            workers: s.workers.clone(),
        })
    }
}

/// RAII phase scope from [`HostProf::phase`].
#[derive(Debug)]
pub struct PhaseGuard {
    inner: Option<Arc<Mutex<State>>>,
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            leave_phase(inner);
        }
    }
}

/// The attached half of [`HostProf::phase`].
#[cold]
fn enter_phase(inner: &Arc<Mutex<State>>, phase: HostPhase) -> PhaseGuard {
    let mut s = lock_state(inner);
    if !s.running {
        return PhaseGuard { inner: None };
    }
    let now = s.now_ns();
    s.touch(now);
    s.stack.push(phase);
    PhaseGuard {
        inner: Some(Arc::clone(inner)),
    }
}

/// The attached half of [`PhaseGuard`]'s drop.
#[cold]
fn leave_phase(inner: &Arc<Mutex<State>>) {
    let mut s = lock_state(inner);
    let now = s.now_ns();
    s.touch(now);
    s.stack.pop();
}

/// A finalized host-time decomposition of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostReport {
    /// Run-window wall-clock length in nanoseconds.
    pub total_ns: u64,
    /// Per-phase nanoseconds, indexed in [`HostPhase::ALL`] order.
    /// Sums to `total_ns` exactly, by construction.
    pub phase_ns: [u64; HostPhase::COUNT],
    /// Fork-admission outcome totals.
    pub admission: ForkAdmission,
    /// Per-worker pool lanes (empty under the serial policies).
    pub workers: Vec<WorkerLane>,
}

impl HostReport {
    /// Nanoseconds spent in `phase`.
    pub fn phase(&self, phase: HostPhase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// `phase`'s share of the run window (0 when the window is empty).
    pub fn fraction(&self, phase: HostPhase) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.phase(phase) as f64 / self.total_ns as f64
        }
    }

    /// Difference between the window length and the phase sum — zero by
    /// construction; exported so validators can enforce it.
    pub fn unaccounted_ns(&self) -> u64 {
        self.total_ns
            .abs_diff(self.phase_ns.iter().copied().sum::<u64>())
    }

    /// Renders the [`HOSTPROF_SCHEMA`] JSONL document: a header line,
    /// one line per phase in [`HostPhase::ALL`] order, one admission
    /// line, and one line per worker lane.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema\":\"{HOSTPROF_SCHEMA}\",\"total_ns\":{},\"phases\":{},\"workers\":{},\"rounds\":{}}}\n",
            self.total_ns,
            HostPhase::COUNT,
            self.workers.len(),
            self.admission.rounds,
        ));
        for p in HostPhase::ALL {
            out.push_str(&format!(
                "{{\"phase\":\"{}\",\"ns\":{}}}\n",
                p.key(),
                self.phase(p)
            ));
        }
        let a = &self.admission;
        out.push_str(&format!(
            "{{\"ev\":\"admission\",\"rounds\":{},\"admitted_ops\":{},\"forked_nodes\":{},\
             \"rejected_horizon\":{},\"rejected_shared\":{},\"rejected_opaque\":{},\
             \"stopped_sync\":{},\"stopped_quota\":{},\"stopped_end\":{}}}\n",
            a.rounds,
            a.admitted_ops,
            a.forked_nodes,
            a.rejected_horizon,
            a.rejected_shared,
            a.rejected_opaque,
            a.stopped_sync,
            a.stopped_quota,
            a.stopped_end,
        ));
        for (w, lane) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "{{\"worker\":{w},\"execute_ns\":{},\"steal_ns\":{},\"idle_ns\":{},\
                 \"jobs\":{},\"steals\":{}}}\n",
                lane.execute_ns, lane.steal_ns, lane.idle_ns, lane.jobs, lane.steals,
            ));
        }
        out
    }

    /// Prometheus text exposition of the report.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        prom::push_type(&mut out, "flashsim_host_total_ns", "gauge");
        prom::push_sample(&mut out, "flashsim_host_total_ns", &[], self.total_ns);
        prom::push_type(&mut out, "flashsim_host_phase_ns", "gauge");
        for p in HostPhase::ALL {
            prom::push_sample(
                &mut out,
                "flashsim_host_phase_ns",
                &[("phase", p.key())],
                self.phase(p),
            );
        }
        prom::push_type(&mut out, "flashsim_host_fork_outcomes_total", "counter");
        let a = &self.admission;
        for (key, v) in [
            ("rounds", a.rounds),
            ("admitted_ops", a.admitted_ops),
            ("forked_nodes", a.forked_nodes),
            ("rejected_horizon", a.rejected_horizon),
            ("rejected_shared", a.rejected_shared),
            ("rejected_opaque", a.rejected_opaque),
            ("stopped_sync", a.stopped_sync),
            ("stopped_quota", a.stopped_quota),
            ("stopped_end", a.stopped_end),
        ] {
            prom::push_sample(
                &mut out,
                "flashsim_host_fork_outcomes_total",
                &[("outcome", key)],
                v,
            );
        }
        prom::push_type(&mut out, "flashsim_host_worker_lane_ns", "gauge");
        for (w, lane) in self.workers.iter().enumerate() {
            let ws = w.to_string();
            for (lane_key, v) in [
                ("execute", lane.execute_ns),
                ("steal", lane.steal_ns),
                ("idle", lane.idle_ns),
            ] {
                prom::push_sample(
                    &mut out,
                    "flashsim_host_worker_lane_ns",
                    &[("worker", &ws), ("lane", lane_key)],
                    v,
                );
            }
        }
        prom::push_type(&mut out, "flashsim_host_worker_jobs_total", "counter");
        for (w, lane) in self.workers.iter().enumerate() {
            let ws = w.to_string();
            prom::push_sample(
                &mut out,
                "flashsim_host_worker_jobs_total",
                &[("worker", &ws), ("kind", "executed")],
                lane.jobs,
            );
            prom::push_sample(
                &mut out,
                "flashsim_host_worker_jobs_total",
                &[("worker", &ws), ("kind", "stolen")],
                lane.steals,
            );
        }
        out
    }
}

/// Strictly validates a [`HOSTPROF_SCHEMA`] JSONL document: header
/// first with the right schema and counts, exactly one line per phase in
/// [`HostPhase::ALL`] order, phase nanoseconds that sum to the header's
/// `total_ns` **exactly** (the tiling invariant), one admission line
/// whose `rounds` matches the header, and one line per declared worker
/// in index order.
///
/// # Errors
///
/// A human-readable description of the first violation, prefixed with
/// its 1-based line number.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    let mut lines = numbered_lines(text);
    let (ln, header) = lines.next().ok_or("empty hostprof document")?;
    let schema = field_str(header, "schema")
        .ok_or_else(|| format!("line {ln}: missing \"schema\" in header"))?;
    if schema != HOSTPROF_SCHEMA {
        return Err(format!(
            "line {ln}: schema {schema:?}, expected {HOSTPROF_SCHEMA:?}"
        ));
    }
    let total_ns =
        field_u64(header, "total_ns").ok_or_else(|| format!("line {ln}: missing total_ns"))?;
    let phases = field_u64(header, "phases").ok_or_else(|| format!("line {ln}: missing phases"))?;
    if phases != HostPhase::COUNT as u64 {
        return Err(format!(
            "line {ln}: {phases} phases declared, expected {}",
            HostPhase::COUNT
        ));
    }
    let workers =
        field_u64(header, "workers").ok_or_else(|| format!("line {ln}: missing workers"))?;
    let rounds = field_u64(header, "rounds").ok_or_else(|| format!("line {ln}: missing rounds"))?;

    let mut sum = 0u64;
    for expect in HostPhase::ALL {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| format!("truncated: missing phase {:?}", expect.key()))?;
        let got =
            field_str(line, "phase").ok_or_else(|| format!("line {ln}: expected a phase line"))?;
        if got != expect.key() {
            return Err(format!(
                "line {ln}: phase {got:?} out of order, expected {:?}",
                expect.key()
            ));
        }
        let ns = field_u64(line, "ns").ok_or_else(|| format!("line {ln}: missing ns"))?;
        sum = sum
            .checked_add(ns)
            .ok_or_else(|| format!("line {ln}: phase sum overflows"))?;
    }
    if sum != total_ns {
        return Err(format!(
            "phase sum {sum}ns does not tile the {total_ns}ns window"
        ));
    }

    let (ln, adm) = lines.next().ok_or("truncated: missing admission line")?;
    if field_str(adm, "ev") != Some("admission") {
        return Err(format!("line {ln}: expected the admission line"));
    }
    let adm_rounds =
        field_u64(adm, "rounds").ok_or_else(|| format!("line {ln}: missing rounds"))?;
    if adm_rounds != rounds {
        return Err(format!(
            "line {ln}: admission rounds {adm_rounds} != header rounds {rounds}"
        ));
    }
    for key in [
        "admitted_ops",
        "forked_nodes",
        "rejected_horizon",
        "rejected_shared",
        "rejected_opaque",
        "stopped_sync",
        "stopped_quota",
        "stopped_end",
    ] {
        if field_u64(adm, key).is_none() {
            return Err(format!("line {ln}: missing {key}"));
        }
    }

    for w in 0..workers {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| format!("truncated: missing worker {w} line"))?;
        let got =
            field_u64(line, "worker").ok_or_else(|| format!("line {ln}: expected worker line"))?;
        if got != w {
            return Err(format!(
                "line {ln}: worker {got} out of order, expected {w}"
            ));
        }
        for key in ["execute_ns", "steal_ns", "idle_ns", "jobs", "steals"] {
            if field_u64(line, key).is_none() {
                return Err(format!("line {ln}: missing {key}"));
            }
        }
    }
    if let Some((ln, _)) = lines.next() {
        return Err(format!("line {ln}: trailing content after worker lanes"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_ns(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let hp = HostProf::disabled();
        assert!(!hp.is_enabled());
        hp.run_begin();
        {
            let _g = hp.phase(HostPhase::Scan);
        }
        hp.round(RoundTally::default());
        hp.count_opaque(7);
        hp.record_workers(vec![WorkerLane::default()]);
        hp.run_end();
        assert!(hp.report().is_none());
    }

    #[test]
    fn phases_tile_the_window_exactly() {
        let hp = HostProf::new();
        hp.run_begin();
        {
            let _g = hp.phase(HostPhase::Scan);
            spin_ns(200_000);
        }
        {
            let _g = hp.phase(HostPhase::Serial);
            spin_ns(100_000);
            {
                let _inner = hp.phase(HostPhase::Ckpt);
                spin_ns(100_000);
            }
        }
        hp.run_end();
        let r = hp.report().expect("finalized report");
        assert_eq!(r.unaccounted_ns(), 0, "phases must tile the window");
        assert!(r.phase(HostPhase::Scan) >= 200_000);
        assert!(r.phase(HostPhase::Ckpt) >= 100_000);
        assert!(r.phase(HostPhase::Serial) >= 100_000);
        assert!(r.total_ns >= 400_000);
        // Nested Ckpt time is not double-charged to Serial.
        assert!(r.phase(HostPhase::Serial) < r.total_ns - r.phase(HostPhase::Ckpt));
    }

    #[test]
    fn admission_counters_accumulate() {
        let hp = HostProf::new();
        hp.run_begin();
        hp.round(RoundTally {
            admitted_ops: 100,
            forked_nodes: 4,
            rejected_horizon: 2,
            rejected_shared: 1,
            stopped_sync: 1,
            stopped_quota: 0,
            stopped_end: 0,
        });
        hp.round(RoundTally {
            admitted_ops: 50,
            forked_nodes: 2,
            ..RoundTally::default()
        });
        hp.count_opaque(9);
        hp.run_end();
        let a = hp.report().expect("report").admission;
        assert_eq!(a.rounds, 2);
        assert_eq!(a.admitted_ops, 150);
        assert_eq!(a.forked_nodes, 6);
        assert_eq!(a.rejected_horizon, 2);
        assert_eq!(a.rejected_shared, 1);
        assert_eq!(a.rejected_opaque, 9);
        assert_eq!(a.stopped_sync, 1);
    }

    #[test]
    fn rerun_resets_accumulators() {
        let hp = HostProf::new();
        hp.run_begin();
        hp.count_opaque(5);
        hp.run_end();
        hp.run_begin();
        hp.run_end();
        let r = hp.report().expect("report");
        assert_eq!(r.admission.rejected_opaque, 0);
        assert_eq!(r.unaccounted_ns(), 0);
    }

    fn sample_report() -> HostReport {
        let hp = HostProf::new();
        hp.run_begin();
        {
            let _g = hp.phase(HostPhase::Fork);
            spin_ns(50_000);
        }
        hp.round(RoundTally {
            admitted_ops: 10,
            forked_nodes: 2,
            rejected_horizon: 1,
            ..RoundTally::default()
        });
        hp.record_workers(vec![
            WorkerLane {
                execute_ns: 1000,
                steal_ns: 10,
                idle_ns: 500,
                jobs: 3,
                steals: 1,
            },
            WorkerLane::default(),
        ]);
        hp.run_end();
        hp.report().expect("report")
    }

    #[test]
    fn jsonl_roundtrips_through_the_validator() {
        let r = sample_report();
        let text = r.to_jsonl();
        validate_jsonl(&text).expect("schema-valid export");
        // Line inventory: header + 7 phases + admission + 2 workers.
        assert_eq!(text.lines().count(), 1 + HostPhase::COUNT + 1 + 2);
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let r = sample_report();
        let good = r.to_jsonl();
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl(&good.replace(HOSTPROF_SCHEMA, "flashsim-hostprof-v0")).is_err());
        // Tamper with one phase's ns: the tiling invariant must fail.
        let mut broken = HostReport {
            phase_ns: r.phase_ns,
            ..r.clone()
        };
        broken.phase_ns[HostPhase::Fork.index()] += 1;
        assert!(validate_jsonl(&broken.to_jsonl())
            .unwrap_err()
            .contains("tile"));
        // Drop a worker line.
        let truncated: String = good
            .lines()
            .take(good.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_jsonl(&truncated).is_err());
        // Reorder phases.
        let swapped = good.replacen("\"phase\":\"drive\"", "\"phase\":\"scan\"", 1);
        assert!(validate_jsonl(&swapped).is_err());
    }

    #[test]
    fn validator_rejects_an_overflowing_phase_sum() {
        let mut hostile = sample_report();
        hostile.phase_ns = [u64::MAX; HostPhase::COUNT];
        assert!(validate_jsonl(&hostile.to_jsonl())
            .expect_err("phase sum does not fit")
            .contains("overflows"));
    }

    #[test]
    fn prometheus_export_uses_exposition_format() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE flashsim_host_phase_ns gauge"));
        assert!(text.contains("flashsim_host_phase_ns{phase=\"fork\"}"));
        assert!(text.contains("flashsim_host_fork_outcomes_total{outcome=\"admitted_ops\"} 10"));
        assert!(text.contains("flashsim_host_worker_lane_ns{worker=\"0\",lane=\"execute\"} 1000"));
        assert!(text.contains("flashsim_host_worker_jobs_total{worker=\"1\",kind=\"stolen\"} 0"));
    }

    #[test]
    fn report_fractions_and_phase_keys() {
        let r = sample_report();
        let total: f64 = HostPhase::ALL.iter().map(|&p| r.fraction(p)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(HostPhase::ALL.len(), HostPhase::COUNT);
        for (i, p) in HostPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
