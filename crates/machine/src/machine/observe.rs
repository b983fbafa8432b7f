//! The machine's side of the observer spine: the one broadcast of its
//! [`Observers`] bundle, the attach whose argument is a host object the
//! caller owns (the stream sink), the heartbeat, and the machine-layer
//! probes that feed the handles.

use super::Machine;
use flashsim_engine::stream::{FileSink, ProgressMeter, RunInfo, StreamEmitter, StreamSink};
use flashsim_engine::{
    HostPhase, MetricId, MetricKind, Observers, Telemetry, Time, Window, WorkerPool,
};

/// Metric ids for the machine layer's own telemetry probes: cache
/// hit/miss counters, pending-miss depth, barrier clock skew. All
/// [`MetricId::NONE`] under a disabled registry; each probe site then
/// costs exactly the registry handle's disabled-path branch.
#[derive(Debug, Clone, Copy)]
pub(super) struct TelIds {
    pub(super) l1_hits: MetricId,
    pub(super) l1_misses: MetricId,
    pub(super) l2_hits: MetricId,
    pub(super) l2_misses: MetricId,
    pub(super) pending_depth: MetricId,
    pub(super) barrier_skew: MetricId,
}

impl TelIds {
    pub(super) fn register(telemetry: &Telemetry) -> TelIds {
        TelIds {
            l1_hits: telemetry.register("mem.l1_hits", MetricKind::Counter),
            l1_misses: telemetry.register("mem.l1_misses", MetricKind::Counter),
            l2_hits: telemetry.register("mem.l2_hits", MetricKind::Counter),
            l2_misses: telemetry.register("mem.l2_misses", MetricKind::Counter),
            pending_depth: telemetry.register("mem.pending_depth", MetricKind::Gauge),
            barrier_skew: telemetry.register("machine.barrier_skew_ps", MetricKind::Gauge),
        }
    }
}

/// One node's [`Window`]s onto the series written per simulated op: the
/// four hit/miss counters of [`resolve_private`](super::env) and the
/// compute residual of the per-op mark. They live in the node's
/// [`NodeMem`](super::NodeMem), so whoever executes the node — the serial
/// loops through `Machine::mems`, a forked phase through its slot — holds
/// them exclusively, and they move with the node across fork and join.
#[derive(Debug, Default)]
pub(super) struct NodeObs {
    pub(super) l1_hits: Window,
    pub(super) l1_misses: Window,
    pub(super) l2_hits: Window,
    pub(super) l2_misses: Window,
    pub(super) compute: Window,
}

impl NodeObs {
    fn publish(&mut self, obs: &Observers, tel: &TelIds, node: u32) {
        obs.telemetry.publish(&mut self.l1_hits, tel.l1_hits);
        obs.telemetry.publish(&mut self.l1_misses, tel.l1_misses);
        obs.telemetry.publish(&mut self.l2_hits, tel.l2_hits);
        obs.telemetry.publish(&mut self.l2_misses, tel.l2_misses);
        obs.profiler.publish(&mut self.compute, node);
    }

    fn is_empty(&self) -> bool {
        let counters = [
            &self.l1_hits,
            &self.l1_misses,
            &self.l2_hits,
            &self.l2_misses,
        ];
        counters.into_iter().all(Window::is_empty) && self.compute.is_empty()
    }
}

/// The scheduler's own series, written once per decision, each with its
/// [`Window`]. Volatile: the reference policy has no batches, so these
/// are policy-shaped by construction and excluded from the stable export.
#[derive(Debug)]
pub(super) struct SchedObs {
    /// `sched.batches`: decisions taken.
    batches: (MetricId, Window),
    /// `sched.batch_ops`: ops admitted per decision.
    batch_ops: (MetricId, Window),
    /// `sched.heap_nodes`: runnable nodes in the laggard heap.
    heap: (MetricId, Window),
}

impl SchedObs {
    /// Registered volatile: available for inspection, excluded from the
    /// stable export because batching reshapes them by design.
    pub(super) fn register(telemetry: &Telemetry) -> SchedObs {
        let volatile = |name, kind| (telemetry.register_volatile(name, kind), Window::new());
        SchedObs {
            batches: volatile("sched.batches", MetricKind::Counter),
            batch_ops: volatile("sched.batch_ops", MetricKind::Counter),
            heap: volatile("sched.heap_nodes", MetricKind::Gauge),
        }
    }

    /// Records a decision taken at `at` with `runnable` nodes in the heap.
    #[inline]
    pub(super) fn open(&mut self, telemetry: &Telemetry, at: Time, runnable: u64) {
        telemetry.count_in(&mut self.batches.1, self.batches.0, at, 1);
        telemetry.gauge_in(&mut self.heap.1, self.heap.0, at, runnable);
    }

    /// Records that the decision taken at `at` admitted `ops` ops.
    #[inline]
    pub(super) fn close(&mut self, telemetry: &Telemetry, at: Time, ops: u64) {
        telemetry.count_in(&mut self.batch_ops.1, self.batch_ops.0, at, ops);
    }

    fn publish(&mut self, telemetry: &Telemetry) {
        for (id, w) in [&mut self.batches, &mut self.batch_ops, &mut self.heap] {
            telemetry.publish(w, *id);
        }
    }
}

/// The heartbeat reads the wall clock on every tick whose count has these
/// bits clear: once per 4096 scheduling decisions.
pub(super) const HEARTBEAT_SAMPLE_MASK: u64 = 0xFFF;

/// Live progress, throttled by host wall-clock time: with
/// [`MachineConfig::heartbeat`](crate::MachineConfig::heartbeat) set, at
/// most one stderr line per interval reporting sim time, ops executed,
/// host throughput, watchdog-budget progress, and the current spread
/// between the fastest and slowest node clocks. The scheduling
/// loops tick it once per decision; the `Instant` read is amortized to
/// once per 4096 ticks so an attached-but-quiet heartbeat stays off the
/// hot path. The windowed rate/budget computation lives in the shared
/// [`ProgressMeter`], so the stderr line and the stream's advisory
/// `progress` events can never report different numbers.
pub(super) struct Heartbeat {
    every: std::time::Duration,
    /// Whether to print the stderr line (false for the silent
    /// stream-only heartbeat a stream sink auto-attaches).
    stderr: bool,
    pub(super) ticks: u64,
    meter: ProgressMeter,
    /// Baseline for the parallel policy's worker-occupancy fraction:
    /// `(wall instant, cumulative busy ns across workers)` at the last
    /// emitted sample. `None` until the first sample under a worker
    /// pool (the fraction needs a window to average over).
    last_busy: Option<(std::time::Instant, u64)>,
    /// Per-worker counterpart of `last_busy`: cumulative busy ns per
    /// worker at the last emitted sample, for the advisory per-worker
    /// utilization array on progress events. Empty until the first
    /// sample under a worker pool.
    last_worker: Vec<u64>,
}

impl Heartbeat {
    pub(super) fn new(every: std::time::Duration, stderr: bool) -> Heartbeat {
        Heartbeat {
            every,
            stderr,
            ticks: 0,
            meter: ProgressMeter::start(),
            last_busy: None,
            last_worker: Vec::new(),
        }
    }
}

impl Machine {
    /// Hands the machine's observer bundle to every layer below it: each
    /// core (tagged with its node id) and the memory system, which
    /// forwards it to its network. The machine's own telemetry series are
    /// registered before the first broadcast (see [`Machine::new`]).
    pub(super) fn broadcast(&mut self) {
        for (n, core) in self.cores.iter_mut().enumerate() {
            core.attach(&self.obs, n as u32);
        }
        self.memsys.attach(&self.obs);
    }

    /// Moves everything the run loops hold in [`Window`]s into the
    /// telemetry registry and the accounting ledger. Runs before every
    /// reader of either: the stream bucket and the checkpoint cut at a
    /// barrier release, and the end of the run, failed or not.
    pub(super) fn publish_observers(&mut self) {
        for (n, mem) in self.mems.iter_mut().enumerate() {
            mem.obs.publish(&self.obs, &self.tel, n as u32);
        }
        self.sched_obs.publish(&self.obs.telemetry);
    }

    /// Whether [`publish_observers`](Machine::publish_observers) has
    /// nothing to move (the scheduler's volatile series aside: no
    /// checkpoint or stable export carries them).
    pub(super) fn observers_published(&self) -> bool {
        self.mems.iter().all(|mem| mem.obs.is_empty())
    }

    /// The machine's observer bundle. A completed run returns every
    /// handle's snapshot in its [`RunResult`](super::RunResult); this is
    /// how to read what a failed run recorded.
    pub fn observers(&self) -> &Observers {
        &self.obs
    }

    /// Attaches a live `flashsim-stream-v1` event sink: the machine
    /// emits a `start` header, one closed telemetry bucket per barrier
    /// release, checkpoint-written markers, advisory progress
    /// heartbeats, and an `end` terminator (see
    /// [`flashsim_engine::stream`]). Streaming never perturbs simulated
    /// state — the deterministic events are a pure function of the
    /// run's provenance, and a sink error silently stops the stream
    /// rather than failing the run.
    ///
    /// On a machine restored from a checkpoint the emitter resumes at
    /// the stored stream position, so the continuation appends exactly
    /// the events the uninterrupted run would have produced. Setting
    /// [`MachineConfig::stream`] attaches a durable [`FileSink`]
    /// automatically at [`Machine::run`] (create on a fresh run, append
    /// on resume).
    pub fn attach_stream_sink(&mut self, sink: Box<dyn StreamSink>) {
        let mut em = StreamEmitter::new(sink);
        em.set_position(self.stream_pos.0, self.stream_pos.1);
        self.stream = Some(em);
    }

    /// The stream emitter's `(next_seq, last_emitted_ps)` position —
    /// what checkpoints store, and what the journal truncates a
    /// restored cell's stream file back to.
    pub fn stream_position(&self) -> (u64, u64) {
        self.stream
            .as_ref()
            .map_or(self.stream_pos, StreamEmitter::position)
    }

    /// Run-entry stream setup: opens the configured file sink if none
    /// is attached yet, auto-attaches a silent heartbeat so progress
    /// events flow even without [`MachineConfig::heartbeat`], and emits
    /// the `start` header (fresh streams only) with the bucket
    /// baselines seeded from current cumulative totals — zeros on a
    /// fresh run, the restored quiescent-point totals on resume.
    pub(super) fn open_stream(&mut self) {
        if self.stream.is_none() {
            if let Some(path) = self.cfg.stream.clone() {
                let opened = if self.stream_pos.0 == 0 {
                    FileSink::create(&path)
                } else {
                    FileSink::append(&path)
                };
                match opened {
                    Ok(sink) => self.attach_stream_sink(Box::new(sink)),
                    Err(e) => {
                        eprintln!("[flashsim] stream sink {} unavailable: {e}", path.display());
                    }
                }
            }
        }
        if self.stream.is_none() {
            return;
        }
        if self.heartbeat.is_none() {
            let every = std::time::Duration::from_millis(250);
            self.heartbeat = Some(Heartbeat::new(every, false));
        }
        let at = Time::from_ps(self.stream_position().1);
        let metrics = self.stream_totals(at);
        let account = self.stream_account(at);
        let info = RunInfo {
            provenance: flashsim_engine::ckpt::provenance_hash(&self.provenance()),
            config: self.cfg.label(),
            workload: self.workload.clone(),
            seed: self.workload_seed,
            nodes: self.cfg.nodes,
            sched: self.cfg.sched.key().to_owned(),
            budget_ops: self.cfg.watchdog.max_ops,
        };
        if let Some(em) = self.stream.as_mut() {
            let _stream = self.obs.hostprof.phase(HostPhase::Stream);
            em.begin(&info, &metrics, account.as_deref());
        }
    }

    /// The stable metric set at quiescent time `at` as `(key, kind,
    /// cumulative total)` — the stream emitter's bucket basis. Volatile
    /// (scheduler-shaped) metrics are excluded, exactly as in the
    /// stable JSONL export, so the stream stays policy-invariant.
    pub(super) fn stream_totals(&self, at: Time) -> Vec<(String, MetricKind, u64)> {
        self.obs
            .telemetry
            .snapshot(at)
            .map(|snap| {
                snap.metrics
                    .iter()
                    .filter(|m| !m.volatile)
                    .map(|m| (m.key(), m.kind, m.total))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Cumulative per-class accounting ledger at quiescent time `at`,
    /// when a profiler is attached. At a barrier release every node
    /// clock equals `at`, so the snapshot is exact and policy-invariant.
    pub(super) fn stream_account(&self, at: Time) -> Option<Vec<u64>> {
        let ends = vec![at; self.cfg.nodes as usize];
        self.obs
            .profiler
            .snapshot(&ends)
            .map(|acc| acc.class_totals().to_vec())
    }

    /// One scheduling-decision tick of the heartbeat. One branch when no
    /// heartbeat is attached; when attached, the wall clock is read once
    /// per 4096 ticks and a line/event is emitted at most once per
    /// interval. The stderr line and the stream's `progress` event are
    /// rendered from the same [`ProgressMeter`] sample, so they always
    /// agree. `pool` is the parallel policy's worker pool, whose busy
    /// counters are read only when a sample is due.
    pub(super) fn heartbeat_tick(&mut self, executed: u64, pool: Option<&WorkerPool>) {
        let budget = self.cfg.watchdog.max_ops;
        let Some(hb) = self.heartbeat.as_mut() else {
            return;
        };
        hb.ticks += 1;
        if hb.ticks & HEARTBEAT_SAMPLE_MASK != 0 {
            return;
        }
        let now = std::time::Instant::now();
        if !hb.meter.due(now, hb.every) {
            return;
        }
        let mut sample = hb.meter.sample(now, executed, budget);
        if let Some(pool) = pool {
            // Average worker occupancy over the window since the last
            // sample: host-side observability only, never simulated
            // state (progress events are advisory by contract).
            let lanes: Vec<u64> = (0..pool.size()).map(|w| pool.busy_ns(w)).collect();
            let busy_ns: u64 = lanes.iter().sum();
            if let Some((prev_at, prev_ns)) = hb.last_busy {
                let wall_ns = now.duration_since(prev_at).as_nanos();
                if wall_ns > 0 && !lanes.is_empty() {
                    let frac = busy_ns.saturating_sub(prev_ns) as f64
                        / (wall_ns as f64 * lanes.len() as f64);
                    sample.busy = Some(frac.min(1.0));
                    if hb.last_worker.len() == lanes.len() {
                        sample.worker_busy = lanes
                            .iter()
                            .zip(&hb.last_worker)
                            .map(|(cur, prev)| {
                                (cur.saturating_sub(*prev) as f64 / wall_ns as f64).min(1.0)
                            })
                            .collect();
                    }
                }
            }
            hb.last_busy = Some((now, busy_ns));
            hb.last_worker = lanes;
        }
        let stderr = hb.stderr;
        let lead = self.lead_clock();
        let lag = self.cores.iter().map(|c| c.now()).fold(lead, Time::min);
        let skew = lead.saturating_since(lag);
        if let Some(em) = self.stream.as_mut() {
            let _stream = self.obs.hostprof.phase(HostPhase::Stream);
            em.progress(lead.as_ps(), &sample, skew.as_ps());
        }
        if stderr {
            let budget = match sample.budget_frac {
                Some(f) => format!("{:.1}%", 100.0 * f),
                None => "-".to_owned(),
            };
            let busy = match sample.busy {
                Some(f) => format!(" busy={:.0}%", 100.0 * f),
                None => String::new(),
            };
            eprintln!(
                "[flashsim] sim={:.3}ms ops={executed} rate={:.0}/s live={:.0}/s \
                 budget={budget} skew={}ns{busy}",
                (lead - Time::ZERO).as_ns_f64() / 1e6,
                sample.rate,
                sample.live,
                skew.as_ns_f64(),
            );
        }
    }
}
