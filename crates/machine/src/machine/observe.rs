//! The machine's side of the observer spine: the one broadcast of its
//! [`Observers`] bundle, the heartbeat, and the machine-layer probes that
//! feed the handles.

use super::Machine;
use flashsim_engine::{MetricId, MetricKind, Observers, Telemetry, Time, Window, WorkerPool};
use std::time::{Duration, Instant};

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

/// One windowed progress sample: what a heartbeat line reports.
struct ProgressSample {
    /// Whole-run average events/sec.
    rate: f64,
    /// Windowed (since previous sample) live events/sec.
    live: f64,
    /// Fraction of the watchdog op budget consumed, when armed.
    budget_frac: Option<f64>,
}

/// Wall-clock window tracker producing [`ProgressSample`]s.
struct ProgressMeter {
    started: Instant,
    last: Instant,
    last_ops: u64,
}

impl ProgressMeter {
    /// Starts the meter now; the first sample's window spans from here.
    fn start() -> ProgressMeter {
        let now = Instant::now();
        ProgressMeter {
            started: now,
            last: now,
            last_ops: 0,
        }
    }

    /// Whether at least `every` has elapsed since the previous sample.
    fn due(&self, now: Instant, every: Duration) -> bool {
        now.duration_since(self.last) >= every
    }

    /// Closes the current window and returns its sample.
    fn sample(&mut self, now: Instant, ops: u64, budget: Option<u64>) -> ProgressSample {
        let total_secs = now.duration_since(self.started).as_secs_f64();
        let window_secs = now.duration_since(self.last).as_secs_f64();
        let rate = if total_secs > 0.0 {
            ops as f64 / total_secs
        } else {
            0.0
        };
        let live = if window_secs > 0.0 {
            ops.saturating_sub(self.last_ops) as f64 / window_secs
        } else {
            rate
        };
        self.last = now;
        self.last_ops = ops;
        ProgressSample {
            rate: if rate.is_finite() { rate } else { 0.0 },
            live: if live.is_finite() { live } else { 0.0 },
            budget_frac: budget
                .filter(|b| *b > 0)
                .map(|b| ops as f64 / b as f64)
                .filter(|f| f.is_finite()),
        }
    }
}

/// Live progress, throttled by host wall-clock time: with
/// [`MachineConfig::heartbeat`](crate::MachineConfig::heartbeat) set, at
/// most one stderr line per interval reporting sim time, ops executed,
/// host throughput, watchdog-budget progress, and the current spread
/// between the fastest and slowest node clocks. The scheduling
/// loops tick it once per decision; the `Instant` read is amortized to
/// once per 4096 ticks so an attached-but-quiet heartbeat stays off the
/// hot path.
pub(super) struct Heartbeat {
    every: Duration,
    pub(super) ticks: u64,
    meter: ProgressMeter,
    /// Baseline for the parallel policy's worker-occupancy fraction:
    /// `(wall instant, cumulative busy ns across workers)` at the last
    /// emitted sample. `None` until the first sample under a worker
    /// pool (the fraction needs a window to average over).
    last_busy: Option<(Instant, u64)>,
}

impl Heartbeat {
    pub(super) fn new(every: Duration) -> Heartbeat {
        Heartbeat {
            every,
            ticks: 0,
            meter: ProgressMeter::start(),
            last_busy: None,
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
    /// reader of either: the checkpoint cut at a barrier release, and the
    /// end of the run, failed or not.
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

    /// One scheduling-decision tick of the heartbeat. One branch when no
    /// heartbeat is attached; when attached, the wall clock is read once
    /// per 4096 ticks and a line is printed at most once per interval.
    /// `pool` is the parallel policy's worker pool, whose busy counters
    /// are read only when a sample is due.
    pub(super) fn heartbeat_tick(&mut self, executed: u64, pool: Option<&WorkerPool>) {
        let budget = self.cfg.max_ops;
        let Some(hb) = self.heartbeat.as_mut() else {
            return;
        };
        hb.ticks += 1;
        if hb.ticks & HEARTBEAT_SAMPLE_MASK != 0 {
            return;
        }
        let now = Instant::now();
        if !hb.meter.due(now, hb.every) {
            return;
        }
        let sample = hb.meter.sample(now, executed, budget);
        let mut busy = String::new();
        if let Some(pool) = pool {
            // Average worker occupancy over the window since the last
            // sample: host-side observability only, never simulated
            // state.
            let busy_ns: u64 = (0..pool.size()).map(|w| pool.busy_ns(w)).sum();
            if let Some((prev_at, prev_ns)) = hb.last_busy {
                let wall_ns = now.duration_since(prev_at).as_nanos();
                if wall_ns > 0 && pool.size() > 0 {
                    let frac = busy_ns.saturating_sub(prev_ns) as f64
                        / (wall_ns as f64 * pool.size() as f64);
                    busy = format!(" busy={:.0}%", 100.0 * frac.min(1.0));
                }
            }
            hb.last_busy = Some((now, busy_ns));
        }
        let lead = self.lead_clock();
        let lag = self.cores.iter().map(|c| c.now()).fold(lead, Time::min);
        let skew = lead.saturating_since(lag);
        let budget = match sample.budget_frac {
            Some(f) => format!("{:.1}%", 100.0 * f),
            None => "-".to_owned(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_meter_windows_are_exact() {
        let mut meter = ProgressMeter::start();
        let t0 = meter.started;
        let s1 = meter.sample(t0 + Duration::from_secs(2), 100, Some(1000));
        assert!((s1.rate - 50.0).abs() < 1e-9);
        assert!((s1.live - 50.0).abs() < 1e-9);
        assert!((s1.budget_frac.unwrap_or(0.0) - 0.1).abs() < 1e-12);
        // Second window: 2s more, 300 new ops → live 150/s, rate 100/s.
        let s2 = meter.sample(t0 + Duration::from_secs(4), 400, None);
        assert!((s2.rate - 100.0).abs() < 1e-9);
        assert!((s2.live - 150.0).abs() < 1e-9);
        assert!(s2.budget_frac.is_none());
        assert!(meter.due(t0 + Duration::from_secs(5), Duration::from_millis(900)));
        assert!(!meter.due(t0 + Duration::from_secs(4), Duration::from_millis(900)));
    }
}
