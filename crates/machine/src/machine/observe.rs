//! The machine's side of the observer spine: the one broadcast of its
//! [`Observers`] bundle and the machine-layer probes that feed the
//! handles.

use super::Machine;
use flashsim_engine::{MetricId, MetricKind, Observers, Telemetry, Time, Window};

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
}
