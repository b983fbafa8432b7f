//! Sim-time telemetry: a typed metrics registry sampled into a bounded
//! time-series buffer.
//!
//! The paper's central diagnostic is *occupancy* — FLASH's performance
//! cliffs come from MAGIC inbound-queue depth and hot-spotted
//! directories, and the simulators err exactly where they omit that
//! queueing (PAPER §3, hotspot study). The accounting profiler
//! ([`crate::account`]) attributes cycles after the fact; this module
//! shows how queue depths, utilization, and hit rates *evolve over
//! simulated time*, so a run report can display the occupancy ramp the
//! paper describes instead of a single end-of-run number.
//!
//! # Model
//!
//! Three metric kinds, all integer-valued in the engine's native units:
//!
//! - **Counter** — monotone event tally (cache hits, NACKs, messages).
//!   Buckets hold per-window increments; `total` is the run sum.
//! - **Gauge** — instantaneous level sampled at update sites (pending
//!   -miss depth, directory-pool fill, clock skew). Buckets hold the
//!   per-window *maximum*; `total` is the run-wide maximum. Max is
//!   commutative, so gauges tolerate the intra-window reordering that
//!   laggard-batched scheduling permits for node-local work.
//! - **Occupancy** — a time-weighted integrator exactly like
//!   [`crate::account`]'s books: each update integrates the previous
//!   level over the elapsed picoseconds, splitting the integral exactly
//!   at bucket boundaries. `total` is the full integral in value·ps, so
//!   `total / elapsed_ps` is the time-weighted mean with no rounding
//!   loss (conservation is asserted in `tests/telemetry_determinism.rs`).
//!
//! Every metric is a [`BUCKETS`]-slot series on the registry's one
//! `window::Axis`, the bucket axis the accounting phases use too: its
//! width starts at the configured cadence and doubles whenever simulated
//! time outgrows the buffer, merging adjacent buckets — sums for
//! counters and occupancy, maxes for gauges. Memory is therefore
//! constant regardless of run length, and the final series depends only
//! on the recorded samples and the final width, not on when the
//! doublings happened (see [`crate::window`]).
//!
//! # Determinism
//!
//! Metrics registered with [`Telemetry::register`] must be driven only
//! by scheduling-policy-invariant state (see `tests/sched_equivalence.rs`);
//! they appear in the stable JSONL export and are byte-identical across
//! `SchedPolicy::Batched` and `Reference`. Scheduler-internal series
//! (laggard-heap occupancy, batch lengths, event-queue depth) are
//! registered with [`Telemetry::register_volatile`] and are excluded
//! from the stable export — they are meaningful per policy but not
//! comparable across policies.
//!
//! # Disabled path
//!
//! [`Telemetry`] follows the [`crate::account::Profiler`] handle
//! pattern: a disabled handle is `None` inside, and every record call is
//! a single branch. The repo benchmark (`benchmark/`) runs with
//! telemetry compiled in but off.
//!
//! # Per-op sites
//!
//! A counter or gauge written once per simulated op goes through a
//! caller-held [`Window`] ([`Telemetry::count_in`],
//! [`Telemetry::gauge_in`]): events inside the window's bucket are folded
//! without the registry's lock, and the fold is published when an event
//! leaves the bucket or a reader is due ([`Telemetry::publish`]). Sums
//! and maxima commute and buckets only ever merge, so the exports cannot
//! tell the difference (see [`crate::window`]).
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::telemetry::{MetricKind, Telemetry};
//! use flashsim_engine::time::{Time, TimeDelta};
//!
//! let tel = Telemetry::with_cadence(TimeDelta::from_ns(100));
//! let depth = tel.register("magic.queue_ps", MetricKind::Occupancy);
//! tel.occupy(depth, Time::ZERO, 3); // level 3 from t=0
//! tel.occupy(depth, Time::from_ns(200), 1); // level 1 from t=200ns
//! let series = tel.snapshot(Time::from_ns(300)).unwrap();
//! let m = series.get("magic.queue_ps").unwrap();
//! // 3·200ns + 1·100ns = 700 000 value·ps
//! assert_eq!(m.total, 700_000);
//! assert!(series.conserved());
//! ```

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use crate::ckpt::{bad, Ckpt, CkptError};
use crate::jsonl::{self, Step, Walk};
use crate::time::{Time, TimeDelta};
use crate::window::{self, halve, last_filled, Axis, Series, Window, BUCKETS, INITIAL_WIDTH_PS};

/// Schema identifier stamped on the JSONL header line.
pub const SCHEMA: &str = "flashsim-telemetry-v1";

/// What a metric measures, fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event tally; buckets sum.
    Counter,
    /// Instantaneous level; buckets hold the per-window maximum.
    Gauge,
    /// Time-weighted integrator in value·picoseconds; buckets hold
    /// exact per-window integrals.
    Occupancy,
}

impl MetricKind {
    /// Stable lower-case key used in exports.
    pub const fn key(self) -> &'static str {
        ["counter", "gauge", "occupancy"][self as usize]
    }
}

/// Every metric kind, for reading one back by its key.
const KINDS: [MetricKind; 3] = [
    MetricKind::Counter,
    MetricKind::Gauge,
    MetricKind::Occupancy,
];

/// Handle to a registered metric. Cheap to copy and store in hot
/// structs; recording through an id on a disabled registry is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

impl MetricId {
    /// Sentinel id held by instrumented structs before/without
    /// registration; all record calls through it are no-ops.
    pub const NONE: MetricId = MetricId(u32::MAX);
}

#[derive(Debug, Clone)]
struct Registry {
    axis: Axis,
    /// High-water mark of any recorded timestamp, so a snapshot taken
    /// at the final core clock still covers late memory-system events.
    high_ps: u64,
    /// The registered metrics, each in its exported shape.
    metrics: Vec<MetricSeries>,
    /// Per metric (occupancy only): the current level and the time it
    /// was established.
    levels: Vec<(u64, u64)>,
}

impl Registry {
    fn new(cadence_ps: u64) -> Registry {
        Registry {
            axis: Axis::new(cadence_ps),
            high_ps: 0,
            metrics: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// The bucket index of `ps`, growing the buffer to hold it: counter
    /// and occupancy pairs merge by sum, gauge pairs by max.
    #[inline]
    fn slot(&mut self, ps: u64) -> usize {
        self.high_ps = self.high_ps.max(ps);
        self.axis.slot(ps, || {
            for m in &mut self.metrics {
                match m.kind {
                    MetricKind::Gauge => halve(&mut m.buckets, u64::max),
                    _ => halve(&mut m.buckets, u64::saturating_add),
                }
            }
        })
    }

    fn count(&mut self, id: MetricId, ps: u64, n: u64) {
        let idx = self.slot(ps);
        if let Some(m) = self.metrics.get_mut(id.0 as usize) {
            m.total = m.total.saturating_add(n);
            m.buckets[idx] = m.buckets[idx].saturating_add(n);
        }
    }

    fn gauge(&mut self, id: MetricId, ps: u64, value: u64) {
        let idx = self.slot(ps);
        if let Some(m) = self.metrics.get_mut(id.0 as usize) {
            m.total = m.total.max(value);
            m.buckets[idx] = m.buckets[idx].max(value);
        }
    }

    fn occupy(&mut self, id: MetricId, at: Time, value: u64) {
        let ps = at.as_ps();
        self.slot(ps);
        let bucket_ps = self.axis.width();
        let i = id.0 as usize;
        if let (Some(m), Some(level)) = (self.metrics.get_mut(i), self.levels.get_mut(i)) {
            if ps > level.1 {
                integrate(bucket_ps, m, level, ps);
            }
            level.0 = value;
        }
    }

    /// Closes all occupancy integrals at `end` and freezes the registry
    /// into an exportable series. Non-destructive (works on a clone),
    /// so a snapshot can be taken mid-run.
    fn snapshot(&self, end: Time) -> TelemetrySeries {
        let mut reg = self.clone();
        let end_ps = end.as_ps().max(reg.high_ps);
        reg.slot(end_ps);
        let bucket_ps = reg.axis.width();
        for (m, level) in reg.metrics.iter_mut().zip(&mut reg.levels) {
            if m.kind == MetricKind::Occupancy && end_ps > level.1 {
                integrate(bucket_ps, m, level, end_ps);
            }
        }
        TelemetrySeries {
            bucket_ps,
            end_ps,
            metrics: reg.metrics,
        }
    }
}

impl Series for Registry {
    type Key = MetricId;

    /// Publishes what a [`Window`] folded — a sum for a counter, a
    /// maximum for a gauge — at `ps`, the largest timestamp it absorbed.
    fn publish(&mut self, id: MetricId, (ps, fold): (u64, u64)) {
        match self.metrics.get(id.0 as usize).map(|m| m.kind) {
            Some(MetricKind::Gauge) => self.gauge(id, ps, fold),
            _ => self.count(id, ps, fold),
        }
    }

    fn axis_at(&mut self, ps: u64) -> &Axis {
        self.slot(ps);
        &self.axis
    }
}

/// Integrates the `(value, since)` level over `[since, to_ps)`, splitting
/// the integral exactly at bucket boundaries so per-bucket integrals
/// always sum to the running total. Caller guarantees `to_ps` fits the
/// buffer.
fn integrate(bucket_ps: u64, m: &mut MetricSeries, level: &mut (u64, u64), to_ps: u64) {
    let mut cur = level.1;
    while cur < to_ps {
        let idx = (cur / bucket_ps) as usize;
        let bucket_end = (idx as u64 + 1).saturating_mul(bucket_ps);
        let stop = bucket_end.min(to_ps);
        let area = level.0.saturating_mul(stop - cur);
        m.buckets[idx] = m.buckets[idx].saturating_add(area);
        m.total = m.total.saturating_add(area);
        cur = stop;
    }
    level.1 = to_ps;
}

/// Runs `f` on the locked registry: the out-of-line half of a record
/// call, so the call's inlined guard stays one branch at every site.
#[inline(never)]
fn locked(inner: &Mutex<Registry>, f: impl FnOnce(&mut Registry)) {
    f(&mut inner.lock().expect("telemetry registry poisoned")); // gate: allow
}

/// Handle to the sim-time telemetry registry. Clones share one
/// registry (like [`crate::account::Profiler`]); the default handle is
/// disabled and every record call through it costs exactly one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl Telemetry {
    /// A disabled handle: registration returns [`MetricId::NONE`] and
    /// all record calls are one-branch no-ops.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled registry with the default ~1 µs initial bucket width.
    pub fn new() -> Telemetry {
        Telemetry::with_cadence(TimeDelta::from_ps(INITIAL_WIDTH_PS))
    }

    /// An enabled registry whose initial bucket width is `cadence`
    /// (clamped to ≥ 1 ps); the width doubles as simulated time
    /// outgrows the [`BUCKETS`]-slot buffer.
    pub fn with_cadence(cadence: TimeDelta) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Registry::new(cadence.as_ps())))),
        }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or looks up, by name and node label) a metric: the one
    /// body of the four `register*` calls.
    fn add(&self, name: &'static str, node: Option<u32>, kind: MetricKind, vol: bool) -> MetricId {
        let Some(inner) = &self.inner else {
            return MetricId::NONE;
        };
        let reg = &mut *inner.lock().expect("telemetry registry poisoned"); // gate: allow
        let known = |m: &MetricSeries| m.name == name && m.node == node;
        if let Some(i) = reg.metrics.iter().position(known) {
            return MetricId(i as u32);
        }
        reg.metrics
            .push(MetricSeries::empty(name.to_string(), node, kind, vol));
        reg.levels.push((0, 0));
        MetricId((reg.metrics.len() - 1) as u32)
    }

    /// Registers (or looks up, by name) a policy-invariant metric.
    /// Returns [`MetricId::NONE`] on a disabled handle.
    pub fn register(&self, name: &'static str, kind: MetricKind) -> MetricId {
        self.add(name, None, kind, false)
    }

    /// Registers a per-node variant of `name` — a bounded-cardinality
    /// `node` label, so e.g. `magic.queue_ps` can name *which* home node
    /// melted under a hotspot. The aggregate metric keeps the bare name;
    /// callers bound the label set (one id per node, registered up
    /// front), never one per transaction.
    pub fn register_node(&self, name: &'static str, node: u32, kind: MetricKind) -> MetricId {
        self.add(name, Some(node), kind, false)
    }

    /// Registers a scheduler-dependent metric, excluded from the stable
    /// JSONL export (see the module docs on determinism).
    pub fn register_volatile(&self, name: &'static str, kind: MetricKind) -> MetricId {
        self.add(name, None, kind, true)
    }

    /// Registers a per-node scheduler-dependent metric — the volatile
    /// counterpart of [`Telemetry::register_node`], excluded from the
    /// stable JSONL export. Used for per-worker occupancy series whose
    /// values depend on host scheduling, never on simulated behaviour.
    pub fn register_node_volatile(
        &self,
        name: &'static str,
        node: u32,
        kind: MetricKind,
    ) -> MetricId {
        self.add(name, Some(node), kind, true)
    }

    /// Adds `n` to a counter at simulated time `at`.
    #[inline]
    pub fn count(&self, id: MetricId, at: Time, n: u64) {
        let Some(inner) = &self.inner else { return };
        locked(inner, |reg| reg.count(id, at.as_ps(), n));
    }

    /// Records an instantaneous gauge level at simulated time `at`.
    #[inline]
    pub fn gauge(&self, id: MetricId, at: Time, value: u64) {
        let Some(inner) = &self.inner else { return };
        locked(inner, |reg| reg.gauge(id, at.as_ps(), value));
    }

    /// [`count`](Telemetry::count) for a site that fires per simulated
    /// op: the event is folded into the caller's [`Window`] `w` (which
    /// must serve only `id`) and reaches the registry when a later event
    /// leaves the window's bucket or at [`publish`](Telemetry::publish).
    #[inline]
    pub fn count_in(&self, w: &mut Window, id: MetricId, at: Time, n: u64) {
        let Some(inner) = &self.inner else { return };
        if !w.sum(at.as_ps(), n) {
            window::turn(inner, w, id, at.as_ps(), n);
        }
    }

    /// [`gauge`](Telemetry::gauge) through a caller-held [`Window`]; see
    /// [`count_in`](Telemetry::count_in).
    #[inline]
    pub fn gauge_in(&self, w: &mut Window, id: MetricId, at: Time, value: u64) {
        let Some(inner) = &self.inner else { return };
        if !w.max(at.as_ps(), value) {
            window::turn(inner, w, id, at.as_ps(), value);
        }
    }

    /// Moves whatever `w` holds for `id` into the registry and empties
    /// it. Every window must be published before the registry is read
    /// ([`snapshot`](Telemetry::snapshot), [`ckpt`](Telemetry::ckpt)).
    pub fn publish(&self, w: &mut Window, id: MetricId) {
        let Some(inner) = &self.inner else { return };
        if let Some(held) = w.take() {
            locked(inner, |reg| reg.publish(id, held));
        }
    }

    /// Establishes a new occupancy level at simulated time `at`,
    /// integrating the previous level over the elapsed picoseconds.
    /// Updates with `at` earlier than the integrator's clock only take
    /// effect going forward (the integral never runs backwards).
    #[inline]
    pub fn occupy(&self, id: MetricId, at: Time, value: u64) {
        let Some(inner) = &self.inner else { return };
        locked(inner, |reg| reg.occupy(id, at, value));
    }

    /// Freezes the registry into an exportable series, closing all
    /// occupancy integrals at `end` (or at the latest recorded sample,
    /// whichever is later). `None` on a disabled handle.
    pub fn snapshot(&self, end: Time) -> Option<TelemetrySeries> {
        let inner = self.inner.as_ref()?;
        let reg = inner.lock().expect("telemetry registry poisoned"); // gate: allow
        Some(reg.snapshot(end))
    }

    /// Walks the numeric state of every **stable** (non-volatile) metric,
    /// plus the shared bucket geometry. Volatile metrics are
    /// scheduler-shaped, excluded from the stable export, and registered
    /// lazily inside the run loops — a resumed run re-registers and
    /// re-records them from scratch, which is exactly what a straight
    /// run of the remaining ops would have produced for its own policy.
    /// A restoring registry re-registered its stable metrics in the same
    /// deterministic order (machine construction guarantees this); each
    /// is matched by name and node label before its state is read.
    pub fn ckpt(&self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.section("telemetry")?;
        c.interlock("enabled", &[u64::from(self.inner.is_some())])?;
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let reg = &mut *inner.lock().expect("telemetry registry poisoned"); // gate: allow
        reg.axis.ckpt(c, "bucket_ps", |c| {
            c.u64("high_ps", &mut reg.high_ps)?;
            let stable = reg.metrics.iter().filter(|m| !m.volatile).count();
            let count = c.count("metrics", stable)?;
            if count != stable {
                return Err(bad(
                    "metrics",
                    format!("{count} saved, {stable} registered"),
                ));
            }
            let levels = reg.levels.iter_mut();
            for (m, level) in reg
                .metrics
                .iter_mut()
                .zip(levels)
                .filter(|(m, _)| !m.volatile)
            {
                let want = m.node.map_or(u64::MAX, u64::from);
                let mut node = want;
                c.name("name", &m.name)?;
                c.u64("node", &mut node)?;
                if node != want {
                    return Err(bad(
                        "name",
                        format!("{} node={node}, expected {want}", m.name),
                    ));
                }
                c.u64("total", &mut m.total)?;
                c.u64("last_value", &mut level.0)?;
                c.u64("last_at", &mut level.1)?;
                c.u64s("buckets", &mut m.buckets, BUCKETS..=BUCKETS)?;
            }
            let last = reg.metrics.iter().map(|m| last_filled(&m.buckets));
            Ok(last.max().unwrap_or(0))
        })
    }
}

/// One exported metric: its registration metadata, run total, and the
/// [`BUCKETS`]-slot time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSeries {
    /// Registered name, e.g. `magic.queue_ps`.
    pub name: String,
    /// Per-node variant; `None` is the aggregate across nodes.
    pub node: Option<u32>,
    /// Counter, gauge, or occupancy — fixes bucket/total semantics.
    pub kind: MetricKind,
    /// Scheduler-dependent; excluded from the stable JSONL export.
    pub volatile: bool,
    /// Counter: run sum. Gauge: run max. Occupancy: full integral in
    /// value·picoseconds.
    pub total: u64,
    /// Per-window values; window `i` covers `[i·bucket_ps, (i+1)·bucket_ps)`.
    pub buckets: Vec<u64>,
}

/// A frozen telemetry snapshot: every registered metric's bounded time
/// series plus the common bucket geometry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySeries {
    /// Final bucket width in picoseconds (after any doublings).
    pub bucket_ps: u64,
    /// The instant the snapshot was closed at, in picoseconds.
    pub end_ps: u64,
    /// All registered metrics, in registration order.
    pub metrics: Vec<MetricSeries>,
}

impl MetricSeries {
    /// A series with nothing recorded yet.
    fn empty(name: String, node: Option<u32>, kind: MetricKind, volatile: bool) -> MetricSeries {
        MetricSeries {
            name,
            node,
            kind,
            volatile,
            total: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Its declaration in a telemetry header; read, a metric keeps its
    /// [`key`](MetricSeries::key) as its name.
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        let mut key = Cow::Owned(self.key());
        w.field("name", &mut key)?;
        w.tag("kind", &mut self.kind, &KINDS, MetricKind::key)?;
        w.field("total", &mut self.total)?;
        if w.reading() {
            self.name = key.into_owned();
        }
        Ok(())
    }

    /// The unique export key: the bare name for aggregates, a
    /// Prometheus-style `name{node="N"}` for per-node variants.
    pub fn key(&self) -> String {
        match self.node {
            Some(n) => format!("{}{{node=\"{n}\"}}", self.name),
            None => self.name.clone(),
        }
    }
}

impl TelemetrySeries {
    /// Looks the *aggregate* metric up by registered name (per-node
    /// variants share the base name and are never returned).
    pub fn get(&self, name: &str) -> Option<&MetricSeries> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.node.is_none())
    }

    /// Checks the bucketing invariant for every metric: counter and
    /// occupancy buckets sum exactly to `total`; the gauge bucket max
    /// equals `total`. This is what makes "time-weighted mean ×
    /// elapsed == integral" exact in integer arithmetic.
    pub fn conserved(&self) -> bool {
        self.metrics.iter().all(|m| match m.kind {
            MetricKind::Gauge => m.buckets.iter().copied().max().unwrap_or(0) == m.total,
            _ => m.buckets.iter().fold(0u64, |acc, &b| acc.saturating_add(b)) == m.total,
        })
    }

    /// The `flashsim-telemetry-v1` document: volatile metrics are
    /// excluded, so the output is byte-identical across scheduling
    /// policies and reruns (compare whole series with `==` to include
    /// them). One header line, then one line per non-empty bucket.
    pub fn to_jsonl(&self) -> String {
        let mut stable = self.clone();
        stable.metrics.retain(|m| !m.volatile);
        Walk::render(|w| stable.walk(w))
    }

    /// The one walk of the document [`to_jsonl`](Self::to_jsonl) renders;
    /// bucket values are keyed in metric order.
    fn walk(&mut self, w: &mut Walk<'_>) -> Step {
        let blank = MetricSeries::empty(String::new(), None, MetricKind::Counter, false);
        w.line(|w| {
            w.fixed("schema", SCHEMA)?;
            w.field("bucket_ps", &mut self.bucket_ps)?;
            w.field("end_ps", &mut self.end_ps)?;
            w.list("metrics", &mut self.metrics, &blank, MetricSeries::walk)
        })?;
        for b in 0..BUCKETS {
            let filled = self.metrics.iter().any(|m| m.buckets[b] != 0);
            w.maybe(filled, |w| {
                w.line(|w| {
                    let this = w.derived("bucket", b as u64)? == b as u64;
                    this.then_some(()).ok_or("another bucket's line")?;
                    let start = (b as u64).checked_mul(self.bucket_ps);
                    w.derived("start_ps", start.ok_or("the bucket starts past u64")?)?;
                    w.nested("values", |w| {
                        self.metrics.iter_mut().try_for_each(|m| {
                            let key = m.key();
                            w.maybe(m.buckets[b] != 0, |w| w.field(&key, &mut m.buckets[b]))
                        })
                    })
                })
            })?;
        }
        Ok(())
    }

    /// Human-readable table: one row per metric with its total and a
    /// 64-column ASCII sparkline of the bucket series (each column
    /// scaled to the metric's own peak bucket).
    pub fn render(&self) -> String {
        const RAMP: [char; 6] = [' ', '.', ':', '=', '#', '@'];
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: bucket {} ns, end {} ns\n",
            self.bucket_ps / 1000,
            self.end_ps / 1000
        ));
        let name_w = self
            .metrics
            .iter()
            .map(|m| m.key().len())
            .max()
            .unwrap_or(6)
            .max(6);
        out.push_str(&format!(
            "{:<name_w$}  {:<9}  {:>20}  series\n",
            "metric", "kind", "total"
        ));
        for m in &self.metrics {
            let peak = m.buckets.iter().copied().max().unwrap_or(0);
            let spark: String = m
                .buckets
                .iter()
                .map(|&v| {
                    if peak == 0 {
                        ' '
                    } else {
                        RAMP[((v as u128 * (RAMP.len() as u128 - 1)).div_ceil(peak as u128))
                            as usize]
                    }
                })
                .collect();
            out.push_str(&format!(
                "{:<name_w$}  {:<9}  {:>20}  |{}|{}\n",
                m.key(),
                m.kind.key(),
                m.total,
                spark,
                if m.volatile { "  (volatile)" } else { "" }
            ));
        }
        out
    }
}

/// Strictly validates a `flashsim-telemetry-v1` document (the `flashsim
/// validate telemetry` gate): it must read through the one walk, have a
/// non-zero `bucket_ps` and every total
/// [conserved](TelemetrySeries::conserved), and render back to its bytes.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    let check = |s: &TelemetrySeries, ()| match (s.bucket_ps, s.conserved()) {
        (0, _) => Err("bucket_ps is 0".to_string()),
        (_, false) => Err("a metric's total is not what its buckets fold to".to_string()),
        _ => Ok(()),
    };
    jsonl::validate(
        text,
        TelemetrySeries::default(),
        TelemetrySeries::walk,
        check,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        let id = tel.register("x", MetricKind::Counter);
        assert_eq!(id, MetricId::NONE);
        tel.count(id, Time::from_ns(1), 5);
        tel.gauge(id, Time::from_ns(2), 5);
        tel.occupy(id, Time::from_ns(3), 5);
        assert!(tel.snapshot(Time::from_ns(10)).is_none());
    }

    #[test]
    fn register_is_idempotent_by_name() {
        let tel = Telemetry::new();
        let a = tel.register("m", MetricKind::Counter);
        let b = tel.register("m", MetricKind::Counter);
        assert_eq!(a, b);
        let c = tel.register("n", MetricKind::Gauge);
        assert_ne!(a, c);
    }

    #[test]
    fn counters_bucket_and_conserve() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ns(10));
        let id = tel.register("hits", MetricKind::Counter);
        tel.count(id, Time::from_ns(1), 2);
        tel.count(id, Time::from_ns(15), 3);
        tel.count(id, Time::from_ns(15), 1);
        let s = tel.snapshot(Time::from_ns(20)).expect("enabled");
        let m = s.get("hits").expect("registered");
        assert_eq!(m.total, 6);
        assert_eq!(m.buckets[0], 2);
        assert_eq!(m.buckets[1], 4);
        assert!(s.conserved());
    }

    #[test]
    fn gauges_take_window_maxima() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ns(10));
        let id = tel.register("depth", MetricKind::Gauge);
        tel.gauge(id, Time::from_ns(1), 4);
        tel.gauge(id, Time::from_ns(2), 9);
        tel.gauge(id, Time::from_ns(3), 1);
        tel.gauge(id, Time::from_ns(11), 5);
        let s = tel.snapshot(Time::from_ns(20)).expect("enabled");
        let m = s.get("depth").expect("registered");
        assert_eq!(m.buckets[0], 9);
        assert_eq!(m.buckets[1], 5);
        assert_eq!(m.total, 9);
        assert!(s.conserved());
    }

    #[test]
    fn occupancy_integral_is_exact_across_boundaries() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ps(100));
        let id = tel.register("occ", MetricKind::Occupancy);
        tel.occupy(id, Time::from_ps(0), 7); // 7 over [0,250)
        tel.occupy(id, Time::from_ps(250), 2); // 2 over [250,400)
        let s = tel.snapshot(Time::from_ps(400)).expect("enabled");
        let m = s.get("occ").expect("registered");
        assert_eq!(m.buckets[0], 700);
        assert_eq!(m.buckets[1], 700);
        assert_eq!(m.buckets[2], 7 * 50 + 2 * 50);
        assert_eq!(m.buckets[3], 200);
        assert_eq!(m.total, 7 * 250 + 2 * 150);
        assert!(s.conserved());
    }

    #[test]
    fn occupancy_ignores_backwards_time() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ps(100));
        let id = tel.register("occ", MetricKind::Occupancy);
        tel.occupy(id, Time::from_ps(200), 5);
        // Earlier than the integrator clock: only the level changes.
        tel.occupy(id, Time::from_ps(100), 3);
        let s = tel.snapshot(Time::from_ps(300)).expect("enabled");
        let m = s.get("occ").expect("registered");
        assert_eq!(m.total, 3 * 100);
        assert!(s.conserved());
    }

    #[test]
    fn doubling_merge_preserves_totals_and_placement() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ps(1));
        let c = tel.register("c", MetricKind::Counter);
        let g = tel.register("g", MetricKind::Gauge);
        tel.count(c, Time::from_ps(3), 10);
        tel.gauge(g, Time::from_ps(3), 10);
        // Force several doublings: 1 ps buckets can only cover 64 ps.
        tel.count(c, Time::from_ps(1000), 1);
        tel.gauge(g, Time::from_ps(1000), 4);
        let s = tel.snapshot(Time::from_ps(1000)).expect("enabled");
        assert_eq!(s.bucket_ps, 16); // 1 → 16 covers 1000 in 64 buckets
        let cm = s.get("c").expect("counter");
        assert_eq!(cm.buckets[3 / 16], 10);
        assert_eq!(cm.buckets[1000 / 16], 1);
        assert_eq!(cm.total, 11);
        let gm = s.get("g").expect("gauge");
        assert_eq!(gm.buckets[0], 10);
        assert_eq!(gm.buckets[1000 / 16], 4);
        assert_eq!(gm.total, 10);
        assert!(s.conserved());
    }

    #[test]
    fn stable_jsonl_excludes_volatile_and_validates() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ns(1));
        let stable = tel.register("mem.l1_hits", MetricKind::Counter);
        let vol = tel.register_volatile("sched.heap", MetricKind::Gauge);
        tel.count(stable, Time::from_ns(2), 3);
        tel.gauge(vol, Time::from_ns(2), 9);
        let s = tel.snapshot(Time::from_ns(10)).expect("enabled");
        let stable_out = s.to_jsonl();
        assert!(stable_out.contains("mem.l1_hits"));
        assert!(!stable_out.contains("sched.heap"));
        let heap = s
            .get("sched.heap")
            .expect("the series keeps volatile metrics");
        assert!(heap.volatile && heap.total == 9);
        validate_jsonl(&stable_out).expect("stable export validates");
    }

    #[test]
    fn node_variants_coexist_with_the_aggregate() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ns(10));
        let agg = tel.register("magic.queue_ps", MetricKind::Occupancy);
        let n0 = tel.register_node("magic.queue_ps", 0, MetricKind::Occupancy);
        let n3 = tel.register_node("magic.queue_ps", 3, MetricKind::Occupancy);
        assert_ne!(agg, n0);
        assert_ne!(n0, n3);
        assert_eq!(
            tel.register_node("magic.queue_ps", 0, MetricKind::Occupancy),
            n0
        );
        tel.occupy(agg, Time::ZERO, 7);
        tel.occupy(n3, Time::ZERO, 7);
        let s = tel.snapshot(Time::from_ns(10)).expect("enabled");
        // `get` finds the aggregate, never a node variant.
        assert_eq!(s.get("magic.queue_ps").expect("aggregate").node, None);
        assert_eq!(s.get("magic.queue_ps").expect("aggregate").total, 70_000);
        let node = |n| {
            s.metrics
                .iter()
                .find(|m| m.name == "magic.queue_ps" && m.node == Some(n))
        };
        let per_node = node(3).expect("node 3");
        assert_eq!(per_node.total, 70_000);
        assert_eq!(per_node.key(), "magic.queue_ps{node=\"3\"}");
        assert_eq!(node(1), None);
        // Exports stay well-formed with the labelled key.
        let jsonl = s.to_jsonl();
        assert!(jsonl.contains("magic.queue_ps{node=\\\"3\\\"}"));
        validate_jsonl(&jsonl).expect("labelled export validates");
        assert!(s.conserved());
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let tel = Telemetry::new();
        let id = tel.register("m", MetricKind::Counter);
        tel.count(id, Time::from_ns(5), 1);
        let good = tel.snapshot(Time::from_ns(10)).expect("enabled").to_jsonl();
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"schema\":\"other\"}").is_err());
        let bad_metric = good.replacen("\"m\":", "\"zzz\":", 1);
        assert!(validate_jsonl(&bad_metric).is_err());
        let mut out_of_range = good.clone();
        out_of_range.push_str("{\"bucket\":99,\"start_ps\":0,\"values\":{\"m\":1}}\n");
        assert!(validate_jsonl(&out_of_range).is_err());
        let mut not_increasing = good.clone();
        let bucket_line = good
            .lines()
            .nth(1)
            .expect("series has one bucket line")
            .to_string();
        not_increasing.push_str(&bucket_line);
        not_increasing.push('\n');
        assert!(validate_jsonl(&not_increasing).is_err());
    }

    #[test]
    fn ckpt_roundtrip_restores_stable_series() {
        use crate::ckpt::{CkptReader, CkptWriter};
        let tel = Telemetry::with_cadence(TimeDelta::from_ns(10));
        let c = tel.register("hits", MetricKind::Counter);
        let o = tel.register_node("queue_ps", 2, MetricKind::Occupancy);
        let v = tel.register_volatile("sched.heap", MetricKind::Gauge);
        tel.count(c, Time::from_ns(3), 4);
        tel.occupy(o, Time::ZERO, 5);
        tel.occupy(o, Time::from_ns(25), 1);
        tel.gauge(v, Time::from_ns(5), 9);
        let mut w = CkptWriter::new("t");
        tel.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        // Fresh registry with the same registration order.
        let tel2 = Telemetry::with_cadence(TimeDelta::from_ns(10));
        tel2.register("hits", MetricKind::Counter);
        tel2.register_node("queue_ps", 2, MetricKind::Occupancy);
        let mut r = CkptReader::open(&text).expect("intact");
        tel2.ckpt(&mut Ckpt::Load(&mut r)).expect("loads");
        r.finish().expect("consumed");
        // Continue recording identically on both; stable exports match.
        for t in [&tel, &tel2] {
            let c = t.register("hits", MetricKind::Counter);
            let o = t.register_node("queue_ps", 2, MetricKind::Occupancy);
            t.count(c, Time::from_ns(40), 2);
            t.occupy(o, Time::from_ns(50), 0);
        }
        let a = tel.snapshot(Time::from_ns(60)).expect("enabled");
        let b = tel2.snapshot(Time::from_ns(60)).expect("enabled");
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(b.conserved());
        // Registration mismatch fails closed.
        let tel3 = Telemetry::with_cadence(TimeDelta::from_ns(10));
        tel3.register("misses", MetricKind::Counter);
        tel3.register_node("queue_ps", 2, MetricKind::Occupancy);
        let mut r = CkptReader::open(&text).expect("intact");
        assert!(tel3.ckpt(&mut Ckpt::Load(&mut r)).is_err());
    }

    /// The saved checkpoint of `tel` with `bucket_ps` replaced by `width`,
    /// its checksum recomputed, restored into a fresh default registry
    /// with one counter.
    fn restore_with_width(tel: &Telemetry, width: u64) -> Result<(), CkptError> {
        use crate::ckpt::{provenance_hash, CkptReader, CkptWriter};
        let mut w = CkptWriter::new("t");
        tel.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        let body = &text[..text.rfind("checksum=").expect("a trailer")];
        let from = format!("bucket_ps={INITIAL_WIDTH_PS}\n");
        assert!(body.contains(&from));
        let body = body.replacen(&from, &format!("bucket_ps={width}\n"), 1);
        let text = format!("{body}checksum={}\n", provenance_hash(&body));
        let fresh = Telemetry::new();
        fresh.register("hits", MetricKind::Counter);
        let mut r = CkptReader::open(&text).expect("resealed");
        fresh.ckpt(&mut Ckpt::Load(&mut r))?;
        let series = fresh.snapshot(Time::ZERO).expect("enabled");
        assert!(series.to_jsonl().contains("\"bucket\":63"));
        Ok(())
    }

    #[test]
    fn restore_rejects_a_width_no_event_could_reach() {
        let tel = Telemetry::new();
        let id = tel.register("hits", MetricKind::Counter);
        tel.count(id, Time::from_ps(63 * INITIAL_WIDTH_PS), 1);
        // Bucket 63 filled: at 2^57 it starts inside u64, at 2^60 past it.
        restore_with_width(&tel, 1 << 57).expect("a reachable width restores");
        for (width, why) in [
            (1 << 60, "overflows"),
            (0, "zero"),
            (3 << 20, "not doubled"),
        ] {
            match restore_with_width(&tel, width) {
                Err(CkptError::Parse { key, .. }) => assert_eq!(key, "bucket_ps", "{why}"),
                other => panic!("bucket_ps={width} ({why}) restored: {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_is_not_destructive() {
        let tel = Telemetry::with_cadence(TimeDelta::from_ns(10));
        let id = tel.register("occ", MetricKind::Occupancy);
        tel.occupy(id, Time::ZERO, 4);
        let first = tel.snapshot(Time::from_ns(10)).expect("enabled");
        // Recording continues after a mid-run snapshot.
        tel.occupy(id, Time::from_ns(20), 0);
        let second = tel.snapshot(Time::from_ns(20)).expect("enabled");
        assert_eq!(first.get("occ").expect("occ").total, 4 * 10_000);
        assert_eq!(second.get("occ").expect("occ").total, 4 * 20_000);
    }
}
