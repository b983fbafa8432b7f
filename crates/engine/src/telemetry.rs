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
//! Series are bounded the same way as accounting phases: a fixed
//! [`BUCKETS`]-slot buffer whose window width starts at the configured
//! cadence and doubles (merging adjacent buckets — sums for counters
//! and occupancy, maxes for gauges) whenever simulated time outgrows
//! the buffer. Memory is therefore constant regardless of run length,
//! and because `floor(floor(t/w)/2) == floor(t/2w)` the final series
//! depends only on the recorded samples and the final width, not on
//! when the doublings happened.
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

use std::sync::{Arc, Mutex};

use crate::ckpt::{bad, Ckpt, CkptError};
use crate::jsonl::{leading_u64, push_json_escaped, scan_strings_after};
use crate::time::{Time, TimeDelta};
use crate::window::Window;

/// Schema identifier stamped on the JSONL header line.
pub const SCHEMA: &str = "flashsim-telemetry-v1";

/// Number of time buckets per series; fixed so telemetry memory is
/// constant regardless of run length (mirrors `account::PHASES`).
pub const BUCKETS: usize = 64;

/// Default initial bucket width (~1 µs), matching the accounting
/// profiler's initial phase width.
const DEFAULT_BUCKET_PS: u64 = 1 << 20;

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
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Occupancy => "occupancy",
        }
    }
}

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
struct Metric {
    name: &'static str,
    /// Per-node variant of `name` (e.g. `magic.queue_ps` broken out by
    /// home node). `None` is the aggregate.
    node: Option<u32>,
    kind: MetricKind,
    volatile: bool,
    total: u64,
    /// Occupancy only: current level and the time it was established.
    last_value: u64,
    last_at: u64,
    buckets: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Registry {
    bucket_ps: u64,
    /// High-water mark of any recorded timestamp, so a snapshot taken
    /// at the final core clock still covers late memory-system events.
    high_ps: u64,
    /// The bucket `[cur_lo, cur_hi)` the last counter or gauge event fell
    /// in, and its index: consecutive events mostly share a bucket, and
    /// finding it again then takes no division. Empty (`cur_hi == 0`)
    /// until the first event and after every change of `bucket_ps`.
    cur_lo: u64,
    cur_hi: u64,
    cur_idx: usize,
    metrics: Vec<Metric>,
}

impl Registry {
    fn new(cadence_ps: u64) -> Registry {
        Registry {
            bucket_ps: cadence_ps.max(1),
            high_ps: 0,
            cur_lo: 0,
            cur_hi: 0,
            cur_idx: 0,
            metrics: Vec::new(),
        }
    }

    fn register(
        &mut self,
        name: &'static str,
        node: Option<u32>,
        kind: MetricKind,
        volatile: bool,
    ) -> MetricId {
        if let Some(i) = self
            .metrics
            .iter()
            .position(|m| m.name == name && m.node == node)
        {
            return MetricId(i as u32);
        }
        self.metrics.push(Metric {
            name,
            node,
            kind,
            volatile,
            total: 0,
            last_value: 0,
            last_at: 0,
            buckets: vec![0; BUCKETS],
        });
        MetricId((self.metrics.len() - 1) as u32)
    }

    /// Doubles the bucket width (merging adjacent pairs) until `ps`
    /// fits inside the buffer. Counter/occupancy pairs sum; gauge
    /// pairs take the max.
    fn grow_to(&mut self, ps: u64) {
        self.high_ps = self.high_ps.max(ps);
        while ps / self.bucket_ps >= BUCKETS as u64 {
            for m in &mut self.metrics {
                for i in 0..BUCKETS / 2 {
                    let (a, b) = (m.buckets[2 * i], m.buckets[2 * i + 1]);
                    m.buckets[i] = match m.kind {
                        MetricKind::Gauge => a.max(b),
                        _ => a.saturating_add(b),
                    };
                }
                for b in &mut m.buckets[BUCKETS / 2..] {
                    *b = 0;
                }
            }
            self.bucket_ps = self.bucket_ps.saturating_mul(2);
            self.cur_hi = 0;
        }
    }

    /// The bucket index of `ps`, growing the buffer to hold it.
    #[inline]
    fn slot(&mut self, ps: u64) -> usize {
        self.high_ps = self.high_ps.max(ps);
        if !(self.cur_lo..self.cur_hi).contains(&ps) {
            self.seek(ps);
        }
        self.cur_idx
    }

    /// Moves the cached bucket to the one holding `ps`.
    #[cold]
    fn seek(&mut self, ps: u64) {
        self.grow_to(ps);
        let idx = ps / self.bucket_ps;
        self.cur_idx = idx as usize;
        self.cur_lo = idx * self.bucket_ps;
        self.cur_hi = self.cur_lo.saturating_add(self.bucket_ps);
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

    /// Publishes what a [`Window`] folded — a sum for a counter, a
    /// maximum for a gauge — at `ps`, the largest timestamp it absorbed.
    fn publish(&mut self, id: MetricId, (ps, fold): (u64, u64)) {
        match self.metrics.get(id.0 as usize).map(|m| m.kind) {
            Some(MetricKind::Gauge) => self.gauge(id, ps, fold),
            _ => self.count(id, ps, fold),
        }
    }

    fn occupy(&mut self, id: MetricId, at: Time, value: u64) {
        let ps = at.as_ps();
        self.grow_to(ps);
        let bucket_ps = self.bucket_ps;
        if let Some(m) = self.metrics.get_mut(id.0 as usize) {
            if ps > m.last_at {
                integrate(bucket_ps, m, ps);
            }
            m.last_value = value;
        }
    }

    /// Closes all occupancy integrals at `end` and freezes the registry
    /// into an exportable series. Non-destructive (works on a clone),
    /// so a snapshot can be taken mid-run.
    fn snapshot(&self, end: Time) -> TelemetrySeries {
        let mut reg = self.clone();
        let end_ps = end.as_ps().max(reg.high_ps);
        reg.grow_to(end_ps);
        let bucket_ps = reg.bucket_ps;
        for m in &mut reg.metrics {
            if m.kind == MetricKind::Occupancy && end_ps > m.last_at {
                integrate(bucket_ps, m, end_ps);
            }
        }
        TelemetrySeries {
            bucket_ps,
            end_ps,
            metrics: reg
                .metrics
                .into_iter()
                .map(|m| MetricSeries {
                    name: m.name.to_string(),
                    node: m.node,
                    kind: m.kind,
                    volatile: m.volatile,
                    total: m.total,
                    buckets: m.buckets,
                })
                .collect(),
        }
    }
}

/// Integrates `m.last_value` over `[m.last_at, to_ps)`, splitting the
/// integral exactly at bucket boundaries so per-bucket integrals always
/// sum to the running total. Caller guarantees `to_ps` fits the buffer.
fn integrate(bucket_ps: u64, m: &mut Metric, to_ps: u64) {
    let mut cur = m.last_at;
    while cur < to_ps {
        let idx = (cur / bucket_ps) as usize;
        let bucket_end = (idx as u64 + 1).saturating_mul(bucket_ps);
        let stop = bucket_end.min(to_ps);
        let area = m.last_value.saturating_mul(stop - cur);
        m.buckets[idx] = m.buckets[idx].saturating_add(area);
        m.total = m.total.saturating_add(area);
        cur = stop;
    }
    m.last_at = to_ps;
}

/// The lock-taking half of [`Telemetry::count_in`] and
/// [`Telemetry::gauge_in`], out of line so that the inlined half is two
/// compares and an add: publishes `w`'s fold, if it holds one, and
/// re-aims it at the bucket of the event `(ps, first)` that fell outside
/// it.
#[cold]
#[inline(never)]
fn turn(inner: &Mutex<Registry>, w: &mut Window, id: MetricId, ps: u64, first: u64) {
    let mut reg = inner.lock().expect("telemetry registry poisoned"); // gate: allow
    if let Some(held) = w.take() {
        reg.publish(id, held);
    }
    reg.slot(ps);
    w.aim(reg.cur_lo, reg.cur_hi, ps, first);
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
        Telemetry::with_cadence(TimeDelta::from_ps(DEFAULT_BUCKET_PS))
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

    /// Registers (or looks up, by name) a policy-invariant metric.
    /// Returns [`MetricId::NONE`] on a disabled handle.
    pub fn register(&self, name: &'static str, kind: MetricKind) -> MetricId {
        match &self.inner {
            Some(inner) => inner
                .lock()
                .expect("telemetry registry poisoned") // gate: allow
                .register(name, None, kind, false),
            None => MetricId::NONE,
        }
    }

    /// Registers a per-node variant of `name` — a bounded-cardinality
    /// `node` label, so e.g. `magic.queue_ps` can name *which* home node
    /// melted under a hotspot. The aggregate metric keeps the bare name;
    /// callers bound the label set (one id per node, registered up
    /// front), never one per transaction.
    pub fn register_node(&self, name: &'static str, node: u32, kind: MetricKind) -> MetricId {
        match &self.inner {
            // gate: allow — a poisoned registry lock is a prior panic
            Some(inner) => inner.lock().expect("telemetry registry poisoned").register(
                name,
                Some(node),
                kind,
                false,
            ),
            None => MetricId::NONE,
        }
    }

    /// Registers a scheduler-dependent metric, excluded from the stable
    /// JSONL export (see the module docs on determinism).
    pub fn register_volatile(&self, name: &'static str, kind: MetricKind) -> MetricId {
        match &self.inner {
            Some(inner) => inner
                .lock()
                .expect("telemetry registry poisoned") // gate: allow
                .register(name, None, kind, true),
            None => MetricId::NONE,
        }
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
        match &self.inner {
            // gate: allow — a poisoned registry lock is a prior panic
            Some(inner) => inner.lock().expect("telemetry registry poisoned").register(
                name,
                Some(node),
                kind,
                true,
            ),
            None => MetricId::NONE,
        }
    }

    /// Adds `n` to a counter at simulated time `at`.
    #[inline]
    pub fn count(&self, id: MetricId, at: Time, n: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .expect("telemetry registry poisoned") // gate: allow
            .count(id, at.as_ps(), n);
    }

    /// Records an instantaneous gauge level at simulated time `at`.
    #[inline]
    pub fn gauge(&self, id: MetricId, at: Time, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .expect("telemetry registry poisoned") // gate: allow
            .gauge(id, at.as_ps(), value);
    }

    /// [`count`](Telemetry::count) for a site that fires per simulated
    /// op: the event is folded into the caller's [`Window`] `w` (which
    /// must serve only `id`) and reaches the registry when a later event
    /// leaves the window's bucket or at [`publish`](Telemetry::publish).
    #[inline]
    pub fn count_in(&self, w: &mut Window, id: MetricId, at: Time, n: u64) {
        let Some(inner) = &self.inner else { return };
        if !w.sum(at.as_ps(), n) {
            turn(inner, w, id, at.as_ps(), n);
        }
    }

    /// [`gauge`](Telemetry::gauge) through a caller-held [`Window`]; see
    /// [`count_in`](Telemetry::count_in).
    #[inline]
    pub fn gauge_in(&self, w: &mut Window, id: MetricId, at: Time, value: u64) {
        let Some(inner) = &self.inner else { return };
        if !w.max(at.as_ps(), value) {
            turn(inner, w, id, at.as_ps(), value);
        }
    }

    /// Moves whatever `w` holds for `id` into the registry and empties
    /// it. Every window must be published before the registry is read
    /// ([`snapshot`](Telemetry::snapshot), [`ckpt`](Telemetry::ckpt)).
    pub fn publish(&self, w: &mut Window, id: MetricId) {
        let Some(inner) = &self.inner else { return };
        if let Some(held) = w.take() {
            inner
                .lock()
                .expect("telemetry registry poisoned") // gate: allow
                .publish(id, held);
        }
    }

    /// Establishes a new occupancy level at simulated time `at`,
    /// integrating the previous level over the elapsed picoseconds.
    /// Updates with `at` earlier than the integrator's clock only take
    /// effect going forward (the integral never runs backwards).
    #[inline]
    pub fn occupy(&self, id: MetricId, at: Time, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .expect("telemetry registry poisoned") // gate: allow
            .occupy(id, at, value);
    }

    /// Freezes the registry into an exportable series, closing all
    /// occupancy integrals at `end` (or at the latest recorded sample,
    /// whichever is later). `None` on a disabled handle.
    pub fn snapshot(&self, end: Time) -> Option<TelemetrySeries> {
        self.inner.as_ref().map(|inner| {
            inner
                .lock()
                .expect("telemetry registry poisoned") // gate: allow
                .snapshot(end)
        })
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
        c.u64("bucket_ps", &mut reg.bucket_ps)?;
        if reg.bucket_ps == 0 {
            return Err(bad("bucket_ps", 0));
        }
        if c.loading() {
            reg.cur_hi = 0;
        }
        c.u64("high_ps", &mut reg.high_ps)?;
        let stable = reg.metrics.iter().filter(|m| !m.volatile).count();
        let count = c.count("metrics", stable)?;
        if count != stable {
            return Err(bad(
                "metrics",
                format!("{count} saved, {stable} registered"),
            ));
        }
        for m in reg.metrics.iter_mut().filter(|m| !m.volatile) {
            let want = m.node.map_or(u64::MAX, u64::from);
            let mut node = want;
            c.name("name", m.name)?;
            c.u64("node", &mut node)?;
            if node != want {
                return Err(bad(
                    "name",
                    format!("{} node={node}, expected {want}", m.name),
                ));
            }
            c.u64("total", &mut m.total)?;
            c.u64("last_value", &mut m.last_value)?;
            c.u64("last_at", &mut m.last_at)?;
            c.u64s("buckets", &mut m.buckets, BUCKETS..=BUCKETS)?;
        }
        Ok(())
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySeries {
    /// Final bucket width in picoseconds (after any doublings).
    pub bucket_ps: u64,
    /// The instant the snapshot was closed at, in picoseconds.
    pub end_ps: u64,
    /// All registered metrics, in registration order.
    pub metrics: Vec<MetricSeries>,
}

impl MetricSeries {
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
    /// variants share the base name; use
    /// [`get_node`](TelemetrySeries::get_node) for those).
    pub fn get(&self, name: &str) -> Option<&MetricSeries> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.node.is_none())
    }

    /// Looks a per-node metric variant up.
    pub fn get_node(&self, name: &str, node: u32) -> Option<&MetricSeries> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.node == Some(node))
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
        let included: Vec<&MetricSeries> = self.metrics.iter().filter(|m| !m.volatile).collect();
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str(&format!(
            "\",\"bucket_ps\":{},\"end_ps\":{},\"metrics\":[",
            self.bucket_ps, self.end_ps
        ));
        for (i, m) in included.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            push_json_escaped(&mut out, &m.key());
            out.push_str(&format!(
                "\",\"kind\":\"{}\",\"total\":{}}}",
                m.kind.key(),
                m.total
            ));
        }
        out.push_str("]}\n");
        for b in 0..BUCKETS {
            if included.iter().all(|m| m.buckets[b] == 0) {
                continue;
            }
            out.push_str(&format!(
                "{{\"bucket\":{},\"start_ps\":{},\"values\":{{",
                b,
                b as u64 * self.bucket_ps
            ));
            let mut first = true;
            for m in &included {
                if m.buckets[b] == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                push_json_escaped(&mut out, &m.key());
                out.push_str(&format!("\":{}", m.buckets[b]));
            }
            out.push_str("}}\n");
        }
        out
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

/// Validates `flashsim-telemetry-v1` JSONL structure: schema header,
/// metric declarations, strictly increasing in-range bucket lines whose
/// value keys all refer to declared metrics. Returns a description of
/// the first violation. This is the `flashsim validate telemetry` /
/// `check.sh` gate, hand-rolled like the rest of the JSON layer.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, header)) = lines.next() else {
        return Err("empty telemetry file".to_string());
    };
    let schema_prefix = format!("{{\"schema\":\"{SCHEMA}\"");
    if !header.starts_with(&schema_prefix) {
        return Err(format!("line 1: header must start with {schema_prefix}"));
    }
    for key in ["\"bucket_ps\":", "\"end_ps\":", "\"metrics\":["] {
        if !header.contains(key) {
            return Err(format!("line 1: header missing {key}"));
        }
    }
    let declared = scan_strings_after(header, "\"name\":");
    let mut prev_bucket: Option<u64> = None;
    for (i, line) in lines {
        let n = i + 1;
        let Some(rest) = line.strip_prefix("{\"bucket\":") else {
            return Err(format!("line {n}: expected a {{\"bucket\":…}} line"));
        };
        let Some(bucket) = leading_u64(rest) else {
            return Err(format!("line {n}: bucket index is not an integer"));
        };
        if bucket >= BUCKETS as u64 {
            return Err(format!(
                "line {n}: bucket {bucket} out of range (<{BUCKETS})"
            ));
        }
        if let Some(p) = prev_bucket {
            if bucket <= p {
                return Err(format!("line {n}: bucket {bucket} not after {p}"));
            }
        }
        prev_bucket = Some(bucket);
        if !line.contains("\"start_ps\":") || !line.contains("\"values\":{") {
            return Err(format!("line {n}: missing start_ps or values"));
        }
        let Some(values) = line.split("\"values\":{").nth(1) else {
            return Err(format!("line {n}: malformed values object"));
        };
        for key in scan_strings_after(values, "") {
            if !declared.contains(&key) {
                return Err(format!("line {n}: undeclared metric {key:?}"));
            }
        }
    }
    Ok(())
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
        let per_node = s.get_node("magic.queue_ps", 3).expect("node 3");
        assert_eq!(per_node.total, 70_000);
        assert_eq!(per_node.key(), "magic.queue_ps{node=\"3\"}");
        assert_eq!(s.get_node("magic.queue_ps", 1), None);
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
