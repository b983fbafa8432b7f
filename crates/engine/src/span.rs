//! Causal span trees for sampled memory transactions.
//!
//! Aggregate instruments (stall-class accounting, occupancy telemetry)
//! say *how much* latency each model charges; they cannot follow one
//! transaction end-to-end and say *which protocol leg* FlashLite models
//! and the latency-only NUMA model omits. This module closes that gap
//! with distributed-tracing-style spans: a deterministic seeded sampler
//! picks a subset of demand misses, and every layer the transaction
//! traverses — TLB refill, protocol-processor occupancy, per-hop network
//! legs, directory lookup, NACK/retry loops, bank access, reply path —
//! records a span with parent links and integer-picosecond bounds.
//!
//! The contract that makes span trees *reconcilable* with the
//! [`LatencyBreakdown`](../../flashsim_mem/system/struct.LatencyBreakdown.html)
//! totals of the cycle-accounting layer: each span carries a `charge`,
//! the exact amount the model added to its latency accumulators while
//! inside that span (`ZERO` for structural parents and for work overlapped
//! by the data path). For every sampled transaction the charges tile the
//! transaction's timeline — their sum equals the end-to-end latency in
//! integer picoseconds, and the per-class sums equal the breakdown
//! components exactly. The critical path is then simply the charged spans
//! in start order.
//!
//! Like [`Profiler`](crate::account::Profiler), [`SpanTracer`] is a
//! cloneable handle whose disabled default costs one branch per probe
//! site, so full-speed runs pay nothing.
//!
//! Determinism is a hard requirement: sampling decides by hashing
//! `(seed, node, line, index)` where `index` is the per-(node, line)
//! demand-miss ordinal. The decision never consults host state or
//! scheduling order, so the same transactions are sampled across reruns,
//! across `Batched`/`Reference` scheduling, and — the point of the
//! exercise — across *platforms*, which is what lets `flashsim
//! spans` align the same transaction on FlashLite and NUMA and diff the
//! legs.

use crate::ckpt::{bad, Ckpt, CkptError};
use crate::jsonl::{field_str, field_u64};
use crate::time::{Time, TimeDelta};
use std::sync::{Arc, Mutex};

/// The schema identifier for the span JSONL export.
pub const SCHEMA: &str = "flashsim-span-v1";

/// Sampling plan for the span tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanPlan {
    /// Sampler seed: different seeds pick different transactions.
    pub seed: u64,
    /// Sample one in `period` demand misses (per node/line ordinal
    /// hash); `1` samples everything. `0` is treated as `1`.
    pub period: u64,
    /// Upper bound on recorded transactions; further sampled
    /// transactions are counted as truncated, not recorded.
    pub max_txns: u32,
}

impl SpanPlan {
    /// A plan sampling one in `period` misses.
    pub const fn sampled(seed: u64, period: u64) -> SpanPlan {
        SpanPlan {
            seed,
            period,
            max_txns: 4096,
        }
    }

    /// A plan recording every demand miss (tests, short drives).
    pub const fn all(seed: u64) -> SpanPlan {
        SpanPlan::sampled(seed, 1)
    }

    /// A short human-readable form for run manifests.
    pub fn describe(&self) -> String {
        format!(
            "seed={} period={} max_txns={}",
            self.seed,
            self.period.max(1),
            self.max_txns
        )
    }
}

/// Which latency accumulator a span's charge reconciles against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClass {
    /// Protocol-processor / controller occupancy and queueing.
    Occupancy,
    /// Interconnect flight time and link contention.
    Network,
    /// Bank access, bank queueing, and fixed memory-path latencies.
    Memory,
}

impl SpanClass {
    /// Stable export key.
    pub const fn key(self) -> &'static str {
        match self {
            SpanClass::Occupancy => "occupancy",
            SpanClass::Network => "network",
            SpanClass::Memory => "memory",
        }
    }
}

/// One span in a transaction's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// Position in the transaction's span list (root is 0).
    pub id: u32,
    /// Parent span id (`None` for the root).
    pub parent: Option<u32>,
    /// Leg kind (e.g. `"ni_out"`, `"dir_lookup"`, `"mem_bank"`).
    pub kind: &'static str,
    /// The node whose resource/latency this leg belongs to.
    pub node: u32,
    /// When the leg starts.
    pub start: Time,
    /// When the leg ends.
    pub end: Time,
    /// Accumulator class of the charge (`None` for structural spans and
    /// machine-side legs outside the model's breakdown).
    pub class: Option<SpanClass>,
    /// Exactly what the model added to its accumulators inside this leg;
    /// `ZERO` marks structural spans and overlapped (off-critical-path)
    /// work.
    pub charge: TimeDelta,
}

/// One sampled transaction: identity, protocol case, and its span tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTxn {
    /// Requesting node.
    pub node: u32,
    /// The line address (raw, L2-line-aligned).
    pub line: u64,
    /// Per-(node, line) demand-miss ordinal — the cross-platform
    /// alignment key.
    pub index: u64,
    /// Root kind (e.g. `"read"`, `"write"`, `"upgrade"`).
    pub kind: &'static str,
    /// Protocol-case key, set when the transaction completes.
    pub case: &'static str,
    /// The span tree; `spans[0]` is the root.
    pub spans: Vec<SpanRecord>,
}

impl SpanTxn {
    /// The root span, if the tree is non-empty.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.first()
    }

    /// End-to-end latency (root duration).
    pub fn total(&self) -> TimeDelta {
        match self.root() {
            Some(r) => r.end - r.start,
            None => TimeDelta::ZERO,
        }
    }

    /// Sum of all span charges; equals [`total`](SpanTxn::total) when the
    /// model's legs tile the transaction (the reconciliation invariant).
    pub fn charge_total(&self) -> TimeDelta {
        self.spans
            .iter()
            .fold(TimeDelta::ZERO, |acc, s| acc + s.charge)
    }

    /// Sum of charges in one accumulator class; reconciles against the
    /// matching `LatencyBreakdown` component.
    pub fn class_total(&self, class: SpanClass) -> TimeDelta {
        self.spans
            .iter()
            .filter(|s| s.class == Some(class))
            .fold(TimeDelta::ZERO, |acc, s| acc + s.charge)
    }

    /// The critical path: every charged span, in start order (ties by
    /// id, i.e. recording order). Because charges tile the timeline,
    /// the path's charge sum equals the end-to-end latency.
    pub fn critical_path(&self) -> Vec<&SpanRecord> {
        let mut path: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.charge > TimeDelta::ZERO)
            .collect();
        path.sort_by_key(|s| (s.start, s.id));
        path
    }

    /// Critical-path attribution merged by leg kind, in order of first
    /// appearance on the path.
    pub fn leg_attribution(&self) -> Vec<(&'static str, TimeDelta)> {
        let mut out: Vec<(&'static str, TimeDelta)> = Vec::new();
        for s in self.critical_path() {
            match out.iter_mut().find(|(k, _)| *k == s.kind) {
                Some((_, t)) => *t += s.charge,
                None => out.push((s.kind, s.charge)),
            }
        }
        out
    }

    /// The distinct leg kinds in this tree (order of first appearance),
    /// excluding the root — the platform signature the span diff
    /// compares.
    pub fn leg_kinds(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in self.spans.iter().skip(1) {
            if !out.contains(&s.kind) {
                out.push(s.kind);
            }
        }
        out
    }

    /// True if every child span nests within its parent's bounds and
    /// parents precede children. Charged spans must nest *exactly*; a
    /// zero-charged span may end past its parent — a background tail,
    /// e.g. a sharing writeback that completes after the processor
    /// restarts. Tails never break the tiling invariant precisely
    /// because they carry no charge.
    pub fn nested(&self) -> bool {
        self.spans.iter().enumerate().all(|(i, s)| {
            s.id as usize == i
                && s.start <= s.end
                && match s.parent {
                    None => i == 0,
                    Some(p) => {
                        (p as usize) < i
                            && self.spans[p as usize].start <= s.start
                            && (s.end <= self.spans[p as usize].end || s.charge == TimeDelta::ZERO)
                    }
                }
        })
    }

    /// The cross-platform alignment key.
    pub fn key(&self) -> (u32, u64, u64) {
        (self.node, self.line, self.index)
    }
}

/// Leg kinds present in `a` but not in `b`, in order of appearance.
pub fn kinds_only_in<'a>(a: &'a SpanTxn, b: &SpanTxn) -> Vec<&'a str> {
    let theirs = b.leg_kinds();
    a.leg_kinds()
        .into_iter()
        .filter(|k| !theirs.contains(k))
        .collect()
}

/// Every sampled transaction of one run, with the plan that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSet {
    /// Sampler seed.
    pub seed: u64,
    /// Sampling period.
    pub period: u64,
    /// Sampled transactions that were dropped by the `max_txns` cap.
    pub truncated: u64,
    /// Recorded transactions, in completion order.
    pub txns: Vec<SpanTxn>,
}

impl SpanSet {
    /// Finds a transaction by its alignment key.
    pub fn find(&self, node: u32, line: u64, index: u64) -> Option<&SpanTxn> {
        self.txns.iter().find(|t| t.key() == (node, line, index))
    }

    /// Pairs of transactions present in both sets with the same
    /// alignment key — the same sampled transaction on two platforms.
    pub fn align<'a>(&'a self, other: &'a SpanSet) -> Vec<(&'a SpanTxn, &'a SpanTxn)> {
        self.txns
            .iter()
            .filter_map(|t| {
                other
                    .find(t.node, t.line, t.index)
                    .filter(|o| o.kind == t.kind)
                    .map(|o| (t, o))
            })
            .collect()
    }

    /// Serializes to the `flashsim-span-v1` JSONL format: a header line,
    /// then per transaction one summary line followed by one line per
    /// span. All values are integers or fixed strings, so the bytes are
    /// a pure function of the recorded spans — byte-identical across
    /// reruns whenever the simulation itself is deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128 + self.txns.len() * 256);
        out.push_str(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"seed\":{},\"period\":{},\"txns\":{},\"truncated\":{}}}\n",
            self.seed,
            self.period,
            self.txns.len(),
            self.truncated
        ));
        for (i, txn) in self.txns.iter().enumerate() {
            let (start, end) = match txn.root() {
                Some(r) => (r.start.as_ps(), r.end.as_ps()),
                None => (0, 0),
            };
            out.push_str(&format!(
                "{{\"txn\":{i},\"node\":{},\"line\":{},\"index\":{},\"kind\":\"{}\",\
                 \"case\":\"{}\",\"start_ps\":{start},\"end_ps\":{end},\"spans\":{}}}\n",
                txn.node,
                txn.line,
                txn.index,
                txn.kind,
                txn.case,
                txn.spans.len()
            ));
            for s in &txn.spans {
                let parent = match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                };
                let class = match s.class {
                    Some(c) => c.key(),
                    None => "none",
                };
                out.push_str(&format!(
                    "{{\"txn\":{i},\"span\":{},\"parent\":{parent},\"kind\":\"{}\",\
                     \"node\":{},\"class\":\"{class}\",\"start_ps\":{},\"end_ps\":{},\
                     \"charge_ps\":{}}}\n",
                    s.id,
                    s.kind,
                    s.node,
                    s.start.as_ps(),
                    s.end.as_ps(),
                    s.charge.as_ps()
                ));
            }
        }
        out
    }
}

/// Validates a `flashsim-span-v1` JSONL export.
///
/// Beyond the schema (header fields, line counts, span/txn indices),
/// this enforces the semantic invariants the tracer guarantees: spans
/// nest exactly within their parents, every charge fits inside its span,
/// and the charges of each transaction sum to its end-to-end latency in
/// integer picoseconds. `scripts/check.sh` runs it as a CI gate via
/// `flashsim validate span`.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty export")?;
    if !header.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return Err(format!("line 1: missing schema declaration {SCHEMA}"));
    }
    for key in ["seed", "period", "txns", "truncated"] {
        if field_u64(header, key).is_none() {
            return Err(format!("line 1: missing integer field \"{key}\""));
        }
    }
    let txns = field_u64(header, "txns").unwrap_or(0);
    if field_u64(header, "period").unwrap_or(0) == 0 {
        return Err("line 1: period must be >= 1".to_string());
    }

    for want_txn in 0..txns {
        let (no, line) = lines
            .next()
            .ok_or_else(|| format!("truncated: expected transaction {want_txn}"))?;
        let err = |msg: String| format!("line {}: {msg}", no + 1);
        if field_u64(line, "txn") != Some(want_txn) {
            return Err(err(format!("expected \"txn\":{want_txn} summary")));
        }
        let nspans =
            field_u64(line, "spans").ok_or_else(|| err("missing \"spans\" count".to_string()))?;
        for key in ["node", "line", "index", "start_ps", "end_ps"] {
            if field_u64(line, key).is_none() {
                return Err(err(format!("missing integer field \"{key}\"")));
            }
        }
        let (t_start, t_end) = (
            field_u64(line, "start_ps").unwrap_or(0),
            field_u64(line, "end_ps").unwrap_or(0),
        );
        let latency = t_end
            .checked_sub(t_start)
            .ok_or_else(|| err(format!("transaction runs backwards: {t_start} > {t_end}")))?;
        if field_str(line, "kind").is_none() || field_str(line, "case").is_none() {
            return Err(err("missing \"kind\"/\"case\"".to_string()));
        }

        // `nspans` is input: grow as lines arrive, never reserve for it.
        let mut bounds: Vec<(u64, u64)> = Vec::new();
        let mut charge_sum: u64 = 0;
        for want_span in 0..nspans {
            let (no, line) = lines
                .next()
                .ok_or_else(|| format!("truncated: txn {want_txn} expected span {want_span}"))?;
            let err = |msg: String| format!("line {}: {msg}", no + 1);
            if field_u64(line, "txn") != Some(want_txn)
                || field_u64(line, "span") != Some(want_span)
            {
                return Err(err(format!("expected txn {want_txn} span {want_span}")));
            }
            let start = field_u64(line, "start_ps")
                .ok_or_else(|| err("missing \"start_ps\"".to_string()))?;
            let end =
                field_u64(line, "end_ps").ok_or_else(|| err("missing \"end_ps\"".to_string()))?;
            let charge = field_u64(line, "charge_ps")
                .ok_or_else(|| err("missing \"charge_ps\"".to_string()))?;
            if start > end {
                return Err(err(format!("span runs backwards: {start} > {end}")));
            }
            if charge > end - start {
                return Err(err(format!(
                    "charge {charge} exceeds span duration {}",
                    end - start
                )));
            }
            match field_str(line, "class") {
                Some("occupancy" | "network" | "memory" | "none") => {}
                other => return Err(err(format!("bad class {other:?}"))),
            }
            if line.contains("\"parent\":null") {
                if want_span != 0 {
                    return Err(err("only span 0 may be parentless".to_string()));
                }
                if (start, end) != (t_start, t_end) {
                    return Err(err("root bounds disagree with summary".to_string()));
                }
            } else {
                let parent =
                    field_u64(line, "parent").ok_or_else(|| err("missing parent".to_string()))?;
                let &(ps, pe) = bounds
                    .get(parent as usize)
                    .filter(|_| parent < want_span)
                    .ok_or_else(|| err(format!("parent {parent} does not precede span")))?;
                // Charged spans nest exactly; a zero-charged span may
                // end past its parent (a background tail, e.g. a
                // sharing writeback completing after the processor
                // restarts) without breaking the tiling invariant.
                if start < ps || (end > pe && charge != 0) {
                    return Err(err(format!(
                        "span [{start},{end}] escapes parent [{ps},{pe}]"
                    )));
                }
                charge_sum = charge_sum
                    .checked_add(charge)
                    .ok_or_else(|| err("charge sum overflows".to_string()))?;
            }
            bounds.push((start, end));
        }
        if nspans > 0 && charge_sum != latency {
            return Err(format!(
                "txn {want_txn}: charges sum to {charge_sum} ps but end-to-end \
                 latency is {latency} ps — legs do not tile the transaction"
            ));
        }
    }
    if let Some((no, _)) = lines.next() {
        return Err(format!("line {}: trailing data after last span", no + 1));
    }
    Ok(())
}

/// The splitmix64 finalizer behind the sampler (no host randomness
/// anywhere in the sampling decision).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pure sampling decision: no state beyond the plan and the
/// transaction's identity, so it is identical across platforms,
/// scheduling policies, and reruns.
fn sampled(plan: &SpanPlan, node: u32, line: u64, index: u64) -> bool {
    let h = mix(mix(mix(plan.seed ^ u64::from(node)) ^ line) ^ index);
    h.is_multiple_of(plan.period.max(1))
}

/// One span under construction: its id on the parent stack plus whether
/// it marked the start of an off-critical-path (overlapped) subtree.
#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u32,
    offpath: bool,
}

#[derive(Debug)]
struct Build {
    txn: SpanTxn,
    stack: Vec<Frame>,
    /// Depth of enclosing off-path subtrees; while > 0, leg charges are
    /// recorded as `ZERO` (the model restores its accumulators around
    /// this work, so charging it would double-count).
    offpath: u32,
}

#[derive(Debug)]
struct SpanState {
    plan: SpanPlan,
    /// Per-(node, line) demand-miss ordinals — the alignment index.
    counters: crate::fxhash::FxHashMap<(u32, u64), u64>,
    txns: Vec<SpanTxn>,
    truncated: u64,
    cur: Option<Build>,
}

/// Locks an attached tracer's state.
fn lock(state: &Mutex<SpanState>) -> std::sync::MutexGuard<'_, SpanState> {
    // gate: allow — a poisoned lock means a prior panic; propagating
    // here cannot lose more than that panic already did.
    state.lock().unwrap()
}

/// What the [`SpanTracer`] probes do once a state is attached; kept out
/// of line so the probes' inlined guards stay one branch.
impl SpanState {
    fn txn_try_begin(&mut self, node: u32, line: u64, kind: &'static str, start: Time) -> bool {
        let index = {
            let c = self.counters.entry((node, line)).or_insert(0);
            let index = *c;
            *c += 1;
            index
        };
        if self.cur.is_some() || !sampled(&self.plan, node, line, index) {
            return false;
        }
        if self.txns.len() >= self.plan.max_txns as usize {
            self.truncated += 1;
            return false;
        }
        self.cur = Some(Build {
            txn: SpanTxn {
                node,
                line,
                index,
                kind,
                case: "",
                spans: vec![SpanRecord {
                    id: 0,
                    parent: None,
                    kind,
                    node,
                    start,
                    end: start,
                    class: None,
                    charge: TimeDelta::ZERO,
                }],
            },
            stack: vec![Frame {
                id: 0,
                offpath: false,
            }],
            offpath: 0,
        });
        true
    }

    fn push(&mut self, kind: &'static str, node: u32, start: Time, offpath: bool) {
        if let Some(b) = self.cur.as_mut() {
            let id = b.txn.spans.len() as u32;
            let parent = b.stack.last().map(|f| f.id);
            b.txn.spans.push(SpanRecord {
                id,
                parent,
                kind,
                node,
                start,
                end: start,
                class: None,
                charge: TimeDelta::ZERO,
            });
            b.stack.push(Frame { id, offpath });
            if offpath {
                b.offpath += 1;
            }
        }
    }

    fn end(&mut self, end: Time, class: Option<SpanClass>, charge: TimeDelta) {
        if let Some(b) = self.cur.as_mut() {
            if b.stack.len() <= 1 {
                return; // root is closed by txn_end, never here
            }
            let frame = match b.stack.pop() {
                Some(f) => f,
                None => return,
            };
            if frame.offpath {
                b.offpath -= 1;
            }
            if let Some(span) = b.txn.spans.get_mut(frame.id as usize) {
                span.end = end;
                span.class = class;
                span.charge = if b.offpath > 0 {
                    TimeDelta::ZERO
                } else {
                    charge
                };
            }
        }
    }

    fn txn_end(&mut self, end: Time, case: &'static str) {
        if let Some(mut b) = self.cur.take() {
            while b.stack.len() > 1 {
                if let Some(f) = b.stack.pop() {
                    if let Some(span) = b.txn.spans.get_mut(f.id as usize) {
                        span.end = end;
                    }
                }
            }
            if let Some(root) = b.txn.spans.first_mut() {
                root.end = end;
            }
            b.txn.case = case;
            self.txns.push(b.txn);
        }
    }
}

/// A cloneable span-tracer handle.
///
/// The default handle is disabled and every probe is a single branch:
/// the probes are `#[inline]` guards, so a caller in another crate tests
/// the handle in place and makes a call only when a state is attached.
/// The simulation is single-threaded per run, so the handle tracks one
/// transaction at a time: the machine (or a bench drive) opens it with
/// [`txn_try_begin`](SpanTracer::txn_try_begin) around the memory-system
/// access, and every layer in between appends legs without any change to
/// call signatures.
#[derive(Debug, Clone, Default)]
pub struct SpanTracer {
    inner: Option<Arc<Mutex<SpanState>>>,
}

impl SpanTracer {
    /// An enabled tracer recording under `plan`.
    pub fn new(plan: SpanPlan) -> SpanTracer {
        SpanTracer {
            inner: Some(Arc::new(Mutex::new(SpanState {
                plan,
                counters: crate::fxhash::FxHashMap::default(),
                txns: Vec::new(),
                truncated: 0,
                cur: None,
            }))),
        }
    }

    /// A disabled tracer: every probe is one branch.
    pub fn disabled() -> SpanTracer {
        SpanTracer::default()
    }

    /// True if a recording state is attached at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut SpanState) -> R) -> Option<R> {
        self.inner.as_deref().map(|state| f(&mut lock(state)))
    }

    /// Counts one demand miss by `node` on `line` and, if the sampler
    /// picks it, opens a transaction rooted at `[start, start]` (the root
    /// end is patched by [`txn_end`](SpanTracer::txn_end)). Returns
    /// whether a transaction is now recording.
    #[inline]
    pub fn txn_try_begin(&self, node: u32, line: u64, kind: &'static str, start: Time) -> bool {
        match &self.inner {
            Some(state) => lock(state).txn_try_begin(node, line, kind, start),
            None => false,
        }
    }

    /// True if a sampled transaction is currently recording.
    pub fn active(&self) -> bool {
        self.with(|s| s.cur.is_some()).unwrap_or(false)
    }

    /// Opens a structural span; subsequent legs nest under it until
    /// [`end`](SpanTracer::end).
    #[inline]
    pub fn begin(&self, kind: &'static str, node: u32, start: Time) {
        if let Some(state) = &self.inner {
            lock(state).push(kind, node, start, false);
        }
    }

    /// Opens a structural span whose *descendants* are off the critical
    /// path: their charges are recorded as zero because the model
    /// restores its accumulators around this (overlapped) work. The span
    /// itself may still carry a charge at [`end`](SpanTracer::end) — an
    /// upgrade's invalidation round is charged wholesale even though its
    /// per-sharer legs are not.
    #[inline]
    pub fn begin_offpath(&self, kind: &'static str, node: u32, start: Time) {
        if let Some(state) = &self.inner {
            lock(state).push(kind, node, start, true);
        }
    }

    /// Closes the innermost open span, recording its end, class, and
    /// charge (suppressed to zero inside an off-path subtree).
    #[inline]
    pub fn end(&self, end: Time, class: Option<SpanClass>, charge: TimeDelta) {
        if let Some(state) = &self.inner {
            lock(state).end(end, class, charge);
        }
    }

    /// Records one leaf leg under the innermost open span.
    #[inline]
    pub fn leg(
        &self,
        kind: &'static str,
        node: u32,
        start: Time,
        end: Time,
        class: Option<SpanClass>,
        charge: TimeDelta,
    ) {
        if let Some(state) = &self.inner {
            let mut s = lock(state);
            s.push(kind, node, start, false);
            s.end(end, class, charge);
        }
    }

    /// Completes the current transaction: patches the root's end, closes
    /// any spans left open, records the protocol case, and appends the
    /// transaction to the set.
    #[inline]
    pub fn txn_end(&self, end: Time, case: &'static str) {
        if let Some(state) = &self.inner {
            lock(state).txn_end(end, case);
        }
    }

    /// A copy of everything recorded so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<SpanSet> {
        self.with(|s| SpanSet {
            seed: s.plan.seed,
            period: s.plan.period.max(1),
            truncated: s.truncated,
            txns: s.txns.clone(),
        })
    }

    /// Walks the recorded transactions, the per-(node, line) sampling
    /// ordinals, and the truncation counter. Checkpoints are taken at
    /// barrier releases, where no transaction is mid-flight, so the
    /// in-progress build slot is interlocked empty rather than walked.
    /// Leg and case labels are re-interned on restore.
    pub fn ckpt(&self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.section("spans")?;
        c.interlock("enabled", &[u64::from(self.inner.is_some())])?;
        let Some(state) = &self.inner else {
            return Ok(());
        };
        let s = &mut *lock(state);
        c.interlock("open_txn", &[u64::from(s.cur.is_some())])?;
        c.u64("truncated", &mut s.truncated)?;
        let mut counters: Vec<[u64; 3]> = s
            .counters
            .iter()
            .map(|(&(node, line), &count)| [u64::from(node), line, count])
            .collect();
        counters.sort_unstable();
        c.list("counters", &mut counters, |c, row| c.array("ctr", row))?;
        if c.loading() {
            let rows = counters.into_iter();
            s.counters = rows
                .map(|[node, line, n]| ((node as u32, line), n))
                .collect();
        }
        c.list("txns", &mut s.txns, |c, t| {
            let mut row = [u64::from(t.node), t.line, t.index];
            c.array("txn", &mut row)?;
            (t.node, t.line, t.index) = (row[0] as u32, row[1], row[2]);
            c.label("kind", &mut t.kind)?;
            c.label("case", &mut t.case)?;
            c.list("spans", &mut t.spans, |c, sp| {
                let class = sp.class.map_or(0, |k| k as u64 + 1);
                let parent = sp.parent.map_or(u64::MAX, u64::from);
                let (start, end) = (sp.start.as_ps(), sp.end.as_ps());
                let id = u64::from(sp.id);
                let mut row = [
                    id,
                    parent,
                    u64::from(sp.node),
                    start,
                    end,
                    class,
                    sp.charge.as_ps(),
                ];
                c.array("span", &mut row)?;
                let [id, parent, node, start, end, class, charge] = row;
                sp.class = match class {
                    0 => None,
                    1 => Some(SpanClass::Occupancy),
                    2 => Some(SpanClass::Network),
                    3 => Some(SpanClass::Memory),
                    other => return Err(bad("span", format!("class {other}"))),
                };
                (sp.id, sp.node) = (id as u32, node as u32);
                sp.parent = (parent != u64::MAX).then_some(parent as u32);
                (sp.start, sp.end) = (Time::from_ps(start), Time::from_ps(end));
                sp.charge = TimeDelta::from_ps(charge);
                c.label("leg", &mut sp.kind)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{CkptReader, CkptWriter};

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    fn d(v: u64) -> TimeDelta {
        TimeDelta::from_ps(v)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = SpanTracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.txn_try_begin(0, 0x80, "read", ps(0)));
        t.leg("x", 0, ps(0), ps(5), None, d(5));
        t.txn_end(ps(5), "local_clean");
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn records_a_nested_tree_with_tiling_charges() {
        let t = SpanTracer::new(SpanPlan::all(7));
        assert!(t.txn_try_begin(2, 0x1000, "read", ps(100)));
        assert!(t.active());
        t.leg(
            "miss_detect",
            2,
            ps(100),
            ps(130),
            Some(SpanClass::Memory),
            d(30),
        );
        t.begin("net", 2, ps(130));
        t.leg("hop", 2, ps(130), ps(150), None, TimeDelta::ZERO);
        t.leg("hop", 3, ps(150), ps(170), None, TimeDelta::ZERO);
        t.end(ps(170), Some(SpanClass::Network), d(40));
        t.leg(
            "mem_bank",
            3,
            ps(170),
            ps(200),
            Some(SpanClass::Memory),
            d(30),
        );
        t.txn_end(ps(200), "remote_clean");
        assert!(!t.active());

        let set = t.snapshot().expect("enabled");
        assert_eq!(set.txns.len(), 1);
        let txn = &set.txns[0];
        assert!(txn.nested());
        assert_eq!(txn.total(), d(100));
        assert_eq!(txn.charge_total(), d(100));
        assert_eq!(txn.class_total(SpanClass::Memory), d(60));
        assert_eq!(txn.class_total(SpanClass::Network), d(40));
        let path: Vec<_> = txn.critical_path().iter().map(|s| s.kind).collect();
        assert_eq!(path, vec!["miss_detect", "net", "mem_bank"]);
        assert_eq!(
            txn.leg_kinds(),
            vec!["miss_detect", "net", "hop", "mem_bank"]
        );
        validate_jsonl(&set.to_jsonl()).expect("export validates");
    }

    #[test]
    fn offpath_subtrees_suppress_descendant_charges() {
        let t = SpanTracer::new(SpanPlan::all(7));
        assert!(t.txn_try_begin(0, 0x40, "write", ps(0)));
        t.begin_offpath("inval_round", 0, ps(0));
        t.leg(
            "ni_out",
            0,
            ps(0),
            ps(10),
            Some(SpanClass::Occupancy),
            d(10),
        );
        t.end(ps(10), Some(SpanClass::Occupancy), d(10));
        t.leg(
            "reply_fill",
            0,
            ps(10),
            ps(20),
            Some(SpanClass::Memory),
            d(10),
        );
        t.txn_end(ps(20), "upgrade");
        let txn = &t.snapshot().expect("enabled").txns[0];
        // The child inside the off-path subtree was zeroed; the subtree
        // root kept the wholesale charge it was handed.
        assert_eq!(txn.spans[2].charge, TimeDelta::ZERO);
        assert_eq!(txn.spans[1].charge, d(10));
        assert_eq!(txn.charge_total(), d(20));
        validate_jsonl(&t.snapshot().expect("enabled").to_jsonl()).expect("valid");
    }

    #[test]
    fn sampler_is_deterministic_and_seed_sensitive() {
        let plan_a = SpanPlan::sampled(1, 8);
        let plan_b = SpanPlan::sampled(2, 8);
        let picks = |plan: &SpanPlan| -> Vec<u64> {
            (0..512).filter(|&i| sampled(plan, 3, 0x2000, i)).collect()
        };
        assert_eq!(picks(&plan_a), picks(&plan_a), "same seed, same picks");
        assert_ne!(picks(&plan_a), picks(&plan_b), "different seeds diverge");
        let n = picks(&plan_a).len();
        assert!(
            (16..=112).contains(&n),
            "period-8 sampling over 512 ordinals picked {n}"
        );
    }

    #[test]
    fn max_txns_caps_and_counts_truncation() {
        let t = SpanTracer::new(SpanPlan {
            seed: 0,
            period: 1,
            max_txns: 2,
        });
        for i in 0..5u64 {
            let opened = t.txn_try_begin(0, 0x80 * i, "read", ps(i));
            if opened {
                t.leg(
                    "mem_bank",
                    0,
                    ps(i),
                    ps(i + 1),
                    Some(SpanClass::Memory),
                    d(1),
                );
                t.txn_end(ps(i + 1), "local_clean");
            }
        }
        let set = t.snapshot().expect("enabled");
        assert_eq!(set.txns.len(), 2);
        assert_eq!(set.truncated, 3);
        validate_jsonl(&set.to_jsonl()).expect("valid");
    }

    #[test]
    fn alignment_pairs_by_node_line_index() {
        let build = |extra_leg: bool| {
            let t = SpanTracer::new(SpanPlan::all(9));
            assert!(t.txn_try_begin(1, 0x100, "read", ps(0)));
            t.leg(
                "dir_lookup",
                0,
                ps(0),
                ps(10),
                Some(SpanClass::Occupancy),
                d(10),
            );
            if extra_leg {
                t.leg("nack", 1, ps(10), ps(15), Some(SpanClass::Network), d(5));
                t.leg("mem_bank", 0, ps(15), ps(20), Some(SpanClass::Memory), d(5));
            } else {
                t.leg(
                    "mem_bank",
                    0,
                    ps(10),
                    ps(20),
                    Some(SpanClass::Memory),
                    d(10),
                );
            }
            t.txn_end(ps(20), "remote_clean");
            t.snapshot().expect("enabled")
        };
        let fl = build(true);
        let numa = build(false);
        let pairs = fl.align(&numa);
        assert_eq!(pairs.len(), 1);
        let (a, b) = pairs[0];
        assert_eq!(kinds_only_in(a, b), vec!["nack"]);
        assert!(kinds_only_in(b, a).is_empty());
    }

    #[test]
    fn validator_rejects_broken_exports() {
        let t = SpanTracer::new(SpanPlan::all(3));
        assert!(t.txn_try_begin(0, 0x80, "read", ps(0)));
        t.leg("mem_bank", 0, ps(0), ps(10), Some(SpanClass::Memory), d(10));
        t.txn_end(ps(10), "local_clean");
        let good = t.snapshot().expect("enabled").to_jsonl();
        validate_jsonl(&good).expect("baseline validates");

        let broken = good.replace("\"charge_ps\":10", "\"charge_ps\":7");
        assert!(validate_jsonl(&broken)
            .expect_err("tiling violation")
            .contains("do not tile"));
        let truncated: String = good.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl(&truncated).is_err());
        assert!(validate_jsonl("{\"schema\":\"nope\"}\n").is_err());
    }

    #[test]
    fn validator_rejects_overflowing_charges() {
        // Two children each charged u64::MAX under a [0, u64::MAX] root:
        // every per-span check passes, the sum does not fit.
        let max = u64::MAX;
        let span = |id: u64, parent: &str, charge: u64| {
            format!(
                "{{\"txn\":0,\"span\":{id},\"parent\":{parent},\"kind\":\"leg\",\"node\":0,\
                 \"class\":\"none\",\"start_ps\":0,\"end_ps\":{max},\"charge_ps\":{charge}}}\n"
            )
        };
        let hostile = format!(
            "{{\"schema\":\"{SCHEMA}\",\"seed\":1,\"period\":1,\"txns\":1,\"truncated\":0}}\n\
             {{\"txn\":0,\"node\":0,\"line\":0,\"index\":0,\"kind\":\"read\",\"case\":\"c\",\
             \"start_ps\":0,\"end_ps\":{max},\"spans\":3}}\n{}{}{}",
            span(0, "null", 0),
            span(1, "0", max),
            span(2, "0", max),
        );
        assert!(validate_jsonl(&hostile)
            .expect_err("overflowing charge sum")
            .contains("overflows"));
        // A summary whose end precedes its start has no latency to tile.
        let summary: String = hostile.lines().take(2).map(|l| format!("{l}\n")).collect();
        let backwards = summary.replace(
            &format!("\"start_ps\":0,\"end_ps\":{max},\"spans\":3"),
            "\"start_ps\":9,\"end_ps\":1,\"spans\":0",
        );
        assert!(validate_jsonl(&backwards)
            .expect_err("backwards transaction")
            .contains("backwards"));
    }

    #[test]
    fn ckpt_roundtrip_restores_txns_and_sampler_ordinals() {
        let record = |t: &SpanTracer, line: u64, at: u64| {
            if t.txn_try_begin(1, line, "read", ps(at)) {
                t.leg(
                    "pp_occ",
                    1,
                    ps(at),
                    ps(at + 3),
                    Some(SpanClass::Occupancy),
                    d(3),
                );
                t.leg(
                    "mem_bank",
                    1,
                    ps(at + 3),
                    ps(at + 9),
                    Some(SpanClass::Memory),
                    d(6),
                );
                t.txn_end(ps(at + 9), "remote_dirty");
            }
        };
        // Period 2 so the per-(node, line) sampling ordinals matter: a
        // restore that loses them would sample the wrong future misses.
        let a = SpanTracer::new(SpanPlan::sampled(11, 2));
        for i in 0..7 {
            record(&a, 0x40 + 0x40 * (i % 3), 10 * i);
        }
        let mut w = CkptWriter::new("spans-test");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();

        let b = SpanTracer::new(SpanPlan::sampled(11, 2));
        let mut r = CkptReader::open(&text).expect("open");
        b.ckpt(&mut Ckpt::Load(&mut r)).expect("load");
        r.finish().expect("fully consumed");

        for i in 7..20 {
            record(&a, 0x40 + 0x40 * (i % 3), 10 * i);
            record(&b, 0x40 + 0x40 * (i % 3), 10 * i);
        }
        let (sa, sb) = (a.snapshot().expect("a"), b.snapshot().expect("b"));
        assert_eq!(sa.to_jsonl(), sb.to_jsonl());

        // A disabled tracer refuses an enabled checkpoint.
        let disabled = SpanTracer::disabled();
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            disabled.ckpt(&mut Ckpt::Load(&mut r)),
            Err(CkptError::Parse { .. })
        ));
    }
}
