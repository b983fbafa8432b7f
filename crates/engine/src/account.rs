//! Cycle accounting: attributes every simulated picosecond on every node
//! to a fixed taxonomy of stall classes, sampled into time phases.
//!
//! The paper's analysis is not "how wrong is each simulator" but *where*
//! the error comes from — TLB refills, MAGIC/secondary-cache occupancy,
//! network transit. Scalar end-of-run stats can't answer that; a cycle
//! accounting does. Every instrumented layer charges wall-clock spans of
//! its node's timeline to a [`StallClass`]; the machine driver marks each
//! op's span so uncharged time lands in [`StallClass::Compute`]; and the
//! final [`Accounting`] snapshot *conserves time exactly*: per node, the
//! per-class picoseconds sum to the node's total simulated picoseconds.
//!
//! Design:
//!
//! - [`Profiler`] is a cheaply-cloneable handle every component holds; a
//!   disabled profiler costs one branch per call site — no lock, no
//!   arithmetic.
//! - Charges are integers in picoseconds, so conservation is exact (no
//!   float drift), and snapshots are byte-deterministic.
//! - Charges are also bucketed into [`BUCKETS`] time phases on the axis
//!   telemetry uses too (`window::Axis`): when a run outgrows them, adjacent
//!   pairs merge and the width doubles — a deterministic single-pass scheme
//!   that needs no prior knowledge of run length.
//!
//! Two charge entry points exist because the compute residual is computed
//! per op: [`Profiler::charge`] for time accrued *inside* an op's
//! execution (subtracted from the op's span before the remainder goes to
//! Compute), and [`Profiler::charge_wall`] for spans *between* ops
//! (barrier waits, lock queues, timer ticks) that the op spans never
//! cover. The machine's run loops mark ops through
//! [`Profiler::mark_op_in`], which keeps the residual of ops that charged
//! nothing in a caller-held [`Window`] and takes the ledger's lock once
//! per phase bucket instead of once per op.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::account::{Profiler, StallClass};
//! use flashsim_engine::{Time, TimeDelta};
//!
//! let p = Profiler::new();
//! // An op runs on node 0 from 0ns for 100ns; 60ns of it was an L2 miss.
//! p.charge(0, StallClass::L2Miss, Time::ZERO, TimeDelta::from_ns(60));
//! p.mark_op(0, Time::ZERO, TimeDelta::from_ns(100));
//! let acct = p.snapshot(&[Time::from_ns(100)]).unwrap();
//! assert_eq!(acct.nodes[0].get(StallClass::L2Miss), 60_000);
//! assert_eq!(acct.nodes[0].get(StallClass::Compute), 40_000);
//! assert!(acct.conserved());
//! ```

use crate::ckpt::{Ckpt, CkptError};
use crate::jsonl::push_json_escaped;
use crate::time::{Time, TimeDelta};
use crate::window::{self, halve, last_filled, Axis, Series, Window, BUCKETS, INITIAL_WIDTH_PS};
use core::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Where a simulated picosecond went: the stall-class taxonomy of the
/// accounting profiler.
///
/// The classes follow the error sources the paper tunes out in §3.1:
/// processor work, the two cache-miss levels, TLB refill handlers,
/// MAGIC/secondary-cache interface occupancy, network transit,
/// synchronization, and OS/timer overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallClass {
    /// Instruction execution (the per-op residual after all stalls).
    Compute,
    /// Primary-cache miss serviced by the secondary cache.
    L1Miss,
    /// Secondary-cache miss: memory/directory data latency.
    L2Miss,
    /// TLB refill exception handling.
    TlbRefill,
    /// Directory/MAGIC protocol-processor and cache-interface occupancy.
    DirOccupancy,
    /// Interconnect transit (flight time and link contention).
    NetTransit,
    /// Synchronization: barrier waits and lock queues.
    Sync,
    /// OS background work: timer ticks, page-fault handling.
    Os,
}

impl StallClass {
    /// Every class, in declaration order (also the rendering order and
    /// the order deterministic rounding remainders are distributed in).
    pub const ALL: [StallClass; 8] = [
        StallClass::Compute,
        StallClass::L1Miss,
        StallClass::L2Miss,
        StallClass::TlbRefill,
        StallClass::DirOccupancy,
        StallClass::NetTransit,
        StallClass::Sync,
        StallClass::Os,
    ];

    /// Number of classes (array dimension of per-node ledgers).
    pub const COUNT: usize = Self::ALL.len();

    /// Short stable key (`"compute"`, `"l1_miss"`, ...) used in stats,
    /// JSON and the phase and attribution tables.
    pub const fn key(self) -> &'static str {
        match self {
            StallClass::Compute => "compute",
            StallClass::L1Miss => "l1_miss",
            StallClass::L2Miss => "l2_miss",
            StallClass::TlbRefill => "tlb_refill",
            StallClass::DirOccupancy => "dir_occupancy",
            StallClass::NetTransit => "net_transit",
            StallClass::Sync => "sync",
            StallClass::Os => "os",
        }
    }

    /// Human-readable label for tables.
    pub const fn label(self) -> &'static str {
        match self {
            StallClass::Compute => "compute",
            StallClass::L1Miss => "L1 miss",
            StallClass::L2Miss => "L2 miss",
            StallClass::TlbRefill => "TLB refill",
            StallClass::DirOccupancy => "dir/MAGIC occupancy",
            StallClass::NetTransit => "network transit",
            StallClass::Sync => "synchronization",
            StallClass::Os => "OS/timer",
        }
    }
}

impl fmt::Display for StallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// The mutable ledger behind an enabled [`Profiler`].
#[derive(Debug)]
struct Book {
    /// Per-node per-class charged picoseconds.
    classes: Vec<[u64; StallClass::COUNT]>,
    /// Per-node picoseconds charged via `charge` since the last
    /// `mark_op` — the amount subtracted from the next op span.
    op_charged: Vec<u64>,
    /// Per-phase per-class charged picoseconds.
    phases: [[u64; StallClass::COUNT]; BUCKETS],
    axis: Axis,
}

impl Book {
    fn new() -> Book {
        Book {
            classes: Vec::new(),
            op_charged: Vec::new(),
            phases: [[0; StallClass::COUNT]; BUCKETS],
            axis: Axis::new(INITIAL_WIDTH_PS),
        }
    }

    #[inline]
    fn ensure(&mut self, node: usize) {
        if node >= self.classes.len() {
            self.grow(node);
        }
    }

    /// Off the charge path for every node [`Profiler::reserve_nodes`]
    /// sized the ledger for.
    #[cold]
    fn grow(&mut self, node: usize) {
        self.classes.resize(node + 1, [0; StallClass::COUNT]);
        self.op_charged.resize(node + 1, 0);
    }

    /// The phase bucket for time `ps`, doubling the bucket width
    /// (summing adjacent rows) until it fits.
    #[inline]
    fn slot(&mut self, ps: u64) -> usize {
        self.axis.slot(ps, || {
            halve(&mut self.phases, |a, b| {
                std::array::from_fn(|k| a[k].saturating_add(b[k]))
            })
        })
    }

    fn add(&mut self, node: u32, class: StallClass, at_ps: u64, ps: u64, in_op: bool) {
        let n = node as usize;
        self.ensure(n);
        self.classes[n][class as usize] += ps;
        if in_op {
            self.op_charged[n] += ps;
        }
        let phase = self.slot(at_ps);
        let cell = &mut self.phases[phase][class as usize];
        *cell = cell.saturating_add(ps);
    }
}

impl Series for Book {
    type Key = u32;

    /// Adds what a [`Window`] folded for `node` — compute residual, at the
    /// largest op start it absorbed.
    fn publish(&mut self, node: u32, (last, fold): (u64, u64)) {
        self.add(node, StallClass::Compute, last, fold, false);
    }

    fn axis_at(&mut self, ps: u64) -> &Axis {
        self.slot(ps);
        &self.axis
    }
}

/// What the clones of an enabled [`Profiler`] share.
#[derive(Debug)]
struct Ledger {
    book: Mutex<Book>,
    /// Per node, whether `Book::op_charged` is nonzero — what
    /// [`Profiler::mark_op_in`] must know to keep an op's residual out of
    /// the book. Written only with the book locked, so flag and amount
    /// never disagree; read without it by the thread that executes the
    /// node, which is also the thread that made the charges (a node
    /// changes threads only across a fork or join of the worker pool,
    /// which orders everything before it). Unset until
    /// [`Profiler::reserve_nodes`]; nodes it does not cover are marked
    /// under the lock every time.
    in_op: OnceLock<Box<[AtomicBool]>>,
}

impl Ledger {
    fn book(&self) -> MutexGuard<'_, Book> {
        self.book.lock().expect("accounting book poisoned") // gate: allow
    }

    /// (`#[inline]`: [`Profiler::mark_op_in`] is inlined into other
    /// crates, and from there this would otherwise be a call per op.)
    #[inline]
    fn in_op(&self, node: u32) -> Option<&AtomicBool> {
        self.in_op.get()?.get(node as usize)
    }

    /// Whether nothing was charged in-op on `node` since its last mark,
    /// read without the lock; `false` for a node outside the lock-free
    /// range.
    #[inline]
    fn uncharged(&self, node: u32) -> bool {
        self.in_op(node)
            .is_some_and(|flag| !flag.load(Ordering::Acquire))
    }

    /// The per-op path: the residual of `busy` over what was charged
    /// in-op since the last mark goes straight to Compute.
    fn mark_op(&self, node: u32, at: Time, busy: TimeDelta) {
        let mut b = self.book();
        let n = node as usize;
        b.ensure(n);
        let charged = std::mem::take(&mut b.op_charged[n]);
        if let Some(flag) = self.in_op(node) {
            flag.store(false, Ordering::Release);
        }
        let residual = busy.as_ps().saturating_sub(charged);
        if residual > 0 {
            b.add(node, StallClass::Compute, at.as_ps(), residual, false);
        }
    }
}

/// A cheaply-cloneable cycle-accounting handle.
///
/// Every instrumented component (core, memory system, machine driver)
/// holds a clone. The [`disabled`] profiler — the default every component
/// starts with — has no book at all, so every charge call is a single
/// always-true early return: no lock, no arithmetic.
///
/// [`disabled`]: Profiler::disabled
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    ledger: Option<Arc<Ledger>>,
}

impl Profiler {
    /// A profiler that records nothing; charge calls cost one branch.
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// An enabled profiler with an empty ledger.
    pub fn new() -> Profiler {
        Profiler {
            ledger: Some(Arc::new(Ledger {
                book: Mutex::new(Book::new()),
                in_op: OnceLock::new(),
            })),
        }
    }

    /// True if charges are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ledger.is_some()
    }

    /// Sizes the ledger for nodes `0..nodes` up front, which takes ledger
    /// growth off the charge path and lets [`mark_op_in`] skip the lock
    /// for those nodes. The first call fixes the lock-free range; charges
    /// to nodes beyond it still work, one lock per mark.
    ///
    /// [`mark_op_in`]: Profiler::mark_op_in
    pub fn reserve_nodes(&self, nodes: u32) {
        let Some(ledger) = &self.ledger else { return };
        let mut b = ledger.book();
        if nodes > 0 {
            b.ensure(nodes as usize - 1);
        }
        ledger.in_op.get_or_init(|| {
            let pending = b.op_charged.iter().take(nodes as usize);
            pending.map(|&ps| AtomicBool::new(ps != 0)).collect()
        });
    }

    /// Charges `dur` of node `node`'s timeline at time `at` to `class`,
    /// for time accrued *inside* an op's execution (it is subtracted from
    /// the op's span when [`mark_op`] computes the compute residual).
    ///
    /// [`mark_op`]: Profiler::mark_op
    #[inline]
    pub fn charge(&self, node: u32, class: StallClass, at: Time, dur: TimeDelta) {
        if let Some(ledger) = &self.ledger {
            if !dur.is_zero() {
                let mut b = ledger.book();
                b.add(node, class, at.as_ps(), dur.as_ps(), true);
                if let Some(flag) = ledger.in_op(node) {
                    flag.store(true, Ordering::Release);
                }
            }
        }
    }

    /// Charges a wall-clock span *between* ops (barrier wait, lock queue,
    /// timer tick) that no op span covers. Not counted against the next
    /// op's compute residual.
    #[inline]
    pub fn charge_wall(&self, node: u32, class: StallClass, at: Time, dur: TimeDelta) {
        if let Some(ledger) = &self.ledger {
            if !dur.is_zero() {
                ledger
                    .book()
                    .add(node, class, at.as_ps(), dur.as_ps(), false);
            }
        }
    }

    /// Marks the completion of one op on `node` that started at `at` and
    /// occupied `busy` of the node's timeline. The part of `busy` not
    /// already charged (via [`charge`]) since the previous mark is
    /// attributed to [`StallClass::Compute`] at `at`'s phase.
    ///
    /// If charges exceed `busy` (overlapped misses in an out-of-order
    /// core), the residual saturates at zero; the final [`snapshot`]
    /// clamp restores exact conservation.
    ///
    /// [`charge`]: Profiler::charge
    /// [`snapshot`]: Profiler::snapshot
    #[inline]
    pub fn mark_op(&self, node: u32, at: Time, busy: TimeDelta) {
        if let Some(ledger) = &self.ledger {
            ledger.mark_op(node, at, busy);
        }
    }

    /// [`mark_op`] for the run loops, which mark every simulated op. When
    /// nothing was charged in-op on `node` since its last mark — the
    /// common case — the whole of `busy` is compute, and it is folded
    /// into the caller's [`Window`] `w` (which must serve only `node`)
    /// without the ledger's lock; the fold reaches the ledger when a
    /// later op leaves the window's phase bucket or at [`publish`].
    /// Otherwise this is [`mark_op`] itself, so the per-op saturation of
    /// the residual is the same on both paths.
    ///
    /// [`mark_op`]: Profiler::mark_op
    /// [`publish`]: Profiler::publish
    #[inline]
    pub fn mark_op_in(&self, w: &mut Window, node: u32, at: Time, busy: TimeDelta) {
        let Some(ledger) = &self.ledger else { return };
        if !ledger.uncharged(node) {
            ledger.mark_op(node, at, busy);
        } else if !busy.is_zero() && !w.sum(at.as_ps(), busy.as_ps()) {
            window::turn(&ledger.book, w, node, at.as_ps(), busy.as_ps());
        }
    }

    /// The clock below which every op of a run of node-local ops on
    /// `node` starting at `at` must start, for one [`mark_op_in`] at `at`
    /// with the run's total busy time to leave the ledger as a mark per op
    /// would. Local ops charge nothing in-op, so `mark_op_in` folds each
    /// op that starts in `w`'s bucket `[lo, hi)` into `w`, and a fold is
    /// published in the bucket that holds its largest op start, whichever
    /// start that is. The bound is `Time::MAX` on a disabled profiler, `hi`
    /// when `mark_op_in` would fold an op starting at `at` into `w`, and
    /// `at` otherwise: the run is then one op, and its mark re-aims `w`.
    ///
    /// [`mark_op_in`]: Profiler::mark_op_in
    #[inline]
    pub fn run_bound(&self, w: &Window, node: u32, at: Time) -> Time {
        let Some(ledger) = &self.ledger else {
            return Time::MAX;
        };
        match w.end_of(at.as_ps()) {
            Some(hi) if ledger.uncharged(node) => Time::from_ps(hi),
            _ => at,
        }
    }

    /// Moves whatever compute residual `w` holds for `node` into the
    /// ledger and empties it. Every window must be published before the
    /// ledger is read ([`snapshot`](Profiler::snapshot),
    /// [`ckpt`](Profiler::ckpt)).
    pub fn publish(&self, w: &mut Window, node: u32) {
        let Some(ledger) = &self.ledger else { return };
        if let Some(held) = w.take() {
            ledger.book().publish(node, held);
        }
    }

    /// Copies the ledger out as an [`Accounting`], conserving time
    /// exactly: `node_ends[n]` is node `n`'s final simulated time, and in
    /// the returned snapshot the per-class picoseconds of node `n` sum to
    /// exactly `node_ends[n]`. Under-charged time (idle tails, saturated
    /// residuals) is added to [`StallClass::Compute`]; over-charged nodes
    /// (overlapped stalls counted in full) are scaled down class-by-class
    /// with deterministic largest-first remainder distribution.
    ///
    /// Returns `None` on a disabled profiler.
    pub fn snapshot(&self, node_ends: &[Time]) -> Option<Accounting> {
        let mut b = self.ledger.as_ref()?.book();
        b.ensure(node_ends.len().saturating_sub(1));
        let nodes = node_ends
            .iter()
            .enumerate()
            .map(|(n, end)| {
                let total = end.as_ps();
                let classes = conserve(b.classes[n], total);
                NodeAccount {
                    node: n as u32,
                    classes,
                    total_ps: total,
                }
            })
            .collect();
        Some(Accounting {
            nodes,
            phases: b.phases.to_vec(),
            phase_ps: b.axis.width(),
        })
    }

    /// Walks the raw ledger — per-node per-class charges, the pending
    /// op-residual accumulators, and the phase sampling. Raw
    /// (pre-conservation) state is what must survive: conservation is
    /// applied only at [`Profiler::snapshot`].
    pub fn ckpt(&self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.section("profiler")?;
        c.interlock("enabled", &[u64::from(self.ledger.is_some())])?;
        let Some(ledger) = &self.ledger else {
            return Ok(());
        };
        let b = &mut *ledger.book();
        c.list("nodes", &mut b.classes, |c, row| c.array("classes", row))?;
        let nodes = b.classes.len();
        c.u64s("op_charged", &mut b.op_charged, nodes..=nodes)?;
        b.axis.ckpt(c, "phase_ps", |c| {
            for row in &mut b.phases {
                c.array("phase", row)?;
            }
            Ok(last_filled(&b.phases))
        })?;
        if c.loading() {
            for (n, flag) in ledger.in_op.get().into_iter().flatten().enumerate() {
                let pending = b.op_charged.get(n).is_some_and(|&ps| ps != 0);
                flag.store(pending, Ordering::Release);
            }
        }
        Ok(())
    }
}

/// Scales `classes` so they sum to exactly `total` picoseconds.
///
/// Under-charge goes to Compute (it is uncovered timeline: idle tails and
/// residuals lost to saturation). Over-charge — possible when overlapped
/// stalls are each charged in full — is scaled down proportionally with
/// floor division, the rounding remainder distributed one picosecond at a
/// time in [`StallClass::ALL`] order over classes with a nonzero share.
fn conserve(mut classes: [u64; StallClass::COUNT], total: u64) -> [u64; StallClass::COUNT] {
    let sum: u64 = classes.iter().sum();
    if sum <= total {
        classes[StallClass::Compute as usize] += total - sum;
        return classes;
    }
    let mut scaled = [0u64; StallClass::COUNT];
    for (s, c) in scaled.iter_mut().zip(classes) {
        // sum > total >= every c, so the u128 product can't overflow and
        // the quotient fits back in u64.
        *s = (u128::from(c) * u128::from(total) / u128::from(sum)) as u64;
    }
    let mut short = total - scaled.iter().sum::<u64>();
    let mut i = 0;
    while short > 0 {
        if classes[i % StallClass::COUNT] > 0 {
            scaled[i % StallClass::COUNT] += 1;
            short -= 1;
        }
        i += 1;
    }
    scaled
}

/// One node's conserved cycle account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAccount {
    /// The node.
    pub node: u32,
    /// Picoseconds charged to each class, in [`StallClass::ALL`] order;
    /// sums to exactly `total_ps`.
    pub classes: [u64; StallClass::COUNT],
    /// The node's total simulated picoseconds.
    pub total_ps: u64,
}

impl NodeAccount {
    /// Picoseconds charged to `class` on this node.
    pub fn get(&self, class: StallClass) -> u64 {
        self.classes[class as usize]
    }
}

/// A conserved snapshot of a run's cycle accounting: per-node per-class
/// totals plus the time-phase sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// One account per node.
    pub nodes: Vec<NodeAccount>,
    /// Per-phase per-class picoseconds ([`BUCKETS`] buckets of `phase_ps`
    /// width). Phases sample raw charges (pre-conservation), so they show
    /// *where in time* stalls cluster; exact conservation is a property
    /// of the per-node class totals.
    pub phases: Vec<[u64; StallClass::COUNT]>,
    /// Width of one phase bucket in picoseconds.
    pub phase_ps: u64,
}

impl Accounting {
    /// Machine-wide per-class picoseconds (summed over nodes), in
    /// [`StallClass::ALL`] order.
    pub fn class_totals(&self) -> [u64; StallClass::COUNT] {
        let mut out = [0u64; StallClass::COUNT];
        for n in &self.nodes {
            for (o, c) in out.iter_mut().zip(n.classes) {
                *o += c;
            }
        }
        out
    }

    /// Machine-wide total picoseconds (summed over nodes).
    pub fn total_ps(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_ps).sum()
    }

    /// True if every node's per-class picoseconds sum to exactly its
    /// total — the conservation invariant [`Profiler::snapshot`]
    /// establishes.
    pub fn conserved(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.classes.iter().sum::<u64>() == n.total_ps)
    }

    /// Machine-wide fraction of time in `class` (0 when the run is
    /// empty).
    pub fn fraction(&self, class: StallClass) -> f64 {
        let total = self.total_ps();
        if total == 0 {
            return 0.0;
        }
        self.class_totals()[class as usize] as f64 / total as f64
    }

    /// Renders the per-class table (machine-wide and per-node) as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let totals = self.class_totals();
        let total = self.total_ps();
        out.push_str("class                 total(ms)   share\n");
        for class in StallClass::ALL {
            let ps = totals[class as usize];
            let share = if total == 0 {
                0.0
            } else {
                100.0 * ps as f64 / total as f64
            };
            out.push_str(&format!(
                "{:<20} {:>10.3} {:>6.1}%\n",
                class.label(),
                ps as f64 / 1e9,
                share
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>10.3} {:>6.1}%\n",
            "total",
            total as f64 / 1e9,
            100.0
        ));
        out
    }

    /// Renders the per-phase table: one row per non-empty phase, one
    /// column per class, values in percent of the phase's charges.
    pub fn render_phases(&self) -> String {
        let mut out = String::new();
        out.push_str("phase  start(us)");
        for class in StallClass::ALL {
            out.push_str(&format!(" {:>9}", class.key()));
        }
        out.push('\n');
        for (i, row) in self.phases.iter().enumerate() {
            let sum = row.iter().fold(0u64, |a, &ps| a.saturating_add(ps));
            if sum == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:>5} {:>10.1}",
                i,
                (i as u64 * self.phase_ps) as f64 / 1e6
            ));
            for &ps in row {
                out.push_str(&format!(" {:>8.1}%", 100.0 * ps as f64 / sum as f64));
            }
            out.push('\n');
        }
        out
    }

    /// Hand-rolled JSON export (no serde; fully offline build): class
    /// totals, per-node accounts, and the phase sampling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"classes\":{");
        let totals = self.class_totals();
        for (i, class) in StallClass::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            push_json_escaped(&mut out, class.key());
            out.push_str(&format!("\":{}", totals[class as usize]));
        }
        out.push_str("},\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"total_ps\":{},\"classes\":[",
                n.node, n.total_ps
            ));
            for (j, ps) in n.classes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&ps.to_string());
            }
            out.push_str("]}");
        }
        out.push_str(&format!("],\"phase_ps\":{},\"phases\":[", self.phase_ps));
        let mut first = true;
        for (i, row) in self.phases.iter().enumerate() {
            if row.iter().all(|&ps| ps == 0) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{{\"phase\":{i},\"classes\":["));
            for (j, ps) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&ps.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> TimeDelta {
        TimeDelta::from_ns(v)
    }

    fn at(v: u64) -> Time {
        Time::from_ns(v)
    }

    #[test]
    fn disabled_profiler_charges_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.charge(0, StallClass::L2Miss, at(1), ns(100));
        p.mark_op(0, at(1), ns(200));
        assert!(p.snapshot(&[at(300)]).is_none());
    }

    #[test]
    fn residual_goes_to_compute() {
        let p = Profiler::new();
        p.charge(0, StallClass::L1Miss, at(0), ns(30));
        p.mark_op(0, at(0), ns(100));
        let a = p.snapshot(&[at(100)]).expect("enabled");
        assert_eq!(a.nodes[0].get(StallClass::L1Miss), 30_000);
        assert_eq!(a.nodes[0].get(StallClass::Compute), 70_000);
        assert!(a.conserved());
    }

    #[test]
    fn wall_charges_do_not_eat_the_next_op() {
        let p = Profiler::new();
        // A barrier wait between ops, then a pure-compute op.
        p.charge_wall(0, StallClass::Sync, at(100), ns(500));
        p.mark_op(0, at(600), ns(50));
        let a = p.snapshot(&[at(650)]).expect("enabled");
        assert_eq!(a.nodes[0].get(StallClass::Sync), 500_000);
        assert_eq!(a.nodes[0].get(StallClass::Compute), 50_000 + 100_000);
        assert!(a.conserved());
    }

    #[test]
    fn overcharge_is_scaled_back_deterministically() {
        let p = Profiler::new();
        // Two overlapped misses charged in full: 70 + 50 > the 100ns end.
        p.charge(0, StallClass::L2Miss, at(0), ns(70));
        p.charge(0, StallClass::L1Miss, at(0), ns(50));
        p.mark_op(0, at(0), ns(100));
        let a = p.snapshot(&[at(100)]).expect("enabled");
        let total: u64 = a.nodes[0].classes.iter().sum();
        assert_eq!(total, 100_000);
        assert!(a.conserved());
        // Proportions survive the clamp.
        let l2 = a.nodes[0].get(StallClass::L2Miss);
        let l1 = a.nodes[0].get(StallClass::L1Miss);
        assert!(l2 > l1);
        // Byte-determinism of the clamp.
        let b = p.snapshot(&[at(100)]).expect("enabled");
        assert_eq!(a, b);
    }

    #[test]
    fn conserve_distributes_rounding_remainder() {
        let mut c = [0u64; StallClass::COUNT];
        c[1] = 3;
        c[2] = 3;
        c[3] = 3;
        let out = conserve(c, 7);
        assert_eq!(out.iter().sum::<u64>(), 7);
        // Floor gives 2+2+2; the extra ps goes to the first nonzero class.
        assert_eq!(out[1], 3);
        assert_eq!(out[2], 2);
        assert_eq!(out[3], 2);
    }

    #[test]
    fn idle_tail_is_compute() {
        let p = Profiler::new();
        p.mark_op(0, at(0), ns(10));
        let a = p.snapshot(&[at(1000)]).expect("enabled");
        assert_eq!(a.nodes[0].get(StallClass::Compute), 1_000_000);
        assert!(a.conserved());
    }

    #[test]
    fn phases_double_and_merge() {
        let p = Profiler::new();
        // First charge lands in bucket 0 at the initial width.
        p.charge_wall(0, StallClass::Os, Time::ZERO, ns(1));
        // A charge far beyond the initial 64-bucket span forces doubling.
        let far = Time::from_ps(INITIAL_WIDTH_PS * BUCKETS as u64 * 4);
        p.charge_wall(0, StallClass::Os, far, ns(1));
        let a = p.snapshot(&[far]).expect("enabled");
        assert_eq!(a.phase_ps, INITIAL_WIDTH_PS * 8);
        let populated: Vec<usize> = a
            .phases
            .iter()
            .enumerate()
            .filter(|(_, r)| r.iter().sum::<u64>() > 0)
            .map(|(i, _)| i)
            .collect();
        // Both charges survive the merges: bucket 0 plus the far bucket.
        assert_eq!(populated, vec![0, 32]);
    }

    #[test]
    fn exports_are_shaped_and_deterministic() {
        let p = Profiler::new();
        p.charge(1, StallClass::NetTransit, at(5), ns(40));
        p.mark_op(1, at(5), ns(60));
        let a = p.snapshot(&[at(100), at(100)]).expect("enabled");
        assert_eq!(a.nodes[1].get(StallClass::NetTransit), 40_000);
        assert_eq!(a.nodes[0].total_ps, 100_000);
        let json = a.to_json();
        assert!(json.starts_with("{\"classes\":{\"compute\":"));
        assert!(json.contains("\"net_transit\":40000"));
        assert_eq!(json, p.snapshot(&[at(100), at(100)]).expect("e").to_json());
        assert!(a.render().contains("network transit"));
        assert!(a.render_phases().starts_with("phase"));
    }

    #[test]
    fn class_count_matches_all() {
        assert_eq!(StallClass::ALL.len(), StallClass::COUNT);
        for (i, c) in StallClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "discriminants must match ALL order");
        }
    }

    #[test]
    fn ckpt_roundtrip_preserves_the_raw_ledger() {
        let p = Profiler::new();
        p.charge(0, StallClass::L2Miss, at(0), ns(70));
        p.charge(1, StallClass::NetTransit, at(3), ns(20));
        // Leave an op-residual accumulator pending on node 1.
        p.charge(1, StallClass::L1Miss, at(4), ns(5));
        p.mark_op(0, at(0), ns(100));
        let mut w = Ckpt::save("t");
        p.ckpt(&mut w).unwrap();
        let text = w.finish().unwrap();
        let q = Profiler::new();
        let mut r = Ckpt::open(&text).expect("intact");
        q.ckpt(&mut r).expect("loads");
        r.finish().expect("consumed");
        // Finishing the pending op and snapshotting must agree exactly.
        p.mark_op(1, at(4), ns(40));
        q.mark_op(1, at(4), ns(40));
        let a = p.snapshot(&[at(200), at(200)]).expect("enabled");
        let b = q.snapshot(&[at(200), at(200)]).expect("enabled");
        assert_eq!(a, b);
        assert!(b.conserved());
        // Enabled/disabled mismatch fails closed.
        let mut r = Ckpt::open(&text).expect("intact");
        assert!(Profiler::disabled().ckpt(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_a_width_no_charge_could_reach() {
        use crate::ckpt::provenance_hash;
        let p = Profiler::new();
        p.charge_wall(
            0,
            StallClass::Os,
            Time::from_ps(63 * INITIAL_WIDTH_PS),
            ns(1),
        );
        let mut w = Ckpt::save("t");
        p.ckpt(&mut w).unwrap();
        let text = w.finish().unwrap();
        let body = &text[..text.rfind("checksum=").expect("a trailer")];
        let from = format!("phase_ps={INITIAL_WIDTH_PS}\n");
        assert!(body.contains(&from));
        // Phase 63 filled: at 2^57 it starts inside u64, at 2^62 past it.
        for (width, ok) in [(1u64 << 57, true), (1 << 62, false), (3 << 20, false)] {
            let body = body.replacen(&from, &format!("phase_ps={width}\n"), 1);
            let text = format!("{body}checksum={}\n", provenance_hash(&body));
            let q = Profiler::new();
            let mut r = Ckpt::open(&text).expect("resealed");
            match q.ckpt(&mut r) {
                Ok(()) if ok => {
                    let a = q.snapshot(&[Time::ZERO]).expect("enabled");
                    assert!(a.render_phases().contains("\n   63 "));
                }
                Err(CkptError::Parse { key, .. }) if !ok => assert_eq!(key, "phase_ps"),
                other => panic!("phase_ps={width}: {other:?}"),
            }
        }
    }

    /// What happens on node 0 between two of its op starts: a local op, a
    /// memory op that charges in-op, a span between ops, or another node's
    /// event far ahead, which doubles the bucket width.
    #[derive(Clone, Copy)]
    enum Step {
        Local(u64),
        Memory { busy: u64, charged: u64 },
        Wall(u64),
        Far(u64),
    }

    /// Applies `step` to `p` at clock `at`; a local op is marked alone.
    fn apply(p: &Profiler, w: &mut Window, at: u64, step: Step) {
        let t = Time::from_ps(at);
        match step {
            Step::Local(busy) => p.mark_op_in(w, 0, t, TimeDelta::from_ps(busy)),
            Step::Memory { busy, charged } => {
                p.charge(0, StallClass::L2Miss, t, TimeDelta::from_ps(charged));
                p.mark_op_in(w, 0, t, TimeDelta::from_ps(busy));
            }
            Step::Wall(ps) => p.charge_wall(0, StallClass::Sync, t, TimeDelta::from_ps(ps)),
            Step::Far(ps) => p.charge_wall(1, StallClass::Os, Time::from_ps(ps), ns(1)),
        }
    }

    /// The ledger's current bucket width.
    fn width(p: &Profiler) -> u64 {
        p.ledger.as_ref().expect("enabled").book().axis.width()
    }

    /// The published ledger's snapshot and checkpoint bytes.
    fn ledger(p: &Profiler, w: &mut Window, end: u64) -> (Accounting, String) {
        p.publish(w, 0);
        let mut out = crate::ckpt::Ckpt::save("runs");
        p.ckpt(&mut out).expect("saves");
        let end = Time::from_ps(end);
        (
            p.snapshot(&[end, end]).expect("enabled"),
            out.finish().unwrap(),
        )
    }

    /// Over seeded op streams, marking every op with [`Profiler::mark_op_in`]
    /// and marking each run of local ops once — at its first op's start,
    /// with its whole busy time — leave the same snapshot and checkpoint
    /// bytes, when a run's ops all start below [`Profiler::run_bound`]
    /// taken at its first op. The streams hold zero-busy ops, runs that
    /// start outside the window (after a span between ops or a charged
    /// memory op), ops that start exactly on a bucket boundary, and
    /// another node's event far ahead doubling the width mid-stream. Runs
    /// are also cut short at random, as a batch's other bounds cut them.
    #[test]
    fn runs_marked_once_below_the_bound_leave_the_ledger_of_per_op_marks() {
        use crate::rng::Rng;
        for seed in 0..48 {
            let mut rng = Rng::seeded(seed);
            let oracle = Profiler::new();
            oracle.reserve_nodes(2);
            let mut w = Window::new();
            let (mut steps, mut at) = (Vec::new(), 0u64);
            for _ in 0..600 {
                let step = match rng.gen_range(40) {
                    0..=2 => Step::Memory {
                        busy: rng.gen_range(3 * INITIAL_WIDTH_PS / 4),
                        charged: rng.gen_range(INITIAL_WIDTH_PS / 2),
                    },
                    3 => Step::Wall(rng.gen_range(4 * INITIAL_WIDTH_PS)),
                    4 if steps.len() > 300 => Step::Far(at + rng.gen_range(300) * INITIAL_WIDTH_PS),
                    // Several ops issued in one cycle.
                    5..=9 => Step::Local(0),
                    // To the next bucket boundary, or past it.
                    10..=17 => Step::Local(width(&oracle) - at % width(&oracle)),
                    _ => Step::Local(rng.gen_range(INITIAL_WIDTH_PS / 3)),
                };
                apply(&oracle, &mut w, at, step);
                steps.push((at, step));
                at += match step {
                    Step::Local(busy) | Step::Memory { busy, .. } | Step::Wall(busy) => busy,
                    Step::Far(_) => 0,
                };
            }
            let want = ledger(&oracle, &mut w, at);

            let subject = Profiler::new();
            subject.reserve_nodes(2);
            let mut w = Window::new();
            let (mut i, mut runs) = (0, 0);
            while i < steps.len() {
                let (start, step) = steps[i];
                if !matches!(step, Step::Local(_)) {
                    apply(&subject, &mut w, start, step);
                    i += 1;
                    continue;
                }
                let bound = subject.run_bound(&w, 0, Time::from_ps(start)).as_ps();
                let (first, cut) = (i, i + 1 + rng.gen_range(40) as usize);
                let mut busy = 0;
                while let Some(&(op_at, Step::Local(b))) = steps.get(i) {
                    if i > first && (op_at >= bound || i == cut) {
                        break;
                    }
                    busy += b;
                    i += 1;
                }
                subject.mark_op_in(&mut w, 0, Time::from_ps(start), TimeDelta::from_ps(busy));
                runs += 1;
            }
            let local = steps
                .iter()
                .filter(|(_, s)| matches!(s, Step::Local(_)))
                .count();
            assert!(runs < local, "seed {seed}: every run was one op");
            assert!(
                want.0.phase_ps > INITIAL_WIDTH_PS,
                "seed {seed}: no doubling"
            );
            assert_eq!(ledger(&subject, &mut w, at), want, "seed {seed}");
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let p = Profiler::new();
        p.charge(0, StallClass::L2Miss, at(0), ns(25));
        p.mark_op(0, at(0), ns(100));
        let a = p.snapshot(&[at(100)]).expect("enabled");
        let sum: f64 = StallClass::ALL.iter().map(|&c| a.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((a.fraction(StallClass::L2Miss) - 0.25).abs() < 1e-12);
    }
}
