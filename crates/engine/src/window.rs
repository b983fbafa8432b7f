//! The bucket axis every sim-time series lies on, and window-local
//! accumulation for the hottest observer writes.
//!
//! [`crate::telemetry`] metrics and [`crate::account`] phases are
//! [`BUCKETS`]-slot series on one `Axis`, whose width starts at the
//! owner's cadence and doubles whenever an event lands past the last
//! bucket, folding aligned pairs with the owner's merge (`halve`: a
//! saturating sum, or a max for gauges). As `floor(floor(t/w)/2) ==
//! floor(t/2w)`, a series depends only on its events and its final width.
//! The axis caches its last event's bucket: a division only on a miss.
//!
//! A [`Window`] gives one call site such a bucket `[lo, hi)` of its own,
//! folding every event inside it — a sum or a max — into one word: two
//! compares and an add, no lock, no division. The handle's lock is taken
//! when an event falls outside (`turn` publishes the fold and re-aims the
//! window) and when a reader needs the handle complete (`publish`). No
//! export byte can change: sums and maxima commute; an axis width only
//! doubles by merging aligned pairs, so an interval aligned at the width
//! it was cached at stays inside one bucket at every later width; and the
//! fold is published at the largest timestamp it absorbed, so the handle's
//! high-water mark, and every doubling, ends up where per-event writes put
//! it. The caller's duty: publish every window before anything reads the
//! handle (snapshot, checkpoint).

use crate::ckpt::{bad, Ckpt, CkptError};
use std::sync::Mutex;

/// Buckets per sim-time series, so a series' memory is constant.
pub const BUCKETS: usize = 64;

/// The first width (2²⁰ ps, ~1 µs) of a series with no cadence of its own.
pub(crate) const INITIAL_WIDTH_PS: u64 = 1 << 20;

/// The time axis of a [`BUCKETS`]-slot series whose owner keeps the
/// cells: its width, and the bucket `[lo, hi)` (index `idx`) the last
/// event fell in — empty, `hi == 0`, until the first event and after each
/// doubling.
#[derive(Debug, Clone)]
pub(crate) struct Axis {
    /// The first width; every later one is this one doubled.
    start: u64,
    width: u64,
    lo: u64,
    hi: u64,
    idx: usize,
}

impl Axis {
    /// An axis whose first width is `start_ps` (clamped to ≥ 1 ps).
    pub(crate) fn new(start_ps: u64) -> Axis {
        let start = start_ps.max(1);
        Axis {
            start,
            width: start,
            lo: 0,
            hi: 0,
            idx: 0,
        }
    }

    /// The current bucket width in picoseconds.
    pub(crate) fn width(&self) -> u64 {
        self.width
    }

    /// The bucket index of `ps`. Off the cached bucket, the width first
    /// doubles until `ps` fits, running `merge` (the owner's `halve` of its
    /// cells) once per doubling.
    #[inline]
    pub(crate) fn slot(&mut self, ps: u64, merge: impl FnMut()) -> usize {
        if !(self.lo..self.hi).contains(&ps) {
            self.aim(ps, merge);
        }
        self.idx
    }

    #[cold]
    fn aim(&mut self, ps: u64, mut merge: impl FnMut()) {
        while ps / self.width >= BUCKETS as u64 {
            merge();
            self.width = self.width.saturating_mul(2);
        }
        self.idx = (ps / self.width) as usize;
        self.lo = self.idx as u64 * self.width;
        self.hi = self.lo.saturating_add(self.width);
    }

    /// Walks the width under `key`, then the owner's `cells`, which returns
    /// the last bucket holding anything. Both checks fail under `key`: the
    /// width must be the first one doubled (so never `0`), and the last
    /// filled bucket must start inside `u64`, as one an event reached does.
    pub(crate) fn ckpt(
        &mut self,
        c: &mut Ckpt<'_>,
        key: &str,
        cells: impl FnOnce(&mut Ckpt<'_>) -> Result<usize, CkptError>,
    ) -> Result<(), CkptError> {
        c.u64(key, &mut self.width)?;
        let (w, s) = (self.width, self.start);
        if w < s || w % s != 0 || !(w / s).is_power_of_two() {
            return Err(bad(key, w));
        }
        self.hi = 0;
        let last = cells(c)?;
        if (last as u64).checked_mul(w).is_none() {
            return Err(bad(key, format!("{w} with bucket {last} filled")));
        }
        Ok(())
    }
}

/// One doubling of a cell array: bucket `i` becomes buckets `2i` and
/// `2i + 1` folded by `pair`, and the upper half empties.
pub(crate) fn halve<T: Copy + Default>(cells: &mut [T], pair: impl Fn(T, T) -> T) {
    let half = cells.len() / 2;
    for i in 0..half {
        cells[i] = pair(cells[2 * i], cells[2 * i + 1]);
    }
    cells[half..].fill(T::default());
}

/// The last bucket of `cells` holding anything (`0` when none does).
pub(crate) fn last_filled<T: Default + PartialEq>(cells: &[T]) -> usize {
    cells.iter().rposition(|c| *c != T::default()).unwrap_or(0)
}

/// A handle's locked state, as its [`Window`]s publish into it.
pub(crate) trait Series {
    /// What one window serves: a telemetry metric, an accounting node.
    type Key: Copy;
    /// Adds a window's `(last_at, fold)` for `key`.
    fn publish(&mut self, key: Self::Key, held: (u64, u64));
    /// The axis, its cached bucket on the one holding `ps`.
    fn axis_at(&mut self, ps: u64) -> &Axis;
}

/// The lock-taking half of every window write (`Telemetry::count_in`,
/// `gauge_in`, `Profiler::mark_op_in`), out of line so that the inlined
/// half is two compares and an add: publishes `w`'s fold, if it holds one,
/// and re-aims it at the bucket of the event `(ps, first)` outside it.
#[cold]
#[inline(never)]
pub(crate) fn turn<S: Series>(m: &Mutex<S>, w: &mut Window, key: S::Key, ps: u64, first: u64) {
    let mut s = m.lock().expect("observer series poisoned"); // gate: allow
    if let Some(held) = w.take() {
        s.publish(key, held);
    }
    let Axis { lo, hi, .. } = *s.axis_at(ps);
    *w = Window {
        lo,
        hi,
        last_at: ps,
        fold: first,
    };
}

/// One caller-held fold over a cached bucket interval; see the module
/// docs. A window serves one metric (or one node's compute residual) of
/// one handle for its whole life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// The cached interval; `hi == 0` when the window holds nothing, so
    /// every event misses it.
    lo: u64,
    hi: u64,
    /// Largest timestamp folded in.
    last_at: u64,
    fold: u64,
}

impl Window {
    /// A window holding nothing.
    pub const fn new() -> Window {
        Window {
            lo: 0,
            hi: 0,
            last_at: 0,
            fold: 0,
        }
    }

    /// Whether nothing is waiting to be published.
    pub fn is_empty(&self) -> bool {
        self.hi == 0
    }

    /// Adds `n` at `at` if `at` lies inside the window.
    #[inline]
    pub(crate) fn sum(&mut self, at: u64, n: u64) -> bool {
        let inside = (self.lo..self.hi).contains(&at);
        if inside {
            self.fold = self.fold.saturating_add(n);
            self.last_at = self.last_at.max(at);
        }
        inside
    }

    /// Raises the fold to `value` at `at` if `at` lies inside the window.
    #[inline]
    pub(crate) fn max(&mut self, at: u64, value: u64) -> bool {
        let inside = (self.lo..self.hi).contains(&at);
        if inside {
            self.fold = self.fold.max(value);
            self.last_at = self.last_at.max(at);
        }
        inside
    }

    /// The end `hi` of the window's interval if `at` lies inside it.
    #[inline]
    pub(crate) fn end_of(&self, at: u64) -> Option<u64> {
        (self.lo..self.hi).contains(&at).then_some(self.hi)
    }

    /// Empties the window, returning `(last_at, fold)` if it held
    /// anything.
    pub(crate) fn take(&mut self) -> Option<(u64, u64)> {
        let held = (!self.is_empty()).then_some((self.last_at, self.fold));
        *self = Window::new();
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{Profiler, StallClass};
    use crate::ckpt::Ckpt;
    use crate::rng::Rng;
    use crate::telemetry::{MetricId, MetricKind, Telemetry};
    use crate::time::{Time, TimeDelta};

    /// Not a power of two, so telemetry buckets and accounting phases
    /// never line up.
    const CADENCE_PS: u64 = 250_000;
    const NODES: usize = 4;
    const EVENTS: usize = 6000;

    /// The three cells a series keeps, one per merge: a sum, a max, and a
    /// per-class row.
    #[derive(Debug, PartialEq)]
    struct Cells {
        sum: [u64; BUCKETS],
        max: [u64; BUCKETS],
        rows: [[u64; 8]; BUCKETS],
    }

    impl Cells {
        fn new() -> Cells {
            Cells {
                sum: [0; BUCKETS],
                max: [0; BUCKETS],
                rows: [[0; 8]; BUCKETS],
            }
        }

        fn merge(&mut self) {
            halve(&mut self.sum, u64::saturating_add);
            halve(&mut self.max, u64::max);
            halve(&mut self.rows, |a, b| std::array::from_fn(|k| a[k] + b[k]));
        }

        fn record(&mut self, idx: usize, (v, class): (u64, usize)) {
            self.sum[idx] += v;
            self.max[idx] = self.max[idx].max(v);
            self.rows[idx][class] += v;
        }
    }

    /// Over seeded streams — a start width that is not a power of two,
    /// timestamps that wander backwards, leaps, and doublings forced at
    /// arbitrary moments with no event at them (as a snapshot's or an
    /// integrator's fit makes) — the series built online equals every
    /// recorded event re-bucketed offline at the final width, cell for
    /// cell.
    #[test]
    fn online_series_equal_offline_rebucketing_at_the_final_width() {
        for seed in 0..32 {
            let mut rng = Rng::seeded(seed);
            let start = 3 * (1 + rng.gen_range(1 << 16));
            let mut axis = Axis::new(start);
            let mut online = Cells::new();
            let mut events = Vec::new();
            let mut now = 0u64;
            for _ in 0..EVENTS {
                now += match rng.gen_range(50) {
                    0 => rng.gen_range(40 * start),
                    _ => rng.gen_range(start / 2 + 1),
                };
                if rng.gen_range(100) == 0 {
                    axis.slot(now + rng.gen_range(80 * start), || online.merge());
                }
                let ps = now.saturating_sub(rng.gen_range(3 * start));
                let event = (rng.gen_range(1000), rng.gen_range(8) as usize);
                let idx = axis.slot(ps, || online.merge());
                online.record(idx, event);
                events.push((ps, event));
            }
            assert!(axis.width() >= 4 * start, "seed {seed}: too few doublings");
            let mut offline = Cells::new();
            for &(ps, event) in &events {
                offline.record((ps / axis.width()) as usize, event);
            }
            assert_eq!(online, offline, "seed {seed}");
        }
    }

    /// One telemetry registry and one ledger, identically registered.
    struct Handles {
        tel: Telemetry,
        prof: Profiler,
        c0: MetricId,
        c1: MetricId,
        g0: MetricId,
        other: MetricId,
        occ: MetricId,
    }

    fn handles() -> Handles {
        let tel = Telemetry::with_cadence(TimeDelta::from_ps(CADENCE_PS));
        let prof = Profiler::new();
        // The last node stays outside the lock-free range.
        prof.reserve_nodes(NODES as u32 - 1);
        Handles {
            c0: tel.register("c0", MetricKind::Counter),
            c1: tel.register("c1", MetricKind::Counter),
            g0: tel.register("g0", MetricKind::Gauge),
            other: tel.register("other", MetricKind::Counter),
            occ: tel.register("occ", MetricKind::Occupancy),
            tel,
            prof,
        }
    }

    #[derive(Default)]
    struct Windows {
        c0: Window,
        c1: Window,
        g0: Window,
        compute: [Window; NODES],
    }

    impl Windows {
        fn publish(&mut self, h: &Handles) {
            h.tel.publish(&mut self.c0, h.c0);
            h.tel.publish(&mut self.c1, h.c1);
            h.tel.publish(&mut self.g0, h.g0);
            for (n, w) in self.compute.iter_mut().enumerate() {
                h.prof.publish(w, n as u32);
            }
        }
    }

    fn assert_same(seed: u64, step: usize, oracle: &Handles, subject: &Handles, now: u64) {
        let end = Time::from_ps(now);
        // A snapshot at time zero closes at the registry's high-water
        // mark instead, which the windows must have carried along.
        for close in [end, Time::ZERO] {
            let a = oracle.tel.snapshot(close).expect("enabled");
            let b = subject.tel.snapshot(close).expect("enabled");
            assert_eq!(a, b, "seed {seed} step {step}");
            assert!(b.conserved(), "seed {seed} step {step}");
        }
        let ends = [end; NODES];
        assert_eq!(
            oracle.prof.snapshot(&ends),
            subject.prof.snapshot(&ends),
            "seed {seed} step {step}"
        );
    }

    /// Drives one seeded event stream — timestamps that wander backwards,
    /// leaps that force several doublings of both bucket widths, a second
    /// handle writing event by event in between, publishes at random
    /// points, and a checkpoint round trip into fresh handles half way —
    /// through per-event calls on `oracle` and through windows on
    /// `subject`, comparing both snapshots whole after every publish.
    fn drive(seed: u64) {
        let mut rng = Rng::seeded(seed);
        let oracle = handles();
        let mut subject = handles();
        let mut w = Windows::default();
        let mut now = 0u64;
        for step in 0..EVENTS {
            now += match rng.gen_range(100) {
                0 => rng.gen_range(40 * CADENCE_PS),
                _ => rng.gen_range(CADENCE_PS / 4),
            };
            let at = Time::from_ps(now.saturating_sub(rng.gen_range(2 * CADENCE_PS)));
            let node = rng.gen_range(NODES as u64) as u32;
            let v = rng.gen_range(300);
            match rng.gen_range(13) {
                0..=2 => {
                    oracle.tel.count(oracle.c0, at, v);
                    subject.tel.count_in(&mut w.c0, subject.c0, at, v);
                }
                3 => {
                    oracle.tel.count(oracle.c1, at, 1);
                    subject.tel.count_in(&mut w.c1, subject.c1, at, 1);
                }
                4 => {
                    oracle.tel.gauge(oracle.g0, at, v / 100);
                    subject.tel.gauge_in(&mut w.g0, subject.g0, at, v / 100);
                }
                5 => {
                    for h in [&oracle, &subject] {
                        let second = h.tel.clone();
                        second.count(h.other, at, v);
                        second.count(h.c0, at, 1);
                        second.gauge(h.g0, at, v / 50);
                    }
                }
                6 => {
                    // On its own, so that the integrator is sometimes the
                    // write that doubles the bucket width.
                    for h in [&oracle, &subject] {
                        h.tel.clone().occupy(h.occ, at, v);
                    }
                }
                7 => {
                    let dur = TimeDelta::from_ps(v);
                    for h in [&oracle, &subject] {
                        h.prof.charge(node, StallClass::L2Miss, at, dur);
                    }
                }
                8 => {
                    let dur = TimeDelta::from_ps(v);
                    for h in [&oracle, &subject] {
                        h.prof.charge_wall(node, StallClass::Sync, at, dur);
                    }
                }
                _ => {
                    // Zero-length ops and ops shorter than their charges
                    // are both in range.
                    let busy = TimeDelta::from_ps(v.saturating_sub(60));
                    oracle.prof.mark_op(node, at, busy);
                    let cw = &mut w.compute[node as usize];
                    subject.prof.mark_op_in(cw, node, at, busy);
                }
            }
            if rng.gen_range(150) == 0 {
                w.publish(&subject);
                assert_same(seed, step, &oracle, &subject, now);
            }
            if step == EVENTS / 2 {
                w.publish(&subject);
                let mut out = Ckpt::save("window");
                subject.tel.ckpt(&mut out).unwrap();
                subject.prof.ckpt(&mut out).unwrap();
                let text = out.finish().unwrap();
                subject = handles();
                let mut r = Ckpt::open(&text).expect("intact");
                subject.tel.ckpt(&mut r).expect("telemetry loads");
                subject.prof.ckpt(&mut r).expect("ledger loads");
                r.finish().expect("consumed");
            }
        }
        w.publish(&subject);
        assert_same(seed, EVENTS, &oracle, &subject, now);
        let series = subject.tel.snapshot(Time::from_ps(now)).expect("enabled");
        assert!(
            series.bucket_ps >= 4 * CADENCE_PS,
            "seed {seed}: the registry must have doubled at least twice"
        );
        let acct = subject
            .prof
            .snapshot(&[Time::from_ps(now)])
            .expect("enabled");
        assert!(
            acct.phase_ps >= 4 << 20,
            "seed {seed}: the ledger must have doubled at least twice"
        );
    }

    #[test]
    fn windows_export_the_bytes_of_per_event_writes() {
        for seed in 0..24 {
            drive(seed);
        }
    }

    #[test]
    fn detached_handles_leave_windows_empty() {
        let mut w = Window::new();
        let tel = Telemetry::disabled();
        tel.count_in(&mut w, MetricId::NONE, Time::from_ns(5), 1);
        tel.gauge_in(&mut w, MetricId::NONE, Time::from_ns(5), 1);
        Profiler::disabled().mark_op_in(&mut w, 0, Time::from_ns(5), TimeDelta::from_ns(1));
        assert!(w.is_empty());
    }
}
