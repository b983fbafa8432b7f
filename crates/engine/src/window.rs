//! Window-local accumulation for the hottest observer writes.
//!
//! [`crate::telemetry`] counters and gauges and the [`crate::account`]
//! compute residual are bucketed by simulated time, and consecutive events
//! from one call site almost always land in the bucket the previous one
//! did. A [`Window`] lets the call site keep that bucket to itself: it
//! caches one bucket-aligned interval `[lo, hi)` of the handle's current
//! geometry and folds every event inside it — a sum or a max — into one
//! word, so such an event costs two compares and an add, with no lock and
//! no division. The handle's lock is taken only when an event falls
//! outside the interval (the fold is published and the window re-aimed)
//! and when a reader needs the handle complete (`publish`).
//!
//! Deferring the writes cannot change a byte of any export:
//!
//! - bucket sums and maxima commute, so the order in which a fold and
//!   other handles' per-event writes reach a bucket is immaterial;
//! - bucket widths only ever double, merging aligned pairs, so an interval
//!   aligned at the width it was cached at stays inside one bucket at
//!   every later width;
//! - the fold is published at the largest timestamp it absorbed, so the
//!   handle's high-water mark — and with it every doubling — ends up where
//!   per-event writes would have put it.
//!
//! What remains is the caller's duty: publish every window before anything
//! reads the handle (snapshot, checkpoint).

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

    /// Empties the window, returning `(last_at, fold)` if it held
    /// anything.
    pub(crate) fn take(&mut self) -> Option<(u64, u64)> {
        let held = (!self.is_empty()).then_some((self.last_at, self.fold));
        *self = Window::new();
        held
    }

    /// Re-aims the emptied window at `[lo, hi)`, which contains `at`,
    /// starting the fold from the event `(at, first)`.
    pub(crate) fn aim(&mut self, lo: u64, hi: u64, at: u64, first: u64) {
        debug_assert!((lo..hi).contains(&at), "window aimed off its event");
        *self = Window {
            lo,
            hi,
            last_at: at,
            fold: first,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{Profiler, StallClass};
    use crate::ckpt::{CkptReader, CkptWriter};
    use crate::rng::Rng;
    use crate::telemetry::{MetricId, MetricKind, Telemetry};
    use crate::time::{Time, TimeDelta};

    /// Not a power of two, so telemetry buckets and accounting phases
    /// never line up.
    const CADENCE_PS: u64 = 250_000;
    const NODES: usize = 4;
    const EVENTS: usize = 6000;

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
                let mut out = CkptWriter::new("window");
                subject.tel.save_ckpt(&mut out);
                subject.prof.save_ckpt(&mut out);
                let text = out.finish();
                subject = handles();
                let mut r = CkptReader::open(&text).expect("intact");
                subject.tel.load_ckpt(&mut r).expect("telemetry loads");
                subject.prof.load_ckpt(&mut r).expect("ledger loads");
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
