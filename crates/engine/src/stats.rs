//! Simulation statistics: counters, histograms, and a labelled registry.
//!
//! Every simulator in the workspace reports through these types so that the
//! validation layer (`flashsim-core`) can diff statistics between platforms
//! uniformly.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::stats::{Counter, Histogram};
//!
//! let mut misses = Counter::new();
//! misses.add(3);
//! misses.incr();
//! assert_eq!(misses.get(), 4);
//!
//! let mut lat = Histogram::new();
//! lat.record(100);
//! lat.record(110);
//! assert_eq!(lat.count(), 2);
//! assert_eq!(lat.mean(), 105.0);
//! ```

use core::fmt;
use std::collections::BTreeMap;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds `n` events, saturating at `u64::MAX`: a counter that has hit
    /// the ceiling pins there instead of wrapping back towards zero and
    /// silently corrupting downstream rate computations.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one event (saturating, like [`add`](Counter::add)).
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A histogram of `u64` samples with power-of-two buckets.
///
/// Bucket `i` holds samples in `[2^(i-1), 2^i)`, with bucket 0 holding the
/// value 0. Exact sum/count/min/max are tracked alongside, so [`mean`]
/// is exact even though the buckets are coarse.
///
/// [`mean`]: Histogram::mean
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of all samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate `q`-quantile (0.0..=1.0) from the bucket boundaries:
    /// returns the upper bound of the bucket containing the quantile,
    /// capped at the largest observed sample.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Bucket 64 holds [2^63, u64::MAX]: its upper bound does
                // not fit in a u64 (`1u64 << 64` would overflow), so
                // saturate; the cap at `self.max` keeps the answer a
                // value that was actually observable.
                let bound = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    1u64 << i
                };
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0 mean=0.0 min=- max=-");
        }
        write!(
            f,
            "n={} mean={:.1} min={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.max
        )
    }
}

/// A labelled, ordered collection of statistics, merged hierarchically.
///
/// Components report scalar metrics under string keys; the machine layer
/// prefixes keys per node (e.g. `node3.l2.misses`) and the validation layer
/// reads them back uniformly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSet {
    values: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> StatSet {
        StatSet::default()
    }

    /// Sets `key` to `value`, replacing any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Adds `value` to `key` (starting from zero).
    pub fn add(&mut self, key: impl Into<String>, value: f64) {
        *self.values.entry(key.into()).or_insert(0.0) += value;
    }

    /// Reads `key`, or `None` if absent.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Reads `key`, or 0 if absent.
    pub fn get_or_zero(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Merges `other` under a `prefix.` namespace, summing on collision.
    pub fn absorb(&mut self, prefix: &str, other: &StatSet) {
        for (k, v) in &other.values {
            self.add(format!("{prefix}.{k}"), *v);
        }
    }

    /// Merges `other` at top level, summing on collision.
    pub fn absorb_flat(&mut self, other: &StatSet) {
        for (k, v) in &other.values {
            self.add(k.clone(), *v);
        }
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no keys are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Serializes the set as a flat JSON object, keys in sorted order.
    ///
    /// Hand-rolled (the build is offline, no serde); non-finite values
    /// are emitted as `null` since JSON has no NaN/Inf. Together with the
    /// machine layer's `RunManifest` this makes `results/` artifacts
    /// machine-readable.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.values.len() * 32);
        out.push('{');
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::jsonl::push_json_escaped(&mut out, k);
            out.push_str("\":");
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                out.push_str("null");
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.is_empty() {
            return write!(f, "(no stats)");
        }
        for (k, v) in &self.values {
            writeln!(f, "{k:<48} {v:.3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(format!("{c}"), "10");
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_buckets_zero_and_powers() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99);
    }

    #[test]
    fn histogram_quantile_top_bucket_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // lands in bucket 64
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_quantile_capped_at_observed_max() {
        let mut h = Histogram::new();
        h.record(5); // bucket 3 has upper bound 8
        assert_eq!(h.quantile(0.5), Some(5));
        let mut big = Histogram::new();
        big.record(1 << 62); // bucket 63 upper bound is 2^63
        assert_eq!(big.quantile(0.9), Some(1 << 62));
    }

    #[test]
    fn histogram_display_empty_shows_dashes() {
        let h = Histogram::new();
        assert_eq!(format!("{h}"), "n=0 mean=0.0 min=- max=-");
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(format!("{h}"), "n=1 mean=7.0 min=7 max=7");
    }

    #[test]
    fn counter_saturates_at_max() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX, "incr must pin at MAX, not wrap");
        c.add(12345);
        assert_eq!(c.get(), u64::MAX, "add must pin at MAX, not wrap");
    }

    #[test]
    fn histogram_merge_mismatched_bucket_layouts() {
        // The populated bucket ranges are disjoint: tiny samples in the
        // low buckets vs huge samples in the top bucket. The merge must
        // preserve both populations and every exact moment.
        let mut small = Histogram::new();
        for v in [0, 1, 3] {
            small.record(v);
        }
        let mut huge = Histogram::new();
        huge.record(u64::MAX / 2);
        huge.record(1 << 40);
        small.merge(&huge);
        assert_eq!(small.count(), 5);
        assert_eq!(small.sum(), 4 + u64::MAX / 2 + (1 << 40));
        assert_eq!(small.min(), Some(0));
        assert_eq!(small.max(), Some(u64::MAX / 2));
        // Low quantiles come from the small population, high from the
        // huge one.
        assert!(small.quantile(0.2).unwrap() <= 4);
        assert!(small.quantile(1.0).unwrap() >= (1 << 40));
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(
            a, before,
            "merging an empty histogram must not move min/max"
        );
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_quantile_single_sample() {
        let mut h = Histogram::new();
        h.record(77);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(77), "q={q}");
        }
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 30);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(20));
    }

    #[test]
    fn statset_set_add_get() {
        let mut s = StatSet::new();
        s.set("a", 1.0);
        s.add("a", 2.0);
        s.add("b", 5.0);
        assert_eq!(s.get("a"), Some(3.0));
        assert_eq!(s.get_or_zero("missing"), 0.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn statset_absorb_prefixes() {
        let mut node = StatSet::new();
        node.set("l2.misses", 7.0);
        let mut top = StatSet::new();
        top.absorb("node0", &node);
        assert_eq!(top.get("node0.l2.misses"), Some(7.0));
    }

    #[test]
    fn statset_absorb_flat_sums() {
        let mut a = StatSet::new();
        a.set("x", 1.0);
        let mut b = StatSet::new();
        b.set("x", 2.0);
        a.absorb_flat(&b);
        assert_eq!(a.get("x"), Some(3.0));
    }

    #[test]
    fn statset_json_snapshot() {
        let mut s = StatSet::new();
        assert_eq!(s.to_json(), "{}");
        s.set("l2.misses", 12.0);
        s.set("cpu.ops", 3.5);
        s.set("bad", f64::NAN);
        assert_eq!(s.to_json(), r#"{"bad":null,"cpu.ops":3.5,"l2.misses":12}"#);
    }

    #[test]
    fn statset_json_is_sorted_regardless_of_insertion_order() {
        let keys = ["z.last", "a.first", "m.middle", "b.second"];
        let mut fwd = StatSet::new();
        for (i, k) in keys.iter().enumerate() {
            fwd.set(*k, i as f64);
        }
        let mut rev = StatSet::new();
        for (i, k) in keys.iter().enumerate().rev() {
            rev.set(*k, i as f64);
        }
        assert_eq!(fwd.to_json(), rev.to_json(), "JSON must be byte-stable");
        // And the order is actually sorted, not just consistent.
        let json = fwd.to_json();
        let positions: Vec<usize> = {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            sorted
                .iter()
                .map(|k| json.find(&format!("\"{k}\"")).expect("key present"))
                .collect()
        };
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "keys must appear in sorted order: {json}"
        );
    }

    #[test]
    fn statset_display_nonempty() {
        let mut s = StatSet::new();
        assert_eq!(format!("{s}"), "(no stats)");
        s.set("k", 1.0);
        assert!(format!("{s}").contains('k'));
    }
}
