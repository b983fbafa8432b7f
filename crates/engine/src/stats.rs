//! Simulation statistics: a labelled registry of scalar metrics.
//!
//! Every simulator in the workspace reports through [`StatSet`] so that
//! the validation layer (`flashsim-core`) can diff statistics between
//! platforms uniformly.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::stats::StatSet;
//!
//! let mut node = StatSet::new();
//! node.add("l2.misses", 3.0);
//! node.add("l2.misses", 1.0);
//! let mut machine = StatSet::new();
//! machine.absorb("node0", &node);
//! assert_eq!(machine.get("node0.l2.misses"), Some(4.0));
//! ```

use core::fmt;
use std::collections::BTreeMap;

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
