//! The per-case transaction ledger both memory-system models keep.

use flashsim_engine::ckpt::{bad, Ckpt, CkptError};
use flashsim_engine::{StatSet, TimeDelta};
use flashsim_mem::system::ProtocolCase;

/// How many transactions took each [`ProtocolCase`] and their summed
/// latency: two fixed arrays indexed by [`ProtocolCase::index`], updated
/// once per transaction. A case is *present* once it has occurred;
/// statistics and checkpoints list the present cases in declaration
/// order.
#[derive(Debug, Clone, Default)]
pub struct CaseLedger {
    counts: [u64; ProtocolCase::ALL.len()],
    latency_ns: [f64; ProtocolCase::ALL.len()],
}

impl CaseLedger {
    /// Records one transaction of `case` that took `latency`.
    #[inline]
    pub fn record(&mut self, case: ProtocolCase, latency: TimeDelta) {
        self.counts[case.index()] += 1;
        self.latency_ns[case.index()] += latency.as_ns_f64();
    }

    /// Mean latency observed for `case`, if any occurred.
    pub fn mean_latency_ns(&self, case: ProtocolCase) -> Option<f64> {
        let n = self.counts[case.index()];
        (n > 0).then(|| self.latency_ns[case.index()] / n as f64)
    }

    /// The cases that occurred, with their counts.
    fn present(&self) -> impl Iterator<Item = (ProtocolCase, u64)> + '_ {
        let counts = ProtocolCase::ALL.into_iter().zip(self.counts);
        counts.filter(|&(_, n)| n > 0)
    }

    /// Sets `proto.<case>.count` and `proto.<case>.mean_ns` for every
    /// case that occurred.
    pub fn stats_into(&self, s: &mut StatSet) {
        for (case, count) in self.present() {
            s.set(format!("proto.{}.count", case.key()), count as f64);
            if let Some(mean) = self.mean_latency_ns(case) {
                s.set(format!("proto.{}.mean_ns", case.key()), mean);
            }
        }
    }

    /// Walks the cases that occurred in the current section; a restore
    /// replaces the ledger and fails closed on an unknown case key or a
    /// case listed with no transactions.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let mut keys: Vec<&'static str> = self.present().map(|(case, _)| case.key()).collect();
        if c.loading() {
            *self = CaseLedger::default();
        }
        c.list("cases", &mut keys, |c, key| {
            c.label("case", key)?;
            let case = ProtocolCase::from_key(key).ok_or_else(|| bad("case", *key))?;
            c.u64("count", &mut self.counts[case.index()])?;
            if self.counts[case.index()] == 0 {
                return Err(bad("count", format!("0 for case {key}")));
            }
            c.f64("latency_ns", &mut self.latency_ns[case.index()])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::ckpt::{CkptReader, CkptWriter};

    #[test]
    fn lists_only_cases_that_occurred_in_declaration_order() {
        let mut l = CaseLedger::default();
        l.record(ProtocolCase::WritebackCase, TimeDelta::from_ns(10));
        l.record(ProtocolCase::LocalClean, TimeDelta::from_ns(100));
        l.record(ProtocolCase::LocalClean, TimeDelta::from_ns(300));
        assert_eq!(l.mean_latency_ns(ProtocolCase::LocalClean), Some(200.0));
        assert_eq!(l.mean_latency_ns(ProtocolCase::RemoteClean), None);
        let mut s = StatSet::new();
        l.stats_into(&mut s);
        assert_eq!(s.get("proto.local_clean.count"), Some(2.0));
        assert_eq!(s.get("proto.writeback.mean_ns"), Some(10.0));
        assert_eq!(s.get("proto.remote_clean.count"), None);

        let mut w = CkptWriter::new("ledger-test");
        l.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        let (a, b) = (
            text.find("local_clean").expect("listed"),
            text.find("writeback").expect("listed"),
        );
        assert!(a < b, "declaration order");
        assert!(!text.contains("remote_clean"));

        let mut back = CaseLedger::default();
        back.record(ProtocolCase::RemoteClean, TimeDelta::from_ns(1));
        let mut r = CkptReader::open(&text).expect("open");
        back.ckpt(&mut Ckpt::Load(&mut r)).expect("load");
        r.finish().expect("fully consumed");
        let mut w = CkptWriter::new("ledger-test");
        back.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        assert_eq!(w.finish(), text);
    }
}
