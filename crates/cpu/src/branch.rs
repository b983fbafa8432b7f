//! A two-bit-counter branch predictor, shared by MXS and the gold
//! standard ("the same branch prediction strategy" — §2.2).

use flashsim_engine::ckpt::{bad, Ckpt, CkptError};

/// Saturating two-bit counters indexed by static branch site.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters (rounded up to a power
    /// of two), initialized to weakly-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> BranchPredictor {
        assert!(entries > 0, "predictor needs at least one entry");
        BranchPredictor {
            counters: vec![2; entries.next_power_of_two()],
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predicts the branch at `site`, updates the counter with the actual
    /// `taken` outcome, and returns `true` on a misprediction.
    pub fn mispredicts(&mut self, site: u32, taken: bool) -> bool {
        let idx = site as usize & (self.counters.len() - 1);
        let counter = &mut self.counters[idx];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.predictions += 1;
        let miss = predicted_taken != taken;
        if miss {
            self.mispredictions += 1;
        }
        miss
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Total mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Walks the predictor's tables and counters in the caller's current
    /// checkpoint section; a restore fails closed on another table size.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let entries = self.counters.len();
        c.interlock("bp_entries", &[entries as u64])?;
        let mut counters: Vec<u64> = self.counters.iter().map(|&n| u64::from(n)).collect();
        c.u64s("bp_counters", &mut counters, entries..=entries)?;
        if counters.iter().any(|&n| n > 3) {
            return Err(bad("bp_counters", "a counter above 3"));
        }
        for (slot, n) in self.counters.iter_mut().zip(counters) {
            *slot = n as u8;
        }
        c.u64("bp_predictions", &mut self.predictions)?;
        c.u64("bp_mispredictions", &mut self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_branches_predict_nearly_perfectly() {
        let mut bp = BranchPredictor::new(256);
        let mut misses = 0;
        for _ in 0..1000 {
            if bp.mispredicts(7, true) {
                misses += 1;
            }
        }
        assert!(misses <= 1, "always-taken loop mispredicted {misses} times");
    }

    #[test]
    fn alternating_branch_thrashes() {
        let mut bp = BranchPredictor::new(256);
        let mut taken = false;
        for _ in 0..100 {
            bp.mispredicts(3, taken);
            taken = !taken;
        }
        assert_eq!(bp.predictions(), 100);
        assert!(bp.mispredictions() > 40);
    }

    #[test]
    fn two_bit_hysteresis_survives_single_flip() {
        let mut bp = BranchPredictor::new(16);
        for _ in 0..10 {
            bp.mispredicts(1, true);
        }
        assert!(bp.mispredicts(1, false)); // the one not-taken mispredicts
        assert!(!bp.mispredicts(1, true)); // but the counter held: next taken is fine
    }

    #[test]
    fn sites_are_independent_until_aliasing() {
        let mut bp = BranchPredictor::new(2);
        // Sites 0 and 2 alias (table of 2); sites 0 and 1 do not.
        for _ in 0..10 {
            bp.mispredicts(0, true);
            bp.mispredicts(1, false);
        }
        assert!(!bp.mispredicts(0, true));
        assert!(!bp.mispredicts(1, false));
    }
}
