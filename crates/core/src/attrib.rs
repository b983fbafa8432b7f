//! Cross-platform error attribution: *where* a simulator's error comes
//! from, not just how large it is.
//!
//! The paper reports that its simulators are off by 30% or more and then
//! asks which mis-modelled mechanism is responsible (TLB refills the
//! processor models skip, MAGIC occupancy the NUMA model omits, network
//! contention, ...). This module answers that question mechanically: run
//! the same program on two platforms with cycle accounting on
//! ([`profiled`]), and [`attribute`] decomposes the total relative
//! error into signed per-class contributions — "18% optimistic, of which
//! 11 points TLB, 5 occupancy, 2 network".
//!
//! Because each [`Accounting`] is exactly conserved (per-node class
//! totals sum to the node's total time), the per-class contributions sum
//! to the total relative error *by construction*; [`AttributionReport::
//! residual`] exposes the (floating-point-only) difference, which is
//! bounded by a few ulps.

use crate::machine::MachineConfig;
use flashsim_engine::{Accounting, StallClass};
use std::fmt::Write as _;

/// One stall class's share of the error between two platforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassContribution {
    /// The stall class.
    pub class: StallClass,
    /// Picoseconds the simulated platform charged to the class.
    pub sim_ps: u64,
    /// Picoseconds the reference platform charged to the class.
    pub ref_ps: u64,
    /// Signed contribution to the total relative error:
    /// `(sim_ps − ref_ps) / ref_total_ps`. Negative = the simulator
    /// under-accounts this class (a source of optimism).
    pub contribution: f64,
}

/// A per-class decomposition of one platform's error against a reference
/// (normally the gold-standard hardware model) on an identically seeded
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Label of the platform being judged.
    pub sim_label: String,
    /// Label of the reference platform.
    pub ref_label: String,
    /// Total accounted picoseconds on the judged platform.
    pub sim_total_ps: u64,
    /// Total accounted picoseconds on the reference platform.
    pub ref_total_ps: u64,
    /// Total relative error, `(sim − ref) / ref`. Negative = optimistic.
    pub total_error: f64,
    /// Per-class contributions in [`StallClass::ALL`] order; they sum to
    /// `total_error` up to floating-point rounding.
    pub classes: Vec<ClassContribution>,
}

impl AttributionReport {
    /// `total_error` minus the sum of per-class contributions. Exact
    /// conservation of both accountings makes this pure floating-point
    /// noise (well under `1e-9` for any realistic run); a larger residual
    /// means an accounting was not conserved.
    pub fn residual(&self) -> f64 {
        self.total_error - self.classes.iter().map(|c| c.contribution).sum::<f64>()
    }

    /// True if the judged platform predicts a shorter time than the
    /// reference.
    pub fn optimistic(&self) -> bool {
        self.total_error < 0.0
    }

    /// Renders the paper-style attribution table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "error attribution: {} vs {}",
            self.sim_label, self.ref_label
        );
        let direction = if self.optimistic() {
            "optimistic"
        } else {
            "pessimistic"
        };
        let _ = writeln!(
            out,
            "  total: sim {:.3}ms vs ref {:.3}ms => {:.1}% {}",
            self.sim_total_ps as f64 / 1e9,
            self.ref_total_ps as f64 / 1e9,
            self.total_error.abs() * 100.0,
            direction
        );
        let _ = writeln!(
            out,
            "  {:<16}{:>12}{:>12}{:>14}",
            "class", "sim(ms)", "ref(ms)", "contribution"
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "  {:<16}{:>12.3}{:>12.3}{:>+13.2}pp",
                c.class.key(),
                c.sim_ps as f64 / 1e9,
                c.ref_ps as f64 / 1e9,
                c.contribution * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  contributions sum to {:+.2}pp (residual {:.1e})",
            (self.total_error - self.residual()) * 100.0,
            self.residual()
        );
        out
    }
}

/// Decomposes the relative error of `sim` against `reference` into signed
/// per-class contributions.
///
/// Both accountings should come from identically seeded runs of the same
/// program so the comparison is apples-to-apples (same op streams, same
/// sharing pattern). With both sides conserved, the contributions sum to
/// the total relative error exactly (modulo f64 rounding).
pub fn attribute(
    sim: &Accounting,
    sim_label: &str,
    reference: &Accounting,
    ref_label: &str,
) -> AttributionReport {
    let sim_totals = sim.class_totals();
    let ref_totals = reference.class_totals();
    let sim_total = sim.total_ps();
    let ref_total = reference.total_ps();
    let denom = if ref_total == 0 {
        1.0
    } else {
        ref_total as f64
    };
    let classes = StallClass::ALL
        .into_iter()
        .map(|class| {
            let sim_ps = sim_totals[class as usize];
            let ref_ps = ref_totals[class as usize];
            ClassContribution {
                class,
                sim_ps,
                ref_ps,
                // Signed difference via f64: the two u64s may be far
                // apart in either direction.
                contribution: (sim_ps as f64 - ref_ps as f64) / denom,
            }
        })
        .collect();
    AttributionReport {
        sim_label: sim_label.to_owned(),
        ref_label: ref_label.to_owned(),
        sim_total_ps: sim_total,
        ref_total_ps: ref_total,
        total_error: (sim_total as f64 - ref_total as f64) / denom,
        classes,
    }
}

/// `cfg` with the cycle-accounting profiler switched on, so a run's
/// `result.accounting` is populated and a machine built from it writes
/// checkpoints whose provenance says `profile=true` and restores.
pub fn profiled(mut cfg: MachineConfig) -> MachineConfig {
    cfg.profile = true;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::{Profiler, Time, TimeDelta};

    /// A synthetic conserved accounting: charge known spans, snapshot.
    fn acct(charges: &[(StallClass, u64)], end_ns: u64) -> Accounting {
        let p = Profiler::new();
        let mut at = Time::ZERO;
        for &(class, ns) in charges {
            p.charge_wall(0, class, at, TimeDelta::from_ns(ns));
            at += TimeDelta::from_ns(ns);
        }
        let a = p
            .snapshot(&[Time::from_ns(end_ns)])
            .expect("enabled profiler");
        assert!(a.conserved());
        a
    }

    #[test]
    fn contributions_sum_to_total_error() {
        let hw = acct(
            &[
                (StallClass::TlbRefill, 300),
                (StallClass::DirOccupancy, 200),
                (StallClass::NetTransit, 100),
            ],
            1000,
        );
        let sim = acct(&[(StallClass::DirOccupancy, 50)], 820);
        let rep = attribute(&sim, "sim", &hw, "hw");
        assert!(rep.optimistic());
        assert!((rep.total_error - (820.0 - 1000.0) / 1000.0).abs() < 1e-12);
        assert!(rep.residual().abs() < 1e-9, "residual {}", rep.residual());
        // The TLB class alone explains 30 points of the error.
        let tlb = &rep.classes[StallClass::TlbRefill as usize];
        assert!((tlb.contribution - (-0.3)).abs() < 1e-12);
    }

    #[test]
    fn pessimistic_direction_and_render() {
        let hw = acct(&[(StallClass::L2Miss, 100)], 500);
        let sim = acct(&[(StallClass::L2Miss, 400)], 800);
        let rep = attribute(&sim, "slow-sim", &hw, "gold");
        assert!(!rep.optimistic());
        assert!((rep.total_error - 0.6).abs() < 1e-12);
        let text = rep.render();
        assert!(text.contains("slow-sim"));
        assert!(text.contains("pessimistic"));
        assert!(text.contains("l2_miss"));
        // One table row per class, between the header and the sum line.
        assert_eq!(text.lines().count(), 3 + StallClass::COUNT + 1);
    }

    #[test]
    fn empty_reference_does_not_divide_by_zero() {
        let hw = acct(&[], 0);
        let sim = acct(&[(StallClass::Compute, 10)], 10);
        let rep = attribute(&sim, "sim", &hw, "hw");
        assert!(rep.total_error.is_finite());
        assert!(rep.residual().abs() < 1e-9);
    }
}
