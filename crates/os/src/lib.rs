//! `flashsim-os` — operating-system *effect* models.
//!
//! The paper's environments differ not in which kernel boots but in which
//! OS-induced performance effects exist at all:
//!
//! - **Solo** emulates system calls behind the simulator's back: no TLB is
//!   modelled, and physical memory is allocated by the simulator itself
//!   with no page colouring ([`OsModel::solo`]). Both omissions are
//!   headline findings of the paper (§3.1.2).
//! - **SimOS** boots (a model of) IRIX: the TLB exists, page allocation is
//!   IRIX page-coloured, timer interrupts tick — but before tuning, the
//!   processor models charge the *wrong* TLB-refill cost: 25 cycles under
//!   Mipsy and 35 under MXS instead of the 65 the R10000 really takes
//!   ([`OsModel::simos_mipsy`], [`OsModel::simos_mxs`]; tuning sets the
//!   true cost through [`OsModel::with_tlb_refill`]).
//! - **IRIX on the gold standard** is the same model with the true refill
//!   cost ([`OsModel::irix_hardware`]).
//!
//! The machine layer consumes an [`OsModel`] when it builds each node's
//! memory environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flashsim_engine::TimeDelta;
use flashsim_mem::AllocPolicy;

/// How (and whether) the environment models the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbModel {
    /// No TLB: translations are free (Solo).
    None,
    /// A TLB with `entries` slots whose refill handler costs
    /// `refill_cycles` processor cycles.
    Modeled {
        /// TLB entries (64 on the R10000).
        entries: usize,
        /// Refill handler cost in CPU cycles (25/35 untuned; 65 true).
        refill_cycles: u64,
    },
}

impl TlbModel {
    /// True if a TLB is modelled at all.
    pub const fn is_modeled(self) -> bool {
        matches!(self, TlbModel::Modeled { .. })
    }
}

/// The OS-effect model for one platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsModel {
    /// Display name (`"solo"`, `"simos"`, `"irix"`).
    pub name: &'static str,
    /// Physical frame allocation policy.
    pub alloc_policy: AllocPolicy,
    /// TLB model.
    pub tlb: TlbModel,
    /// First-touch page-fault cost (zeroing, VM bookkeeping); zero for
    /// Solo's backdoor allocation.
    pub page_fault_cost: TimeDelta,
    /// Scheduler-tick interval, if ticks are modelled.
    pub timer_interval: Option<TimeDelta>,
    /// CPU time consumed per tick.
    pub timer_cost: TimeDelta,
}

/// The R10000 TLB geometry (64 entries; each maps a 4 KB page here).
pub const R10000_TLB_ENTRIES: usize = 64;

/// The measured R10000 TLB refill cost the paper tuned to (§3.1.2).
pub const TLB_REFILL_TRUE: u64 = 65;
/// Mipsy's untuned prediction for the 14-instruction refill handler.
pub const TLB_REFILL_MIPSY: u64 = 25;
/// MXS's untuned prediction (models latencies, not co-processor flushes).
pub const TLB_REFILL_MXS: u64 = 35;

impl OsModel {
    /// Solo: emulated syscalls, no TLB, simulator-owned sequential
    /// allocation with no page colouring.
    pub fn solo() -> OsModel {
        OsModel {
            name: "solo",
            alloc_policy: AllocPolicy::Sequential,
            tlb: TlbModel::None,
            page_fault_cost: TimeDelta::ZERO,
            timer_interval: None,
            timer_cost: TimeDelta::ZERO,
        }
    }

    fn simos(refill_cycles: u64) -> OsModel {
        OsModel {
            name: "simos",
            alloc_policy: AllocPolicy::ColorHashed,
            tlb: TlbModel::Modeled {
                entries: R10000_TLB_ENTRIES,
                refill_cycles,
            },
            page_fault_cost: TimeDelta::from_us(20),
            timer_interval: Some(TimeDelta::from_us(10_000)), // 10ms tick
            timer_cost: TimeDelta::from_us(5),
        }
    }

    /// SimOS under the untuned Mipsy processor model (25-cycle refills).
    pub fn simos_mipsy() -> OsModel {
        OsModel::simos(TLB_REFILL_MIPSY)
    }

    /// SimOS under the untuned MXS processor model (35-cycle refills).
    pub fn simos_mxs() -> OsModel {
        OsModel::simos(TLB_REFILL_MXS)
    }

    /// IRIX on the gold-standard hardware (true refill cost).
    pub fn irix_hardware() -> OsModel {
        OsModel {
            name: "irix",
            ..OsModel::simos(TLB_REFILL_TRUE)
        }
    }

    /// Overrides the TLB refill cost — how the §3.1.2 tuning loop applies
    /// its calibrated value to a simulator's environment.
    pub fn with_tlb_refill(mut self, cycles: u64) -> OsModel {
        if let TlbModel::Modeled { entries, .. } = self.tlb {
            self.tlb = TlbModel::Modeled {
                entries,
                refill_cycles: cycles,
            };
        }
        self
    }

    /// Overrides the TLB geometry — used by proportionally scaled machine
    /// configurations so that TLB reach shrinks with the caches.
    pub fn with_tlb_entries(mut self, entries: usize) -> OsModel {
        if let TlbModel::Modeled { refill_cycles, .. } = self.tlb {
            self.tlb = TlbModel::Modeled {
                entries,
                refill_cycles,
            };
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_omits_tlb_and_coloring() {
        let solo = OsModel::solo();
        assert!(!solo.tlb.is_modeled());
        assert_eq!(solo.alloc_policy, AllocPolicy::Sequential);
        assert!(solo.timer_interval.is_none());
        assert!(solo.page_fault_cost.is_zero());
    }

    #[test]
    fn simos_models_tlb_with_wrong_costs_until_tuned() {
        assert!(OsModel::simos_mipsy().tlb.is_modeled());
        match OsModel::simos_mipsy().tlb {
            TlbModel::Modeled {
                refill_cycles,
                entries,
            } => {
                assert_eq!(refill_cycles, 25);
                assert_eq!(entries, 64);
            }
            TlbModel::None => panic!("SimOS must model the TLB"),
        }
        match OsModel::simos_mxs().tlb {
            TlbModel::Modeled { refill_cycles, .. } => assert_eq!(refill_cycles, 35),
            TlbModel::None => panic!(),
        }
        match OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE).tlb {
            TlbModel::Modeled { refill_cycles, .. } => assert_eq!(refill_cycles, 65),
            TlbModel::None => panic!(),
        }
    }

    #[test]
    fn irix_matches_tuned_simos_costs() {
        let hw = OsModel::irix_hardware();
        let tuned = OsModel::simos_mipsy().with_tlb_refill(TLB_REFILL_TRUE);
        assert_eq!(hw.tlb, tuned.tlb);
        assert_eq!(hw.alloc_policy, AllocPolicy::ColorHashed);
        assert_eq!(hw.name, "irix");
    }

    #[test]
    fn tlb_entries_override_for_scaled_configs() {
        let scaled = OsModel::simos_mipsy()
            .with_tlb_refill(TLB_REFILL_TRUE)
            .with_tlb_entries(16);
        match scaled.tlb {
            TlbModel::Modeled {
                entries,
                refill_cycles,
            } => {
                assert_eq!(entries, 16);
                assert_eq!(refill_cycles, 65, "refill cost preserved");
            }
            TlbModel::None => panic!(),
        }
        // A no-op on Solo.
        let solo = OsModel::solo().with_tlb_entries(16);
        assert!(!solo.tlb.is_modeled());
    }
}
