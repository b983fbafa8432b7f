//! The named platforms of the study and their tuning state.
//!
//! The paper's figures put seven simulator configurations on the X axis —
//! SimOS-Mipsy at 150/225/300 MHz, SimOS-MXS, and Solo-Mipsy at
//! 150/225/300 MHz — and normalize everything against the FLASH hardware.
//! [`Sim`] names those columns; [`Study`] turns a column into a runnable
//! [`MachineConfig`], either *untuned* (the models' design-time state:
//! 25/35-cycle TLB refills, no L2-interface occupancy, untuned FlashLite)
//! or *tuned* with a [`Tuning`] produced by the calibration loop.

use flashsim_engine::TimeDelta;
use flashsim_flashlite::FlashLiteParams;
use flashsim_machine::{CpuModel, MachineConfig, MachineGeometry, MemSysKind};
use flashsim_numa::NumaParams;
use flashsim_os::OsModel;

/// A simulator configuration (one X-axis column of Figures 1–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sim {
    /// SimOS environment, Mipsy processor at the given MHz.
    SimosMipsy(u32),
    /// SimOS environment, MXS processor (150 MHz).
    SimosMxs,
    /// Solo environment, Mipsy processor at the given MHz.
    SoloMipsy(u32),
}

impl Sim {
    /// The seven columns in the paper's figure order.
    pub fn figure_order() -> Vec<Sim> {
        vec![
            Sim::SimosMipsy(150),
            Sim::SimosMipsy(225),
            Sim::SimosMipsy(300),
            Sim::SimosMxs,
            Sim::SoloMipsy(150),
            Sim::SoloMipsy(225),
            Sim::SoloMipsy(300),
        ]
    }

    /// Display label matching the paper's axis labels.
    pub fn label(&self) -> String {
        match self {
            Sim::SimosMipsy(mhz) => format!("SimOS-Mipsy {mhz}MHz"),
            Sim::SimosMxs => "SimOS-MXS 150MHz".to_owned(),
            Sim::SoloMipsy(mhz) => format!("Solo-Mipsy {mhz}MHz"),
        }
    }
}

/// Which memory-system model a configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemModel {
    /// The detailed FlashLite model (parameter set chosen by tuning state).
    FlashLite,
    /// The generic latency-only NUMA model.
    Numa,
}

/// The simulator parameters produced by the §3.1.2 calibration loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuning {
    /// Calibrated TLB refill cost in CPU cycles (the paper finds 65).
    pub tlb_refill_cycles: u64,
    /// Calibrated Mipsy secondary-cache interface occupancy.
    pub mipsy_l2_iface: Option<TimeDelta>,
    /// Calibrated FlashLite timing parameters.
    pub flashlite: FlashLiteParams,
}

/// A study: one machine geometry plus helpers to build every platform.
#[derive(Debug, Clone)]
pub struct Study {
    /// The machine geometry all platforms share.
    pub geometry: MachineGeometry,
}

impl Study {
    /// A study over the scaled geometry (the default experiment setup).
    pub fn scaled() -> Study {
        Study {
            geometry: MachineGeometry::scaled(),
        }
    }

    /// A study over the full Table-1 geometry.
    pub fn full() -> Study {
        Study {
            geometry: MachineGeometry::flash(),
        }
    }

    /// The gold-standard FLASH "hardware": R10000 cores, IRIX, FlashLite
    /// with true parameters.
    pub fn hardware(&self, nodes: u32) -> MachineConfig {
        MachineConfig::new(
            nodes,
            CpuModel::R10000,
            OsModel::irix_hardware(),
            MemSysKind::FlashLite(FlashLiteParams::hardware()),
            self.geometry,
        )
    }

    /// A simulator configuration in its *untuned* (design-time) state.
    pub fn sim(&self, sim: Sim, nodes: u32, mem: MemModel) -> MachineConfig {
        self.sim_with(sim, nodes, mem, None)
    }

    /// A simulator configuration with calibrated `tuning` applied.
    pub fn sim_tuned(&self, sim: Sim, nodes: u32, mem: MemModel, tuning: &Tuning) -> MachineConfig {
        self.sim_with(sim, nodes, mem, Some(tuning))
    }

    pub(crate) fn sim_with(
        &self,
        sim: Sim,
        nodes: u32,
        mem: MemModel,
        tuning: Option<&Tuning>,
    ) -> MachineConfig {
        let cpu = match sim {
            Sim::SimosMipsy(mhz) | Sim::SoloMipsy(mhz) => CpuModel::Mipsy {
                mhz,
                model_int_latencies: false,
                l2_iface: tuning.and_then(|t| t.mipsy_l2_iface),
            },
            Sim::SimosMxs => CpuModel::Mxs,
        };
        let os = match sim {
            Sim::SoloMipsy(_) => OsModel::solo(),
            Sim::SimosMipsy(_) => match tuning {
                None => OsModel::simos_mipsy(),
                Some(t) => OsModel::simos_mipsy().with_tlb_refill(t.tlb_refill_cycles),
            },
            Sim::SimosMxs => match tuning {
                None => OsModel::simos_mxs(),
                Some(t) => OsModel::simos_mxs().with_tlb_refill(t.tlb_refill_cycles),
            },
        };
        let memsys = match mem {
            MemModel::FlashLite => MemSysKind::FlashLite(match tuning {
                None => FlashLiteParams::untuned(),
                Some(t) => t.flashlite,
            }),
            // NUMA's latencies were "known well in advance"; tuning does
            // not change them (the paper tunes FlashLite only).
            MemModel::Numa => MemSysKind::Numa(NumaParams::matched()),
        };
        MachineConfig::new(nodes, cpu, os, memsys, self.geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_os::TlbModel;

    #[test]
    fn figure_order_has_seven_columns() {
        let order = Sim::figure_order();
        assert_eq!(order.len(), 7);
        assert_eq!(order[0].label(), "SimOS-Mipsy 150MHz");
        assert_eq!(order[3].label(), "SimOS-MXS 150MHz");
        assert_eq!(order[6].label(), "Solo-Mipsy 300MHz");
    }

    #[test]
    fn hardware_uses_golden_models() {
        let hw = Study::scaled().hardware(4);
        assert_eq!(hw.cpu, CpuModel::R10000);
        assert_eq!(hw.os.name, "irix");
        assert!(matches!(hw.memsys, MemSysKind::FlashLite(p) if p == FlashLiteParams::hardware()));
    }

    #[test]
    fn untuned_sims_carry_the_wrong_tlb_costs() {
        let study = Study::scaled();
        let mipsy = study.sim(Sim::SimosMipsy(150), 1, MemModel::FlashLite);
        match mipsy.os.tlb {
            TlbModel::Modeled { refill_cycles, .. } => assert_eq!(refill_cycles, 25),
            TlbModel::None => panic!(),
        }
        let mxs = study.sim(Sim::SimosMxs, 1, MemModel::FlashLite);
        match mxs.os.tlb {
            TlbModel::Modeled { refill_cycles, .. } => assert_eq!(refill_cycles, 35),
            TlbModel::None => panic!(),
        }
        let solo = study.sim(Sim::SoloMipsy(300), 1, MemModel::FlashLite);
        assert!(!solo.os.tlb.is_modeled());
    }

    #[test]
    fn tuning_applies_refill_iface_and_flashlite() {
        let study = Study::scaled();
        let tuning = Tuning {
            tlb_refill_cycles: 65,
            mipsy_l2_iface: Some(TimeDelta::from_ns(150)),
            flashlite: FlashLiteParams::hardware(),
        };
        let cfg = study.sim_tuned(Sim::SimosMipsy(225), 1, MemModel::FlashLite, &tuning);
        match cfg.os.tlb {
            TlbModel::Modeled { refill_cycles, .. } => assert_eq!(refill_cycles, 65),
            TlbModel::None => panic!(),
        }
        match cfg.cpu {
            CpuModel::Mipsy { l2_iface, .. } => {
                assert_eq!(l2_iface, Some(TimeDelta::from_ns(150)));
            }
            _ => panic!(),
        }
        assert!(matches!(cfg.memsys, MemSysKind::FlashLite(p) if p == FlashLiteParams::hardware()));
        // Solo stays TLB-less even tuned; MXS keeps its generic core.
        let solo = study.sim_tuned(Sim::SoloMipsy(150), 1, MemModel::FlashLite, &tuning);
        assert!(!solo.os.tlb.is_modeled());
    }

    #[test]
    fn numa_params_are_tuning_independent() {
        let study = Study::scaled();
        let tuning = Tuning {
            tlb_refill_cycles: 65,
            mipsy_l2_iface: None,
            flashlite: FlashLiteParams::hardware(),
        };
        let a = study.sim(Sim::SimosMipsy(225), 2, MemModel::Numa);
        let b = study.sim_tuned(Sim::SimosMipsy(225), 2, MemModel::Numa, &tuning);
        assert_eq!(a.memsys, b.memsys);
    }
}
