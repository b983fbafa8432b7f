//! The cells of each workload: one `MachineConfig` × one `Program`.
//!
//! Every workload runs on `Study::scaled()` with `ProblemScale::Scaled`
//! inputs. The SPLASH-2 kernels are the paper's fixed inputs; `seed`
//! reaches only what is generated — `ShareStorm`'s addresses and
//! read/write choices, and the span sampler of `mp16-observed`.
//!
//! Cut to fit the benchmark contract's time cap (README, "Reduction
//! rule"): no simos-mxs column on `uni-compute`, no simos-mipsy/numa
//! column on `mp16-grid`, a smaller `ShareStorm`, and no cell under
//! `SchedPolicy::Parallel`: its fork/join rounds are too sensitive to this
//! shared host's wake-up latency to time (the traced run's
//! `machine.sched.*` drives measure it instead).
//! Radix at 16 nodes is deliberately absent: its per-thread key re-sort
//! makes op generation the bottleneck.

use crate::registry::Workload;
use crate::storm::{ShareStorm, StormVariant};
use flashsim_core::platform::{MemModel, Sim, Study, Tuning};
use flashsim_engine::{SpanPlan, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::MachineConfig;
use flashsim_workloads::{Fft, FftBlocking, Lu, Ocean, ProblemScale, Radix};
use std::sync::Arc;

const SCALE: ProblemScale = ProblemScale::Scaled;
const MIPSY: Sim = Sim::SimosMipsy(150);
/// Loads/stores each `ShareStorm` thread issues.
pub const STORM_ACCESSES: u32 = 12_500;

/// One cell of a workload.
pub struct Cell {
    /// `<program>/<nodes>@<platform>`, unique within the workload.
    pub label: String,
    /// The machine the cell builds.
    pub cfg: MachineConfig,
    /// The program it runs.
    pub program: Arc<dyn Program>,
    /// Index of the program among the workload's programs; a sim cell is
    /// scored against the hardware cell with the same index.
    pub program_id: usize,
    /// Whether the cell is the gold-standard hardware.
    pub hardware: bool,
    /// Whether the run result must carry accounting, telemetry and spans.
    pub observed: bool,
    /// Whether this is the workload's oracle cell: the cheapest cell that
    /// runs the workload's own policy, re-run under
    /// `SchedPolicy::Reference` during set-up.
    pub oracle: bool,
}

/// Builds the cells of `workload` from `seed`, simulators tuned by
/// `tuning`.
pub fn build(workload: Workload, seed: u64, study: &Study, tuning: &Tuning) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut program_id = 0;
    let mut add = |program: Arc<dyn Program>, platforms: &[Platform], oracle: Option<Platform>| {
        let nodes = program.num_threads() as u32;
        for platform in platforms {
            let cfg = platform.config(study, tuning, nodes);
            cells.push(Cell {
                label: format!("{}/{nodes}@{}", program.name(), cfg.label()),
                cfg,
                program: Arc::clone(&program),
                program_id,
                hardware: matches!(platform, Platform::Hardware),
                observed: false,
                oracle: oracle == Some(*platform),
            });
        }
        program_id += 1;
    };
    use Platform::{FlashLite, Hardware, Numa};
    const PAIR: [Platform; 2] = [Hardware, FlashLite];
    // LU has the fewest ops of the kernels at every node count, and
    // simos-mipsy is the cheaper platform: the oracle wherever LU runs.
    const LU: Option<Platform> = Some(FlashLite);
    let fft = |n| Arc::new(Fft::sized(SCALE, n, FftBlocking::Tlb)) as Arc<dyn Program>;
    let lu = |n| Arc::new(Lu::sized(SCALE, n)) as Arc<dyn Program>;
    let ocean = |n| Arc::new(Ocean::sized(SCALE, n)) as Arc<dyn Program>;

    match workload {
        Workload::UniCompute => {
            add(fft(1), &PAIR, None);
            add(Arc::new(Radix::tuned(SCALE, 1)), &PAIR, None);
            add(lu(1), &PAIR, LU);
            add(ocean(1), &PAIR, None);
        }
        Workload::Mp16Grid => {
            add(fft(16), &PAIR, None);
            add(lu(16), &PAIR, LU);
            add(ocean(16), &PAIR, None);
        }
        Workload::Mp16Observed => {
            add(lu(16), &PAIR, LU);
            add(ocean(16), &PAIR, None);
            for cell in &mut cells {
                cell.cfg.telemetry = Some(TimeDelta::from_us(50));
                cell.cfg.profile = true;
                cell.cfg.spans = Some(SpanPlan::sampled(seed, 64));
                cell.observed = true;
            }
        }
        Workload::ShareStorm => {
            for variant in StormVariant::ALL {
                let storm = Arc::new(ShareStorm::new(variant, 16, STORM_ACCESSES, seed));
                match variant {
                    // Reads on the latency-only model: no invalidations,
                    // no occupancy, the cheapest storm there is.
                    StormVariant::Read => add(storm, &[FlashLite, Numa], Some(Numa)),
                    StormVariant::ReadWrite => add(storm, &[Hardware, FlashLite, Numa], None),
                    StormVariant::Hot => add(storm, &[FlashLite, Numa], None),
                }
            }
        }
        Workload::Scale64Batched => {
            add(fft(64), &[FlashLite], None);
            add(lu(64), &PAIR, LU);
            add(ocean(64), &[FlashLite], None);
        }
    }
    cells
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Platform {
    /// `Study::hardware`: R10000 + IRIX + true FlashLite.
    Hardware,
    /// simos-mipsy-150 on tuned FlashLite.
    FlashLite,
    /// simos-mipsy-150 on the NUMA model.
    Numa,
}

impl Platform {
    fn config(self, study: &Study, tuning: &Tuning, nodes: u32) -> MachineConfig {
        match self {
            Platform::Hardware => study.hardware(nodes),
            Platform::FlashLite => study.sim_tuned(MIPSY, nodes, MemModel::FlashLite, tuning),
            Platform::Numa => study.sim_tuned(MIPSY, nodes, MemModel::Numa, tuning),
        }
    }
}

/// A plausible tuning for tests that need cells but not a calibration.
#[cfg(test)]
pub fn test_tuning() -> Tuning {
    Tuning {
        tlb_refill_cycles: 65,
        mipsy_l2_iface: None,
        flashlite: flashsim_flashlite::FlashLiteParams::hardware(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_machine::SchedPolicy;
    use std::collections::BTreeSet;

    #[test]
    fn every_workload_has_unique_labels_an_oracle_and_a_scored_cell() {
        let study = Study::scaled();
        for workload in Workload::ALL {
            let cells = build(workload, 1, &study, &test_tuning());
            let labels: BTreeSet<&str> = cells.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(labels.len(), cells.len(), "{}", workload.name());
            let oracles: Vec<&Cell> = cells.iter().filter(|c| c.oracle).collect();
            assert_eq!(oracles.len(), 1, "{}", workload.name());
            assert!(!oracles[0].hardware, "{}", oracles[0].label);
            assert!(cells.iter().any(|c| {
                !c.hardware
                    && cells
                        .iter()
                        .any(|h| h.hardware && h.program_id == c.program_id)
            }));
        }
    }

    #[test]
    fn every_cell_runs_the_default_policy() {
        let study = Study::scaled();
        for workload in Workload::ALL {
            for cell in build(workload, 1, &study, &test_tuning()) {
                assert_eq!(cell.cfg.sched, SchedPolicy::default(), "{}", cell.label);
            }
        }
    }
}
