//! `flashsim-bench` — the experiment harness: one binary per table and
//! figure of the paper, plus observability tools (divergence diffing,
//! simulator-speed timing).
//!
//! Every binary accepts `--full` to run at the paper's Table-1/Table-2
//! sizes instead of the default proportionally scaled configuration (see
//! DESIGN.md §1 and EXPERIMENTS.md), and prints the regenerated
//! table/figure next to the paper's published values where the paper
//! gives them.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 (hardware configuration) |
//! | `table2` | Table 2 (problem sizes) |
//! | `table3` | Table 3 (snbench latencies, calibration loop) |
//! | `fig1`..`fig7` | Figures 1–7 |
//! | `ablate_latency` | the §3.1.3 instruction-latency experiment |
//! | `diverge` | flight-recorder divergence diff: hardware vs a simulator |
//! | `simspeed` | simulator throughput (events/sec, simulated MIPS) |
//! | `chaos` | fault-injection survival matrix (seeded fault plans × platforms) |
//! | `profile` | cycle-accounting breakdown + per-class error attribution vs hardware |
//! | `report` | unified run report: manifest + accounting + sim-time telemetry (text/HTML/JSONL/Prometheus) |
//! | `spans` | span diff: the same sampled transaction traced causally on FlashLite vs NUMA |
//! | `watch` | multi-run stream supervisor: live matrix dashboard over `flashsim-stream-v1` files, Prometheus textfile export, strict stream validation |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod streamview;

use flashsim_core::platform::Study;
use flashsim_workloads::ProblemScale;

/// The experiment setup selected by command-line flags.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The machine geometry study.
    pub study: Study,
    /// The problem-size class matching the geometry.
    pub scale: ProblemScale,
}

/// Parses command-line flags shared by all experiment binaries:
/// `--full` selects the paper-size machine and problems (slow);
/// the default is the proportionally scaled setup.
pub fn setup_from_args() -> Setup {
    let full = std::env::args().any(|a| a == "--full");
    if full {
        Setup {
            study: Study::full(),
            scale: ProblemScale::Full,
        }
    } else {
        Setup {
            study: Study::scaled(),
            scale: ProblemScale::Scaled,
        }
    }
}

/// Prints the standard experiment header.
pub fn header(what: &str, setup: &Setup) {
    println!("== flashsim :: {what} ==");
    println!(
        "geometry: {} (use --full for the paper-size machine)",
        match setup.scale {
            ProblemScale::Full => "full Table-1 FLASH",
            ProblemScale::Scaled => "1/8-scale (default)",
            ProblemScale::Tiny => "tiny (tests only)",
        }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_setup_is_scaled() {
        let s = setup_from_args();
        assert_eq!(s.scale, ProblemScale::Scaled);
        assert_eq!(s.study.geometry.tlb_entries, 16);
    }
}
