//! `flashsim-core` — the paper's contribution: the simulator-validation
//! methodology of *FLASH vs. (Simulated) FLASH: Closing the Simulation
//! Loop* (ASPLOS 2000).
//!
//! Everything below this crate is machinery (processor models, memory
//! systems, workloads); this crate is the loop itself:
//!
//! 1. **Platforms** ([`platform`]): the gold-standard "hardware" and the
//!    seven simulator configurations of the paper's figures, in untuned
//!    (design-time) and tuned states.
//! 2. **Measurement** ([`runner`]): the hardware normaliser
//!    ([`hardware_mean`]: the mean of 5 seeded-jitter runs, as the paper
//!    averages real runs), relative execution time, speedup, and a
//!    *supervised* parallel run-matrix executor:
//!    each cell runs under `catch_unwind` with a watchdog budget, and a
//!    failed cell becomes a structured [`CellOutcome::Failed`] while the
//!    rest of the matrix completes.
//! 3. **Calibration** ([`mod@calibrate`]): the §3.1.2 tuning loop —
//!    microbenchmarks measure the gold standard (TLB refill cost, the
//!    five Table-3 protocol-case latencies, secondary-cache interface
//!    occupancy) and coordinate descent adjusts the simulators until they
//!    match. This is "closing the simulation loop".
//! 4. **Experiments** ([`figures`], [`report`]): the exact matrices
//!    behind Figures 1–7, Tables 1–3, and the §3.1.3 instruction-latency
//!    ablation, plus text rendering and the paper's published numbers.
//! 5. **Error attribution** ([`attrib`]): decomposes a simulator's total
//!    relative error against the gold standard into signed per-stall-class
//!    contributions using the cycle-accounting profiler — "18% optimistic,
//!    of which 11 points TLB, 5 occupancy, 2 network".
//!
//! # Examples
//!
//! Reproducing Table 3 end to end:
//!
//! ```no_run
//! use flashsim_core::{calibrate, platform::Study, report};
//!
//! let study = Study::scaled();
//! let cal = calibrate::calibrate(&study);
//! println!("{}", report::render_table3(&cal));
//! assert!((55..=80).contains(&cal.tuning.tlb_refill_cycles)); // paper: 65
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod calibrate;
pub mod figures;
pub mod journal;
pub mod metrics;
pub mod platform;
pub mod report;
pub mod runner;

pub use attrib::{attribute, AttributionReport, ClassContribution};
pub use calibrate::{calibrate, Calibration, Table3Row, TlbCalibration};
pub use figures::{
    apps_tuned, apps_untuned, fig1, fig2, fig3, fig4, fig5, fig6, fig7, latency_ablation,
    RelativeFigure, RelativePoint, SpeedupCurve, SpeedupFigure, SPEEDUP_COUNTS,
};
pub use journal::{cell_identity, render_artifacts, run_matrix_journaled, CellReport, ResumeNote};
pub use metrics::{
    kendall_tau, mare, render_scorecards, scorecards, trend_fidelity, RelativeError,
    SimulatorScorecard, TrendFidelity,
};
pub use platform::{MemModel, Sim, Study, Tuning};
pub use report::{render_relative, render_speedup, render_table1, render_table3};
pub use runner::{
    hardware_mean, parallel_map, relative_time, run_matrix, run_once, speedup, CellOutcome,
    MatrixCell, HARDWARE_JITTER, HARDWARE_RUNS,
};

// Re-export the layers below for umbrella users.
pub use flashsim_engine as engine;
pub use flashsim_flashlite as flashlite;
pub use flashsim_isa as isa;
pub use flashsim_machine as machine;
pub use flashsim_mem as mem;
pub use flashsim_numa as numa;
pub use flashsim_os as os;
pub use flashsim_workloads as workloads;
