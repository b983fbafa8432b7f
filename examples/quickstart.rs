//! Quickstart: run one SPLASH-2 kernel on the gold-standard "hardware"
//! and on a simulator, and compare — the paper's core measurement.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flashsim::platform::{MemModel, Sim, Study};
use flashsim::runner::{hardware_mean, relative_time, run_once};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};

fn main() {
    // The 1/8-scale FLASH machine (see DESIGN.md for the scaling story).
    let study = Study::scaled();

    // The same "binary" runs on every platform.
    let fft = Fft::sized(ProblemScale::Scaled, 1, FftBlocking::Tlb);

    // Gold standard: averaged over 5 jittered runs, as the paper averages
    // real hardware runs.
    let hw = hardware_mean(run_once(study.hardware(1), &fft).parallel_time, 1);
    println!("FLASH hardware:      {:8.2} ms", hw.as_ns_f64() / 1e6);

    // An untuned simulator configuration.
    for sim in [Sim::SimosMipsy(150), Sim::SimosMipsy(225), Sim::SimosMxs] {
        let r = run_once(study.sim(sim, 1, MemModel::FlashLite), &fft);
        println!(
            "{:<20} {:8.2} ms  relative={:.2}",
            sim.label(),
            r.parallel_time.as_ns_f64() / 1e6,
            relative_time(r.parallel_time, hw)
        );
    }
    println!("\n(relative 1.0 = simulator matches hardware; <1 = optimistic)");
}
