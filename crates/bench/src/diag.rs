//! Diagnostic: dump run statistics for one app on chosen platforms.
//!
//! Usage:
//!
//! ```text
//! flashsim diag [APP] [THREADS] [--full]
//! ```
//!
//! `APP` is `fft` (default), `fftc`, `radix`, `radix256`, `lu` or `ocean`.
use crate::{fail, Args};
use flashsim_core::platform::{MemModel, Sim};
use flashsim_core::runner::run_once;
use flashsim_isa::Program;
use flashsim_workloads::*;

/// `flashsim diag`: see the module documentation.
pub fn run(args: &Args) {
    let setup = args.setup();
    let (study, scale) = (setup.study, setup.scale);
    let mut positionals = args.positionals();
    let app = positionals.next().unwrap_or("fft");
    let threads: usize = match positionals.next() {
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| fail("THREADS takes a number")),
        None => 1,
    };
    let prog: Box<dyn Program> = match app {
        "fft" => Box::new(Fft::sized(scale, threads, FftBlocking::Tlb)),
        "fftc" => Box::new(Fft::sized(scale, threads, FftBlocking::Cache)),
        "radix" => Box::new(Radix::tuned(scale, threads)),
        "radix256" => Box::new(Radix::untuned(scale, threads)),
        "lu" => Box::new(Lu::sized(scale, threads)),
        "ocean" => Box::new(Ocean::sized(scale, threads)),
        other => fail(&format!(
            "unknown app {other} (fft|fftc|radix|radix256|lu|ocean)"
        )),
    };
    let n = threads as u32;
    let hw = run_once(study.hardware(n), prog.as_ref());
    let sim = run_once(
        study.sim(Sim::SimosMipsy(150), n, MemModel::FlashLite),
        prog.as_ref(),
    );
    let solo = run_once(
        study.sim(Sim::SoloMipsy(150), n, MemModel::FlashLite),
        prog.as_ref(),
    );
    // Phase durations from barrier releases (hardware run).
    let mut prev = 0.0;
    for (id, t) in &hw.barrier_releases {
        let ms = t.as_ns_f64() / 1e6;
        println!("  hw barrier {id}: at {ms:.2}ms (+{:.2}ms)", ms - prev);
        prev = ms;
    }
    println!(
        "app={app}  parallel: hw={:.0}us mipsy150={:.0}us solo150={:.0}us  rel={:.2}/{:.2}",
        hw.parallel_time.as_ns_f64() / 1e3,
        sim.parallel_time.as_ns_f64() / 1e3,
        solo.parallel_time.as_ns_f64() / 1e3,
        sim.parallel_time.ratio(hw.parallel_time),
        solo.parallel_time.ratio(hw.parallel_time)
    );
    for key in [
        "cpu.ops",
        "cpu.loads",
        "cpu.load_misses",
        "cpu.mem_stall_ns",
        "cpu.tlb_stall_ns",
        "cpu.interlock_stalls",
        "cpu.exceptions",
        "l1.misses",
        "l2.misses",
        "l2.hits",
        "tlb.misses",
        "os.tlb_refills",
        "proto.local_clean.count",
        "proto.local_clean.mean_ns",
        "magic.pp_wait_ns",
    ] {
        println!(
            "{key:<28} hw={:<14.0} mipsy={:<14.0}",
            hw.stats.get_or_zero(key),
            sim.stats.get_or_zero(key)
        );
    }
}
