//! Regenerates the paper's tables and figures next to its published
//! values.
//!
//! Usage:
//!
//! ```text
//! flashsim figures NAME [--full]
//! ```
//!
//! `NAME` is `table1`..`table3`, `fig1`..`fig7`, `ablate_latency`,
//! `trends`, or `all` (every one, in that order, under one calibration).

use crate::{fail, header, Args, Setup};
use flashsim_core::calibrate::{calibrate, Calibration};
use flashsim_core::metrics::{render_scorecards, scorecards, trend_fidelity};
use flashsim_core::platform::Tuning;
use flashsim_core::report::{paper, render_relative, render_speedup, render_table1, render_table3};
use flashsim_core::{figures, workloads};
use std::cell::OnceCell;

/// What one target runs under: the setup, plus the calibration loop's
/// result, computed the first time a target needs it.
struct Ctx {
    setup: Setup,
    cal: OnceCell<Calibration>,
}

impl Ctx {
    fn cal(&self) -> &Calibration {
        self.cal.get_or_init(|| calibrate(&self.setup.study))
    }

    fn tuning(&self) -> &Tuning {
        &self.cal().tuning
    }
}

/// `(name, header title, body)` of one target.
type Target = (&'static str, &'static str, fn(&Ctx));

const TARGETS: [Target; 12] = [
    ("table1", "Table 1", table1),
    ("table2", "Table 2", table2),
    ("table3", "Table 3 + calibration", table3),
    ("fig1", "Figure 1", fig1),
    ("fig2", "Figure 2", fig2),
    ("fig3", "Figure 3", fig3),
    ("fig4", "Figure 4", fig4),
    ("fig5", "Figure 5", fig5),
    ("fig6", "Figure 6", fig6),
    ("fig7", "Figure 7", fig7),
    (
        "ablate_latency",
        "Instruction-latency ablation (sec 3.1.3)",
        ablate_latency,
    ),
    (
        "trends",
        "Sec 3.4 summary: accuracy and trend fidelity",
        trends,
    ),
];

/// Table 1: the FLASH hardware configuration.
fn table1(_: &Ctx) {
    print!("{}", render_table1());
}

/// Table 2: SPLASH-2 problem sizes (paper and scaled).
fn table2(_: &Ctx) {
    println!(
        "{:<12}{:<28}Scaled equivalent",
        "Application", "Paper problem size"
    );
    for row in workloads::table2() {
        println!("{:<12}{:<28}{}", row.app, row.paper, row.scaled);
    }
}

/// Table 3: dependent-load latencies on hardware vs tuned and untuned
/// FlashLite, by actually running the calibration loop.
fn table3(c: &Ctx) {
    print!("{}", render_table3(c.cal()));
}

/// Figure 1: initial uniprocessor comparison, before any application or
/// simulator tuning.
fn fig1(c: &Ctx) {
    let fig = figures::fig1(&c.setup.study, c.setup.scale);
    print!("{}", render_relative(&fig));
}

/// Figure 2: uniprocessor comparison after the application TLB-blocking
/// fixes (FFT re-blocked, Radix-Sort radix reduced).
fn fig2(c: &Ctx) {
    let fig = figures::fig2(&c.setup.study, c.setup.scale);
    print!("{}", render_relative(&fig));
}

/// Figure 3: final uniprocessor comparison with calibrated simulators.
fn fig3(c: &Ctx) {
    let fig = figures::fig3(&c.setup.study, c.setup.scale, c.tuning());
    print!("{}", render_relative(&fig));
}

/// Figure 4: final 4-processor comparison with calibrated simulators.
fn fig4(c: &Ctx) {
    let fig = figures::fig4(&c.setup.study, c.setup.scale, c.tuning());
    print!("{}", render_relative(&fig));
}

/// Figure 5: the FFT speedup trend study (hardware vs SimOS-MXS vs the
/// misleading SimOS-Mipsy at 300 MHz).
fn fig5(c: &Ctx) {
    let fig = figures::fig5(&c.setup.study, c.setup.scale, c.tuning());
    print!("{}", render_speedup(&fig));
}

/// Figure 6: the Radix-Sort speedup trend study (hardware vs
/// SimOS-Mipsy-225 vs Solo-Mipsy-225, which wrongly predicts good
/// speedup). Paper: hardware speedup is only ~5.3 at 16 processors.
fn fig6(c: &Ctx) {
    let fig = figures::fig6(&c.setup.study, c.setup.scale, c.tuning());
    print!("{}", render_speedup(&fig));
    println!(
        "(paper: hardware Radix speedup at P=16 is {:.1})",
        paper::RADIX_SPEEDUP_16
    );
}

/// Figure 7: unplaced Radix-Sort speedup — the hotspot study separating
/// FlashLite's occupancy modelling from NUMA's latency-only model.
/// Paper: NUMA is off by ~31% at 16 processors.
fn fig7(c: &Ctx) {
    let fig = figures::fig7(&c.setup.study, c.setup.scale, c.tuning());
    print!("{}", render_speedup(&fig));
    let hw = fig.curve("FLASH 150MHz").and_then(|c| c.at(16));
    let numa = fig.curve("NUMA").and_then(|c| c.at(16));
    if let (Some(hw), Some(numa)) = (hw, numa) {
        println!(
            "NUMA error at P=16: {:.0}% (paper: {:.0}%)",
            ((numa - hw) / hw * 100.0).abs(),
            paper::NUMA_HOTSPOT_ERROR_16 * 100.0
        );
    }
}

/// The §3.1.3 instruction-latency experiment: adding the R10000's 5-cycle
/// multiply and 19-cycle divide to SimOS-Mipsy-225 moves Radix-Sort's
/// relative time from 0.71 to ~1.0 in the paper.
fn ablate_latency(c: &Ctx) {
    let (without, with) = figures::latency_ablation(&c.setup.study, c.setup.scale, c.tuning());
    let (p_without, p_with) = paper::LATENCY_ABLATION;
    println!("SimOS-Mipsy 225MHz, Radix-Sort relative execution time:");
    println!("  without mul/div latencies: {without:.2}   (paper: {p_without:.2})");
    println!("  with    mul/div latencies: {with:.2}   (paper: {p_with:.2})");
}

/// The paper's §3.4 summary judgement: ranks the simulators by absolute
/// accuracy (MARE over the Figure-3 suite) and scores their speedup-trend
/// fidelity (Figures 5-6) — the "even inaccurate simulators predict
/// trends, if the important effects are modelled" analysis.
fn trends(c: &Ctx) {
    let (study, scale) = (&c.setup.study, c.setup.scale);
    let grid = figures::fig3(study, scale, c.tuning());
    println!("Absolute accuracy over the tuned uniprocessor suite:");
    print!("{}", render_scorecards(&scorecards(&grid)));

    for (name, fig) in [
        ("FFT (Figure 5)", figures::fig5(study, scale, c.tuning())),
        ("Radix (Figure 6)", figures::fig6(study, scale, c.tuning())),
    ] {
        println!("\nSpeedup-trend fidelity, {name}:");
        let hw = fig.curve("FLASH 150MHz").expect("hardware curve");
        for curve in &fig.curves {
            if curve.platform == hw.platform {
                continue;
            }
            match trend_fidelity(hw, curve) {
                Some(t) => println!(
                    "  {:<22} worst {:>4.0}%  mean {:>4.0}%  tau {:+.2}",
                    curve.platform,
                    t.worst_error * 100.0,
                    t.mean_error * 100.0,
                    t.tau
                ),
                None => println!("  {:<22} (no shared points)", curve.platform),
            }
        }
    }
    println!(
        "\n(paper sec 3.4: even good trend predictors can be off by 30% or more\n\
         at a point - often larger than the gains papers report)"
    );
}

/// `flashsim figures`: see the module documentation.
pub fn run(args: &Args) {
    let ctx = Ctx {
        setup: args.setup(),
        cal: OnceCell::new(),
    };
    let names = || {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        format!("{}|all", names.join("|"))
    };
    let Some(want) = args.positional() else {
        fail(&format!(
            "usage: flashsim figures NAME [--full]   NAME: {}",
            names()
        ));
    };
    let chosen: Vec<_> = TARGETS
        .iter()
        .filter(|t| want == "all" || want == t.0)
        .collect();
    if chosen.is_empty() {
        fail(&format!("unknown figure {want} ({})", names()));
    }
    for (i, (_, title, body)) in chosen.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        header(title, &ctx.setup);
        body(&ctx);
    }
}
