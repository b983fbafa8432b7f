//! Rendering figures and tables as text, plus the paper's published
//! numbers for side-by-side comparison.

use crate::calibrate::Calibration;
use crate::figures::{RelativeFigure, SpeedupFigure};
use crate::platform::Sim;
use std::fmt::Write as _;

/// Renders a relative-execution-time figure as a sims × apps grid.
/// Failed cells are marked `!kind` (e.g. `!deadlock`) and a summary line
/// counts the degraded cells, so partial matrices stay readable.
pub fn render_relative(fig: &RelativeFigure) -> String {
    let apps = ["FFT", "Radix-Sort", "LU", "Ocean"];
    let mut out = String::new();
    let _ = writeln!(out, "{}", fig.title);
    let _ = writeln!(
        out,
        "(relative execution time vs FLASH hardware; 1.0 = exact)"
    );
    let _ = write!(out, "{:<22}", "simulator");
    for app in apps {
        let _ = write!(out, "{app:>12}");
    }
    let _ = writeln!(out);
    for sim in Sim::figure_order() {
        let label = sim.label();
        let _ = write!(out, "{label:<22}");
        for app in apps {
            match fig.point(app, &label) {
                Some(p) => match &p.error {
                    Some(kind) => {
                        let _ = write!(out, "{:>12}", format!("!{kind}"));
                    }
                    None => {
                        let _ = write!(out, "{:>12.2}", p.relative);
                    }
                },
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let failed = fig.failed_cells();
    if failed > 0 {
        let _ = writeln!(
            out,
            "({failed} cell(s) failed and are marked !kind; the rest of the matrix is intact)"
        );
    }
    out
}

/// Renders a speedup figure as platform rows × processor-count columns.
pub fn render_speedup(fig: &SpeedupFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", fig.title);
    let counts: Vec<u32> = fig
        .curves
        .first()
        .map(|c| c.points.iter().map(|(p, _)| *p).collect())
        .unwrap_or_default();
    let _ = write!(out, "{:<22}", "platform");
    for p in &counts {
        let _ = write!(out, "{:>8}", format!("P={p}"));
    }
    let _ = writeln!(out);
    for curve in &fig.curves {
        let _ = write!(out, "{:<22}", curve.platform);
        for p in &counts {
            match curve.at(*p) {
                Some(s) => {
                    let _ = write!(out, "{s:>8.2}");
                }
                None => {
                    let _ = write!(out, "{:>8}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the Table-3 reproduction next to the paper's published values.
pub fn render_table3(cal: &Calibration) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: dependent-load latencies (ns; parenthesized = relative to hardware)"
    );
    let _ = writeln!(
        out,
        "{:<22}{:>10}{:>18}{:>18}  | paper HW / tuned / untuned",
        "protocol case", "HW", "tuned FL", "untuned FL"
    );
    for row in &cal.table3 {
        let paper = paper::TABLE3
            .iter()
            .find(|(case, ..)| *case == row.case.label())
            .map(|(_, hw, tuned, untuned)| format!("{hw} / {tuned} / {untuned}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<22}{:>10.0}{:>11.0} ({:.2}){:>11.0} ({:.2})  | {}",
            row.case.label(),
            row.hardware_ns,
            row.tuned_ns,
            row.tuned_relative(),
            row.untuned_ns,
            row.untuned_relative(),
            paper
        );
    }
    let _ = writeln!(
        out,
        "TLB: {:.0}ns/load missing vs {:.0}ns/load hitting => {} cycles (paper: 65; Mipsy predicted 25, MXS 35)",
        cal.tlb.missing_per_load_ns, cal.tlb.baseline_per_load_ns, cal.tlb.inferred_refill_cycles
    );
    let _ = writeln!(
        out,
        "Mipsy L2-interface occupancy: {} (calibrated); FlashLite fit converged in {} rounds",
        match cal.tuning.mipsy_l2_iface {
            Some(t) => format!("{:.0}ns", t.as_ns_f64()),
            None => "none".to_owned(),
        },
        cal.rounds
    );
    out
}

/// Renders the paper's Table 1 (the hardware configuration we model).
pub fn render_table1() -> String {
    let rows: [(&str, &str); 11] = [
        ("Processor", "MIPS R10000 (gold-standard model)"),
        ("Number of Processors", "1-16"),
        ("Processor Clock Speed", "150 MHz"),
        ("System Clock Speed", "75 MHz"),
        (
            "Instruction Cache",
            "32 KB, 64 B line (modelled as hitting)",
        ),
        ("Primary Data Cache", "32 KB, 32 B line size"),
        ("Secondary Cache", "2 MB, 128 B line size"),
        ("Max. IPC", "4"),
        ("Max. Outstanding Misses", "4"),
        ("Network", "50 ns hops, hypercube"),
        ("Memory", "140 ns to first double-word"),
    ];
    let mut out = String::from("Table 1: FLASH hardware configuration\n");
    for (k, v) in rows {
        let _ = writeln!(out, "{k:<28}{v}");
    }
    out.push_str("Cache Coherence Protocol    dynamic pointer allocation\n");
    out
}

/// Published values from the paper, used in EXPERIMENTS.md comparisons.
pub mod paper {
    /// Table 3 rows: (case label, hardware ns, tuned FlashLite ns,
    /// untuned FlashLite ns).
    pub const TABLE3: [(&str, u32, u32, u32); 5] = [
        ("Local, clean", 587, 615, 510),
        ("Local, dirty remote", 2201, 2202, 2152),
        ("Remote, clean", 1484, 1457, 1311),
        ("Remote, dirty home", 2359, 2378, 2215),
        ("Remote, dirty remote", 2617, 2658, 2957),
    ];

    /// Measured TLB refill cost (cycles) and the untuned model predictions.
    pub const TLB_REFILL: (u64, u64, u64) = (65, 25, 35); // (true, Mipsy, MXS)

    /// Radix-Sort hardware speedup on 16 processors (§3.2.2).
    pub const RADIX_SPEEDUP_16: f64 = 5.3;

    /// NUMA's unplaced-Radix speedup error at 16 processors (§3.3).
    pub const NUMA_HOTSPOT_ERROR_16: f64 = 0.31;

    /// §3.1.3: SimOS-Mipsy-225 Radix-Sort relative time without → with
    /// instruction latencies.
    pub const LATENCY_ABLATION: (f64, f64) = (0.71, 1.02);

    /// §3.1.2: FFT TLB-blocking gains (uniprocessor, 4-processor).
    pub const FFT_BLOCKING_GAIN: (f64, f64) = (0.14, 0.16);

    /// §3.1.2: Radix radix-reduction gains (uniprocessor, 4-processor).
    pub const RADIX_TUNING_GAIN: (f64, f64) = (0.31, 0.34);

    /// §3.1.3: MXS runs 20-30% faster than the hardware.
    pub const MXS_FAST_BAND: (f64, f64) = (0.70, 0.80);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{RelativePoint, SpeedupCurve};

    #[test]
    fn render_relative_contains_all_columns() {
        let fig = RelativeFigure {
            title: "Figure X".into(),
            nodes: 1,
            points: vec![
                RelativePoint::measured("FFT", "SimOS-Mipsy 150MHz".into(), 0.93),
                RelativePoint {
                    app: "LU",
                    sim: "SimOS-Mipsy 150MHz".into(),
                    relative: f64::NAN,
                    error: Some("stalled".into()),
                },
            ],
        };
        let s = render_relative(&fig);
        assert!(s.contains("Figure X"));
        assert!(s.contains("FFT") && s.contains("Ocean"));
        assert!(s.contains("0.93"));
        assert!(s.contains("Solo-Mipsy 300MHz"));
        assert!(s.contains("!stalled"), "failed cell must be marked: {s}");
        assert!(s.contains("1 cell(s) failed"), "{s}");
    }

    #[test]
    fn render_speedup_lists_counts() {
        let fig = SpeedupFigure {
            title: "Figure Y".into(),
            curves: vec![SpeedupCurve {
                platform: "FLASH 150MHz".into(),
                points: vec![(1, 1.0), (16, 11.5)],
            }],
        };
        let s = render_speedup(&fig);
        assert!(s.contains("P=16") && s.contains("11.50"));
    }

    #[test]
    fn table1_covers_table_rows() {
        let s = render_table1();
        assert!(s.contains("150 MHz"));
        assert!(s.contains("hypercube"));
        assert!(s.contains("dynamic pointer allocation"));
    }

    #[test]
    fn paper_constants_are_internally_consistent() {
        assert_eq!(paper::TABLE3.len(), 5);
        assert!(paper::TABLE3.iter().all(|(_, hw, ..)| *hw > 0));
        assert_eq!(paper::TLB_REFILL.0, 65);
        assert!(paper::LATENCY_ABLATION.0 < paper::LATENCY_ABLATION.1);
    }
}
