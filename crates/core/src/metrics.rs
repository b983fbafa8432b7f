//! Error and trend-fidelity metrics — the quantitative backbone of the
//! paper's question: *a simulator can be wrong in absolute terms; is it
//! still right about trends?*
//!
//! - [`mare`]: mean absolute relative error of a simulator's predictions
//!   against hardware (the paper's "30% or more" yardstick for absolute
//!   accuracy),
//! - [`RelativeError`]: per-prediction error decomposition with direction,
//! - [`kendall_tau`]: rank agreement between two orderings — does the
//!   simulator *order* design alternatives the way hardware does, even
//!   when every absolute number is off?
//! - [`trend_fidelity`]: the paper's speedup-trend test, packaged: compare
//!   a simulator's speedup curve against hardware's point by point and
//!   report worst-case and mean curve error,
//! - [`SimulatorScorecard`]: everything above for one simulator across a
//!   workload suite, ready for ranking simulators the way §3.4 does.

use crate::figures::{RelativeFigure, SpeedupCurve};

/// One prediction's error against hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeError {
    /// Simulator time / hardware time.
    pub relative: f64,
}

impl RelativeError {
    /// Creates an error record from a relative execution time.
    pub fn new(relative: f64) -> RelativeError {
        RelativeError { relative }
    }

    /// True if the simulator predicted a shorter time than hardware.
    pub fn optimistic(&self) -> bool {
        self.relative < 1.0
    }
}

/// Mean absolute relative error over a set of relative execution times.
/// Returns 0 for an empty set.
pub fn mare(relatives: &[f64]) -> f64 {
    if relatives.is_empty() {
        return 0.0;
    }
    relatives.iter().map(|r| (r - 1.0).abs()).sum::<f64>() / relatives.len() as f64
}

/// Kendall's τ-a rank-correlation between two equally indexed sequences:
/// +1 = identical ordering, −1 = reversed, 0 = unrelated.
///
/// # Panics
///
/// Panics if the sequences differ in length or have fewer than 2 items.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sequences must align");
    let n = a.len();
    assert!(n >= 2, "rank correlation needs at least two items");
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[j] - a[i];
            let db = b[j] - b[i];
            let product = da * db;
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// The trend-fidelity comparison of one simulator's speedup curve against
/// hardware's.
#[derive(Debug, Clone)]
pub struct TrendFidelity {
    /// Per-point speedup ratio (sim speedup / hardware speedup) at each
    /// shared processor count, in ascending count order.
    pub point_ratios: Vec<(u32, f64)>,
    /// Largest |ratio − 1| across the curve (the paper's "off by 30% or
    /// more" observation is this number).
    pub worst_error: f64,
    /// Mean |ratio − 1| across the curve.
    pub mean_error: f64,
    /// Rank agreement of the two curves (τ = 1 when the simulator orders
    /// the processor counts identically — almost always true, but broken
    /// curves like Figure 5's over-clocked Mipsy can dip).
    pub tau: f64,
}

/// Compares `sim`'s speedup curve to `hardware`'s over their shared
/// processor counts (P = 1 is skipped: both are 1.0 by construction).
///
/// Returns `None` if fewer than two processor counts are shared.
pub fn trend_fidelity(hardware: &SpeedupCurve, sim: &SpeedupCurve) -> Option<TrendFidelity> {
    let mut point_ratios = Vec::new();
    let mut hw_series = Vec::new();
    let mut sim_series = Vec::new();
    for (p, hw_s) in &hardware.points {
        if *p == 1 {
            continue;
        }
        if let Some(sim_s) = sim.at(*p) {
            point_ratios.push((*p, sim_s / hw_s));
            hw_series.push(*hw_s);
            sim_series.push(sim_s);
        }
    }
    if point_ratios.len() < 2 {
        return None;
    }
    let worst_error = point_ratios
        .iter()
        .map(|(_, r)| (r - 1.0).abs())
        .fold(0.0, f64::max);
    let mean_error = point_ratios
        .iter()
        .map(|(_, r)| (r - 1.0).abs())
        .sum::<f64>()
        / point_ratios.len() as f64;
    let tau = kendall_tau(&hw_series, &sim_series);
    Some(TrendFidelity {
        point_ratios,
        worst_error,
        mean_error,
        tau,
    })
}

/// A simulator's report card over a workload suite (one relative-figure
/// column), as §3.4 summarizes: absolute error can be large while trend
/// behaviour stays usable.
#[derive(Debug, Clone)]
pub struct SimulatorScorecard {
    /// The simulator's label.
    pub sim: String,
    /// Per-application relative times.
    pub relatives: Vec<(String, f64)>,
    /// Mean absolute relative error across applications.
    pub mare: f64,
    /// Worst single-application error.
    pub worst: f64,
    /// Fraction of applications predicted optimistically (< 1.0).
    pub optimistic_fraction: f64,
    /// Optional per-stall-class error attribution against the gold
    /// standard (filled by callers that ran both platforms with a
    /// cycle-accounting profiler; see [`crate::attrib::attribute`]).
    pub attribution: Option<crate::attrib::AttributionReport>,
}

/// Builds a scorecard for every simulator column in a relative figure,
/// sorted best (lowest MARE) first. Failed cells (error-marked or
/// non-finite relatives) are excluded so a partial matrix still ranks
/// its healthy columns.
pub fn scorecards(fig: &RelativeFigure) -> Vec<SimulatorScorecard> {
    use std::collections::BTreeMap;
    let mut by_sim: BTreeMap<&str, Vec<(String, f64)>> = BTreeMap::new();
    for p in &fig.points {
        if p.error.is_some() || !p.relative.is_finite() {
            continue;
        }
        by_sim
            .entry(p.sim.as_str())
            .or_default()
            .push((p.app.to_owned(), p.relative));
    }
    let mut cards: Vec<SimulatorScorecard> = by_sim
        .into_iter()
        .map(|(sim, relatives)| {
            let values: Vec<f64> = relatives.iter().map(|(_, r)| *r).collect();
            let worst = values.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max);
            let optimistic =
                values.iter().filter(|r| **r < 1.0).count() as f64 / values.len() as f64;
            SimulatorScorecard {
                sim: sim.to_owned(),
                mare: mare(&values),
                worst,
                optimistic_fraction: optimistic,
                relatives,
                attribution: None,
            }
        })
        .collect();
    cards.sort_by(|a, b| a.mare.partial_cmp(&b.mare).expect("finite MARE")); // gate: allow
    cards
}

/// Renders scorecards as a ranking table (best simulator first).
pub fn render_scorecards(cards: &[SimulatorScorecard]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22}{:>8}{:>8}{:>12}",
        "simulator (best first)", "MARE", "worst", "optimistic"
    );
    for c in cards {
        let _ = writeln!(
            out,
            "{:<22}{:>8.2}{:>8.2}{:>11.0}%",
            c.sim,
            c.mare,
            c.worst,
            c.optimistic_fraction * 100.0
        );
        if let Some(attr) = &c.attribution {
            // Name the two largest per-class contributors inline so the
            // ranking table doubles as a diagnosis.
            let mut ranked: Vec<_> = attr.classes.iter().collect();
            ranked.sort_by(|a, b| {
                b.contribution
                    .abs()
                    .partial_cmp(&a.contribution.abs())
                    .expect("finite contribution") // gate: allow
            });
            let top: Vec<String> = ranked
                .iter()
                .take(2)
                .filter(|cc| cc.contribution != 0.0)
                .map(|cc| format!("{} {:+.1}pp", cc.class.key(), cc.contribution * 100.0))
                .collect();
            if !top.is_empty() {
                let _ = writeln!(
                    out,
                    "    attribution vs {}: {:+.1}% total ({})",
                    attr.ref_label,
                    attr.total_error * 100.0,
                    top.join(", ")
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::RelativePoint;

    #[test]
    fn mare_basics() {
        assert_eq!(mare(&[]), 0.0);
        assert!((mare(&[1.0, 1.0]) - 0.0).abs() < 1e-12);
        assert!((mare(&[0.8, 1.2]) - 0.2).abs() < 1e-12);
        assert!((mare(&[0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_error_direction() {
        assert!(RelativeError::new(0.7).optimistic());
        assert!(!RelativeError::new(1.3).optimistic());
    }

    #[test]
    fn kendall_tau_extremes() {
        let up = [1.0, 2.0, 3.0, 4.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&up, &up) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&up, &down) + 1.0).abs() < 1e-12);
        let mixed = [1.0, 3.0, 2.0, 4.0];
        let tau = kendall_tau(&up, &mixed);
        assert!(tau > 0.0 && tau < 1.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn kendall_tau_rejects_mismatched_lengths() {
        kendall_tau(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn trend_fidelity_perfect_and_scaled() {
        let hw = SpeedupCurve {
            platform: "hw".into(),
            points: vec![(1, 1.0), (2, 1.9), (4, 3.5), (8, 6.0)],
        };
        let perfect = trend_fidelity(&hw, &hw).unwrap();
        assert!(perfect.worst_error < 1e-12);
        assert!((perfect.tau - 1.0).abs() < 1e-12);

        let under = SpeedupCurve {
            platform: "sim".into(),
            points: vec![(1, 1.0), (2, 1.4), (4, 2.4), (8, 4.2)],
        };
        let t = trend_fidelity(&hw, &under).unwrap();
        assert!(t.worst_error > 0.25 && t.worst_error < 0.40);
        assert!((t.tau - 1.0).abs() < 1e-12, "still monotone => tau 1");
        assert_eq!(t.point_ratios.len(), 3);
    }

    #[test]
    fn trend_fidelity_needs_shared_points() {
        let hw = SpeedupCurve {
            platform: "hw".into(),
            points: vec![(1, 1.0), (16, 12.0)],
        };
        let sim = SpeedupCurve {
            platform: "sim".into(),
            points: vec![(1, 1.0), (8, 5.0)],
        };
        assert!(trend_fidelity(&hw, &sim).is_none());
    }

    #[test]
    fn scorecards_rank_by_mare() {
        let fig = RelativeFigure {
            title: "t".into(),
            nodes: 1,
            points: vec![
                RelativePoint::measured("FFT", "good".into(), 0.95),
                RelativePoint::measured("LU", "good".into(), 1.05),
                RelativePoint::measured("FFT", "bad".into(), 0.5),
                RelativePoint::measured("LU", "bad".into(), 1.6),
            ],
        };
        let cards = scorecards(&fig);
        assert_eq!(cards[0].sim, "good");
        assert!((cards[0].mare - 0.05).abs() < 1e-12);
        assert_eq!(cards[1].sim, "bad");
        assert!((cards[1].optimistic_fraction - 0.5).abs() < 1e-12);
        let rendered = render_scorecards(&cards);
        assert!(rendered.contains("good") && rendered.contains("MARE"));
    }

    #[test]
    fn render_scorecards_diagnoses_attributed_error() {
        use crate::attrib::{AttributionReport, ClassContribution};
        use flashsim_engine::StallClass;
        let classes = StallClass::ALL
            .into_iter()
            .map(|class| ClassContribution {
                class,
                sim_ps: 0,
                ref_ps: 0,
                contribution: match class {
                    StallClass::TlbRefill => -0.11,
                    StallClass::DirOccupancy => -0.05,
                    StallClass::NetTransit => -0.02,
                    _ => 0.0,
                },
            })
            .collect();
        let card = SimulatorScorecard {
            sim: "simos-mipsy".into(),
            relatives: vec![("FFT".into(), 0.82)],
            mare: 0.18,
            worst: 0.18,
            optimistic_fraction: 1.0,
            attribution: Some(AttributionReport {
                sim_label: "simos-mipsy".into(),
                ref_label: "hardware".into(),
                sim_total_ps: 820,
                ref_total_ps: 1000,
                total_error: -0.18,
                classes,
            }),
        };
        let text = render_scorecards(&[card]);
        assert!(text.contains("attribution vs hardware"));
        assert!(text.contains("tlb_refill -11.0pp"));
        assert!(text.contains("dir_occupancy -5.0pp"));
        assert!(!text.contains("net_transit"), "only the top two are shown");
    }

    #[test]
    fn scorecards_skip_failed_cells() {
        let fig = RelativeFigure {
            title: "t".into(),
            nodes: 1,
            points: vec![
                RelativePoint::measured("FFT", "partial".into(), 1.1),
                RelativePoint {
                    app: "LU",
                    sim: "partial".into(),
                    relative: f64::NAN,
                    error: Some("deadlock".into()),
                },
            ],
        };
        let cards = scorecards(&fig);
        assert_eq!(cards.len(), 1);
        assert_eq!(cards[0].relatives.len(), 1, "failed cell excluded");
        assert!(cards[0].mare.is_finite());
    }
}
