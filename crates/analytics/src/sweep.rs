//! Cross-scenario summarization for parameter sweeps.
//!
//! The sweep runner (in the `consume-local` core crate) produces one outcome
//! per grid point; this module reduces those outcomes to the aggregate
//! numbers a sweep document reports: distribution summaries of savings,
//! offload and wall-time, and the best/worst grid points.

use consume_local_stats::Summary;

/// One scenario's reduced outcome: the inputs to sweep summarization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSample {
    /// System-wide energy savings `S ∈ [0, 1)` under the reference model.
    pub savings: f64,
    /// Share of demand served by peers (the empirical `G`).
    pub offload: f64,
    /// Wall-clock time the scenario's simulation took, in milliseconds.
    pub wall_ms: f64,
}

/// Aggregate view of one sweep: distribution summaries plus extrema.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Number of scenarios summarised.
    pub scenarios: usize,
    /// Distribution of per-scenario savings.
    pub savings: Summary,
    /// Distribution of per-scenario offload shares.
    pub offload: Summary,
    /// Distribution of per-scenario wall-times (ms).
    pub wall_ms: Summary,
    /// Total wall-time across all scenarios (ms).
    pub total_wall_ms: f64,
    /// Index of the scenario with the highest savings.
    pub best_savings_index: usize,
    /// Index of the scenario with the lowest savings.
    pub worst_savings_index: usize,
}

impl SweepSummary {
    /// Summarises a sweep; `None` when `samples` is empty.
    pub fn of(samples: &[ScenarioSample]) -> Option<SweepSummary> {
        if samples.is_empty() {
            return None;
        }
        let argcmp = |pick_max: bool| {
            let mut best = 0usize;
            for (i, s) in samples.iter().enumerate() {
                let better = if pick_max {
                    s.savings > samples[best].savings
                } else {
                    s.savings < samples[best].savings
                };
                if better {
                    best = i;
                }
            }
            best
        };
        Some(SweepSummary {
            scenarios: samples.len(),
            savings: Summary::of(samples.iter().map(|s| s.savings))?,
            offload: Summary::of(samples.iter().map(|s| s.offload))?,
            wall_ms: Summary::of(samples.iter().map(|s| s.wall_ms))?,
            total_wall_ms: samples.iter().map(|s| s.wall_ms).sum(),
            best_savings_index: argcmp(true),
            worst_savings_index: argcmp(false),
        })
    }
}

/// One point of a degradation curve: a robustness axis value (churn
/// departure rate or cooperation probability) with the savings and offload
/// the sweep measured there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPoint {
    /// The axis value (e.g. departures per online hour).
    pub axis: f64,
    /// Energy savings at this point (`None` when unmeasured).
    pub savings: Option<f64>,
    /// Peer-offload share of demand at this point.
    pub offload: f64,
}

/// A savings/offload-vs-churn curve: the reduction the `churn_degradation`
/// example plots and sanity-checks.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationCurve {
    /// Curve points, sorted by ascending axis value.
    pub points: Vec<DegradationPoint>,
}

impl DegradationCurve {
    /// Builds a curve from unsorted points, ordering by axis value (ties
    /// keep their input order).
    pub fn new(mut points: Vec<DegradationPoint>) -> Self {
        points.sort_by(|a, b| a.axis.partial_cmp(&b.axis).expect("finite axis values"));
        Self { points }
    }

    /// The measured point at the smallest axis value (the healthy
    /// baseline), if any point was measured.
    pub fn baseline(&self) -> Option<&DegradationPoint> {
        self.points.iter().find(|p| p.savings.is_some())
    }

    /// Whether offload degrades monotonically (never increases, within
    /// `tolerance`) as the axis value grows. Vacuously true with fewer
    /// than two points.
    pub fn offload_monotone_non_increasing(&self, tolerance: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].offload <= w[0].offload + tolerance)
    }

    /// Whether every measured point's savings stay at or below the
    /// baseline's (within `tolerance`): degradation can only cost energy
    /// savings, never create them.
    pub fn savings_bounded_by_baseline(&self, tolerance: f64) -> bool {
        let Some(base) = self.baseline().and_then(|p| p.savings) else {
            return true;
        };
        self.points
            .iter()
            .filter_map(|p| p.savings)
            .all(|s| s <= base + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ScenarioSample> {
        vec![
            ScenarioSample {
                savings: 0.30,
                offload: 0.40,
                wall_ms: 100.0,
            },
            ScenarioSample {
                savings: 0.10,
                offload: 0.15,
                wall_ms: 50.0,
            },
            ScenarioSample {
                savings: 0.45,
                offload: 0.60,
                wall_ms: 400.0,
            },
        ]
    }

    #[test]
    fn summary_aggregates_and_finds_extrema() {
        let s = SweepSummary::of(&samples()).unwrap();
        assert_eq!(s.scenarios, 3);
        assert_eq!(s.best_savings_index, 2);
        assert_eq!(s.worst_savings_index, 1);
        assert!((s.total_wall_ms - 550.0).abs() < 1e-9);
        assert!((s.savings.mean - (0.30 + 0.10 + 0.45) / 3.0).abs() < 1e-12);
        assert_eq!(s.offload.max, 0.60);
        assert_eq!(s.wall_ms.min, 50.0);
    }

    #[test]
    fn empty_sweep_has_no_summary() {
        assert_eq!(SweepSummary::of(&[]), None);
    }

    #[test]
    fn first_extremum_wins_ties() {
        let twice = vec![samples()[0], samples()[0]];
        let s = SweepSummary::of(&twice).unwrap();
        assert_eq!(s.best_savings_index, 0);
        assert_eq!(s.worst_savings_index, 0);
    }

    #[test]
    fn degradation_curve_sorts_and_checks_monotonicity() {
        let point = |axis: f64, savings: f64, offload: f64| DegradationPoint {
            axis,
            savings: Some(savings),
            offload,
        };
        let curve = DegradationCurve::new(vec![
            point(2.0, 0.10, 0.15),
            point(0.0, 0.30, 0.40),
            point(0.5, 0.25, 0.33),
        ]);
        assert_eq!(curve.points[0].axis, 0.0);
        assert_eq!(curve.points[2].axis, 2.0);
        assert_eq!(curve.baseline().unwrap().axis, 0.0);
        assert!(curve.offload_monotone_non_increasing(0.0));
        assert!(curve.savings_bounded_by_baseline(0.0));

        let bumpy = DegradationCurve::new(vec![
            point(0.0, 0.30, 0.40),
            point(1.0, 0.35, 0.45), // degradation "gained" savings: bogus
        ]);
        assert!(!bumpy.offload_monotone_non_increasing(0.01));
        assert!(!bumpy.savings_bounded_by_baseline(0.01));
        // A generous tolerance accepts the wobble.
        assert!(bumpy.offload_monotone_non_increasing(0.1));

        let unmeasured = DegradationCurve::new(vec![DegradationPoint {
            axis: 0.0,
            savings: None,
            offload: 0.0,
        }]);
        assert!(unmeasured.baseline().is_none());
        assert!(unmeasured.savings_bounded_by_baseline(0.0));
    }
}
