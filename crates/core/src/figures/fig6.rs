//! Fig. 6: CDF of per-user carbon credit transfer after the CDN passes its
//! server-energy savings to uploading users.

use consume_local_carbon::CreditReport;
use consume_local_energy::{EnergyParams, ModelKind};
use consume_local_sim::SimReport;

use super::{model_series_csv, pct, Exhibit};

/// The Fig. 6 data: one CDF per energy model plus headline shares.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Per-model CDF series of per-user CCT over `[−1, 0.6]`.
    pub series: Vec<(ModelKind, Vec<(f64, f64)>)>,
    /// Per-model population credit reports.
    pub reports: Vec<(ModelKind, CreditReport)>,
}

impl Fig6 {
    /// The share of users who become carbon positive under `model`.
    pub fn positive_share(&self, model: ModelKind) -> f64 {
        self.reports
            .iter()
            .find(|(m, _)| *m == model)
            .map(|(_, r)| r.carbon_positive_share())
            .unwrap_or(0.0)
    }
}

/// Computes Fig. 6 from a simulation report's per-user traffic.
pub fn fig6(report: &SimReport, points: usize) -> Fig6 {
    let mut series = Vec::new();
    let mut reports = Vec::new();
    for model in ModelKind::ALL {
        let params = EnergyParams::of(model);
        let credit = CreditReport::from_traffic(
            report
                .users
                .iter()
                .map(|u| (u.watched_bytes, u.uploaded_bytes)),
            &params,
        );
        series.push((model, credit.fig6_series(points)));
        reports.push((model, credit));
    }
    Fig6 { series, reports }
}

/// Fig. 6 over 160 points: each model's carbon-positive share and median
/// transfer, and both CDFs as CSV.
pub(crate) fn exhibit(report: &SimReport) -> Exhibit {
    let data = fig6(report, 160);
    let mut ex = Exhibit::new("Fig. 6: per-user CCT distribution");
    for (model, credit) in &data.reports {
        ex.line(format!(
            "{model:?}: {} users | carbon positive {} | neutral {} | negative {} | median CCT {:+.2}",
            credit.users(),
            pct(credit.carbon_positive_share()),
            credit.carbon_neutral(),
            credit.carbon_negative(),
            credit.median_cct().unwrap_or(0.0),
        ));
    }
    ex.line("paper (full scale): ≈41% (Valancius) / >70% (Baliga) carbon positive;");
    ex.line("scaled runs sit lower (smaller head swarms) with the same model ordering.");
    ex.csv(
        "fig6_user_cct_cdf.csv",
        model_series_csv("cct", "cdf", &data.series),
    );
    ex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    fn data() -> Fig6 {
        let exp = Experiment::builder().scale(0.0008).seed(5).build().unwrap();
        fig6(exp.report(), 64)
    }

    #[test]
    fn cdfs_are_monotone_and_bounded() {
        let f = data();
        assert_eq!(f.series.len(), 2);
        for (_, s) in &f.series {
            assert_eq!(s.len(), 64);
            for w in s.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
            let last = s.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-9, "CDF reaches 1 within [−1, 0.6]");
        }
    }

    #[test]
    fn baliga_makes_more_users_positive() {
        let f = data();
        let v = f.positive_share(ModelKind::Valancius);
        let b = f.positive_share(ModelKind::Baliga);
        // Shape invariant at any scale: Baliga's larger per-bit server
        // saving turns strictly more users carbon positive. (The paper's
        // absolute shares — ≈41 % / >70 % — need full-scale head swarms: a
        // scaled catalogue has a smaller head, so scaled runs sit lower
        // with the same ordering; see the scaling note on
        // `TraceConfig::catalogue_size`. `examples/paper.rs` prints its
        // shares next to the paper's.)
        assert!(b > v, "Baliga {b} vs Valancius {v}");
        assert!(b > 0.02, "some users must turn positive under Baliga: {b}");
        assert!(
            v < 0.9,
            "Valancius share must stay below Baliga-like levels: {v}"
        );
    }

    #[test]
    fn niche_viewers_stay_negative() {
        let f = data();
        for (_, r) in &f.reports {
            assert!(
                r.carbon_negative() > 0,
                "some users must stay carbon negative"
            );
            assert!(r.carbon_positive() > 0);
        }
    }
}
