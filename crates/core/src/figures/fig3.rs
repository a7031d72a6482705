//! Fig. 3: CCDF of per-swarm capacities (left) and per-swarm energy savings
//! (right) over the whole catalogue, plus the §IV-B-2 headline statistics
//! (median per-item savings ≈ 2 %, top-1 % ≳ 21 % / 33 %).

use consume_local_energy::{EnergyParams, ModelKind};
use consume_local_sim::SimReport;
use consume_local_stats::Edf;

use super::{model_series_csv, pct, Exhibit};
use crate::export::series_csv;

/// The Fig. 3 data.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// CCDF of per-swarm capacities (log-x, as in the paper's left panel).
    pub capacity_ccdf: Vec<(f64, f64)>,
    /// CCDF of per-swarm savings for each model (right panel).
    pub savings_ccdf: Vec<(ModelKind, Vec<(f64, f64)>)>,
    /// Median per-swarm savings per model.
    pub median_savings: Vec<(ModelKind, f64)>,
    /// Demand-weighted mean savings of the top 1 % of swarms by capacity.
    pub top1pct_savings: Vec<(ModelKind, f64)>,
    /// Number of swarms with any traffic.
    pub swarms: usize,
}

/// Computes Fig. 3 from a full-catalogue simulation report.
pub fn fig3(report: &SimReport) -> Fig3 {
    let capacities: Vec<f64> = report
        .swarm_capacities()
        .into_iter()
        .filter(|&c| c > 0.0)
        .collect();
    let capacity_edf = Edf::from_samples(capacities.iter().copied());
    let capacity_ccdf = capacity_edf.ccdf_log_series(1e-3, 1e3, 60);

    let mut savings_ccdf = Vec::new();
    let mut median_savings = Vec::new();
    let mut top1pct_savings = Vec::new();
    for model in ModelKind::ALL {
        let params = EnergyParams::of(model);
        let points = report.swarm_points(&params);
        let edf = Edf::from_samples(points.iter().map(|&(_, s)| s));
        savings_ccdf.push((model, edf.ccdf_log_series(1e-3, 1.0, 50)));
        median_savings.push((model, edf.median().unwrap_or(0.0)));

        // Top 1% of swarms by (time-averaged) capacity, demand-weighted
        // savings — "the Top-1% of the popular items".
        let mut by_capacity: Vec<&consume_local_sim::SwarmReport> = report
            .swarms
            .iter()
            .filter(|s| s.time_avg_capacity > 0.0 && s.ledger.demand_bytes > 0)
            .collect();
        by_capacity.sort_by(|a, b| {
            b.time_avg_capacity
                .partial_cmp(&a.time_avg_capacity)
                .expect("finite")
        });
        let take = (by_capacity.len() / 100).max(1);
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for s in by_capacity.into_iter().take(take) {
            if let Some(sv) = s.savings(&params) {
                let w = s.ledger.demand_bytes as f64;
                num += sv * w;
                den += w;
            }
        }
        top1pct_savings.push((model, if den > 0.0 { num / den } else { 0.0 }));
    }

    Fig3 {
        capacity_ccdf,
        savings_ccdf,
        median_savings,
        top1pct_savings,
        swarms: capacities.len(),
    }
}

/// Fig. 3 from the shared experiment's report: every tenth capacity CCDF
/// point, the headline per-swarm savings and both panels as CSV.
pub(crate) fn exhibit(report: &SimReport) -> Exhibit {
    let data = fig3(report);
    let mut ex = Exhibit::new("Fig. 3: catalogue-wide distributions");
    ex.line(format!("{} swarms with traffic", data.swarms));
    ex.line("capacity CCDF (left panel):");
    for (x, y) in data.capacity_ccdf.iter().step_by(10) {
        ex.line(format!("  P(capacity > {x:9.4}) = {y:.4}"));
    }
    ex.line("savings CCDF (right panel) and headline stats:");
    for ((model, median), (_, top)) in data.median_savings.iter().zip(&data.top1pct_savings) {
        ex.line(format!(
            "  {model:?}: median per-swarm savings {} | top-1% swarms (demand-weighted) {}",
            pct(*median),
            pct(*top)
        ));
    }
    ex.line("paper (full scale): median ≈ 2%, top-1% > 21% (Baliga) / 33% (Valancius)");
    let capacity = series_csv("capacity", "ccdf", &data.capacity_ccdf);
    ex.csv("fig3_capacity_ccdf.csv", capacity);
    let savings = model_series_csv("savings", "ccdf", &data.savings_ccdf);
    ex.csv("fig3_savings_ccdf.csv", savings);
    ex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    fn data() -> Fig3 {
        let exp = Experiment::builder()
            .scale(0.0008)
            .seed(21)
            .build()
            .unwrap();
        fig3(exp.report())
    }

    #[test]
    fn ccdfs_are_monotone_decreasing() {
        let f = data();
        for series in std::iter::once(&f.capacity_ccdf).chain(f.savings_ccdf.iter().map(|(_, s)| s))
        {
            for w in series.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-12);
            }
        }
        assert!(f.swarms > 10);
    }

    #[test]
    fn capacity_distribution_is_skewed() {
        let f = data();
        // Many swarms are tiny; few are large — the CCDF spans decades.
        let at_small = f.capacity_ccdf.iter().find(|(x, _)| *x >= 0.01).unwrap().1;
        let at_large = f.capacity_ccdf.iter().find(|(x, _)| *x >= 10.0).unwrap().1;
        assert!(at_small > 0.3, "most swarms above 0.01: {at_small}");
        assert!(at_large < 0.1, "few swarms above 10: {at_large}");
    }

    #[test]
    fn top_swarms_save_far_more_than_median() {
        let f = data();
        for ((m1, median), (m2, top)) in f.median_savings.iter().zip(&f.top1pct_savings) {
            assert_eq!(m1, m2);
            assert!(
                top > &(median + 0.05),
                "{m1:?}: top1% {top} vs median {median}"
            );
        }
        // The paper's shape: median per-swarm savings are tiny (~2%), the
        // top-1% save an order of magnitude more. (The paper's absolute
        // bands — 21 %/33 % for the top-1 % — need full-scale head
        // capacities: a scaled catalogue has a smaller head, so scaled
        // runs sit below them with the same ordering; see the scaling note
        // on `TraceConfig::catalogue_size`. `examples/paper.rs` prints its
        // bands next to the paper's.)
        let median_v = f.median_savings[0].1;
        assert!(
            median_v < 0.12,
            "median per-swarm savings should be small: {median_v}"
        );
        let top_v = f.top1pct_savings[0].1;
        assert!(
            top_v > 3.0 * median_v.max(0.01),
            "top-1% savings should dominate: {top_v}"
        );
    }
}
