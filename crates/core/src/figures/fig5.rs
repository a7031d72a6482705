//! Fig. 5: end-to-end, CDN and user savings plus the carbon credit transfer
//! as functions of swarm capacity (pure closed form, `q/β = 1`).

use std::fmt::Write as _;

use consume_local_analytics::{CreditModel, SavingsModel};
use consume_local_energy::{EnergyParams, ModelKind};
use consume_local_stats::grid;
use consume_local_topology::IspTopology;

use super::{pct, Exhibit};

/// The four Fig. 5 curves for one energy model.
#[derive(Debug, Clone)]
pub struct Fig5Curves {
    /// The energy model.
    pub model: ModelKind,
    /// The capacity grid (log-spaced 10⁻³…10⁴ as in the paper).
    pub capacities: Vec<f64>,
    /// End-to-end system savings `S(c)` (Eq. 12).
    pub end_to_end: Vec<f64>,
    /// CDN savings normalised by CDN-only server energy: `G(c)`.
    pub cdn: Vec<f64>,
    /// User savings normalised by no-sharing user energy: `−G(c)`.
    pub user: Vec<f64>,
    /// Carbon credit transfer (Eq. 13) at `G(c)`.
    pub cct: Vec<f64>,
}

impl Fig5Curves {
    /// The capacity at which the CCT curve crosses zero (users turn carbon
    /// positive), if it does.
    pub fn neutrality_capacity(&self) -> Option<f64> {
        self.capacities
            .iter()
            .zip(&self.cct)
            .find(|(_, &cct)| cct >= 0.0)
            .map(|(&c, _)| c)
    }
}

/// Computes Fig. 5 for both models over `points` log-spaced capacities.
pub fn fig5(points: usize) -> Vec<Fig5Curves> {
    let topo = IspTopology::london_table3().expect("published topology is valid");
    let capacities = grid::log_spaced(1e-3, 1e4, points.max(2));
    ModelKind::ALL
        .iter()
        .map(|&model| {
            let params = EnergyParams::of(model);
            let savings = SavingsModel::new(params, &topo, 1.0).expect("ratio 1 valid");
            let credits = CreditModel::new(params);
            let mut end_to_end = Vec::with_capacity(capacities.len());
            let mut cdn = Vec::with_capacity(capacities.len());
            let mut user = Vec::with_capacity(capacities.len());
            let mut cct = Vec::with_capacity(capacities.len());
            for &c in &capacities {
                let pt = credits.capacity_curves(c, 1.0);
                end_to_end.push(savings.savings(c));
                cdn.push(pt.cdn_savings);
                user.push(pt.user_savings);
                cct.push(pt.cct);
            }
            Fig5Curves {
                model,
                capacities: capacities.clone(),
                end_to_end,
                cdn,
                user,
                cct,
            }
        })
        .collect()
}

/// Fig. 5 over 160 capacities: each model's asymptotes and carbon-neutral
/// capacity, and all four curves as CSV.
pub(crate) fn exhibit() -> Exhibit {
    let mut ex = Exhibit::new("Fig. 5: savings and credit transfer vs capacity");
    let mut csv = String::from("model,capacity,end_to_end,cdn,user,cct\n");
    for c in fig5(160) {
        for i in 0..c.capacities.len() {
            let _ = writeln!(
                csv,
                "{:?},{},{},{},{},{}",
                c.model, c.capacities[i], c.end_to_end[i], c.cdn[i], c.user[i], c.cct[i]
            );
        }
        let last = c.capacities.len() - 1;
        ex.line(format!(
            "{:?}: S(∞) → {} | CDN → {} | user → {} | CCT(∞) → {:+.0}% | carbon-neutral at c ≈ {:.2}",
            c.model,
            pct(c.end_to_end[last]),
            pct(c.cdn[last]),
            pct(c.user[last]),
            c.cct[last] * 100.0,
            c.neutrality_capacity().unwrap_or(f64::NAN),
        ));
    }
    ex.line("paper: CCT asymptotes +18% (Valancius) / +58% (Baliga).");
    ex.csv("fig5_credit_curves.csv", csv);
    ex
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curves() -> Vec<Fig5Curves> {
        fig5(120)
    }

    #[test]
    fn shapes_match_paper() {
        for c in curves() {
            let last = c.capacities.len() - 1;
            // CDN savings → 1, user → −1 as capacity grows.
            assert!(c.cdn[last] > 0.999);
            assert!(c.user[last] < -0.999);
            // CCT starts at −1 and ends positive.
            assert!((c.cct[0] + 1.0).abs() < 0.01);
            assert!(c.cct[last] > 0.0);
            // End-to-end grows monotonically from ~0.
            assert!(c.end_to_end[0] < 0.01);
            for w in c.end_to_end.windows(2) {
                assert!(w[1] >= w[0] - 1e-9);
            }
        }
    }

    #[test]
    fn asymptotic_cct_matches_section5() {
        let cs = curves();
        let at_end = |m: ModelKind| {
            cs.iter()
                .find(|c| c.model == m)
                .map(|c| *c.cct.last().unwrap())
                .unwrap()
        };
        assert!((at_end(ModelKind::Valancius) - 0.18).abs() < 0.01);
        assert!((at_end(ModelKind::Baliga) - 0.58).abs() < 0.01);
    }

    #[test]
    fn neutrality_crossing_exists_and_is_earlier_for_baliga() {
        let cs = curves();
        let v = cs[0].neutrality_capacity().expect("Valancius crosses zero");
        let b = cs[1].neutrality_capacity().expect("Baliga crosses zero");
        assert!(
            b < v,
            "Baliga's cheaper server credit turns positive at smaller swarms: {b} vs {v}"
        );
    }

    #[test]
    fn user_is_negative_of_cdn() {
        for c in curves() {
            for (u, d) in c.user.iter().zip(&c.cdn) {
                assert!((u + d).abs() < 1e-12);
            }
        }
    }
}
