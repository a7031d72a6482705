//! Fig. 4: daily aggregate energy savings across the month, per ISP,
//! simulation vs theory, both energy models.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use consume_local_analytics::SavingsModel;
use consume_local_energy::{EnergyParams, ModelKind};
use consume_local_sim::SimReport;
use consume_local_topology::{IspId, IspRegistry};

use super::{pct, Exhibit};

/// One (ISP × model) pair of day series.
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// The ISP.
    pub isp: IspId,
    /// The energy model.
    pub model: ModelKind,
    /// Simulated daily savings `(day, S)`.
    pub sim: Vec<(u32, f64)>,
    /// Theory daily savings: Eq. 12 evaluated at each swarm's *per-day*
    /// measured capacity, demand-weighted across the ISP's swarms.
    pub theory: Vec<(u32, f64)>,
}

impl Fig4Series {
    /// Demand-weighted monthly average of the simulated series — the
    /// paper's "on average around 30 % (18 %) for the biggest ISP".
    pub fn sim_monthly_mean(&self) -> f64 {
        if self.sim.is_empty() {
            return 0.0;
        }
        self.sim.iter().map(|(_, s)| s).sum::<f64>() / self.sim.len() as f64
    }
}

/// Computes Fig. 4 for the chosen ISPs (the paper plots ISPs 1, 4 and 5).
pub fn fig4(report: &SimReport, registry: &IspRegistry, isps: &[IspId]) -> Vec<Fig4Series> {
    let mut out = Vec::new();
    for model in ModelKind::ALL {
        let params = EnergyParams::of(model);
        for &isp in isps {
            let sim = report.daily_savings(Some(isp), &params);

            // Theory: per day, demand-weighted S_theory over the ISP's
            // swarms at their per-day capacities.
            let Some(profile) = registry.get(isp) else {
                continue;
            };
            // BTreeMap, not HashMap: `theory` below is built straight from
            // this map's iteration order, which must be day-sorted (the
            // `hash-iter` lint guards exactly this kind of output path).
            let mut per_day: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
            for swarm in report.swarms.iter().filter(|s| s.key.isp == Some(isp)) {
                let model =
                    SavingsModel::new(params, &profile.topology, swarm.upload_ratio.max(1e-9))
                        .expect("positive ratio");
                for day in &swarm.daily {
                    let w = day.demand_bytes as f64;
                    if w <= 0.0 {
                        continue;
                    }
                    let s = model.savings(day.capacity);
                    let e = per_day.entry(day.day).or_insert((0.0, 0.0));
                    e.0 += s * w;
                    e.1 += w;
                }
            }
            let theory: Vec<(u32, f64)> = per_day
                .into_iter()
                .map(|(d, (num, den))| (d, num / den))
                .collect();

            out.push(Fig4Series {
                isp,
                model,
                sim,
                theory,
            });
        }
    }
    out
}

/// Fig. 4 for the paper's ISPs 1, 4 and 5: each series' monthly means and
/// every day's simulated and theory savings as CSV (`NaN` theory on a day
/// the ISP's swarms had no demand).
pub(crate) fn exhibit(report: &SimReport, registry: &IspRegistry) -> Exhibit {
    let mut ex = Exhibit::new("Fig. 4: daily aggregate savings");
    let mut csv = String::from("model,isp,day,sim,theory\n");
    for s in fig4(report, registry, &[IspId(0), IspId(3), IspId(4)]) {
        let mean_theory = if s.theory.is_empty() {
            0.0
        } else {
            s.theory.iter().map(|(_, v)| v).sum::<f64>() / s.theory.len() as f64
        };
        ex.line(format!(
            "{} / {:?}: monthly mean sim {} | theory {} over {} days",
            s.isp,
            s.model,
            pct(s.sim_monthly_mean()),
            pct(mean_theory),
            s.sim.len()
        ));
        for &(day, sim) in &s.sim {
            let theory = s
                .theory
                .binary_search_by_key(&day, |&(d, _)| d)
                .map_or(f64::NAN, |i| s.theory[i].1);
            let _ = writeln!(csv, "{:?},{},{day},{sim},{theory}", s.model, s.isp);
        }
    }
    ex.line("paper (full scale): biggest ISP averages ≈30% (Valancius) / ≈18% (Baliga);");
    ex.line("scaled runs sit lower (smaller swarms) with the same ISP/model ordering.");
    ex.csv("fig4_daily_savings.csv", csv);
    ex
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::experiment::Experiment;

    fn series() -> Vec<Fig4Series> {
        let exp = Experiment::builder()
            .scale(0.0008)
            .seed(33)
            .build()
            .unwrap();
        let registry = exp.trace().config().registry.clone();
        fig4(exp.report(), &registry, &[IspId(0), IspId(3), IspId(4)])
    }

    #[test]
    fn covers_requested_isps_and_models() {
        let s = series();
        assert_eq!(s.len(), 6); // 3 ISPs × 2 models
        for fs in &s {
            assert!(!fs.sim.is_empty(), "{:?}/{:?} sim empty", fs.isp, fs.model);
            assert!(!fs.theory.is_empty());
            // Days are sorted and within a month.
            assert!(fs.sim.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(fs.sim.iter().all(|&(d, _)| d < 31));
        }
    }

    #[test]
    fn theory_tracks_simulation_daily() {
        for fs in series() {
            let theory: HashMap<u32, f64> = fs.theory.iter().copied().collect();
            let mut gaps = Vec::new();
            for &(day, sim) in &fs.sim {
                if let Some(&th) = theory.get(&day) {
                    gaps.push((sim - th).abs());
                }
            }
            assert!(!gaps.is_empty());
            let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
            assert!(
                mean_gap < 0.08,
                "{:?}/{:?}: mean daily |sim − theory| = {mean_gap}",
                fs.isp,
                fs.model
            );
        }
    }

    #[test]
    fn biggest_isp_saves_most() {
        let s = series();
        let mean = |isp: IspId, model: ModelKind| -> f64 {
            s.iter()
                .find(|f| f.isp == isp && f.model == model)
                .map(|f| f.sim_monthly_mean())
                .unwrap()
        };
        for model in ModelKind::ALL {
            assert!(
                mean(IspId(0), model) > mean(IspId(4), model),
                "{model:?}: ISP-1 should beat ISP-5"
            );
        }
    }

    #[test]
    fn valancius_above_baliga() {
        let s = series();
        for isp in [IspId(0), IspId(3), IspId(4)] {
            let v = s
                .iter()
                .find(|f| f.isp == isp && f.model == ModelKind::Valancius)
                .unwrap()
                .sim_monthly_mean();
            let b = s
                .iter()
                .find(|f| f.isp == isp && f.model == ModelKind::Baliga)
                .unwrap()
                .sim_monthly_mean();
            assert!(v > b, "{isp:?}: {v} vs {b}");
        }
    }
}
