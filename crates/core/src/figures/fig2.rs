//! Fig. 2: energy savings vs swarm capacity — theory curves (Eq. 12) with
//! trace-driven simulation dots, for three content popularity tiers, both
//! energy models, the top-5 ISPs and a `q/β` sweep.

use std::fmt::Write as _;

use consume_local_analytics::SavingsModel;
use consume_local_energy::{EnergyParams, ModelKind};
use consume_local_sim::{SimConfig, Simulator, UploadModel};
use consume_local_stats::grid;
use consume_local_topology::IspId;
use consume_local_trace::{ContentId, Popularity, Trace, TraceConfig, TraceGenerator};

use super::{pct, Exhibit};

/// Which of the paper's three exemplar popularity tiers a panel shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PopularityTier {
    /// ≈100 K monthly views ("Bad Education"-like).
    Popular,
    /// ≈10 K monthly views ("Question Time"-like).
    Medium,
    /// ≈1 K monthly views ("What's to Eat"-like).
    Unpopular,
}

impl PopularityTier {
    /// All tiers in the paper's column order.
    pub const ALL: [PopularityTier; 3] = [
        PopularityTier::Popular,
        PopularityTier::Medium,
        PopularityTier::Unpopular,
    ];

    /// The targeted monthly view count.
    pub fn target_views(self) -> f64 {
        match self {
            PopularityTier::Popular => 100_000.0,
            PopularityTier::Medium => 10_000.0,
            PopularityTier::Unpopular => 1_000.0,
        }
    }

    /// Label used in output.
    pub fn label(self) -> &'static str {
        match self {
            PopularityTier::Popular => "highly popular (~100K views)",
            PopularityTier::Medium => "medium (~10K views)",
            PopularityTier::Unpopular => "unpopular (~1K views)",
        }
    }
}

/// Options for the Fig. 2 computation.
#[derive(Debug, Clone)]
pub struct Fig2Options {
    /// The `q/β` sweep (paper: 0.2, 0.4, 0.6, 0.8, 1.0).
    pub ratios: Vec<f64>,
    /// Points per theory curve.
    pub curve_points: usize,
}

impl Default for Fig2Options {
    fn default() -> Self {
        Self {
            ratios: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            curve_points: 48,
        }
    }
}

/// One simulation dot: a (sub-swarm × ratio) outcome with its theory
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Dot {
    /// The ISP the sub-swarm belonged to (colour in the paper's plot).
    pub isp: IspId,
    /// The `q/β` ratio of the run (marker in the paper's plot).
    pub ratio: f64,
    /// Measured sub-swarm capacity (x).
    pub capacity: f64,
    /// Simulated savings (y).
    pub sim: f64,
    /// Closed-form prediction `S(capacity)` from Eq. 12 with that ISP's
    /// topology (the paper's black curve, evaluated at the dot).
    pub theory: f64,
}

/// One panel: a (popularity tier × energy model) cell of the figure.
#[derive(Debug, Clone)]
pub struct Fig2Panel {
    /// Energy model of the row.
    pub model: ModelKind,
    /// Popularity tier of the column.
    pub tier: PopularityTier,
    /// The exemplar item chosen from the catalogue.
    pub item: ContentId,
    /// The item's expected monthly views at this trace's scale.
    pub expected_views: f64,
    /// Theory curves, one per ratio: `(ratio, [(capacity, savings)])` for
    /// the ISP-1 topology.
    pub curves: Vec<(f64, Vec<(f64, f64)>)>,
    /// Simulation dots across ISPs and ratios.
    pub dots: Vec<Fig2Dot>,
}

impl Fig2Panel {
    /// Mean absolute gap between simulated savings and the theory value at
    /// the measured capacities — the "good agreement" check of §IV-B-2.
    pub fn mean_theory_gap(&self) -> f64 {
        if self.dots.is_empty() {
            return 0.0;
        }
        self.dots
            .iter()
            .map(|d| (d.sim - d.theory).abs())
            .sum::<f64>()
            / self.dots.len() as f64
    }
}

/// Computes Fig. 2 from a trace: picks the three exemplar items, simulates
/// their swarms under each `q/β`, and pairs the dots with Eq. 12 curves.
///
/// `base` configures everything except the upload ratio, which is swept.
pub fn fig2(trace: &Trace, base: &SimConfig, opts: &Fig2Options) -> Vec<Fig2Panel> {
    let total_sessions = trace.sessions().len() as f64;
    let registry = &trace.config().registry;
    let items: Vec<(PopularityTier, ContentId)> = PopularityTier::ALL
        .iter()
        .map(|&tier| {
            (
                tier,
                trace
                    .catalogue()
                    .item_with_views(tier.target_views(), total_sessions),
            )
        })
        .collect();

    // Sub-trace restricted to the exemplar items (cheap: one clone of the
    // relevant sessions; catalogue/population are shared by clone).
    let wanted: Vec<ContentId> = items.iter().map(|(_, id)| *id).collect();
    let sessions: Vec<_> = trace
        .sessions()
        .iter()
        .filter(|s| wanted.contains(&s.content))
        .copied()
        .collect();
    let sub_trace = Trace::from_parts(
        trace.config().clone(),
        trace.catalogue().clone(),
        trace.population().clone(),
        sessions,
    );

    // One simulation per ratio covers all items and ISPs.
    let mut runs = Vec::with_capacity(opts.ratios.len());
    for &ratio in &opts.ratios {
        let cfg = SimConfig {
            upload: UploadModel::Ratio(ratio),
            ..base.clone()
        };
        runs.push((ratio, Simulator::new(cfg).simulate(&sub_trace)));
    }

    let mut panels = Vec::new();
    for model in ModelKind::ALL {
        let params = EnergyParams::of(model);
        for &(tier, item) in &items {
            let mut dots = Vec::new();
            let mut cap_lo = f64::INFINITY;
            let mut cap_hi = 0.0f64;
            for (ratio, report) in &runs {
                for swarm in report.swarms.iter().filter(|s| s.key.content == item) {
                    let Some(sim) = swarm.savings(&params) else {
                        continue;
                    };
                    if swarm.capacity <= 0.0 {
                        continue;
                    }
                    let isp = swarm.key.isp.unwrap_or(IspId(0));
                    let topo = registry
                        .get(isp)
                        .map(|p| p.topology.clone())
                        .unwrap_or_else(|| registry.profiles()[0].topology.clone());
                    let theory = SavingsModel::new(params, &topo, *ratio)
                        .expect("positive ratio")
                        .savings(swarm.capacity);
                    cap_lo = cap_lo.min(swarm.capacity);
                    cap_hi = cap_hi.max(swarm.capacity);
                    dots.push(Fig2Dot {
                        isp,
                        ratio: *ratio,
                        capacity: swarm.capacity,
                        sim,
                        theory,
                    });
                }
            }
            if !cap_lo.is_finite() {
                cap_lo = 0.01;
                cap_hi = 10.0;
            }
            let caps = grid::log_spaced(
                (cap_lo / 3.0).max(1e-4),
                (cap_hi * 3.0).max(cap_lo * 10.0),
                opts.curve_points,
            );
            let isp1 = &registry.profiles()[0].topology;
            let curves = opts
                .ratios
                .iter()
                .map(|&ratio| {
                    let m = SavingsModel::new(params, isp1, ratio).expect("positive ratio");
                    (ratio, m.savings_series(&caps))
                })
                .collect();
            panels.push(Fig2Panel {
                model,
                tier,
                item,
                expected_views: trace.catalogue().expected_views(item, total_sessions),
                curves,
                dots,
            });
        }
    }
    panels
}

/// The exemplar trace: a 3-item catalogue whose views ladder down the
/// paper's tiers at *absolute* (unscaled) volumes, so the capacities match
/// the paper's x-axis directly at every preset.
pub(crate) fn exemplar_trace() -> Trace {
    let mut config = TraceConfig::london_sep2013();
    config.catalogue_size = 3;
    config.popularity = Popularity::Zipf { exponent: 3.35 };
    config.sessions_target = 112_000;
    config.users = 40_000;
    TraceGenerator::new(config, 2013)
        .generate()
        .expect("the exemplar config is valid")
}

/// Fig. 2 on `trace`'s exemplar items: the per-ratio summary of every panel
/// and the dots and curves as CSV.
pub(crate) fn exhibit(trace: &Trace, opts: &Fig2Options) -> Exhibit {
    let panels = fig2(trace, &SimConfig::default(), opts);
    let mut ex = Exhibit::new("Fig. 2: savings vs capacity (theory curves + simulation dots)");
    let mut dots_csv = String::from("model,tier,isp,ratio,capacity,sim,theory\n");
    let mut curves_csv = String::from("model,tier,ratio,capacity,savings\n");
    for panel in &panels {
        let (model, tier) = (panel.model, panel.tier);
        ex.line(format!(
            "--- {model:?} / {} (item {}, ≈{:.0} expected views) ---",
            tier.label(),
            panel.item,
            panel.expected_views
        ));
        for ratio in &opts.ratios {
            let dots: Vec<&Fig2Dot> = panel.dots.iter().filter(|d| d.ratio == *ratio).collect();
            if dots.is_empty() {
                continue;
            }
            let weight = dots.iter().map(|d| d.capacity).sum::<f64>().max(1e-12);
            let wmean = |f: fn(&Fig2Dot) -> f64| {
                dots.iter().map(|d| f(d) * d.capacity).sum::<f64>() / weight
            };
            ex.line(format!(
                "  q/β={ratio}: {} dots, cap {:.2}–{:.2}, sim {} vs theory {}",
                dots.len(),
                dots.iter()
                    .map(|d| d.capacity)
                    .fold(f64::INFINITY, f64::min),
                dots.iter().map(|d| d.capacity).fold(0.0, f64::max),
                pct(wmean(|d| d.sim)),
                pct(wmean(|d| d.theory)),
            ));
        }
        ex.line(format!(
            "  mean |sim − theory| over dots: {}",
            pct(panel.mean_theory_gap())
        ));
        for d in &panel.dots {
            let _ = writeln!(
                dots_csv,
                "{model:?},{tier:?},{},{},{},{},{}",
                d.isp, d.ratio, d.capacity, d.sim, d.theory
            );
        }
        for (ratio, curve) in &panel.curves {
            for (c, s) in curve {
                let _ = writeln!(curves_csv, "{model:?},{tier:?},{ratio},{c},{s}");
            }
        }
    }
    ex.csv("fig2_dots.csv", dots_csv);
    ex.csv("fig2_curves.csv", curves_csv);
    ex
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_trace::{TraceConfig, TraceGenerator};

    fn tiny_fig2() -> Vec<Fig2Panel> {
        let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0005).unwrap(), 3)
            .generate()
            .unwrap();
        let opts = Fig2Options {
            ratios: vec![0.4, 1.0],
            curve_points: 12,
        };
        fig2(&trace, &SimConfig::default(), &opts)
    }

    #[test]
    fn produces_six_panels_with_dots_and_curves() {
        let panels = tiny_fig2();
        assert_eq!(panels.len(), 6); // 3 tiers × 2 models
        for p in &panels {
            assert_eq!(p.curves.len(), 2);
            for (_, curve) in &p.curves {
                assert_eq!(curve.len(), 12);
                // Curves are monotone in capacity.
                for w in curve.windows(2) {
                    assert!(w[1].1 >= w[0].1 - 1e-9);
                }
            }
        }
        // The popular panels must have simulation dots.
        let popular = panels
            .iter()
            .find(|p| p.tier == PopularityTier::Popular && p.model == ModelKind::Valancius)
            .unwrap();
        assert!(!popular.dots.is_empty());
    }

    #[test]
    fn popular_tier_saves_more_than_unpopular() {
        let panels = tiny_fig2();
        let mean_sim = |tier: PopularityTier| -> f64 {
            let p = panels
                .iter()
                .find(|p| p.tier == tier && p.model == ModelKind::Valancius)
                .unwrap();
            if p.dots.is_empty() {
                return 0.0;
            }
            // Restrict to the full-ratio run for comparability.
            let full: Vec<&Fig2Dot> = p.dots.iter().filter(|d| d.ratio == 1.0).collect();
            full.iter().map(|d| d.sim).sum::<f64>() / full.len().max(1) as f64
        };
        assert!(mean_sim(PopularityTier::Popular) > mean_sim(PopularityTier::Unpopular));
    }

    #[test]
    fn simulation_tracks_theory() {
        let panels = tiny_fig2();
        for p in &panels {
            if p.dots.len() < 3 {
                continue;
            }
            let gap = p.mean_theory_gap();
            assert!(
                gap < 0.12,
                "{:?}/{:?}: mean |sim − theory| = {gap}",
                p.model,
                p.tier
            );
        }
    }

    #[test]
    fn dots_cover_multiple_isps() {
        let panels = tiny_fig2();
        let popular = panels
            .iter()
            .find(|p| p.tier == PopularityTier::Popular && p.model == ModelKind::Baliga)
            .unwrap();
        let isps: std::collections::HashSet<_> = popular.dots.iter().map(|d| d.isp).collect();
        assert!(isps.len() >= 3, "expected several ISPs, got {isps:?}");
    }
}
