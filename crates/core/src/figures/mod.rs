//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each submodule computes the *data* behind one exhibit and returns typed
//! series, next to the CSV and text rendering of that data; [`paper`]
//! computes every exhibit at one [`ScalePreset`], and `examples/paper.rs`
//! writes the result under `target/paper-figures/`:
//!
//! | exhibit | function | paper content |
//! |---|---|---|
//! | Table I | [`tables::table1`] | dataset description |
//! | Table III | [`tables::table3`] | localisation probabilities |
//! | Table IV | [`tables::table4`] | energy parameters |
//! | Fig. 2 | [`fig2::fig2`] | savings vs capacity, theory + simulation |
//! | Fig. 3 | [`fig3::fig3`] | CCDFs of per-swarm capacity and savings |
//! | Fig. 4 | [`fig4::fig4`] | daily aggregate savings per ISP |
//! | Fig. 5 | [`fig5::fig5`] | end-to-end / CDN / user / CCT vs capacity |
//! | Fig. 6 | [`fig6::fig6`] | CDF of per-user carbon credit transfer |
//! | A1–A6, §VI | `ablations` | one setting varied on the shared experiment |
//!
//! Every CSV's FNV digest at the `smoke` preset is pinned by this module's
//! tests, so a change that moves a figure fails and names it.

mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod tables;

use std::fmt::Write as _;

use consume_local_energy::ModelKind;
use consume_local_trace::ScalePreset;

use crate::experiment::Experiment;

pub use fig2::{fig2, Fig2Dot, Fig2Options, Fig2Panel, PopularityTier};
pub use fig3::{fig3, Fig3};
pub use fig4::{fig4, Fig4Series};
pub use fig5::{fig5, Fig5Curves};
pub use fig6::{fig6, Fig6};

/// One regenerated exhibit: its headline numbers and its CSV files.
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// What the exhibit shows, e.g. `Fig. 5: savings and credit transfer
    /// vs capacity`.
    pub title: String,
    /// The headline numbers as printed, one entry per line (an entry may
    /// hold a whole rendered table).
    pub lines: Vec<String>,
    /// Each CSV file the exhibit writes, as `(file name, contents)`.
    pub csvs: Vec<(&'static str, String)>,
}

impl Exhibit {
    fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            lines: Vec::new(),
            csvs: Vec::new(),
        }
    }

    fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    fn csv(&mut self, name: &'static str, csv: String) {
        self.csvs.push((name, csv));
    }
}

/// Every table, figure, ablation and §VI extension of the paper's
/// evaluation, in the paper's order, with the trace-driven ones at
/// `preset`. Fig. 2's exemplar swarms have a fixed volume at every preset,
/// so its capacities match the paper's x-axis.
pub fn paper(preset: ScalePreset) -> Vec<Exhibit> {
    let fig2 = fig2::exhibit(&fig2::exemplar_trace(), &Fig2Options::default());
    exhibits(&shared_experiment(preset), fig2)
}

/// The full-catalogue experiment every distribution figure and ablation
/// draws from.
fn shared_experiment(preset: ScalePreset) -> Experiment {
    Experiment::builder()
        .scale(preset.scale())
        .seed(2013)
        .build()
        .expect("preset experiments are valid")
}

/// [`paper`]'s exhibits around an already computed Fig. 2.
fn exhibits(exp: &Experiment, fig2: Exhibit) -> Vec<Exhibit> {
    let registry = &exp.trace().config().registry;
    let mut out = vec![
        tables::table1_exhibit(exp.scale()),
        tables::table3_exhibit(),
        tables::table4_exhibit(),
        tables::closed_form_exhibit(),
        fig2,
        fig3::exhibit(exp.report()),
        fig4::exhibit(exp.report(), registry),
        fig5::exhibit(),
        fig6::exhibit(exp.report()),
    ];
    out.extend(ablations::exhibits(exp));
    out
}

/// Formats a fraction as a percentage with one decimal.
fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One `(x, y)` series per energy model as `model,x,y` rows.
fn model_series_csv(x: &str, y: &str, series: &[(ModelKind, Vec<(f64, f64)>)]) -> String {
    let mut csv = format!("model,{x},{y}\n");
    for (model, points) in series {
        for (x, y) in points {
            let _ = writeln!(csv, "{model:?},{x},{y}");
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_sim::checkpoint::fnv1a;

    /// FNV-1a digests of every CSV at the `smoke` preset. Fig. 2 is pinned
    /// on the smoke month's own exemplar items at two ratios: its
    /// fixed-volume exemplar takes far longer than the rest in a debug
    /// build.
    const PINNED: [(&str, u64); 17] = [
        ("table1_dataset.csv", 0xd761_e41a_e85e_88d1),
        ("table3_localisation.csv", 0x663e_e2e3_64ed_a62f),
        ("table4_energy.csv", 0x205f_2ad7_8afb_7ef0),
        ("fig2_dots.csv", 0xd3a1_1cb2_090f_f98a),
        ("fig2_curves.csv", 0x064b_22c3_21ee_bba3),
        ("fig3_capacity_ccdf.csv", 0x1833_380d_01c3_31e9),
        ("fig3_savings_ccdf.csv", 0x3776_1bf2_3984_83d5),
        ("fig4_daily_savings.csv", 0x15e8_1442_5a2c_2d72),
        ("fig5_credit_curves.csv", 0xa653_ba1c_bf9d_1be4),
        ("fig6_user_cct_cdf.csv", 0x277e_e70e_85ae_e9c3),
        ("ablation_matching.csv", 0x5554_140d_9ff1_587b),
        ("ablation_policies.csv", 0x7346_1336_e88a_5c7e),
        ("ablation_window.csv", 0x0529_9f48_e185_29da),
        ("ablation_upload.csv", 0x89e5_12b7_5e5f_e954),
        ("ablation_popularity.csv", 0xfc24_4572_27c7_36c7),
        ("ablation_participation.csv", 0xee9b_c8cb_5312_b1af),
        ("extension_futurework.csv", 0x3c3f_998e_c8ce_77e9),
    ];

    #[test]
    fn every_csv_matches_its_pinned_digest() {
        let exp = shared_experiment(ScalePreset::Smoke);
        let opts = Fig2Options {
            ratios: vec![0.4, 1.0],
            ..Fig2Options::default()
        };
        let fig2 = fig2::exhibit(exp.trace(), &opts);
        let digests: Vec<(&str, u64)> = exhibits(&exp, fig2)
            .iter()
            .flat_map(|e| &e.csvs)
            .map(|(name, csv)| (*name, fnv1a(csv.as_bytes())))
            .collect();
        let moved: Vec<String> = PINNED
            .iter()
            .zip(&digests)
            .filter(|(pinned, now)| pinned != now)
            .map(|((name, pinned), (_, now))| {
                format!("{name}: pinned {pinned:#018x}, now {now:#018x}")
            })
            .collect();
        assert!(moved.is_empty(), "moved artefacts:\n{}", moved.join("\n"));
        assert_eq!(digests.len(), PINNED.len(), "artefact count");
    }
}
