//! Population-level credit reporting (Fig. 6).

use consume_local_energy::EnergyParams;
use consume_local_stats::Edf;

use crate::statement::{CarbonStatement, CarbonStatus};

/// The population view of the carbon credit transfer: the distribution of
/// per-user CCT values under one energy parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct CreditReport {
    cct: Edf,
    positive: u64,
    neutral: u64,
    negative: u64,
}

impl CreditReport {
    /// Builds the report from `(watched_bytes, uploaded_bytes)` pairs.
    /// Users who watched nothing are skipped (they have no footprint).
    pub fn from_traffic<I>(traffic: I, params: &EnergyParams) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut ccts = Vec::new();
        let (mut positive, mut neutral, mut negative) = (0u64, 0u64, 0u64);
        for (watched, uploaded) in traffic {
            let Some(st) = CarbonStatement::new(watched, uploaded, params) else {
                continue;
            };
            ccts.push(st.cct);
            match st.status {
                CarbonStatus::Positive => positive += 1,
                CarbonStatus::Neutral => neutral += 1,
                CarbonStatus::Negative => negative += 1,
            }
        }
        Self {
            cct: Edf::from_samples(ccts),
            positive,
            neutral,
            negative,
        }
    }

    /// Number of users with a statement (watched > 0).
    pub fn users(&self) -> u64 {
        self.cct.len() as u64
    }

    /// Users whose credit exceeds their footprint.
    pub fn carbon_positive(&self) -> u64 {
        self.positive
    }

    /// Users within the neutrality tolerance.
    pub fn carbon_neutral(&self) -> u64 {
        self.neutral
    }

    /// Users whose footprint exceeds their credit.
    pub fn carbon_negative(&self) -> u64 {
        self.negative
    }

    /// Share of users who become carbon positive — the paper's headline
    /// "≈41 % (Valancius) / >70 % (Baliga)".
    pub fn carbon_positive_share(&self) -> f64 {
        if self.users() == 0 {
            0.0
        } else {
            self.positive as f64 / self.users() as f64
        }
    }

    /// Median per-user CCT.
    pub fn median_cct(&self) -> Option<f64> {
        self.cct.median()
    }

    /// The empirical CCT distribution.
    pub fn distribution(&self) -> &Edf {
        &self.cct
    }

    /// The Fig. 6 series: CDF of per-user CCT over `[−1, 0.6]`.
    pub fn fig6_series(&self, points: usize) -> Vec<(f64, f64)> {
        self.cct.cdf_linear_series(-1.0, 0.6, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_share() {
        let params = EnergyParams::baliga();
        let report = CreditReport::from_traffic(
            [
                (1_000, 1_000), // strongly positive
                (1_000, 0),     // −1
                (1_000, 0),     // −1
                (0, 0),         // skipped
            ],
            &params,
        );
        assert_eq!(report.users(), 3);
        assert_eq!(report.carbon_positive(), 1);
        assert_eq!(report.carbon_negative(), 2);
        assert_eq!(report.carbon_neutral(), 0);
        assert!((report.carbon_positive_share() - 1.0 / 3.0).abs() < 1e-12);
        assert!(report.median_cct().unwrap() < 0.0);
    }

    #[test]
    fn counts_partition_users() {
        let params = EnergyParams::valancius();
        let traffic: Vec<(u64, u64)> = (0..100).map(|i| (1_000, i * 25)).collect();
        let report = CreditReport::from_traffic(traffic, &params);
        assert_eq!(
            report.carbon_positive() + report.carbon_neutral() + report.carbon_negative(),
            report.users()
        );
    }

    #[test]
    fn baliga_more_generous_than_valancius() {
        // Same population, both models: Baliga's cheaper CDN path yields a
        // higher server γ relative to modem cost ⇒ more positive users.
        let traffic: Vec<(u64, u64)> = (0..200).map(|i| (1_000, i * 5)).collect();
        let v = CreditReport::from_traffic(traffic.iter().copied(), &EnergyParams::valancius());
        let b = CreditReport::from_traffic(traffic.iter().copied(), &EnergyParams::baliga());
        assert!(b.carbon_positive() > v.carbon_positive());
    }

    #[test]
    fn fig6_series_is_monotone_cdf() {
        // Uploads never exceed watched traffic (q/β ≤ 1 in the simulator),
        // so CCT stays below the G = 1 asymptote of 0.58 (Baliga).
        let traffic: Vec<(u64, u64)> = (0..50).map(|i| (1_000, i * 20)).collect();
        let report = CreditReport::from_traffic(traffic, &EnergyParams::baliga());
        let series = report.fig6_series(64);
        assert_eq!(series.len(), 64);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!(
            (series.last().unwrap().1 - 1.0).abs() < 1e-9,
            "CDF reaches 1 by 0.6"
        );
    }

    #[test]
    fn empty_population() {
        let report = CreditReport::from_traffic(std::iter::empty(), &EnergyParams::valancius());
        assert_eq!(report.users(), 0);
        assert_eq!(report.carbon_positive_share(), 0.0);
        assert_eq!(report.median_cct(), None);
    }
}
