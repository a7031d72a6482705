//! Per-user carbon statements.

use std::fmt;

use consume_local_analytics::CreditModel;
use consume_local_energy::{CostModel, Energy, EnergyParams, Traffic};

/// Whether a user's streaming ends up carbon positive after the credit
/// transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarbonStatus {
    /// Credit exceeds the footprint (CCT > tolerance).
    Positive,
    /// Credit within ±tolerance of the footprint.
    Neutral,
    /// Footprint exceeds the credit (CCT < −tolerance).
    Negative,
}

impl CarbonStatus {
    /// Classification tolerance on the normalised CCT.
    pub const TOLERANCE: f64 = 1e-3;

    /// Classifies a normalised CCT value.
    pub fn of(cct: f64) -> Self {
        if cct > Self::TOLERANCE {
            CarbonStatus::Positive
        } else if cct < -Self::TOLERANCE {
            CarbonStatus::Negative
        } else {
            CarbonStatus::Neutral
        }
    }
}

impl fmt::Display for CarbonStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CarbonStatus::Positive => "carbon-positive",
            CarbonStatus::Neutral => "carbon-neutral",
            CarbonStatus::Negative => "carbon-negative",
        };
        f.write_str(s)
    }
}

/// One user's carbon accounting for the traced period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonStatement {
    /// Bytes the user streamed.
    pub watched_bytes: u64,
    /// Bytes the user uploaded to peers.
    pub uploaded_bytes: u64,
    /// The user's own premises-equipment energy (`l·γ_m` over every
    /// transferred bit, down and up).
    pub footprint: Energy,
    /// The credit transferred from the CDN (`PUE·γ_s` per uploaded bit).
    pub credit: Energy,
    /// Normalised balance (Eq. 13): `(credit − footprint)/footprint`.
    pub cct: f64,
    /// Classification of the balance.
    pub status: CarbonStatus,
}

impl CarbonStatement {
    /// Builds the statement for a user under an energy parameter set.
    ///
    /// Returns `None` for a user who watched nothing (no footprint to
    /// normalise by; such users are excluded from Fig. 6, as in the paper
    /// which plots *users of the service*).
    pub fn new(watched_bytes: u64, uploaded_bytes: u64, params: &EnergyParams) -> Option<Self> {
        let credits = CreditModel::new(*params);
        let cct = credits.cct_from_traffic(watched_bytes, uploaded_bytes)?;
        let cost = CostModel::new(*params);
        let footprint_per_bit = cost.user_premises_cost_per_bit();
        let transferred = Traffic::from_bytes(watched_bytes + uploaded_bytes);
        Some(Self {
            watched_bytes,
            uploaded_bytes,
            footprint: footprint_per_bit.energy_for(transferred),
            credit: cost
                .cdn_saving_per_bit()
                .energy_for(Traffic::from_bytes(uploaded_bytes)),
            cct,
            status: CarbonStatus::of(cct),
        })
    }

    /// The user's upload-to-watch ratio (an empirical per-user `G`).
    pub fn upload_share(&self) -> f64 {
        if self.watched_bytes == 0 {
            0.0
        } else {
            self.uploaded_bytes as f64 / self.watched_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_sharer_is_fully_negative() {
        for params in EnergyParams::published() {
            let st = CarbonStatement::new(1_000_000, 0, &params).unwrap();
            assert!(
                (st.cct + 1.0).abs() < 1e-12,
                "CCT must be −1, got {}",
                st.cct
            );
            assert_eq!(st.status, CarbonStatus::Negative);
            assert_eq!(st.credit, Energy::ZERO);
            assert!(st.footprint.as_joules() > 0.0);
        }
    }

    #[test]
    fn idle_user_has_no_statement() {
        assert!(CarbonStatement::new(0, 0, &EnergyParams::valancius()).is_none());
        assert!(CarbonStatement::new(0, 10, &EnergyParams::valancius()).is_none());
    }

    #[test]
    fn full_reciprocity_matches_paper_asymptote() {
        // uploaded == watched is the per-user analogue of G = 1: +18 %
        // (Valancius) / +58 % (Baliga).
        let v = CarbonStatement::new(1_000_000, 1_000_000, &EnergyParams::valancius()).unwrap();
        assert!((v.cct - 0.18).abs() < 0.01, "Valancius {}", v.cct);
        let b = CarbonStatement::new(1_000_000, 1_000_000, &EnergyParams::baliga()).unwrap();
        assert!((b.cct - 0.58).abs() < 0.01, "Baliga {}", b.cct);
        assert_eq!(v.status, CarbonStatus::Positive);
    }

    #[test]
    fn energies_scale_with_traffic() {
        let params = EnergyParams::baliga();
        let small = CarbonStatement::new(1_000, 500, &params).unwrap();
        let large = CarbonStatement::new(2_000, 1_000, &params).unwrap();
        assert!((large.footprint.as_joules() / small.footprint.as_joules() - 2.0).abs() < 1e-9);
        assert!((large.credit.as_joules() / small.credit.as_joules() - 2.0).abs() < 1e-9);
        // CCT is scale-free.
        assert!((large.cct - small.cct).abs() < 1e-12);
    }

    #[test]
    fn status_classification() {
        assert_eq!(CarbonStatus::of(0.5), CarbonStatus::Positive);
        assert_eq!(CarbonStatus::of(-0.5), CarbonStatus::Negative);
        assert_eq!(CarbonStatus::of(0.0), CarbonStatus::Neutral);
        assert_eq!(
            CarbonStatus::of(CarbonStatus::TOLERANCE / 2.0),
            CarbonStatus::Neutral
        );
        assert_eq!(CarbonStatus::Positive.to_string(), "carbon-positive");
    }

    #[test]
    fn upload_share() {
        let st = CarbonStatement::new(1_000, 250, &EnergyParams::valancius()).unwrap();
        assert!((st.upload_share() - 0.25).abs() < 1e-12);
    }
}
