//! Carbon credit transfers (Section V of the paper, Eq. 13).
//!
//! The CDN's server-energy saving from peer uploads, `PUE·γ_s` per offloaded
//! bit, is transferred to the uploading users as a carbon credit. A user who
//! watches `T` bytes with offload share `G` consumes `l·γ_m·(1+G)·T` in their
//! premises equipment (downloading everything, uploading the share `G` they
//! pass on). The normalised credit balance is
//!
//! ```text
//! CCT = (PUE·γ_s·G − l·γ_m·(1+G)) / (l·γ_m·(1+G))
//! ```
//!
//! `CCT = −1` with no sharing; `CCT = 0` is carbon-neutral streaming;
//! `CCT > 0` is *carbon positive* — the credit exceeds the user's whole
//! streaming footprint.
//!
//! **Erratum note**: solving `CCT = 0` for `G` gives
//! `G* = l·γ_m/(PUE·γ_s − l·γ_m)` (multiply out `PUE·γ_s·G = l·γ_m·(1+G)`).
//! The paper's printed expression swaps a factor, but its asymptotic
//! headline numbers (+18 % Valancius, +58 % Baliga at `G = 1`) match this
//! corrected form exactly, and are unit-tested below.

use consume_local_energy::{CostModel, EnergyParams};

use crate::offload::offload_fraction;

/// The carbon-credit model for one energy parameter set.
///
/// # Example
///
/// ```
/// use consume_local_analytics::CreditModel;
/// use consume_local_energy::EnergyParams;
///
/// let m = CreditModel::new(EnergyParams::baliga());
/// assert_eq!(m.cct(0.0), -1.0);           // no sharing: full footprint
/// assert!(m.cct(1.0) > 0.5);              // full offload: strongly positive
/// assert!(m.carbon_neutral_offload().unwrap() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditModel {
    cost: CostModel,
}

impl CreditModel {
    /// Builds a credit model on an energy parameter set.
    pub fn new(params: EnergyParams) -> Self {
        Self {
            cost: CostModel::new(params),
        }
    }

    /// The underlying cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Normalised carbon credit transfer at offload share `G ∈ [0, 1]`
    /// (Eq. 13). Inputs are clamped into `[0, 1]`.
    pub fn cct(&self, offload_share: f64) -> f64 {
        let g = if offload_share.is_finite() {
            offload_share.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let credit = self.cost.cdn_saving_per_bit().as_nanojoules() * g;
        let footprint = self.cost.user_premises_cost_per_bit().as_nanojoules() * (1.0 + g);
        (credit - footprint) / footprint
    }

    /// CCT from explicit per-user traffic: `watched` bytes consumed and
    /// `uploaded` bytes served to peers. Returns `None` when the user
    /// watched nothing (no footprint to normalise by).
    ///
    /// This is the exact per-user form the simulator ledgers feed into
    /// Fig. 6: credit `PUE·γ_s·uploaded` against footprint
    /// `l·γ_m·(watched + uploaded)`.
    pub fn cct_from_traffic(&self, watched_bytes: u64, uploaded_bytes: u64) -> Option<f64> {
        if watched_bytes == 0 {
            return None;
        }
        let up = uploaded_bytes as f64;
        let total = watched_bytes as f64 + up;
        let credit = self.cost.cdn_saving_per_bit().as_nanojoules() * up;
        let footprint = self.cost.user_premises_cost_per_bit().as_nanojoules() * total;
        Some((credit - footprint) / footprint)
    }

    /// The offload share `G*` at which streaming becomes carbon-neutral
    /// (`CCT = 0`): `G* = l·γ_m/(PUE·γ_s − l·γ_m)`.
    ///
    /// Returns `None` when even full offload cannot offset the footprint
    /// (i.e. `G* > 1` or the denominator is non-positive).
    pub fn carbon_neutral_offload(&self) -> Option<f64> {
        let credit_rate = self.cost.cdn_saving_per_bit().as_nanojoules();
        let footprint_rate = self.cost.user_premises_cost_per_bit().as_nanojoules();
        let denom = credit_rate - footprint_rate;
        if denom <= 0.0 {
            return None;
        }
        let g_star = footprint_rate / denom;
        (g_star <= 1.0).then_some(g_star)
    }

    /// The asymptotic CCT at full offload (`G = 1`): how carbon-positive a
    /// perfectly assisted user can get.
    pub fn asymptotic_cct(&self) -> f64 {
        self.cct(1.0)
    }

    /// The Fig. 5 curve family at one capacity, for upload ratio `ρ`:
    /// `(end-to-end handled elsewhere) CDN, user, CCT` normalised savings.
    pub fn capacity_curves(&self, capacity: f64, upload_ratio: f64) -> CreditCurvePoint {
        let g = offload_fraction(capacity, upload_ratio);
        CreditCurvePoint {
            capacity,
            offload: g,
            cdn_savings: g,
            user_savings: -g,
            cct: self.cct(g),
        }
    }
}

/// One x-position of the Fig. 5 curves: normalised CDN savings (`= G`),
/// normalised user savings (`= −G`) and the carbon credit transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditCurvePoint {
    /// Swarm capacity (x axis, log scale in the paper).
    pub capacity: f64,
    /// Offload share `G` at this capacity.
    pub offload: f64,
    /// CDN savings normalised by CDN-only server energy: `G`.
    pub cdn_savings: f64,
    /// User savings normalised by no-sharing user energy: `−G`.
    pub user_savings: f64,
    /// Carbon credit transfer (Eq. 13).
    pub cct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_asymptotics() {
        // §V: at G = 1 users are carbon positive by 18 % (Valancius) and
        // 58 % (Baliga).
        let v = CreditModel::new(EnergyParams::valancius()).asymptotic_cct();
        assert!((v - 0.18).abs() < 0.005, "Valancius: {v}");
        let b = CreditModel::new(EnergyParams::baliga()).asymptotic_cct();
        assert!((b - 0.58).abs() < 0.005, "Baliga: {b}");
    }

    #[test]
    fn carbon_neutral_points() {
        let v = CreditModel::new(EnergyParams::valancius())
            .carbon_neutral_offload()
            .unwrap();
        assert!((v - 107.0 / (253.32 - 107.0)).abs() < 1e-9, "got {v}");
        let b = CreditModel::new(EnergyParams::baliga())
            .carbon_neutral_offload()
            .unwrap();
        assert!((b - 107.0 / (337.56 - 107.0)).abs() < 1e-9, "got {b}");
        // CCT crosses zero exactly there.
        for params in EnergyParams::published() {
            let m = CreditModel::new(params);
            let g_star = m.carbon_neutral_offload().unwrap();
            assert!(m.cct(g_star).abs() < 1e-12);
        }
    }

    #[test]
    fn no_sharing_is_full_footprint() {
        for params in EnergyParams::published() {
            let m = CreditModel::new(params);
            assert_eq!(m.cct(0.0), -1.0);
            assert_eq!(m.cct(-3.0), -1.0); // clamped
            assert_eq!(m.cct(f64::NAN), -1.0);
        }
    }

    #[test]
    fn neutral_unreachable_when_server_cheap() {
        // A server so efficient that its saving can never offset the modem.
        let params = EnergyParams::builder().server_nj(10.0).build().unwrap();
        assert_eq!(CreditModel::new(params).carbon_neutral_offload(), None);
    }

    proptest! {
        #[test]
        fn prop_cct_monotone_in_offload(g in 0.0f64..0.99) {
            let m = CreditModel::new(EnergyParams::valancius());
            prop_assert!(m.cct(g + 0.01) > m.cct(g));
        }

        #[test]
        fn prop_cct_bounded_below(g in 0.0f64..=1.0) {
            for params in EnergyParams::published() {
                let m = CreditModel::new(params);
                prop_assert!(m.cct(g) >= -1.0);
                prop_assert!(m.cct(g) <= m.asymptotic_cct() + 1e-12);
            }
        }
    }

    #[test]
    fn traffic_form_matches_share_form() {
        let m = CreditModel::new(EnergyParams::baliga());
        // A user who uploads exactly as much as the offload share of their
        // watched traffic reproduces the Eq. 13 value:
        // uploaded = G·watched ⇒ footprint ∝ watched·(1+G).
        let watched = 1_000_000u64;
        for g in [0.0, 0.25, 0.5, 1.0] {
            let uploaded = (watched as f64 * g) as u64;
            let from_traffic = m.cct_from_traffic(watched, uploaded).unwrap();
            assert!((from_traffic - m.cct(g)).abs() < 1e-6, "g={g}");
        }
        assert_eq!(m.cct_from_traffic(0, 100), None);
    }

    #[test]
    fn curves_are_consistent() {
        let m = CreditModel::new(EnergyParams::valancius());
        let pt = m.capacity_curves(10.0, 1.0);
        assert_eq!(pt.cdn_savings, pt.offload);
        assert_eq!(pt.user_savings, -pt.offload);
        assert!((pt.cct - m.cct(pt.offload)).abs() < 1e-12);
        assert!(
            pt.offload > 0.8,
            "c=10 offloads most traffic: {}",
            pt.offload
        );
    }
}
