//! The master savings equation `S(c)` (Eq. 12 of the paper).
//!
//! End-to-end savings of hybrid delivery over pure CDN delivery:
//!
//! ```text
//! S(c) = G(c)·(ψ_s − ψ_p^m)/ψ_s  −  ρ·PUE·Γ(c) / (c·ψ_s)
//! ```
//!
//! where `G` is the offload fraction (Eq. 3), `ψ_s` the per-bit server cost,
//! `ψ_p^m = 2·l·γ_m` the modem part of peer delivery, `ρ = q/β`, and
//! `Γ(c) = E[(L−1)·γ_p2p(L)]` the γ-weighted localisation expectation
//! (corrected Eq. 10, see [`crate::localisation`]).
//!
//! The first term is the *gross* saving from moving traffic off the
//! CDN path; the second is the *network penalty* for carrying it between
//! peers instead.

use std::fmt;

use consume_local_energy::{CostModel, EnergyParams};
use consume_local_topology::IspTopology;

use crate::localisation::{gamma_weighted_units, localised_units};
use crate::mminf::SwarmCapacity;
use crate::offload::offload_fraction;

/// Error from [`SavingsModel::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelError {
    what: &'static str,
    value: f64,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid savings-model parameter: {} = {}",
            self.what, self.value
        )
    }
}

impl std::error::Error for ModelError {}

/// The two additive parts of Eq. 12 and their net value at one capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsBreakdown {
    /// Swarm capacity the breakdown was evaluated at.
    pub capacity: f64,
    /// Offload fraction `G` at this capacity.
    pub offload: f64,
    /// Gross saving `G·(ψ_s − ψ_p^m)/ψ_s`.
    pub gross: f64,
    /// P2P network penalty `ρ·PUE·Γ(c)/(c·ψ_s)` (subtracted).
    pub network_penalty: f64,
    /// Net savings `gross − network_penalty` = `S(c)`.
    pub net: f64,
}

/// The closed-form savings model for one (energy parameter set, ISP
/// topology, upload ratio) triple.
///
/// # Example
///
/// ```
/// use consume_local_analytics::SavingsModel;
/// use consume_local_energy::EnergyParams;
/// use consume_local_topology::IspTopology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = IspTopology::london_table3()?;
/// let m = SavingsModel::new(EnergyParams::baliga(), &topo, 1.0)?;
/// assert!(m.savings(100.0) > m.savings(1.0)); // bigger swarms save more
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsModel {
    cost: CostModel,
    topology: IspTopology,
    upload_ratio: f64,
}

impl SavingsModel {
    /// Builds a model from an energy parameter set, an ISP tree and the
    /// upload ratio `ρ = q/β`.
    ///
    /// Ratios above 1 are capped at 1 (a peer cannot stream faster than the
    /// bitrate to one downloader); the paper only evaluates `ρ ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for a non-finite or non-positive ratio.
    pub fn new(
        params: EnergyParams,
        topology: &IspTopology,
        upload_ratio: f64,
    ) -> Result<Self, ModelError> {
        if !upload_ratio.is_finite() || upload_ratio <= 0.0 {
            return Err(ModelError {
                what: "upload_ratio",
                value: upload_ratio,
            });
        }
        Ok(Self {
            cost: CostModel::new(params),
            topology: topology.clone(),
            upload_ratio: upload_ratio.min(1.0),
        })
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The ISP topology in use.
    pub fn topology(&self) -> &IspTopology {
        &self.topology
    }

    /// The (capped) upload ratio `ρ`.
    pub fn upload_ratio(&self) -> f64 {
        self.upload_ratio
    }

    /// The offload fraction `G(c)` under this model's upload ratio.
    pub fn offload(&self, capacity: f64) -> f64 {
        offload_fraction(capacity, self.upload_ratio)
    }

    /// End-to-end savings `S(c)` (Eq. 12). Returns 0 at zero capacity.
    pub fn savings(&self, capacity: f64) -> f64 {
        self.breakdown(capacity).net
    }

    /// `S(c)` together with its gross/penalty decomposition.
    pub fn breakdown(&self, capacity: f64) -> SavingsBreakdown {
        if !capacity.is_finite() || capacity <= 0.0 {
            return SavingsBreakdown {
                capacity: capacity.max(0.0),
                offload: 0.0,
                gross: 0.0,
                network_penalty: 0.0,
                net: 0.0,
            };
        }
        let cap = SwarmCapacity::new(capacity).expect("validated positive");
        let psi_s = self.cost.server_cost_per_bit().as_nanojoules();
        let psi_pm = self.cost.peer_fixed_cost_per_bit().as_nanojoules();
        let g = self.offload(capacity);
        let gross = g * (psi_s - psi_pm) / psi_s;
        let gamma_units = gamma_weighted_units(&self.cost, &self.topology, cap);
        let penalty = self.upload_ratio * self.cost.params().pue * gamma_units / (capacity * psi_s);
        SavingsBreakdown {
            capacity,
            offload: g,
            gross,
            network_penalty: penalty,
            net: gross - penalty,
        }
    }

    /// The large-swarm asymptote
    /// `S(∞) = ρ·(ψ_s − ψ_p^m − PUE·γ_exp)/ψ_s`: with unbounded capacity all
    /// peer traffic localises within exchange points.
    pub fn asymptotic_savings(&self) -> f64 {
        let psi_s = self.cost.server_cost_per_bit().as_nanojoules();
        let psi_pm = self.cost.peer_fixed_cost_per_bit().as_nanojoules();
        let gamma_exp = self
            .cost
            .peer_network_cost_per_bit(consume_local_topology::Layer::ExchangePoint)
            .as_nanojoules();
        self.upload_ratio * (psi_s - psi_pm - gamma_exp) / psi_s
    }

    /// The average per-bit P2P intensity at `capacity` (diagnostic; see
    /// [`crate::localisation::expected_gamma_p2p`]).
    pub fn average_gamma_p2p(&self, capacity: f64) -> f64 {
        let total = localised_units(1.0, capacity);
        if total <= 0.0 {
            return self
                .cost
                .gamma_p2p(consume_local_topology::Layer::Core)
                .as_nanojoules();
        }
        gamma_weighted_units(
            &self.cost,
            &self.topology,
            SwarmCapacity::new(capacity.max(0.0)).expect("validated"),
        ) / total
    }

    /// `S(c)` over a capacity grid — one theory curve of Fig. 2 / Fig. 5.
    pub fn savings_series(&self, capacities: &[f64]) -> Vec<(f64, f64)> {
        capacities.iter().map(|&c| (c, self.savings(c))).collect()
    }

    /// Traffic-weighted aggregate savings over a set of swarms, each given
    /// as `(capacity, traffic_weight)` — the theory line of Fig. 4.
    ///
    /// Weights must be non-negative; returns 0 when the total weight is 0.
    pub fn aggregate_savings<I>(&self, swarms: I) -> f64
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let mut num = 0.0;
        let mut den = 0.0;
        for (c, w) in swarms {
            if w <= 0.0 || !w.is_finite() {
                continue;
            }
            num += w * self.savings(c);
            den += w;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric;
    use proptest::prelude::*;

    fn model(params: EnergyParams, rho: f64) -> SavingsModel {
        SavingsModel::new(params, &IspTopology::london_table3().unwrap(), rho).unwrap()
    }

    #[test]
    fn reproduces_paper_plateaus() {
        // Fig. 2, left column, q/β = 1: plateau at capacity ≈ 100 reaches
        // ≈ 0.45–0.48 (Valancius) and ≈ 0.24–0.29 (Baliga).
        let v = model(EnergyParams::valancius(), 1.0).savings(100.0);
        assert!((0.44..0.50).contains(&v), "Valancius S(100) = {v}");
        let b = model(EnergyParams::baliga(), 1.0).savings(100.0);
        assert!((0.24..0.31).contains(&b), "Baliga S(100) = {b}");
    }

    #[test]
    fn valancius_beats_baliga_at_all_capacities() {
        let v = model(EnergyParams::valancius(), 1.0);
        let b = model(EnergyParams::baliga(), 1.0);
        for &c in &[0.1, 1.0, 10.0, 100.0, 1000.0] {
            assert!(v.savings(c) > b.savings(c), "c={c}");
        }
    }

    #[test]
    fn breakdown_is_consistent() {
        let m = model(EnergyParams::valancius(), 0.8);
        for &c in &[0.2, 2.0, 20.0] {
            let bd = m.breakdown(c);
            assert!((bd.net - (bd.gross - bd.network_penalty)).abs() < 1e-12);
            assert!((bd.net - m.savings(c)).abs() < 1e-12);
            assert!(bd.gross >= 0.0 && bd.network_penalty >= 0.0);
            assert_eq!(bd.capacity, c);
        }
    }

    #[test]
    fn zero_capacity_is_zero_savings() {
        let m = model(EnergyParams::baliga(), 1.0);
        assert_eq!(m.savings(0.0), 0.0);
        assert_eq!(m.savings(-5.0), 0.0);
        assert_eq!(m.savings(f64::NAN), 0.0);
    }

    #[test]
    fn approaches_asymptote() {
        for params in EnergyParams::published() {
            let m = model(params, 1.0);
            let s_inf = m.asymptotic_savings();
            let s_big = m.savings(1e6);
            assert!(
                (s_big - s_inf).abs() < 0.01,
                "{}: {s_big} vs {s_inf}",
                params.name()
            );
            assert!(m.savings(100.0) < s_inf);
        }
    }

    #[test]
    fn ratio_caps_at_one() {
        let m = SavingsModel::new(
            EnergyParams::valancius(),
            &IspTopology::london_table3().unwrap(),
            3.0,
        )
        .unwrap();
        assert_eq!(m.upload_ratio(), 1.0);
    }

    #[test]
    fn invalid_ratio_rejected() {
        let topo = IspTopology::london_table3().unwrap();
        assert!(SavingsModel::new(EnergyParams::valancius(), &topo, 0.0).is_err());
        assert!(SavingsModel::new(EnergyParams::valancius(), &topo, -1.0).is_err());
        let err = SavingsModel::new(EnergyParams::valancius(), &topo, f64::NAN).unwrap_err();
        assert!(err.to_string().contains("upload_ratio"));
    }

    #[test]
    fn matches_numeric_reference() {
        let topo = IspTopology::london_table3().unwrap();
        for params in EnergyParams::published() {
            for &rho in &[0.4, 1.0] {
                let m = SavingsModel::new(params, &topo, rho).unwrap();
                for &c in &[0.05, 0.5, 5.0, 50.0] {
                    let closed = m.savings(c);
                    let brute = numeric::savings_numeric(m.cost(), &topo, rho, c);
                    assert!(
                        (closed - brute).abs() < 1e-6,
                        "{} rho={rho} c={c}: {closed} vs {brute}",
                        params.name()
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_savings_in_unit_interval(c in 1e-3f64..1e4, rho in 0.05f64..1.0) {
            let m = model(EnergyParams::valancius(), rho);
            let s = m.savings(c);
            prop_assert!(s >= 0.0, "S={} at c={} rho={}", s, c, rho);
            prop_assert!(s < 1.0);
        }

        #[test]
        fn prop_savings_monotone_in_ratio(c in 1e-2f64..1e3, rho in 0.1f64..0.9) {
            let lo = model(EnergyParams::baliga(), rho).savings(c);
            let hi = model(EnergyParams::baliga(), rho + 0.1).savings(c);
            prop_assert!(hi >= lo - 1e-12);
        }

        #[test]
        fn prop_savings_monotone_in_capacity(c in 1e-2f64..1e3) {
            let m = model(EnergyParams::valancius(), 1.0);
            prop_assert!(m.savings(c * 1.2) >= m.savings(c) - 1e-9);
        }
    }

    #[test]
    fn aggregate_weights_properly() {
        let m = model(EnergyParams::valancius(), 1.0);
        // All weight on one swarm = that swarm's savings.
        let single = m.aggregate_savings([(10.0, 5.0)]);
        assert!((single - m.savings(10.0)).abs() < 1e-12);
        // Equal split is the average.
        let avg = m.aggregate_savings([(1.0, 1.0), (100.0, 1.0)]);
        assert!((avg - 0.5 * (m.savings(1.0) + m.savings(100.0))).abs() < 1e-12);
        // Ignores zero/negative/non-finite weights.
        let robust = m.aggregate_savings([(1.0, 0.0), (100.0, -3.0), (10.0, f64::NAN)]);
        assert_eq!(robust, 0.0);
    }

    #[test]
    fn series_matches_pointwise() {
        let m = model(EnergyParams::baliga(), 0.6);
        let caps = [0.1, 1.0, 10.0];
        let series = m.savings_series(&caps);
        for (i, &(c, s)) in series.iter().enumerate() {
            assert_eq!(c, caps[i]);
            assert_eq!(s, m.savings(c));
        }
    }

    #[test]
    fn isp_spread_smaller_isps_save_less_at_same_item_popularity() {
        // With the same *per-ISP* capacity, a smaller tree localises better
        // (higher p_exp) — but in the evaluation smaller ISPs see smaller
        // sub-swarms. Here we check the topology effect in isolation.
        let small_topo = IspTopology::new(110, 4).unwrap();
        let big = model(EnergyParams::valancius(), 1.0);
        let small = SavingsModel::new(EnergyParams::valancius(), &small_topo, 1.0).unwrap();
        // Same capacity: the small tree localises more traffic at ExP level.
        assert!(small.savings(5.0) > big.savings(5.0));
    }
}
