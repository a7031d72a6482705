//! Expected localisation of peer traffic within the ISP tree (Eqs. 7–11).
//!
//! In a window with `L ≥ 2` viewers, the paper approximates managed-swarm
//! matching by assuming each of the `L−1` peer-traffic units is exchanged at
//! the layer where the *typical* viewer finds its nearest peer. With
//! per-layer localisation probability `p` (Table III), a given viewer finds a
//! peer under its own layer-node with probability `1 − (1−p)^(L−1)`.
//!
//! Taking stationary Poisson expectations yields the per-window expected
//! number of peer-traffic units whose nearest peer is under the same
//! layer-`p` node:
//!
//! ```text
//! f(p, c) = E[(L−1)·(1 − (1−p)^(L−1))]
//!         = c − 1 + e^(−c) − c·e^(−cp) + (e^(−cp) − e^(−c))/(1 − p)   (p < 1)
//! f(1, c) = c − 1 + e^(−c)
//! ```
//!
//! **Erratum note**: the printed Eq. 11 contains an OCR / typesetting
//! defect (it goes negative as `p → 0`, where no traffic can localise and
//! `f` must be 0). The expression above is
//! the correct expectation — verified against brute-force Poisson summation
//! in this module's property tests — and it reproduces the paper's printed
//! `p = 1` branch exactly.

use consume_local_energy::{CostModel, EnergyPerBit};
use consume_local_topology::{IspTopology, Layer};

use crate::mminf::SwarmCapacity;

/// `f(p, c)`: expected per-window peer-traffic units localised within a
/// layer whose per-node probability is `p` (corrected Eq. 11).
///
/// Clamps `p` into `[0, 1]`; returns 0 for `c ≤ 0`.
///
/// # Example
///
/// ```
/// use consume_local_analytics::localisation::localised_units;
///
/// // With p = 1 (the core layer) everything localises:
/// let c: f64 = 5.0;
/// let total = c - 1.0 + (-c).exp();
/// assert!((localised_units(1.0, c) - total).abs() < 1e-12);
/// ```
pub fn localised_units(p: f64, c: f64) -> f64 {
    if !c.is_finite() || c <= 0.0 || !p.is_finite() || p <= 0.0 {
        return 0.0;
    }
    let p = p.min(1.0);
    // total = E[max(L−1, 0)] = c + expm1(−c)
    let total = c + (-c).exp_m1();
    if p >= 1.0 {
        return total;
    }
    // f = total − c·e^(−cp) + (e^(−cp) − e^(−c))/(1−p)
    //   = total − c·e^(−cp) + (expm1(−cp) − expm1(−c))/(1−p)
    let f = total - c * (-c * p).exp() + ((-c * p).exp_m1() - (-c).exp_m1()) / (1.0 - p);
    f.clamp(0.0, total)
}

/// Expected per-window peer-traffic units broken down by the layer at which
/// they are exchanged: `[within ExP, within PoP but not ExP, across Core]`.
///
/// The three components sum to the total peer-traffic units
/// `c − 1 + e^(−c)`.
pub fn layer_unit_breakdown(topology: &IspTopology, capacity: SwarmCapacity) -> [f64; 3] {
    let c = capacity.value();
    let [p_exp, p_pop, _] = topology.localisation_probabilities();
    let at_exp = localised_units(p_exp, c);
    let within_pop = localised_units(p_pop, c);
    let total = localised_units(1.0, c);
    [
        at_exp,
        (within_pop - at_exp).max(0.0),
        (total - within_pop).max(0.0),
    ]
}

/// `E[(L−1)·γ_p2p(L)]`: the expected per-window peer-traffic units weighted
/// by the γ of the layer they are exchanged at — the corrected Eq. 10
/// aggregation:
///
/// ```text
/// γ_core·f(p_core, c) − (γ_core − γ_pop)·f(p_pop, c) − (γ_pop − γ_exp)·f(p_exp, c)
/// ```
///
/// Units: nJ/bit × (traffic units). Divide by the total units to get the
/// average per-bit intensity (see [`expected_gamma_p2p`]).
pub fn gamma_weighted_units(
    cost: &CostModel,
    topology: &IspTopology,
    capacity: SwarmCapacity,
) -> f64 {
    let [exp_units, pop_units, core_units] = layer_unit_breakdown(topology, capacity);
    cost.gamma_p2p(Layer::ExchangePoint).as_nanojoules() * exp_units
        + cost.gamma_p2p(Layer::PointOfPresence).as_nanojoules() * pop_units
        + cost.gamma_p2p(Layer::Core).as_nanojoules() * core_units
}

/// The expected per-bit P2P network intensity `γ_p2p(c)` for a swarm of
/// capacity `c`: the γ-weighted units divided by the total units.
///
/// Returns `γ_core` for `c → 0` (a lone pair of peers is assumed to cross
/// the core) and approaches `γ_exp` as the swarm grows — the paper's
/// "the bigger the swarm … the smaller γ_p2p is".
pub fn expected_gamma_p2p(
    cost: &CostModel,
    topology: &IspTopology,
    capacity: SwarmCapacity,
) -> EnergyPerBit {
    let total = localised_units(1.0, capacity.value());
    if total <= 0.0 {
        return cost.gamma_p2p(Layer::Core);
    }
    EnergyPerBit::from_nanojoules(gamma_weighted_units(cost, topology, capacity) / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric;
    use consume_local_energy::EnergyParams;
    use proptest::prelude::*;

    fn table3() -> IspTopology {
        IspTopology::london_table3().unwrap()
    }

    #[test]
    fn limits_in_p() {
        let c: f64 = 3.0;
        let total = c - 1.0 + (-c).exp();
        assert_eq!(localised_units(0.0, c), 0.0);
        assert!((localised_units(1.0, c) - total).abs() < 1e-12);
        // Monotone in p.
        let mut prev = 0.0;
        for i in 1..=100 {
            let p = i as f64 / 100.0;
            let f = localised_units(p, c);
            assert!(f >= prev - 1e-12, "f must grow with p");
            prev = f;
        }
    }

    #[test]
    fn limits_in_c() {
        assert_eq!(localised_units(0.5, 0.0), 0.0);
        assert_eq!(localised_units(0.5, -1.0), 0.0);
        // Small-c behaviour: f ≈ p·c²/2.
        let (p, c) = (0.3, 1e-5);
        let f = localised_units(p, c);
        assert!((f - p * c * c / 2.0).abs() < 1e-14, "got {f}");
        // Large-c: everything localises at the ExP layer ⇒ f(p,c) → c−1.
        let f = localised_units(1.0 / 345.0, 1e5);
        assert!((f / (1e5 - 1.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn matches_brute_force_poisson_sum() {
        for &p in &[1.0 / 345.0, 1.0 / 9.0, 0.5, 1.0] {
            for &c in &[0.01, 0.1, 1.0, 3.0, 22.0, 100.0] {
                let closed = localised_units(p, c);
                let brute = numeric::localised_units_numeric(p, c);
                let tol = 1e-8 * brute.max(1e-12) + 1e-10;
                assert!(
                    (closed - brute).abs() < tol,
                    "p={p} c={c}: closed {closed} vs brute {brute}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_closed_form_matches_numeric(p in 1e-4f64..1.0, c in 1e-3f64..200.0) {
            let closed = localised_units(p, c);
            let brute = numeric::localised_units_numeric(p, c);
            let tol = 1e-6 * brute.abs().max(1e-9) + 1e-9;
            prop_assert!((closed - brute).abs() < tol,
                "p={} c={}: closed {} vs brute {}", p, c, closed, brute);
        }

        #[test]
        fn prop_bounded_by_total(p in 0.0f64..1.0, c in 0.0f64..500.0) {
            let f = localised_units(p, c);
            let total = localised_units(1.0, c);
            prop_assert!(f >= 0.0);
            prop_assert!(f <= total + 1e-12);
        }

        #[test]
        fn prop_monotone_in_c(p in 1e-4f64..1.0, c in 1e-3f64..100.0) {
            let f1 = localised_units(p, c);
            let f2 = localised_units(p, c * 1.1);
            prop_assert!(f2 >= f1 - 1e-12);
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let topo = table3();
        for &c in &[0.05, 0.5, 2.0, 30.0, 400.0] {
            let cap = SwarmCapacity::new(c).unwrap();
            let parts = layer_unit_breakdown(&topo, cap);
            let total = localised_units(1.0, c);
            let sum: f64 = parts.iter().sum();
            assert!((sum - total).abs() < 1e-9, "c={c}: {parts:?} vs {total}");
            assert!(parts.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn expected_gamma_shrinks_with_capacity() {
        let topo = table3();
        let cost = CostModel::new(EnergyParams::valancius());
        let g_small = expected_gamma_p2p(&cost, &topo, SwarmCapacity::new(0.1).unwrap());
        let g_mid = expected_gamma_p2p(&cost, &topo, SwarmCapacity::new(10.0).unwrap());
        let g_large = expected_gamma_p2p(&cost, &topo, SwarmCapacity::new(5000.0).unwrap());
        assert!(g_small > g_mid);
        assert!(g_mid > g_large);
        // Bounds: between γ_exp and γ_core.
        assert!(g_small.as_nanojoules() <= 900.0 + 1e-9);
        assert!(g_large.as_nanojoules() >= 300.0 - 1e-9);
        // Empty swarm defaults to core.
        let g_zero = expected_gamma_p2p(&cost, &topo, SwarmCapacity::new(0.0).unwrap());
        assert_eq!(g_zero.as_nanojoules(), 900.0);
    }

    #[test]
    fn gamma_weighted_units_matches_numeric() {
        let topo = table3();
        for params in EnergyParams::published() {
            let cost = CostModel::new(params);
            for &c in &[0.1, 1.0, 22.0, 100.0] {
                let cap = SwarmCapacity::new(c).unwrap();
                let closed = gamma_weighted_units(&cost, &topo, cap);
                let brute = numeric::gamma_weighted_units_numeric(&cost, &topo, c);
                assert!(
                    (closed - brute).abs() < 1e-6 * brute.abs().max(1.0),
                    "{} c={c}: {closed} vs {brute}",
                    params.name()
                );
            }
        }
    }
}
