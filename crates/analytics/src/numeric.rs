//! Brute-force Poisson-summation reference implementations.
//!
//! These evaluate the Section III expectations by direct summation over the
//! stationary viewer-count distribution, truncated far into the Poisson tail.
//! They are deliberately simple and slow; the property tests use them as the
//! ground truth for the closed forms, and the paper's closed-form exhibit
//! (`consume_local::figures`) prints Eq. 12 against them.

use consume_local_energy::CostModel;
use consume_local_stats::dist::Poisson;
use consume_local_topology::{IspTopology, Layer};

/// Truncation point: mean + 12 standard deviations + slack covers the Poisson
/// tail to well below `f64` noise for every capacity this crate sweeps.
fn truncation(c: f64) -> u64 {
    (c + 12.0 * c.sqrt() + 40.0).ceil() as u64
}

/// Brute-force `E[(L−1)·(1 − (1−p)^(L−1))]` for `L ~ Poisson(c)`.
pub fn localised_units_numeric(p: f64, c: f64) -> f64 {
    if c <= 0.0 || p <= 0.0 {
        return 0.0;
    }
    let p = p.min(1.0);
    let pois = Poisson::new(c).expect("c validated positive");
    let mut acc = 0.0;
    for l in 2..=truncation(c) {
        let units = (l - 1) as f64;
        let matched = 1.0 - (1.0 - p).powi((l - 1) as i32);
        acc += units * matched * pois.pmf(l);
    }
    acc
}

/// Brute-force `E[(L−1)·γ_p2p(L)]` with `γ_p2p(L)` per Eq. 7 of the paper.
pub fn gamma_weighted_units_numeric(cost: &CostModel, topology: &IspTopology, c: f64) -> f64 {
    if c <= 0.0 {
        return 0.0;
    }
    let [p_exp, p_pop, p_core] = topology.localisation_probabilities();
    let pois = Poisson::new(c).expect("c validated positive");
    let g_exp = cost.gamma_p2p(Layer::ExchangePoint).as_nanojoules();
    let g_pop = cost.gamma_p2p(Layer::PointOfPresence).as_nanojoules();
    let g_core = cost.gamma_p2p(Layer::Core).as_nanojoules();
    let mut acc = 0.0;
    for l in 2..=truncation(c) {
        let match_at = |p: f64| 1.0 - (1.0 - p).powi((l - 1) as i32);
        let (pe, pp, pc) = (match_at(p_exp), match_at(p_pop), match_at(p_core));
        let gamma_l = g_exp * pe + g_pop * (pp - pe) + g_core * (pc - pp);
        acc += (l - 1) as f64 * gamma_l * pois.pmf(l);
    }
    acc
}

/// Brute-force end-to-end savings: assembles Eq. 12 with the numeric
/// expectations instead of the closed forms.
pub fn savings_numeric(cost: &CostModel, topology: &IspTopology, upload_ratio: f64, c: f64) -> f64 {
    if c <= 0.0 || upload_ratio <= 0.0 {
        return 0.0;
    }
    let rho = upload_ratio.min(1.0);
    let psi_s = cost.server_cost_per_bit().as_nanojoules();
    let psi_pm = cost.peer_fixed_cost_per_bit().as_nanojoules();
    let pue = cost.params().pue;
    let pois = Poisson::new(c).expect("c validated positive");
    let slots: f64 = (2..=truncation(c))
        .map(|l| (l - 1) as f64 * pois.pmf(l))
        .sum();
    let g = rho * slots / c;
    let gross = g * (psi_s - psi_pm) / psi_s;
    let penalty = rho * pue * gamma_weighted_units_numeric(cost, topology, c) / (c * psi_s);
    gross - penalty
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_energy::EnergyParams;

    #[test]
    fn numeric_total_units_match_expm1_identity() {
        for &c in &[0.1f64, 1.0, 7.0, 80.0] {
            let brute = localised_units_numeric(1.0, c);
            let closed = c + (-c).exp_m1();
            assert!((brute - closed).abs() < 1e-8, "c={c}: {brute} vs {closed}");
        }
    }

    #[test]
    fn gamma_bounded_by_layer_extremes() {
        let topo = IspTopology::london_table3().unwrap();
        let cost = CostModel::new(EnergyParams::valancius());
        for &c in &[0.5f64, 5.0, 50.0] {
            let total = localised_units_numeric(1.0, c);
            let weighted = gamma_weighted_units_numeric(&cost, &topo, c);
            let avg = weighted / total;
            assert!((300.0..=900.0).contains(&avg), "c={c}: avg gamma {avg}");
        }
    }

    #[test]
    fn savings_positive_and_below_one() {
        let topo = IspTopology::london_table3().unwrap();
        for params in EnergyParams::published() {
            let cost = CostModel::new(params);
            for &c in &[0.2, 2.0, 20.0, 200.0] {
                let s = savings_numeric(&cost, &topo, 1.0, c);
                assert!(s > 0.0 && s < 1.0, "{} c={c}: s={s}", params.name());
            }
        }
    }

    #[test]
    fn degenerate_inputs_give_zero() {
        let topo = IspTopology::london_table3().unwrap();
        let cost = CostModel::new(EnergyParams::baliga());
        assert_eq!(localised_units_numeric(0.5, 0.0), 0.0);
        assert_eq!(localised_units_numeric(0.0, 5.0), 0.0);
        assert_eq!(gamma_weighted_units_numeric(&cost, &topo, 0.0), 0.0);
        assert_eq!(savings_numeric(&cost, &topo, 1.0, 0.0), 0.0);
        assert_eq!(savings_numeric(&cost, &topo, 0.0, 10.0), 0.0);
    }
}
