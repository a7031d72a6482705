//! Per-bit cost functions ψ of Section III-D of the paper.

use consume_local_topology::Layer;

use crate::params::EnergyParams;
use crate::units::{Energy, EnergyPerBit, Traffic};

/// The per-bit delivery cost model built on an [`EnergyParams`] set.
///
/// * Server bit: `ψ_s = PUE·(γ_s + γ_cdn) + l·γ_m` (Eq. 4).
/// * Peer bit, paths meeting at `layer`:
///   `ψ_p = 2·l·γ_m + PUE·γ_layer` (Eqs. 5–6) — the modem term is doubled
///   because both the uploader's and the downloader's premises equipment are
///   active for the transfer.
///
/// # Example
///
/// ```
/// use consume_local_energy::{CostModel, EnergyParams, Traffic};
/// use consume_local_topology::Layer;
///
/// let m = CostModel::new(EnergyParams::valancius());
/// // ψ_s = 1.2·(211.1 + 1050) + 1.07·100 = 1620.32 nJ/bit
/// assert!((m.server_cost_per_bit().as_nanojoules() - 1620.32).abs() < 1e-9);
/// let one_gb = Traffic::from_bytes(1_000_000_000);
/// let server = m.server_energy(one_gb);
/// let local = m.peer_energy(one_gb, Layer::ExchangePoint);
/// assert!(local < server);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    params: EnergyParams,
}

impl CostModel {
    /// Wraps a parameter set.
    pub fn new(params: EnergyParams) -> Self {
        Self { params }
    }

    /// The underlying parameter set.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// γ for a P2P path whose endpoints meet at `layer`.
    pub fn gamma_p2p(&self, layer: Layer) -> EnergyPerBit {
        match layer {
            Layer::ExchangePoint => self.params.p2p_exchange,
            Layer::PointOfPresence => self.params.p2p_pop,
            Layer::Core => self.params.p2p_core,
        }
    }

    /// `ψ_s` — full cost of a server-delivered bit (Eq. 4).
    pub fn server_cost_per_bit(&self) -> EnergyPerBit {
        self.params.pue * (self.params.server + self.params.cdn_network)
            + self.params.loss * self.params.modem
    }

    /// `ψ_p^m = 2·l·γ_m` — the swarm-size-independent premises part of a
    /// peer-delivered bit.
    pub fn peer_fixed_cost_per_bit(&self) -> EnergyPerBit {
        2.0 * self.params.loss * self.params.modem
    }

    /// `ψ_p^r(layer) = PUE·γ_layer` — the network part of a peer-delivered
    /// bit whose path meets at `layer`.
    pub fn peer_network_cost_per_bit(&self, layer: Layer) -> EnergyPerBit {
        self.params.pue * self.gamma_p2p(layer)
    }

    /// `ψ_p(layer)` — full cost of a peer-delivered bit (Eqs. 5–6).
    pub fn peer_cost_per_bit(&self, layer: Layer) -> EnergyPerBit {
        self.peer_fixed_cost_per_bit() + self.peer_network_cost_per_bit(layer)
    }

    /// `l·γ_m` — cost a user's own premises equipment incurs per bit it
    /// receives *or* uploads; the basis of the carbon-credit footprint.
    pub fn user_premises_cost_per_bit(&self) -> EnergyPerBit {
        self.params.loss * self.params.modem
    }

    /// `PUE·γ_s` — server energy saved per bit offloaded to peers; the basis
    /// of the carbon credit transferred to uploaders (Section V).
    pub fn cdn_saving_per_bit(&self) -> EnergyPerBit {
        self.params.pue * self.params.server
    }

    /// Energy to serve `traffic` entirely from CDN servers.
    pub fn server_energy(&self, traffic: Traffic) -> Energy {
        self.server_cost_per_bit().energy_for(traffic)
    }

    /// Energy to serve `traffic` from peers whose paths meet at `layer`.
    pub fn peer_energy(&self, traffic: Traffic, layer: Layer) -> Energy {
        self.peer_cost_per_bit(layer).energy_for(traffic)
    }

    /// True when a peer-delivered bit at `layer` is cheaper than a
    /// server-delivered bit — the paper's core trade-off ("obtaining content
    /// from a peer … involves traversing the edge network twice").
    pub fn peer_is_cheaper(&self, layer: Layer) -> bool {
        self.peer_cost_per_bit(layer) < self.server_cost_per_bit()
    }

    /// Cost of a bit served from an exchange-point edge cache (the §VI
    /// caching extension, in the spirit of Valancius' nano data centers):
    /// a server-class node co-located at the exchange,
    /// `PUE·(γ_s + γ_exp) + l·γ_m`.
    pub fn edge_cache_cost_per_bit(&self) -> EnergyPerBit {
        self.params.pue * (self.params.server + self.params.p2p_exchange)
            + self.params.loss * self.params.modem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valancius_psi_s() {
        let m = CostModel::new(EnergyParams::valancius());
        assert!((m.server_cost_per_bit().as_nanojoules() - 1620.32).abs() < 1e-9);
        assert!((m.peer_fixed_cost_per_bit().as_nanojoules() - 214.0).abs() < 1e-12);
        assert!(
            (m.peer_cost_per_bit(Layer::ExchangePoint).as_nanojoules() - (214.0 + 360.0)).abs()
                < 1e-9
        );
    }

    #[test]
    fn baliga_psi_s() {
        let m = CostModel::new(EnergyParams::baliga());
        // 1.2·(281.3 + 142.5) + 1.07·100 = 615.56
        assert!((m.server_cost_per_bit().as_nanojoules() - 615.56).abs() < 1e-9);
    }

    #[test]
    fn peer_cost_monotone_in_layer() {
        for p in EnergyParams::published() {
            let m = CostModel::new(p);
            assert!(
                m.peer_cost_per_bit(Layer::ExchangePoint)
                    < m.peer_cost_per_bit(Layer::PointOfPresence)
            );
            assert!(m.peer_cost_per_bit(Layer::PointOfPresence) < m.peer_cost_per_bit(Layer::Core));
        }
    }

    #[test]
    fn peers_cheaper_than_servers_in_both_published_models() {
        // The published parameters make even core-crossing P2P cheaper per
        // bit than CDN delivery; the trade-off bites through swarm capacity,
        // not per-bit sign.
        for p in EnergyParams::published() {
            let m = CostModel::new(p);
            for layer in Layer::ALL {
                assert!(m.peer_is_cheaper(layer), "{}/{layer}", p.name());
            }
        }
    }

    #[test]
    fn credit_and_footprint_bases() {
        let m = CostModel::new(EnergyParams::valancius());
        assert!((m.cdn_saving_per_bit().as_nanojoules() - 253.32).abs() < 1e-9);
        assert!((m.user_premises_cost_per_bit().as_nanojoules() - 107.0).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_linearly_with_traffic() {
        let m = CostModel::new(EnergyParams::baliga());
        let t1 = Traffic::from_bytes(1_000_000);
        let t2 = Traffic::from_bytes(2_000_000);
        let e1 = m.server_energy(t1).as_joules();
        let e2 = m.server_energy(t2).as_joules();
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn gamma_lookup_matches_params() {
        let p = EnergyParams::valancius();
        let m = CostModel::new(p);
        assert_eq!(m.gamma_p2p(Layer::ExchangePoint), p.p2p_exchange);
        assert_eq!(m.gamma_p2p(Layer::PointOfPresence), p.p2p_pop);
        assert_eq!(m.gamma_p2p(Layer::Core), p.p2p_core);
        assert_eq!(m.params(), &p);
    }
}
