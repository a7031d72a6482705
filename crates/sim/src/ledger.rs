//! Byte ledgers and their energy evaluation.
//!
//! The simulator records *bytes by delivery class*; energy is computed
//! afterwards for any parameter set. This keeps one simulation reusable
//! across energy models (the paper prices every experiment under both the
//! Valancius and Baliga sets).

use consume_local_energy::{CostModel, Energy, EnergyParams, Traffic};
use consume_local_topology::Layer;

/// Bytes delivered in one scope (a swarm, a day×ISP cell, or the whole run),
/// broken down by delivery class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteLedger {
    /// Total demand (= bytes consumed by viewers).
    pub demand_bytes: u64,
    /// Bytes served by CDN servers.
    pub server_bytes: u64,
    /// Bytes served peer-to-peer, indexed by [`Layer::index`].
    pub peer_bytes_by_layer: [u64; 3],
    /// Bytes served from an exchange-point edge cache (§VI caching
    /// extension; 0 unless the cache is enabled).
    pub cache_bytes: u64,
    /// Bytes prefetched ahead of playback from the CDN (§VI predictive
    /// preloading extension; 0 unless preloading is enabled). Priced like
    /// server bytes but never peer-shareable.
    pub preload_bytes: u64,
    /// Windows in which at least one peer was online.
    pub active_windows: u64,
    /// Peer-window count (Σ over windows of online peers) — measures
    /// capacity when divided by total windows in the horizon.
    pub peer_windows: u64,
}

impl ByteLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total peer-to-peer bytes.
    pub fn peer_bytes(&self) -> u64 {
        self.peer_bytes_by_layer.iter().sum()
    }

    /// Adds another ledger into this one.
    pub fn merge(&mut self, other: &ByteLedger) {
        self.demand_bytes += other.demand_bytes;
        self.server_bytes += other.server_bytes;
        for (a, b) in self
            .peer_bytes_by_layer
            .iter_mut()
            .zip(other.peer_bytes_by_layer)
        {
            *a += b;
        }
        self.cache_bytes += other.cache_bytes;
        self.preload_bytes += other.preload_bytes;
        self.active_windows += other.active_windows;
        self.peer_windows += other.peer_windows;
    }

    /// Adds `times` copies of another ledger into this one — the closed
    /// form of `times` [`ByteLedger::merge`] calls.
    pub(crate) fn merge_times(&mut self, other: &ByteLedger, times: u64) {
        self.demand_bytes += other.demand_bytes * times;
        self.server_bytes += other.server_bytes * times;
        for (a, b) in self
            .peer_bytes_by_layer
            .iter_mut()
            .zip(other.peer_bytes_by_layer)
        {
            *a += b * times;
        }
        self.cache_bytes += other.cache_bytes * times;
        self.preload_bytes += other.preload_bytes * times;
        self.active_windows += other.active_windows * times;
        self.peer_windows += other.peer_windows * times;
    }

    /// The share of demand served by peers (the empirical `G`).
    pub fn offload_share(&self) -> f64 {
        if self.demand_bytes == 0 {
            0.0
        } else {
            self.peer_bytes() as f64 / self.demand_bytes as f64
        }
    }

    /// Checks byte conservation: demand = server + preload + cache + peer.
    pub fn is_conserved(&self) -> bool {
        self.demand_bytes
            == self.server_bytes + self.preload_bytes + self.cache_bytes + self.peer_bytes()
    }

    /// Energy of the hybrid delivery under `params`.
    ///
    /// Preloaded bytes are priced like server bytes (same CDN path, shifted
    /// in time); cached bytes are priced as an exchange-point nano-server:
    /// `PUE·(γ_s + γ_exp) + l·γ_m` per bit.
    pub fn hybrid_energy(&self, params: &EnergyParams) -> Energy {
        let cost = CostModel::new(*params);
        let mut e = cost.server_energy(Traffic::from_bytes(self.server_bytes + self.preload_bytes));
        for layer in Layer::ALL {
            e += cost.peer_energy(
                Traffic::from_bytes(self.peer_bytes_by_layer[layer.index()]),
                layer,
            );
        }
        e += cost
            .edge_cache_cost_per_bit()
            .energy_for(Traffic::from_bytes(self.cache_bytes));
        e
    }

    /// Energy of serving the same demand from CDN servers only (the
    /// baseline of Eq. 1).
    pub fn baseline_energy(&self, params: &EnergyParams) -> Energy {
        CostModel::new(*params).server_energy(Traffic::from_bytes(self.demand_bytes))
    }

    /// Energy savings `S = 1 − hybrid/baseline` (Eq. 1); `None` when no
    /// demand was recorded.
    pub fn savings(&self, params: &EnergyParams) -> Option<f64> {
        self.hybrid_energy(params)
            .savings_vs(self.baseline_energy(params))
    }

    /// The measured swarm capacity: mean online peers per window over
    /// `total_windows` observation windows.
    pub fn measured_capacity(&self, total_windows: u64) -> f64 {
        if total_windows == 0 {
            0.0
        } else {
            self.peer_windows as f64 / total_windows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ByteLedger {
        ByteLedger {
            demand_bytes: 1_000,
            server_bytes: 400,
            peer_bytes_by_layer: [300, 200, 100],
            cache_bytes: 0,
            preload_bytes: 0,
            active_windows: 10,
            peer_windows: 25,
        }
    }

    #[test]
    fn conservation_and_offload() {
        let l = ledger();
        assert!(l.is_conserved());
        assert!((l.offload_share() - 0.6).abs() < 1e-12);
        let mut broken = l;
        broken.server_bytes = 0;
        assert!(!broken.is_conserved());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = ledger();
        a.merge(&ledger());
        assert_eq!(a.demand_bytes, 2_000);
        assert_eq!(a.peer_bytes(), 1_200);
        assert_eq!(a.active_windows, 20);
        assert_eq!(a.peer_windows, 50);
        assert!(a.is_conserved());
    }

    #[test]
    fn all_server_means_zero_savings() {
        let l = ByteLedger {
            demand_bytes: 500,
            server_bytes: 500,
            ..Default::default()
        };
        for p in EnergyParams::published() {
            assert!((l.savings(&p).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn local_peer_delivery_saves_energy() {
        let l = ByteLedger {
            demand_bytes: 1_000,
            server_bytes: 0,
            peer_bytes_by_layer: [1_000, 0, 0],
            ..Default::default()
        };
        for p in EnergyParams::published() {
            let s = l.savings(&p).unwrap();
            assert!(s > 0.3, "{}: {s}", p.name());
        }
        // Valancius: 1 − ψ_p(exp)/ψ_s = 1 − 574/1620.32.
        let v = l.savings(&EnergyParams::valancius()).unwrap();
        assert!((v - (1.0 - 574.0 / 1620.32)).abs() < 1e-9);
    }

    #[test]
    fn savings_depend_on_layer() {
        let mk = |layer: usize| {
            let mut l = ByteLedger {
                demand_bytes: 1_000,
                ..Default::default()
            };
            l.peer_bytes_by_layer[layer] = 1_000;
            l.savings(&EnergyParams::baliga()).unwrap()
        };
        assert!(mk(0) > mk(1));
        assert!(mk(1) > mk(2));
    }

    #[test]
    fn empty_ledger_neutral() {
        let l = ByteLedger::new();
        assert_eq!(l.savings(&EnergyParams::valancius()), None);
        assert_eq!(l.offload_share(), 0.0);
        assert!(l.is_conserved());
        assert_eq!(l.measured_capacity(0), 0.0);
    }

    #[test]
    fn measured_capacity() {
        let l = ledger();
        assert!((l.measured_capacity(100) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cache_pricing_depends_on_model() {
        let mk = |server: u64, cache: u64, peer: u64| ByteLedger {
            demand_bytes: 1_000,
            server_bytes: server,
            cache_bytes: cache,
            peer_bytes_by_layer: [peer, 0, 0],
            ..Default::default()
        };
        // Valancius: the CDN network leg is 7 hops (1050 nJ/bit); a cache
        // at the exchange cuts it to 2 hops — big win.
        let p = EnergyParams::valancius();
        let all_server = mk(1_000, 0, 0).savings(&p).unwrap();
        let all_cache = mk(0, 1_000, 0).savings(&p).unwrap();
        let all_peer = mk(0, 0, 1_000).savings(&p).unwrap();
        assert!(all_cache > all_server + 0.3);
        assert!(all_peer > all_cache);
        // Baliga: the CDN leg is already cheap (142.5 ≤ γ_exp = 144.86), so
        // an exchange cache is energy-*neutral at best* — a real insight of
        // pricing the §VI caching extension under both models.
        let p = EnergyParams::baliga();
        let all_server = mk(1_000, 0, 0).savings(&p).unwrap();
        let all_cache = mk(0, 1_000, 0).savings(&p).unwrap();
        assert!((all_cache - all_server).abs() < 0.01);
        assert!(all_cache <= all_server);
    }

    #[test]
    fn preload_priced_like_server() {
        let server = ByteLedger {
            demand_bytes: 1_000,
            server_bytes: 1_000,
            ..Default::default()
        };
        let preload = ByteLedger {
            demand_bytes: 1_000,
            preload_bytes: 1_000,
            ..Default::default()
        };
        for p in EnergyParams::published() {
            assert_eq!(server.hybrid_energy(&p), preload.hybrid_energy(&p));
        }
        assert!(preload.is_conserved());
    }
}
