//! The parametric three-layer metropolitan tree.

use std::fmt;

use rand::Rng;

use crate::layer::Layer;
use crate::location::{ExchangeId, PopId, UserLocation};

/// Error from [`IspTopology`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Layer node counts must be at least one.
    ZeroNodes {
        /// The offending layer.
        layer: Layer,
    },
    /// A tree needs at least as many exchange points as PoPs.
    FewerExchangesThanPops {
        /// Number of exchange points requested.
        exchanges: u32,
        /// Number of PoPs requested.
        pops: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroNodes { layer } => {
                write!(f, "layer {layer} must have at least one node")
            }
            TopologyError::FewerExchangesThanPops { exchanges, pops } => write!(
                f,
                "tree needs at least as many exchange points ({exchanges}) as PoPs ({pops})"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One row of the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalisationRow {
    /// The tree layer.
    pub layer: Layer,
    /// Number of nodes at this layer.
    pub count: u32,
    /// Probability that a random peer is under a *given* node of this layer.
    pub probability: f64,
}

/// A three-layer ISP metropolitan tree (exchange points → PoPs → one core).
///
/// Exchange points are assigned to PoPs round-robin, which keeps PoP subtree
/// sizes balanced to within one exchange point — consistent with the paper's
/// uniform localisation probabilities (`p_pop = 1/n_pop` presumes balanced
/// subtrees).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IspTopology {
    n_exchanges: u32,
    n_pops: u32,
}

impl IspTopology {
    /// Creates a tree with the given numbers of exchange points and PoPs
    /// (plus the implicit single core router).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroNodes`] if either count is zero and
    /// [`TopologyError::FewerExchangesThanPops`] if `n_exchanges < n_pops`.
    pub fn new(n_exchanges: u32, n_pops: u32) -> Result<Self, TopologyError> {
        if n_exchanges == 0 {
            return Err(TopologyError::ZeroNodes {
                layer: Layer::ExchangePoint,
            });
        }
        if n_pops == 0 {
            return Err(TopologyError::ZeroNodes {
                layer: Layer::PointOfPresence,
            });
        }
        if n_exchanges < n_pops {
            return Err(TopologyError::FewerExchangesThanPops {
                exchanges: n_exchanges,
                pops: n_pops,
            });
        }
        Ok(Self {
            n_exchanges,
            n_pops,
        })
    }

    /// The topology of the large London ISP published in Table III:
    /// 345 exchange points, 9 PoPs, 1 core router.
    pub fn london_table3() -> Result<Self, TopologyError> {
        Self::new(345, 9)
    }

    /// Number of nodes at a layer (`Core` is always 1).
    pub fn node_count(&self, layer: Layer) -> u32 {
        match layer {
            Layer::ExchangePoint => self.n_exchanges,
            Layer::PointOfPresence => self.n_pops,
            Layer::Core => 1,
        }
    }

    /// Probability that a uniformly placed peer sits under a *given* node of
    /// `layer` — the `p_exp`/`p_pop`/`p_core` of Table III.
    pub fn localisation_probability(&self, layer: Layer) -> f64 {
        1.0 / f64::from(self.node_count(layer))
    }

    /// The `(p_exp, p_pop, p_core)` triple used throughout the analytics.
    pub fn localisation_probabilities(&self) -> [f64; 3] {
        [
            self.localisation_probability(Layer::ExchangePoint),
            self.localisation_probability(Layer::PointOfPresence),
            self.localisation_probability(Layer::Core),
        ]
    }

    /// The parent PoP of an exchange point (round-robin assignment).
    ///
    /// # Panics
    ///
    /// Panics if `exchange` is out of range for this tree.
    pub fn parent_pop(&self, exchange: ExchangeId) -> PopId {
        assert!(
            exchange.0 < self.n_exchanges,
            "exchange {exchange} out of range"
        );
        PopId(exchange.0 % self.n_pops)
    }

    /// The full location (exchange + parent PoP) of an exchange point.
    ///
    /// # Panics
    ///
    /// Panics if `exchange` is out of range for this tree.
    pub fn location_of(&self, exchange: ExchangeId) -> UserLocation {
        UserLocation::new(exchange, self.parent_pop(exchange))
    }

    /// A uniformly random user location, matching the paper's assumption that
    /// a peer is equally likely to be under any exchange point.
    pub fn random_location<R: Rng + ?Sized>(&self, rng: &mut R) -> UserLocation {
        self.location_of(ExchangeId(rng.gen_range(0..self.n_exchanges)))
    }

    /// The layer at which the network paths of two users meet:
    /// same exchange point → [`Layer::ExchangePoint`]; same PoP →
    /// [`Layer::PointOfPresence`]; otherwise [`Layer::Core`].
    pub fn closeness(&self, a: &UserLocation, b: &UserLocation) -> Layer {
        if a.exchange() == b.exchange() {
            Layer::ExchangePoint
        } else if a.pop() == b.pop() {
            Layer::PointOfPresence
        } else {
            Layer::Core
        }
    }

    /// Regenerates the paper's Table III for this tree.
    pub fn localisation_table(&self) -> Vec<LocalisationRow> {
        Layer::ALL
            .iter()
            .map(|&layer| LocalisationRow {
                layer,
                count: self.node_count(layer),
                probability: self.localisation_probability(layer),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table3_probabilities() {
        let t = IspTopology::london_table3().unwrap();
        let [p_exp, p_pop, p_core] = t.localisation_probabilities();
        assert!((p_exp - 1.0 / 345.0).abs() < 1e-15);
        assert!((p_pop - 1.0 / 9.0).abs() < 1e-15);
        assert_eq!(p_core, 1.0);
        // Paper's printed percentages.
        assert!((p_exp * 100.0 - 0.29).abs() < 0.005);
        assert!((p_pop * 100.0 - 11.11).abs() < 0.005);
    }

    #[test]
    fn construction_validation() {
        assert!(IspTopology::new(0, 1).is_err());
        assert!(IspTopology::new(1, 0).is_err());
        assert!(IspTopology::new(3, 5).is_err());
        assert!(IspTopology::new(5, 5).is_ok());
    }

    #[test]
    fn round_robin_parent_is_balanced() {
        let t = IspTopology::new(10, 3).unwrap();
        let mut counts = [0u32; 3];
        for e in 0..10 {
            counts[t.parent_pop(ExchangeId(e)).0 as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "subtrees must be balanced: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn parent_pop_rejects_out_of_range() {
        let t = IspTopology::new(4, 2).unwrap();
        let _ = t.parent_pop(ExchangeId(4));
    }

    #[test]
    fn closeness_hierarchy() {
        let t = IspTopology::new(6, 2).unwrap();
        let a = t.location_of(ExchangeId(0)); // pop 0
        let same_exp = t.location_of(ExchangeId(0));
        let same_pop = t.location_of(ExchangeId(2)); // 2 % 2 == 0
        let other_pop = t.location_of(ExchangeId(1)); // 1 % 2 == 1
        assert_eq!(t.closeness(&a, &same_exp), Layer::ExchangePoint);
        assert_eq!(t.closeness(&a, &same_pop), Layer::PointOfPresence);
        assert_eq!(t.closeness(&a, &other_pop), Layer::Core);
        // Symmetry.
        assert_eq!(t.closeness(&other_pop, &a), Layer::Core);
    }

    #[test]
    fn random_location_is_uniformish_and_valid() {
        let t = IspTopology::new(20, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0u32; 20];
        for _ in 0..20_000 {
            let loc = t.random_location(&mut rng);
            assert_eq!(loc.pop(), t.parent_pop(loc.exchange()));
            counts[loc.exchange().0 as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "exchange counts {counts:?}");
        }
    }

    #[test]
    fn localisation_table_matches_accessors() {
        let t = IspTopology::london_table3().unwrap();
        let rows = t.localisation_table();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].count, 345);
        assert_eq!(rows[1].count, 9);
        assert_eq!(rows[2].count, 1);
        assert_eq!(rows[2].probability, 1.0);
    }

    #[test]
    fn error_display() {
        let e = IspTopology::new(2, 5).unwrap_err();
        assert!(e.to_string().contains("exchange points"));
        let e = IspTopology::new(0, 5).unwrap_err();
        assert!(e.to_string().contains("at least one node"));
    }
}
