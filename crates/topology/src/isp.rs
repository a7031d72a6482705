//! ISP profiles and the London top-5 registry used by the evaluation.
//!
//! The paper evaluates "the top 5 ISPs" in London (Figs. 2 and 4) and
//! publishes the tree of the largest one (Table III). The remaining four
//! trees are not published; the registry below instantiates plausible
//! smaller trees so the reproduction exhibits the same ISP spread. The
//! other four ISPs enter the evaluation mainly through their market shares,
//! which split viewers into ISP-friendly swarms; their synthetic trees only
//! set how local the matches inside those swarms can be.

use std::fmt;

use crate::tree::IspTopology;

/// Index of an ISP within an [`IspRegistry`] (0-based; ISP-1 of the paper is
/// index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IspId(pub u8);

impl fmt::Display for IspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper numbering is 1-based ("ISP-1" is the biggest).
        write!(f, "ISP-{}", self.0 + 1)
    }
}

/// One ISP: its metropolitan tree and its subscriber market share.
#[derive(Debug, Clone, PartialEq)]
pub struct IspProfile {
    /// Registry identifier.
    pub id: IspId,
    /// Human-readable name.
    pub name: String,
    /// Share of users subscribed to this ISP (the registry normalises shares
    /// to sum to 1).
    pub market_share: f64,
    /// The ISP's metropolitan tree.
    pub topology: IspTopology,
}

/// Error from [`IspRegistry`] construction.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// At least one ISP is required.
    Empty,
    /// Market shares must be positive and finite.
    BadShare {
        /// Name of the offending ISP.
        name: String,
        /// The offending share value.
        share: f64,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Empty => write!(f, "registry needs at least one ISP"),
            RegistryError::BadShare { name, share } => {
                write!(f, "ISP `{name}` has invalid market share {share}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A set of ISPs covering the modelled city, with normalised market shares.
#[derive(Debug, Clone, PartialEq)]
pub struct IspRegistry {
    profiles: Vec<IspProfile>,
}

impl IspRegistry {
    /// Builds a registry from `(name, market_share, topology)` triples.
    /// Shares are normalised to sum to one; ids are assigned by position.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Empty`] with no ISPs, or
    /// [`RegistryError::BadShare`] for a non-positive/non-finite share.
    pub fn new(entries: Vec<(String, f64, IspTopology)>) -> Result<Self, RegistryError> {
        if entries.is_empty() {
            return Err(RegistryError::Empty);
        }
        for (name, share, _) in &entries {
            if !share.is_finite() || *share <= 0.0 {
                return Err(RegistryError::BadShare {
                    name: name.clone(),
                    share: *share,
                });
            }
        }
        let total: f64 = entries.iter().map(|(_, s, _)| s).sum();
        let profiles = entries
            .into_iter()
            .enumerate()
            .map(|(i, (name, share, topology))| IspProfile {
                id: IspId(i as u8),
                name,
                market_share: share / total,
                topology,
            })
            .collect();
        Ok(Self { profiles })
    }

    /// The five London-scale ISPs used throughout the reproduction.
    ///
    /// ISP-1 is the Table III topology (345 ExP / 9 PoP). Market shares
    /// follow the approximate UK fixed-broadband landscape of 2013/14; the
    /// other trees are plausible but synthetic (see the module docs).
    pub fn london_top5() -> Self {
        let mk = |e, p| IspTopology::new(e, p).expect("static topology is valid");
        Self::new(vec![
            ("ISP-1".to_owned(), 0.32, mk(345, 9)),
            ("ISP-2".to_owned(), 0.24, mk(290, 8)),
            ("ISP-3".to_owned(), 0.20, mk(240, 7)),
            ("ISP-4".to_owned(), 0.14, mk(170, 6)),
            ("ISP-5".to_owned(), 0.10, mk(110, 4)),
        ])
        .expect("static registry is valid")
    }

    /// A single-ISP registry wrapping the Table III tree — convenient for
    /// closed-form analyses that ignore the ISP split.
    pub fn single_table3() -> Self {
        Self::new(vec![(
            "ISP-1".to_owned(),
            1.0,
            IspTopology::london_table3().expect("table3 topology is valid"),
        )])
        .expect("static registry is valid")
    }

    /// All profiles, ordered by id (largest market share first for the
    /// built-in registries).
    pub fn profiles(&self) -> &[IspProfile] {
        &self.profiles
    }

    /// Number of ISPs.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the registry is empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Looks up a profile by id.
    pub fn get(&self, id: IspId) -> Option<&IspProfile> {
        self.profiles.get(id.0 as usize)
    }

    /// The market shares, indexable by `IspId.0` — the sampling weights the
    /// workload generator feeds to a categorical distribution.
    pub fn market_shares(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.market_share).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn london_top5_shares_normalised() {
        let reg = IspRegistry::london_top5();
        assert_eq!(reg.len(), 5);
        let total: f64 = reg.market_shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Largest first.
        let shares = reg.market_shares();
        for w in shares.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn isp1_is_table3() {
        let reg = IspRegistry::london_top5();
        let isp1 = reg.get(IspId(0)).unwrap();
        assert_eq!(isp1.topology, IspTopology::london_table3().unwrap());
    }

    #[test]
    fn ids_are_positional_and_display_one_based() {
        let reg = IspRegistry::london_top5();
        for (i, p) in reg.profiles().iter().enumerate() {
            assert_eq!(p.id, IspId(i as u8));
        }
        assert_eq!(IspId(0).to_string(), "ISP-1");
        assert_eq!(IspId(4).to_string(), "ISP-5");
    }

    #[test]
    fn normalisation_of_custom_shares() {
        let t = IspTopology::new(10, 2).unwrap();
        let reg =
            IspRegistry::new(vec![("a".into(), 3.0, t.clone()), ("b".into(), 1.0, t)]).unwrap();
        let shares = reg.market_shares();
        assert!((shares[0] - 0.75).abs() < 1e-12);
        assert!((shares[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            IspRegistry::new(vec![]),
            Err(RegistryError::Empty)
        ));
        let t = IspTopology::new(10, 2).unwrap();
        let err = IspRegistry::new(vec![("x".into(), 0.0, t)]).unwrap_err();
        assert!(err.to_string().contains("invalid market share"));
    }

    #[test]
    fn get_out_of_range_is_none() {
        let reg = IspRegistry::single_table3();
        assert!(reg.get(IspId(0)).is_some());
        assert!(reg.get(IspId(1)).is_none());
        assert!(!reg.is_empty());
    }
}
