//! The three aggregation layers of the metropolitan tree.

use std::fmt;

/// A layer of the ISP metropolitan tree at which two users' paths can meet.
///
/// Ordered by network distance: `ExchangePoint < PointOfPresence < Core`.
/// Peer-to-peer traffic localised at a lower layer traverses less equipment
/// and therefore costs less energy per bit (`γ_exp < γ_pop < γ_core` in both
/// published parameter sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The street-cabinet/exchange level: the last aggregation point before
    /// customer premises (345 of them for the Table III ISP).
    ExchangePoint,
    /// Metropolitan point of presence (9 for the Table III ISP).
    PointOfPresence,
    /// The nationwide core router (always exactly one per ISP in this model).
    Core,
}

impl Layer {
    /// All layers, ordered from closest (exchange point) to farthest (core).
    pub const ALL: [Layer; 3] = [Layer::ExchangePoint, Layer::PointOfPresence, Layer::Core];

    /// Index of the layer in [`Layer::ALL`] (0 = exchange point).
    pub fn index(self) -> usize {
        match self {
            Layer::ExchangePoint => 0,
            Layer::PointOfPresence => 1,
            Layer::Core => 2,
        }
    }

    /// Short label used in tables and CSV output.
    pub fn short_name(self) -> &'static str {
        match self {
            Layer::ExchangePoint => "ExP",
            Layer::PointOfPresence => "PoP",
            Layer::Core => "Core",
        }
    }

    /// The next layer up (towards the core), or `None` at the core.
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::ExchangePoint => Some(Layer::PointOfPresence),
            Layer::PointOfPresence => Some(Layer::Core),
            Layer::Core => None,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Layer::ExchangePoint => "Exchange Point",
            Layer::PointOfPresence => "Point of Presence",
            Layer::Core => "Core Router",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_network_distance() {
        assert!(Layer::ExchangePoint < Layer::PointOfPresence);
        assert!(Layer::PointOfPresence < Layer::Core);
    }

    #[test]
    fn all_is_sorted_and_indexed() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(layer.index(), i);
        }
        let mut sorted = Layer::ALL;
        sorted.sort();
        assert_eq!(sorted, Layer::ALL);
    }

    #[test]
    fn parent_chain_terminates_at_core() {
        assert_eq!(Layer::ExchangePoint.parent(), Some(Layer::PointOfPresence));
        assert_eq!(Layer::PointOfPresence.parent(), Some(Layer::Core));
        assert_eq!(Layer::Core.parent(), None);
    }

    #[test]
    fn display_and_short_names() {
        assert_eq!(Layer::ExchangePoint.to_string(), "Exchange Point");
        assert_eq!(Layer::Core.short_name(), "Core");
    }
}
