//! User positions within an ISP's metropolitan tree.

use std::fmt;

/// Identifier of an exchange point within one ISP's tree (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExchangeId(pub u32);

/// Identifier of a point of presence within one ISP's tree (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PopId(pub u32);

impl fmt::Display for ExchangeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exp{}", self.0)
    }
}

impl fmt::Display for PopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pop{}", self.0)
    }
}

/// A user's attachment point in the tree: the exchange point it hangs off and
/// that exchange point's parent PoP.
///
/// Construct through [`IspTopology::location_of`](crate::IspTopology::location_of)
/// (or [`IspTopology::random_location`](crate::IspTopology::random_location)),
/// which guarantees the tree invariant `pop == parent(exchange)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserLocation {
    exchange: ExchangeId,
    pop: PopId,
}

impl UserLocation {
    /// Crate-internal constructor; the tree derives `pop` from `exchange`.
    pub(crate) fn new(exchange: ExchangeId, pop: PopId) -> Self {
        Self { exchange, pop }
    }

    /// Rebuilds a location from serialized parts **without** checking the
    /// tree invariant against any topology.
    ///
    /// Intended for deserialisation paths (trace CSV import) where both ids
    /// were produced by [`IspTopology::location_of`](crate::IspTopology::location_of)
    /// in the first place. Constructing locations whose `pop` is not the
    /// exchange's parent in the topology being simulated yields meaningless
    /// closeness results.
    pub fn from_raw_parts(exchange: ExchangeId, pop: PopId) -> Self {
        Self { exchange, pop }
    }

    /// The exchange point this user hangs off.
    pub fn exchange(&self) -> ExchangeId {
        self.exchange
    }

    /// The PoP parenting this user's exchange point.
    pub fn pop(&self) -> PopId {
        self.pop
    }
}

impl fmt::Display for UserLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pop, self.exchange)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let loc = UserLocation::new(ExchangeId(17), PopId(3));
        assert_eq!(loc.to_string(), "pop3/exp17");
        assert_eq!(loc.exchange(), ExchangeId(17));
        assert_eq!(loc.pop(), PopId(3));
    }

    #[test]
    fn ids_order_numerically() {
        assert!(ExchangeId(2) < ExchangeId(10));
        assert!(PopId(0) < PopId(1));
    }
}
