//! The published energy-parameter sets (paper Table IV) and a validated
//! builder for custom sets.

use std::fmt;

use crate::units::EnergyPerBit;

/// Which published parameter set a model instance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Valancius et al., *Greening the Internet with Nano Data Centers*,
    /// CoNEXT 2009. Network legs = hops × 150 nJ/bit.
    Valancius,
    /// Baliga et al., *Green Cloud Computing*, Proc. IEEE 2011. Network legs
    /// are sums over individual equipment.
    Baliga,
}

impl ModelKind {
    /// Both published parameter sets, in the order the paper tabulates them.
    pub const ALL: [ModelKind; 2] = [ModelKind::Valancius, ModelKind::Baliga];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::Valancius => f.write_str("Valancius"),
            ModelKind::Baliga => f.write_str("Baliga"),
        }
    }
}

/// Energy cost of each 150 nJ/bit network hop in the Valancius model.
pub const VALANCIUS_HOP: f64 = 150.0;

/// Hop counts the paper uses to derive the Valancius network legs:
/// CDN path 7 hops, core-localised P2P 6, PoP-localised 4, ExP-localised 2.
pub const VALANCIUS_HOPS: ValanciusHops = ValanciusHops {
    cdn: 7,
    p2p_core: 6,
    p2p_pop: 4,
    p2p_exchange: 2,
};

/// Hop counts for the Valancius hop-based derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValanciusHops {
    /// Hops between an end user and a CDN node.
    pub cdn: u32,
    /// Hops between peers whose paths meet at the core router.
    pub p2p_core: u32,
    /// Hops between peers whose paths meet at a PoP.
    pub p2p_pop: u32,
    /// Hops between peers whose paths meet at an exchange point.
    pub p2p_exchange: u32,
}

/// A complete per-bit energy parameter set (one column of the paper's
/// Table IV).
///
/// All γ values are per-bit intensities; `pue` is the power-usage
/// effectiveness applied to shared infrastructure and `loss` the end-user
/// equipment energy loss factor `l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Which published set these values reproduce, if any.
    pub kind: Option<ModelKind>,
    /// γ_s — content server.
    pub server: EnergyPerBit,
    /// γ_m — end-user modem / customer-premises equipment.
    pub modem: EnergyPerBit,
    /// γ_cdn — network between a user and a CDN node.
    pub cdn_network: EnergyPerBit,
    /// γ_exp — P2P path localised within an exchange point.
    pub p2p_exchange: EnergyPerBit,
    /// γ_pop — P2P path localised within a PoP.
    pub p2p_pop: EnergyPerBit,
    /// γ_core — P2P path crossing the core router.
    pub p2p_core: EnergyPerBit,
    /// PUE — power usage effectiveness multiplier for shared equipment.
    pub pue: f64,
    /// l — end-user equipment energy loss factor.
    pub loss: f64,
}

impl EnergyParams {
    /// The Valancius et al. column of Table IV.
    ///
    /// Network legs are `h × 150 nJ/bit`: γ_cdn = 7 hops, γ_core = 6,
    /// γ_pop = 4, γ_exp = 2.
    pub fn valancius() -> Self {
        let hop = |h: u32| EnergyPerBit::from_nanojoules(f64::from(h) * VALANCIUS_HOP);
        Self {
            kind: Some(ModelKind::Valancius),
            server: EnergyPerBit::from_nanojoules(211.1),
            modem: EnergyPerBit::from_nanojoules(100.0),
            cdn_network: hop(VALANCIUS_HOPS.cdn),
            p2p_exchange: hop(VALANCIUS_HOPS.p2p_exchange),
            p2p_pop: hop(VALANCIUS_HOPS.p2p_pop),
            p2p_core: hop(VALANCIUS_HOPS.p2p_core),
            pue: 1.2,
            loss: 1.07,
        }
    }

    /// The Baliga et al. column of Table IV.
    ///
    /// PUE and loss follow the Valancius values "for consistency", exactly as
    /// the paper does.
    pub fn baliga() -> Self {
        Self {
            kind: Some(ModelKind::Baliga),
            server: EnergyPerBit::from_nanojoules(281.3),
            modem: EnergyPerBit::from_nanojoules(100.0),
            cdn_network: EnergyPerBit::from_nanojoules(142.5),
            p2p_exchange: EnergyPerBit::from_nanojoules(144.86),
            p2p_pop: EnergyPerBit::from_nanojoules(197.48),
            p2p_core: EnergyPerBit::from_nanojoules(245.74),
            pue: 1.2,
            loss: 1.07,
        }
    }

    /// The parameter set for a published model kind.
    pub fn of(kind: ModelKind) -> Self {
        match kind {
            ModelKind::Valancius => Self::valancius(),
            ModelKind::Baliga => Self::baliga(),
        }
    }

    /// Both published parameter sets, Valancius first (paper order).
    pub fn published() -> [Self; 2] {
        [Self::valancius(), Self::baliga()]
    }

    /// A builder for custom parameter sets (e.g. sensitivity analyses).
    pub fn builder() -> EnergyParamsBuilder {
        EnergyParamsBuilder::default()
    }

    /// Display name: the published model name or "custom".
    pub fn name(&self) -> &'static str {
        match self.kind {
            Some(ModelKind::Valancius) => "Valancius",
            Some(ModelKind::Baliga) => "Baliga",
            None => "custom",
        }
    }
}

/// Error from [`EnergyParamsBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    field: &'static str,
    value: f64,
    requirement: &'static str,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy parameter `{}` = {} violates: {}",
            self.field, self.value, self.requirement
        )
    }
}

impl std::error::Error for ParamError {}

/// Builder for custom [`EnergyParams`], defaulting every field to the
/// Valancius values so sensitivity analyses can tweak one knob at a time.
///
/// # Example
///
/// ```
/// use consume_local_energy::EnergyParams;
///
/// # fn main() -> Result<(), consume_local_energy::ParamError> {
/// let heavier_core = EnergyParams::builder().p2p_core_nj(1200.0).build()?;
/// assert_eq!(heavier_core.kind, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnergyParamsBuilder {
    params: EnergyParams,
}

impl Default for EnergyParamsBuilder {
    fn default() -> Self {
        let mut params = EnergyParams::valancius();
        params.kind = None;
        Self { params }
    }
}

macro_rules! builder_nj {
    ($(#[$doc:meta] $name:ident => $field:ident),+ $(,)?) => {
        $(
            #[$doc]
            pub fn $name(mut self, nj_per_bit: f64) -> Self {
                self.params.$field = EnergyPerBit::from_nanojoules(nj_per_bit);
                self
            }
        )+
    };
}

impl EnergyParamsBuilder {
    builder_nj! {
        /// Sets γ_s (content server), nJ/bit.
        server_nj => server,
        /// Sets γ_m (end-user modem), nJ/bit.
        modem_nj => modem,
        /// Sets γ_cdn (user↔CDN network), nJ/bit.
        cdn_network_nj => cdn_network,
        /// Sets γ_exp (P2P within exchange point), nJ/bit.
        p2p_exchange_nj => p2p_exchange,
        /// Sets γ_pop (P2P within PoP), nJ/bit.
        p2p_pop_nj => p2p_pop,
        /// Sets γ_core (P2P across core), nJ/bit.
        p2p_core_nj => p2p_core,
    }

    /// Sets the PUE multiplier.
    pub fn pue(mut self, pue: f64) -> Self {
        self.params.pue = pue;
        self
    }

    /// Sets the end-user loss factor `l`.
    pub fn loss(mut self, loss: f64) -> Self {
        self.params.loss = loss;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when any γ is negative or non-finite, when
    /// `pue`/`loss` are below 1 (physically they are multipliers ≥ 1), or
    /// when the P2P γ's are not ordered `γ_exp ≤ γ_pop ≤ γ_core`.
    pub fn build(self) -> Result<EnergyParams, ParamError> {
        let p = self.params;
        let checks: [(&'static str, f64); 6] = [
            ("server", p.server.as_nanojoules()),
            ("modem", p.modem.as_nanojoules()),
            ("cdn_network", p.cdn_network.as_nanojoules()),
            ("p2p_exchange", p.p2p_exchange.as_nanojoules()),
            ("p2p_pop", p.p2p_pop.as_nanojoules()),
            ("p2p_core", p.p2p_core.as_nanojoules()),
        ];
        for (field, value) in checks {
            if !value.is_finite() || value < 0.0 {
                return Err(ParamError {
                    field,
                    value,
                    requirement: "finite and non-negative",
                });
            }
        }
        for (field, value) in [("pue", p.pue), ("loss", p.loss)] {
            if !value.is_finite() || value < 1.0 {
                return Err(ParamError {
                    field,
                    value,
                    requirement: "finite and at least 1.0",
                });
            }
        }
        if p.p2p_exchange > p.p2p_pop || p.p2p_pop > p.p2p_core {
            return Err(ParamError {
                field: "p2p_exchange/p2p_pop/p2p_core",
                value: p.p2p_pop.as_nanojoules(),
                requirement: "layer ordering γ_exp ≤ γ_pop ≤ γ_core",
            });
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valancius_matches_table4() {
        let v = EnergyParams::valancius();
        assert_eq!(v.server.as_nanojoules(), 211.1);
        assert_eq!(v.modem.as_nanojoules(), 100.0);
        assert_eq!(v.cdn_network.as_nanojoules(), 1050.0);
        assert_eq!(v.p2p_exchange.as_nanojoules(), 300.0);
        assert_eq!(v.p2p_pop.as_nanojoules(), 600.0);
        assert_eq!(v.p2p_core.as_nanojoules(), 900.0);
        assert_eq!(v.pue, 1.2);
        assert_eq!(v.loss, 1.07);
        assert_eq!(v.kind, Some(ModelKind::Valancius));
    }

    #[test]
    fn baliga_matches_table4() {
        let b = EnergyParams::baliga();
        assert_eq!(b.server.as_nanojoules(), 281.3);
        assert_eq!(b.modem.as_nanojoules(), 100.0);
        assert_eq!(b.cdn_network.as_nanojoules(), 142.5);
        assert_eq!(b.p2p_exchange.as_nanojoules(), 144.86);
        assert_eq!(b.p2p_pop.as_nanojoules(), 197.48);
        assert_eq!(b.p2p_core.as_nanojoules(), 245.74);
    }

    #[test]
    fn valancius_hop_derivation() {
        let v = EnergyParams::valancius();
        assert_eq!(v.cdn_network.as_nanojoules(), 7.0 * VALANCIUS_HOP);
        assert_eq!(v.p2p_core.as_nanojoules(), 6.0 * VALANCIUS_HOP);
        assert_eq!(v.p2p_pop.as_nanojoules(), 4.0 * VALANCIUS_HOP);
        assert_eq!(v.p2p_exchange.as_nanojoules(), 2.0 * VALANCIUS_HOP);
    }

    #[test]
    fn layer_gammas_are_ordered_in_both_models() {
        for p in EnergyParams::published() {
            assert!(p.p2p_exchange < p.p2p_pop);
            assert!(p.p2p_pop < p.p2p_core);
        }
    }

    #[test]
    fn of_and_published_agree() {
        assert_eq!(
            EnergyParams::of(ModelKind::Valancius),
            EnergyParams::valancius()
        );
        assert_eq!(EnergyParams::of(ModelKind::Baliga), EnergyParams::baliga());
        assert_eq!(EnergyParams::published()[1].kind, Some(ModelKind::Baliga));
    }

    #[test]
    fn builder_validates() {
        assert!(EnergyParams::builder().build().is_ok());
        assert!(EnergyParams::builder().server_nj(-1.0).build().is_err());
        assert!(EnergyParams::builder().pue(0.5).build().is_err());
        assert!(EnergyParams::builder().loss(f64::NAN).build().is_err());
        // Violate layer ordering.
        let err = EnergyParams::builder()
            .p2p_exchange_nj(999.0)
            .p2p_pop_nj(1.0)
            .build();
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("ordering"));
    }

    #[test]
    fn builder_defaults_are_valancius_valued_custom() {
        let p = EnergyParams::builder().build().unwrap();
        assert_eq!(p.kind, None);
        assert_eq!(p.name(), "custom");
        assert_eq!(p.server, EnergyParams::valancius().server);
    }

    #[test]
    fn model_kind_display() {
        assert_eq!(ModelKind::Valancius.to_string(), "Valancius");
        assert_eq!(ModelKind::Baliga.to_string(), "Baliga");
        assert_eq!(ModelKind::ALL.len(), 2);
    }
}
