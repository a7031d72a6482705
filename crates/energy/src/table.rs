//! Regeneration of the paper's Table IV.

use crate::params::EnergyParams;

/// One row of Table IV: a named parameter with its value in both models.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Parameter description as printed in the paper.
    pub variable: &'static str,
    /// Symbol as printed in the paper.
    pub symbol: &'static str,
    /// Valancius et al. value (nJ/bit, except PUE/loss which are unitless).
    pub valancius: f64,
    /// Baliga et al. value.
    pub baliga: f64,
}

/// The rows of Table IV, in the paper's order.
pub fn table4_rows() -> Vec<Table4Row> {
    let v = EnergyParams::valancius();
    let b = EnergyParams::baliga();
    vec![
        Table4Row {
            variable: "Content Server",
            symbol: "gamma_s",
            valancius: v.server.as_nanojoules(),
            baliga: b.server.as_nanojoules(),
        },
        Table4Row {
            variable: "End User Modem",
            symbol: "gamma_m",
            valancius: v.modem.as_nanojoules(),
            baliga: b.modem.as_nanojoules(),
        },
        Table4Row {
            variable: "Traditional CDN Network",
            symbol: "gamma_cdn",
            valancius: v.cdn_network.as_nanojoules(),
            baliga: b.cdn_network.as_nanojoules(),
        },
        Table4Row {
            variable: "P2P Network within ExP",
            symbol: "gamma_exp",
            valancius: v.p2p_exchange.as_nanojoules(),
            baliga: b.p2p_exchange.as_nanojoules(),
        },
        Table4Row {
            variable: "P2P Network within POP",
            symbol: "gamma_pop",
            valancius: v.p2p_pop.as_nanojoules(),
            baliga: b.p2p_pop.as_nanojoules(),
        },
        Table4Row {
            variable: "P2P Network within Core",
            symbol: "gamma_core",
            valancius: v.p2p_core.as_nanojoules(),
            baliga: b.p2p_core.as_nanojoules(),
        },
        Table4Row {
            variable: "Power Efficiency",
            symbol: "PUE",
            valancius: v.pue,
            baliga: b.pue,
        },
        Table4Row {
            variable: "End-user energy loss",
            symbol: "l",
            valancius: v.loss,
            baliga: b.loss,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values exactly as printed in the paper's Table IV.
    const PAPER: [(&str, f64, f64); 8] = [
        ("gamma_s", 211.1, 281.3),
        ("gamma_m", 100.0, 100.0),
        ("gamma_cdn", 1050.0, 142.5),
        ("gamma_exp", 300.0, 144.86),
        ("gamma_pop", 600.0, 197.48),
        ("gamma_core", 900.0, 245.74),
        ("PUE", 1.2, 1.2),
        ("l", 1.07, 1.07),
    ];

    #[test]
    fn rows_match_paper_exactly() {
        let rows = table4_rows();
        assert_eq!(rows.len(), PAPER.len());
        for (row, (symbol, val, bal)) in rows.iter().zip(PAPER) {
            assert_eq!(row.symbol, symbol);
            assert_eq!(row.valancius, val, "{symbol} valancius");
            assert_eq!(row.baliga, bal, "{symbol} baliga");
        }
    }
}
