//! Tables I, III and IV, and the closed form checked against its numeric
//! reference.

use std::fmt::Write as _;

use consume_local_analytics::{numeric, planning, SavingsModel};
use consume_local_energy::{table4_rows, CostModel, EnergyParams, Table4Row};
use consume_local_topology::{IspTopology, Layer, LocalisationRow};
use consume_local_trace::stats::{PAPER_JUL2014, PAPER_SEP2013};
use consume_local_trace::{Table1, Trace, TraceConfig, TraceGenerator};

use super::Exhibit;
use crate::ascii;

/// Table I: dataset description, measured from a trace generated at `scale`
/// and projected to full scale.
pub fn table1(label: &str, trace: &Trace, scale: f64) -> Table1 {
    Table1::from_trace(label, trace, scale)
}

/// Table III: the localisation probabilities of the published ISP-1 tree.
pub fn table3() -> Vec<LocalisationRow> {
    IspTopology::london_table3()
        .expect("published topology is valid")
        .localisation_table()
}

/// Renders Table III as text.
pub fn render_table3(rows: &[LocalisationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.layer.to_string(),
                r.count.to_string(),
                format!("{:.2} %", r.probability * 100.0),
            ]
        })
        .collect();
    ascii::table(&["Layer", "Count", "Localisation Probability"], &body)
}

/// Table IV: the energy parameters of both published models.
pub fn table4() -> Vec<Table4Row> {
    table4_rows()
}

/// Renders Table IV as text.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variable.to_string(),
                r.symbol.to_string(),
                format!("{}", r.valancius),
                format!("{}", r.baliga),
            ]
        })
        .collect();
    ascii::table(&["Variable", "Symbol", "Valancius", "Baliga"], &body)
}

/// Table I for both months at `scale`, measured and projected to full
/// scale next to the paper's values.
pub(crate) fn table1_exhibit(scale: f64) -> Exhibit {
    let mut ex = Exhibit::new("Table I: description of the dataset");
    let mut csv = String::from("month,row,measured,projected,paper\n");
    for (label, config, paper) in [
        ("Sep 2013", TraceConfig::london_sep2013(), PAPER_SEP2013),
        ("July 2014", TraceConfig::london_jul2014(), PAPER_JUL2014),
    ] {
        let config = config.scaled(scale).expect("preset scales are valid");
        let trace = TraceGenerator::new(config, 2013)
            .generate()
            .expect("the published months are valid");
        let table = table1(label, &trace, scale);
        ex.line(table.render(paper));
        let m = &table.measured;
        for (row, measured, projected, target) in [
            ("users", m.active_users, table.projected_users, paper.0),
            ("ips", m.active_households, table.projected_ips, paper.1),
            ("sessions", m.sessions, table.projected_sessions, paper.2),
        ] {
            let measured = measured as f64;
            let _ = writeln!(csv, "{label},{row},{measured},{projected},{target}");
        }
    }
    ex.csv("table1_dataset.csv", csv);
    ex
}

/// Table III with its CSV.
pub(crate) fn table3_exhibit() -> Exhibit {
    let rows = table3();
    let mut ex = Exhibit::new("Table III: localisation probabilities (ISP-1)");
    ex.line(render_table3(&rows));
    let mut csv = String::from("layer,count,probability\n");
    for r in &rows {
        let _ = writeln!(
            csv,
            "{},{},{}",
            r.layer.short_name(),
            r.count,
            r.probability
        );
    }
    ex.csv("table3_localisation.csv", csv);
    ex
}

/// Table IV with its CSV, plus the per-bit delivery costs ψ it implies.
pub(crate) fn table4_exhibit() -> Exhibit {
    let rows = table4();
    let mut ex = Exhibit::new("Table IV: energy parameters");
    ex.line(render_table4(&rows));
    let mut csv = String::from("variable,symbol,valancius,baliga\n");
    for r in &rows {
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            r.variable, r.symbol, r.valancius, r.baliga
        );
    }
    ex.csv("table4_energy.csv", csv);
    ex.line("Derived per-bit delivery costs (nJ/bit):");
    for params in EnergyParams::published() {
        let m = CostModel::new(params);
        ex.line(format!(
            "  {:<10} ψ_s = {:8.2}   ψ_p(ExP) = {:7.2}   ψ_p(PoP) = {:7.2}   ψ_p(Core) = {:7.2}",
            params.name(),
            m.server_cost_per_bit().as_nanojoules(),
            m.peer_cost_per_bit(Layer::ExchangePoint).as_nanojoules(),
            m.peer_cost_per_bit(Layer::PointOfPresence).as_nanojoules(),
            m.peer_cost_per_bit(Layer::Core).as_nanojoules(),
        ));
    }
    ex
}

/// Eq. 12 against the brute-force Poisson summation at four capacities,
/// plus one planning query: the closed form's use "for network planning
/// purposes" (§IV-B-2) rests on this agreement.
pub(crate) fn closed_form_exhibit() -> Exhibit {
    let topo = IspTopology::london_table3().expect("published topology is valid");
    let model = SavingsModel::new(EnergyParams::valancius(), &topo, 1.0).expect("ratio 1 valid");
    let cost = CostModel::new(EnergyParams::valancius());
    let mut ex = Exhibit::new("Closed form vs numeric reference");
    ex.line("capacity   closed-form S    numeric S      |Δ|");
    for c in [0.1, 1.0, 10.0, 100.0] {
        let closed = model.savings(c);
        let brute = numeric::savings_numeric(&cost, &topo, 1.0, c);
        let gap = (closed - brute).abs();
        ex.line(format!("{c:>8} {closed:>14.6} {brute:>12.6} {gap:>10.2e}"));
    }
    let target = planning::capacity_for_savings(&model, 0.30).expect("30% is reachable");
    ex.line(format!("planning query: S(c) = 30% at c ≈ {target:.2}"));
    ex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let rows = table3();
        assert_eq!(rows[0].count, 345);
        assert!((rows[0].probability * 100.0 - 0.29).abs() < 0.005);
        assert_eq!(rows[1].count, 9);
        assert!((rows[1].probability * 100.0 - 11.11).abs() < 0.005);
        assert_eq!(rows[2].probability, 1.0);
        let text = render_table3(&rows);
        assert!(text.contains("Exchange Point"));
        assert!(text.contains("0.29 %"));
        assert!(text.contains("11.11 %"));
    }

    #[test]
    fn table4_renders_both_columns() {
        let rows = table4();
        let text = render_table4(&rows);
        assert!(text.contains("211.1"));
        assert!(text.contains("281.3"));
        assert!(text.contains("gamma_cdn"));
        assert!(text.contains("1050"));
    }
}
