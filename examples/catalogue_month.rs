//! A month of the whole catalogue: Table I statistics, the capacity/savings
//! distributions of Fig. 3 and the per-ISP daily aggregates of Fig. 4, at a
//! configurable scale.
//!
//! ```sh
//! cargo run --release --example catalogue_month            # scale 0.01
//! CL_SCALE=0.05 cargo run --release --example catalogue_month
//! ```

use consume_local::ascii::{self, Chart};
use consume_local::figures::{fig3, fig4, tables};
use consume_local::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::var("CL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    println!("== one month of catch-up TV at scale {scale} ==\n");

    let exp = Experiment::builder().scale(scale).seed(7).build()?;
    let report = exp.report();
    report
        .check_conservation()
        .map_err(|e| format!("conservation: {e}"))?;

    // Table I.
    let table1 = tables::table1("Sep 2013", exp.trace(), scale);
    println!(
        "{}",
        table1.render(consume_local::trace::stats::PAPER_SEP2013)
    );

    // Fig. 3: distributions over the catalogue's swarms.
    let f3 = fig3(report);
    println!("CCDF of per-swarm capacity ({} swarms, log x):", f3.swarms);
    println!(
        "{}",
        Chart::new(60, 10)
            .log_x()
            .y_range(0.0, 1.0)
            .series('o', &f3.capacity_ccdf)
            .render()
    );
    for (model, median) in &f3.median_savings {
        let top = f3
            .top1pct_savings
            .iter()
            .find(|(m, _)| m == model)
            .unwrap()
            .1;
        println!(
            "{model:?}: median per-swarm savings {:.1}%   top-1% swarms {:.1}%",
            median * 100.0,
            top * 100.0
        );
    }

    // Fig. 4: daily savings for ISPs 1, 4 and 5 (paper's selection).
    let registry = exp.trace().config().registry.clone();
    let series = fig4(report, &registry, &[IspId(0), IspId(3), IspId(4)]);
    println!("\nDaily aggregate savings across the month (sim vs theory):");
    let mut rows = Vec::new();
    for s in &series {
        let sim_mean = s.sim_monthly_mean();
        let theory_mean = if s.theory.is_empty() {
            0.0
        } else {
            s.theory.iter().map(|(_, v)| v).sum::<f64>() / s.theory.len() as f64
        };
        rows.push(vec![
            s.isp.to_string(),
            format!("{:?}", s.model),
            format!("{:.1}%", sim_mean * 100.0),
            format!("{:.1}%", theory_mean * 100.0),
        ]);
    }
    println!(
        "{}",
        ascii::table(
            &["ISP", "model", "sim monthly mean", "theory monthly mean"],
            &rows
        )
    );

    // A chart of the biggest ISP's daily series under Valancius.
    if let Some(s) = series
        .iter()
        .find(|s| s.isp == IspId(0) && s.model == consume_local::energy::ModelKind::Valancius)
    {
        let sim: Vec<(f64, f64)> = s.sim.iter().map(|&(d, v)| (f64::from(d), v)).collect();
        let theory: Vec<(f64, f64)> = s.theory.iter().map(|&(d, v)| (f64::from(d), v)).collect();
        println!("ISP-1, Valancius: daily savings (s = sim, t = theory):");
        println!(
            "{}",
            Chart::new(62, 12)
                .series('t', &theory)
                .series('s', &sim)
                .render()
        );
    }

    println!(
        "note: at scale {scale} the catalogue head is truncated, so absolute savings sit\n\
         below the paper's full-scale 30%/18% headline; the ISP and model orderings and\n\
         the day-to-day shape are scale-invariant (see the scaling note on\n\
         TraceConfig::catalogue_size)."
    );
    Ok(())
}
