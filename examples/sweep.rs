//! Command-line scenario sweep runner.
//!
//! Expands a named parameter grid, fans it out across threads, prints a
//! per-scenario table and writes the `consume-local/sweep-v1` JSON document
//! for external tooling / trajectory tracking.
//!
//! ```text
//! cargo run --release --example sweep -- \
//!     grid=quick seed=42 workers=8 trace-workers=8 out=target/sweep.json
//! ```
//!
//! Arguments (all optional, `key=value`):
//! * `grid`    — `point` (default) or `quick`;
//! * `seed`    — master seed (default 42);
//! * `workers` — sweep worker threads (default: available cores, max 16);
//! * `trace-workers` — threads inside each trace generation (default:
//!   same as `workers`; the trace bytes are identical either way);
//! * `out`     — JSON output path (default `target/sweep.json`).

use consume_local::prelude::*;

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")).map(str::to_string))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grid = match arg(&args, "grid").as_deref() {
        None | Some("point") => SweepGrid::paper_point(),
        Some("quick") => SweepGrid::ci_quick(),
        Some(other) => return Err(format!("unknown grid `{other}`").into()),
    };
    let mut config = SweepConfig {
        grid,
        ..Default::default()
    };
    if let Some(seed) = arg(&args, "seed") {
        config.seed = seed.parse()?;
    }
    if let Some(workers) = arg(&args, "workers") {
        config.workers = workers.parse()?;
    }
    if let Some(trace_workers) = arg(&args, "trace-workers") {
        config.trace_workers = Some(trace_workers.parse()?);
    }
    let out_path = arg(&args, "out").unwrap_or_else(|| "target/sweep.json".into());

    let runner = SweepRunner::new(config)?;
    println!("sweeping {} scenarios…", runner.scenarios().len());
    let report = runner.run();

    println!(
        "{:<52} {:>9} {:>9} {:>10}",
        "scenario", "savings", "offload", "wall"
    );
    for o in &report.outcomes {
        println!(
            "{:<52} {:>8.1}% {:>8.1}% {:>8.0}ms",
            o.scenario.id(),
            o.savings_valancius.unwrap_or(0.0) * 100.0,
            o.offload_share * 100.0,
            o.wall_ms
        );
    }
    if let Some(summary) = report.summary() {
        println!(
            "summary: mean savings {:.1}% (min {:.1}%, max {:.1}%), total wall {:.1} s",
            summary.savings.mean * 100.0,
            summary.savings.min * 100.0,
            summary.savings.max * 100.0,
            summary.total_wall_ms / 1e3
        );
        println!(
            "best scenario: {}",
            report.outcomes[summary.best_savings_index].scenario.id()
        );
    }
    let (generate, columnarize, simulate) = report.phase_wall_ms();
    println!(
        "phases: generate {generate:.0} ms ({} trace{} at {} workers) + columnarize \
         {columnarize:.0} ms + simulate {simulate:.0} ms",
        report.trace_builds.len(),
        if report.trace_builds.len() == 1 {
            ""
        } else {
            "s"
        },
        report.trace_workers
    );

    consume_local::export::write_text(&out_path, &report.to_json().render())?;
    println!("wrote {out_path}");
    Ok(())
}
