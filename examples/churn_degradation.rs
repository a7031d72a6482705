//! Churn & defection degradation curves.
//!
//! Sweeps the paper point across the robustness axes — churn departure rate
//! (sessions fragmented into availability intervals) and cooperation
//! probability (peers silently defecting per window) — and reports how the
//! energy savings and peer offload degrade. Writes the full
//! `consume-local/sweep-v1` JSON document and exits non-zero if degradation
//! is not sane (a churned or defecting system must never beat the healthy
//! baseline).
//!
//! ```text
//! cargo run --release --example churn_degradation -- \
//!     preset=small seed=42 workers=8 out=target/churn_degradation.json
//! ```
//!
//! Arguments (all optional, `key=value`):
//! * `preset`  — workload scale: `smoke` (default), `small`, `medium`;
//! * `seed`    — master seed (default 42);
//! * `workers` — sweep worker threads (default: available cores, max 16);
//! * `quick`   — `1`/`true` for a reduced two-point axis (also enabled by
//!   the `CL_SWEEP_QUICK` environment variable, as in CI);
//! * `out`     — JSON output path (default `target/churn_degradation.json`).

use consume_local::analytics::{DegradationCurve, DegradationPoint};
use consume_local::prelude::*;

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")).map(str::to_string))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = match arg(&args, "preset").as_deref() {
        None | Some("smoke") => ScalePreset::Smoke,
        Some("small") => ScalePreset::Small,
        Some("medium") => ScalePreset::Medium,
        Some(other) => return Err(format!("unknown preset `{other}`").into()),
    };
    let quick = std::env::var("CL_SWEEP_QUICK").is_ok()
        || matches!(
            arg(&args, "quick").as_deref(),
            Some("1") | Some("true") | Some("yes")
        );

    let mut grid = SweepGrid::churn_degradation(preset);
    if quick {
        // Two churn points, no defection axis: one trace per point, fast
        // enough for the CI benchmark job while still pinning the
        // monotone-degradation sanity check below.
        grid.churn_rates = vec![0.0, 0.5];
        grid.cooperation = vec![1.0];
    }
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
    let out_path = arg(&args, "out").unwrap_or_else(|| "target/churn_degradation.json".into());

    let runner = SweepRunner::new(config)?;
    println!(
        "sweeping {} scenarios across churn × cooperation…",
        runner.scenarios().len()
    );
    let report = runner.run();

    // One savings/offload curve over churn rate per cooperation level.
    let mut cooperation_levels: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| o.scenario.cooperation)
        .collect();
    cooperation_levels.dedup();
    cooperation_levels.sort_by(|a, b| b.partial_cmp(a).expect("finite cooperation"));
    cooperation_levels.dedup();

    let mut sane = true;
    for &cooperation in &cooperation_levels {
        let curve = DegradationCurve::new(
            report
                .outcomes
                .iter()
                .filter(|o| o.scenario.cooperation == cooperation)
                .map(|o| DegradationPoint {
                    axis: o.scenario.churn_rate,
                    savings: o.savings_valancius,
                    offload: o.offload_share,
                })
                .collect(),
        );
        println!("cooperation {:.0}%:", cooperation * 100.0);
        println!("  {:>12} {:>9} {:>9}", "churn/hour", "savings", "offload");
        for p in &curve.points {
            println!(
                "  {:>12} {:>8.1}% {:>8.1}%",
                p.axis,
                p.savings.unwrap_or(0.0) * 100.0,
                p.offload * 100.0
            );
        }
        // Sanity: savings at churn 0 must bound every churned point, and
        // offload must not grow with churn (tiny tolerance: fragmentation
        // reshuffles windows, so exact monotonicity is not guaranteed at
        // smoke scale).
        if !curve.savings_bounded_by_baseline(1e-9) {
            eprintln!("FAIL: a churned point beat the churn-free savings baseline");
            sane = false;
        }
        if !curve.offload_monotone_non_increasing(0.02) {
            eprintln!("FAIL: offload grew materially with churn rate");
            sane = false;
        }
    }
    if let Some(full) = report
        .outcomes
        .iter()
        .find(|o| o.scenario.churn_rate == 0.0 && o.scenario.cooperation >= 1.0)
    {
        for o in &report.outcomes {
            if o.scenario.cooperation < 1.0
                && o.scenario.churn_rate == 0.0
                && o.savings_valancius > full.savings_valancius
            {
                eprintln!("FAIL: defection increased savings");
                sane = false;
            }
        }
    }

    consume_local::export::write_text(&out_path, &report.to_json().render())?;
    println!("wrote {out_path}");
    if !sane {
        return Err("degradation sanity check failed".into());
    }
    println!("degradation sane: churned/defecting runs never beat the healthy baseline");
    Ok(())
}
