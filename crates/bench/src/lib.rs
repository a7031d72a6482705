//! Shared plumbing for the figure-regeneration benches.
//!
//! Every bench under `benches/` does two jobs:
//!
//! 1. **Regenerate** its table/figure: print the paper-shaped rows/series to
//!    stdout and drop machine-readable CSVs under
//!    `target/paper-figures/` for external plotting;
//! 2. **Benchmark** the computational kernel behind it with Criterion.
//!
//! The workload scale for the trace-driven figures defaults to 5 % of
//! September-2013 London and can be overridden with `CL_BENCH_SCALE`
//! (e.g. `CL_BENCH_SCALE=0.25 cargo bench -p consume-local-bench`).
//!
//! End-to-end engine performance is measured by the layered benchmark
//! under `perfbench/`; the Criterion timings here cover each figure's
//! kernel only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use consume_local::experiment::Experiment;

/// The workload scale for trace-driven benches (`CL_BENCH_SCALE`, default
/// 0.05).
pub fn bench_scale() -> f64 {
    std::env::var("CL_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(0.05)
}

/// The shared full-catalogue experiment all distribution figures draw from.
///
/// # Panics
///
/// Panics if the experiment cannot be built (static configuration, so only
/// on programmer error).
pub fn shared_experiment() -> Experiment {
    Experiment::builder()
        .scale(bench_scale())
        .seed(2013)
        .build()
        .expect("bench experiment config is valid")
}

/// Output directory for the regenerated figure data: the *workspace*
/// `target/paper-figures/`, regardless of the bench binary's working
/// directory.
pub fn figures_dir() -> PathBuf {
    // crates/bench/ → workspace root.
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("paper-figures")
}

/// Writes one CSV artefact and reports where it went.
pub fn save_csv(name: &str, csv: &str) {
    let path = figures_dir().join(name);
    match consume_local::export::write_csv(&path, csv) {
        Ok(()) => println!("  [csv] {}", path.display()),
        Err(e) => eprintln!("  [csv] failed to write {}: {e}", path.display()),
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
