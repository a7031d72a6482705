//! Regenerates every table and figure of the paper's evaluation, with the
//! ablations and the §VI extensions: prints each exhibit's headline numbers
//! and writes its CSV files under `target/paper-figures/`.
//!
//! ```text
//! cargo run --release --example paper -- preset=smoke
//! ```
//!
//! `preset` scales the trace-driven exhibits: `smoke`, `small`, `medium`,
//! `large` (the default, 5 % of September-2013 London) or `full`. The
//! smoke-scale CSVs are pinned by `consume_local::figures`' tests.

use consume_local::prelude::*;
use consume_local::{export, figures};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut preset = ScalePreset::Large;
    for arg in std::env::args().skip(1) {
        let name = arg
            .strip_prefix("preset=")
            .ok_or_else(|| format!("unknown argument `{arg}`; expected preset=<name>"))?;
        preset = ScalePreset::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown preset `{name}`"))?;
    }
    println!(
        "regenerating the paper's exhibits at preset {preset} (scale {})",
        preset.scale()
    );
    let dir = std::path::Path::new("target/paper-figures");
    for exhibit in figures::paper(preset) {
        println!("\n=== {} ===", exhibit.title);
        for line in &exhibit.lines {
            println!("{line}");
        }
        for (name, csv) in &exhibit.csvs {
            let path = dir.join(name);
            export::write_csv(&path, csv)?;
            println!("  [csv] {}", path.display());
        }
    }
    Ok(())
}
