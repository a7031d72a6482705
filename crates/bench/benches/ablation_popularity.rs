//! Ablation A5 — popularity calibration: how much the aggregate savings
//! depend on demand concentration. This is the single biggest lever behind
//! the paper's full-scale headline numbers (see the scaling note on
//! `TraceConfig::catalogue_size`):
//! the same engine under a flatter single-Zipf catalogue produces far less
//! sharing than the catch-up-TV broken power law.

use criterion::{criterion_group, criterion_main, Criterion};

use consume_local::prelude::*;
use consume_local::trace::Popularity;
use consume_local_bench::{bench_scale, pct, save_csv};

fn run(popularity: Popularity, label: &str, csv: &mut String) {
    let mut config = TraceConfig::london_sep2013()
        .scaled(bench_scale())
        .expect("valid scale");
    config.popularity = popularity;
    let trace = TraceGenerator::new(config, 2013)
        .generate()
        .expect("valid config");
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    let v = report
        .total_savings(&EnergyParams::valancius())
        .unwrap_or(0.0);
    let b = report.total_savings(&EnergyParams::baliga()).unwrap_or(0.0);
    println!(
        "{label:>28}: offload {} | savings V {} B {}",
        pct(report.total.offload_share()),
        pct(v),
        pct(b)
    );
    csv.push_str(&format!(
        "{label},{},{v},{b}\n",
        report.total.offload_share()
    ));
}

fn regenerate() {
    println!(
        "\n=== Ablation A5: demand concentration (scale {}) ===",
        bench_scale()
    );
    let mut csv = String::from("popularity,offload,valancius,baliga\n");
    run(
        Popularity::Zipf { exponent: 0.55 },
        "single Zipf s=0.55",
        &mut csv,
    );
    run(
        Popularity::Zipf { exponent: 0.8 },
        "single Zipf s=0.80",
        &mut csv,
    );
    run(
        Popularity::catchup_tv(),
        "broken power law (default)",
        &mut csv,
    );
    run(
        Popularity::BrokenZipf {
            head_exponent: 0.3,
            tail_exponent: 1.4,
            break_fraction: 0.03,
        },
        "heavier head",
        &mut csv,
    );
    save_csv("ablation_popularity.csv", &csv);
    println!("aggregate savings track how much traffic sits in high-capacity head swarms;");
    println!("reproducing the paper's 30%/18% headline requires the real trace's (not");
    println!("public) demand concentration — see the scaling note on");
    println!("TraceConfig::catalogue_size.");
}

fn benches(c: &mut Criterion) {
    regenerate();
    // Kernel: popularity weight construction for a full-size catalogue.
    c.bench_function("popularity/weights_24000", |b| {
        b.iter(|| Popularity::catchup_tv().weights(24_000))
    });
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(group);
