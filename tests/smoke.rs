//! Tiny end-to-end smoke test: the full trace → simulation → report →
//! energy/carbon pipeline at ~100 users, so `cargo test -q` exercises the
//! whole `Experiment` orchestration path and not only the per-crate units
//! (the larger-scale runs live in `pipeline.rs` and `examples/paper.rs`).

use consume_local::carbon::CreditReport;
use consume_local::prelude::*;

/// ~100 users: 0.00003 × the 3.6 M-user September-2013 London population.
const SMOKE_SCALE: f64 = 0.00003;

#[test]
fn experiment_runs_end_to_end_at_tiny_scale() {
    let exp = Experiment::builder()
        .scale(SMOKE_SCALE)
        .seed(2018)
        .build()
        .expect("tiny smoke config is valid");

    // The generated world is the expected size.
    let users = exp.trace().population().len();
    assert!(
        (80..=140).contains(&users),
        "expected ~108 users at scale {SMOKE_SCALE}, got {users}"
    );
    assert!(
        !exp.trace().sessions().is_empty(),
        "smoke trace must contain sessions"
    );

    // The simulation accounted every byte.
    let report = exp.report();
    report
        .check_conservation()
        .expect("bytes conserve at smoke scale");
    assert!(report.total.demand_bytes > 0);

    // Both published energy models price the run to a sane savings share.
    for params in EnergyParams::published() {
        let savings = report.total_savings(&params).expect("demand is non-zero");
        assert!(
            (0.0..1.0).contains(&savings),
            "savings {savings} out of range for {}",
            params.name()
        );
    }

    // Per-user carbon statements cover exactly the active population.
    let params = EnergyParams::valancius();
    let credits = CreditReport::from_traffic(
        report
            .active_users()
            .map(|(_, t)| (t.watched_bytes, t.uploaded_bytes)),
        &params,
    );
    assert_eq!(credits.users(), report.active_users().count() as u64);
    assert_eq!(
        credits.users(),
        credits.carbon_positive() + credits.carbon_neutral() + credits.carbon_negative()
    );
}

#[test]
fn smoke_experiment_is_deterministic_and_reconfigurable() {
    let a = Experiment::builder()
        .scale(SMOKE_SCALE)
        .seed(5)
        .build()
        .unwrap();
    let b = Experiment::builder()
        .scale(SMOKE_SCALE)
        .seed(5)
        .build()
        .unwrap();
    assert_eq!(a.report(), b.report(), "same seed, same world, same report");

    // Re-simulating the same trace with a halved upload ratio never offloads
    // more than the original run.
    let half = a
        .resimulate(SimConfig::with_ratio(0.5))
        .expect("resimulation with a valid config succeeds");
    half.check_conservation()
        .expect("resimulated bytes conserve");
    assert!(half.total.offload_share() <= a.report().total.offload_share() + 1e-12);
}
