//! Ablation invariants: each design choice the evaluation rests on —
//! ISP-friendly and bitrate-split swarms, closest-first matching, the
//! window length, the upload model and the diurnal arrival profile — must
//! move results in the direction the paper argues.

use consume_local::prelude::*;

fn base_experiment() -> Experiment {
    Experiment::builder().scale(0.002).seed(29).build().unwrap()
}

#[test]
fn isp_friendly_swarming_is_a_lower_bound() {
    // The paper: restricting swarms to one ISP "can provide a lower bound on
    // achievable savings". Cross-ISP matching must offload at least as much.
    let exp = base_experiment();
    let mut cross = exp.sim_config().clone();
    cross.policy = SwarmPolicy::cross_isp();
    let cross_report = exp.resimulate(cross).unwrap();
    assert!(
        cross_report.total.offload_share() >= exp.report().total.offload_share(),
        "cross-ISP offload {} < ISP-friendly {}",
        cross_report.total.offload_share(),
        exp.report().total.offload_share()
    );
}

#[test]
fn bitrate_split_costs_offload() {
    let exp = base_experiment();
    let mut mixed = exp.sim_config().clone();
    mixed.policy = SwarmPolicy::mixed_bitrate();
    let mixed_report = exp.resimulate(mixed).unwrap();
    assert!(
        mixed_report.total.offload_share() >= exp.report().total.offload_share(),
        "merging bitrate classes cannot reduce sharing opportunities"
    );
}

#[test]
fn random_matching_wastes_locality_not_volume() {
    let exp = base_experiment();
    let mut random = exp.sim_config().clone();
    random.matcher = MatcherKind::Random;
    let random_report = exp.resimulate(random).unwrap();
    // Same transfer volume...
    assert_eq!(
        random_report.total.peer_bytes(),
        exp.report().total.peer_bytes()
    );
    // ...but less of it local, so no more energy saved.
    assert!(
        random_report.total.peer_bytes_by_layer[0] <= exp.report().total.peer_bytes_by_layer[0]
    );
    for params in EnergyParams::published() {
        let hier = exp.report().total_savings(&params).unwrap();
        let rand = random_report.total_savings(&params).unwrap();
        assert!(
            rand <= hier + 1e-12,
            "{}: random {rand} vs hierarchical {hier}",
            params.name()
        );
    }
}

#[test]
fn window_size_is_a_second_order_effect() {
    // Δτ ∈ {5 s, 10 s, 60 s} changes quantisation, not the physics: savings
    // move by at most a couple of points.
    let exp = base_experiment();
    let savings_at = |window: u64| -> f64 {
        let mut cfg = exp.sim_config().clone();
        cfg.window_secs = window;
        exp.resimulate(cfg)
            .unwrap()
            .total_savings(&EnergyParams::valancius())
            .unwrap()
    };
    let s5 = savings_at(5);
    let s10 = savings_at(10);
    let s60 = savings_at(60);
    assert!((s5 - s10).abs() < 0.02, "Δτ=5 {s5} vs Δτ=10 {s10}");
    assert!((s60 - s10).abs() < 0.03, "Δτ=60 {s60} vs Δτ=10 {s10}");
}

#[test]
fn absolute_upload_model_matches_equivalent_ratio() {
    // A 1.5 Mb/s swarm under AbsoluteBps(1.5 Mb/s) behaves like Ratio(1.0).
    let exp = base_experiment();
    let mut abs = exp.sim_config().clone();
    abs.upload = UploadModel::AbsoluteBps(10_000_000); // ≥ every bitrate ⇒ ratio capped at 1
    let abs_report = exp.resimulate(abs).unwrap();
    let base_offload = exp.report().total.offload_share();
    let abs_offload = abs_report.total.offload_share();
    assert!(
        abs_offload >= base_offload - 1e-9,
        "ample absolute uplink ({abs_offload}) must offload at least as much as ratio 1 ({base_offload})"
    );
}

#[test]
fn flat_diurnal_profile_reduces_prime_time_swarming() {
    // The evening peak concentrates viewers; flattening it spreads the same
    // demand thin and lowers sharing.
    let mut config = TraceConfig::london_sep2013().scaled(0.002).unwrap();
    let peaked = TraceGenerator::new(config.clone(), 40).generate().unwrap();
    config.diurnal = consume_local::trace::arrival::DiurnalProfile::flat();
    let flat = TraceGenerator::new(config, 40).generate().unwrap();
    let sim = Simulator::new(SimConfig::default());
    let peaked_offload = sim.simulate(&peaked).total.offload_share();
    let flat_offload = sim.simulate(&flat).total.offload_share();
    assert!(
        peaked_offload > flat_offload,
        "prime-time concentration must increase sharing: {peaked_offload} vs {flat_offload}"
    );
}
