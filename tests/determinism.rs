//! Determinism suite: the trace generator, the simulation engine and the
//! sweep runner must produce bit-identical results regardless of how many
//! worker threads the work is sharded across, and identical sweep JSON
//! across repeated runs with a fixed seed.

use consume_local::prelude::*;
use consume_local::sim::online::faults::batch_schedule;
use consume_local::sweep::{SweepConfig, SweepGrid, SweepRunner};
use consume_local::trace::time::SECS_PER_DAY;
use consume_local::trace::{SessionRecord, SessionStore};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn shared_trace() -> Trace {
    TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0005).unwrap(), 99)
        .generate()
        .unwrap()
}

#[test]
fn parallel_trace_generation_bit_identical_to_serial() {
    let config = TraceConfig::london_sep2013().scaled(0.0005).unwrap();
    let reference = TraceGenerator::new(config.clone(), 99).generate().unwrap();
    assert!(!reference.sessions().is_empty());
    for &workers in &THREAD_COUNTS[1..] {
        let parallel = TraceGenerator::new(config.clone(), 99)
            .workers(workers)
            .generate()
            .unwrap();
        assert_eq!(
            reference.sessions(),
            parallel.sessions(),
            "trace must not depend on {workers} generation workers"
        );
        assert_eq!(reference.catalogue(), parallel.catalogue());
        assert_eq!(reference.population(), parallel.population());
    }
}

#[test]
fn parallel_merge_bit_identical_on_small_preset() {
    // The merge phase (hour-bucketed scatter + per-bucket sorts) fans its
    // bucket sorts across workers: the small preset at every worker count
    // must reproduce the serial trace byte for byte — both through the
    // public merge entry point and through the full generator.
    use consume_local::trace::merge_session_batches;

    let config = ScalePreset::Small.apply(TraceConfig::london_sep2013());
    let reference = TraceGenerator::new(config.clone(), 2018)
        .generate()
        .unwrap();
    assert!(!reference.sessions().is_empty());

    let mut per_item: Vec<Vec<SessionRecord>> = vec![Vec::new(); reference.catalogue().len()];
    for s in reference.sessions() {
        per_item[s.content.0 as usize].push(*s);
    }
    for &workers in &THREAD_COUNTS {
        assert_eq!(
            merge_session_batches(&per_item, workers).as_slice(),
            reference.sessions(),
            "merge must not depend on {workers} workers"
        );
        let generated = TraceGenerator::new(config.clone(), 2018)
            .workers(workers)
            .generate()
            .unwrap();
        assert_eq!(
            generated.sessions(),
            reference.sessions(),
            "generated trace must not depend on {workers} workers"
        );
    }
}

#[test]
fn engine_on_shared_store_matches_per_run_columnarisation() {
    let trace = shared_trace();
    let store = SessionStore::from_trace(&trace);
    let sim = Simulator::new(SimConfig::default());
    let from_trace = sim.simulate(&trace);
    let from_store = sim.simulate(&store);
    assert_eq!(from_trace, from_store);
}

#[test]
fn simulator_reports_bit_identical_across_thread_counts() {
    let trace = shared_trace();
    for matcher in [MatcherKind::Hierarchical, MatcherKind::Random] {
        let reference = Simulator::new(SimConfig {
            threads: THREAD_COUNTS[0],
            matcher,
            ..Default::default()
        })
        .simulate(&trace);
        reference.check_conservation().unwrap();
        assert!(reference.total.demand_bytes > 0);
        for threads in &THREAD_COUNTS[1..] {
            let report = Simulator::new(SimConfig {
                threads: *threads,
                matcher,
                ..Default::default()
            })
            .simulate(&trace);
            assert_eq!(
                reference, report,
                "{matcher:?} report must not depend on thread count {threads}"
            );
        }
    }
}

#[test]
fn head_heavy_month_bit_identical_across_threads_and_schedules() {
    use consume_local::trace::ContentId;

    // Four of every five sessions re-pointed at item 0 under content-only
    // swarms: one swarm holds most of the month, the shape the engine's
    // cost-cut fan-out gives a chunk of its own.
    let trace = shared_trace();
    let mut records = trace.sessions().to_vec();
    for (i, record) in records.iter_mut().enumerate() {
        if i % 5 != 0 {
            record.content = ContentId(0);
        }
    }
    let store =
        SessionStore::from_records(&records, trace.horizon_seconds(), trace.population().len());
    let config = |threads| SimConfig {
        threads,
        policy: SwarmPolicy::content_only(),
        ..Default::default()
    };
    let reference = Simulator::new(config(THREAD_COUNTS[0])).simulate(&store);
    reference.check_conservation().unwrap();
    let head = reference.swarms.iter().map(|s| s.sessions).max().unwrap();
    assert!(
        head * 2 > store.len() as u64,
        "the head swarm must hold most sessions: {head} of {}",
        store.len()
    );
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            reference,
            Simulator::new(config(threads)).simulate(&store),
            "monolithic store at {threads} threads"
        );
    }
    for (schedule, tick) in [("daily", 86_400), ("hourly", 3_600)] {
        let batches = batch_schedule(&store, tick);
        for &threads in &THREAD_COUNTS {
            let sim = Simulator::new(config(threads));
            let mut run = sim.begin(store.horizon_secs(), store.population_len());
            for (batch, watermark) in &batches {
                run.push_batch(batch, *watermark);
            }
            assert_eq!(
                reference,
                run.finish(),
                "{schedule} batches at {threads} threads must match the monolithic store"
            );
        }
    }
}

#[test]
fn sweep_runner_identical_across_worker_counts() {
    let run_with = |workers: usize| {
        SweepRunner::new(SweepConfig {
            grid: SweepGrid::ci_quick(),
            seed: 77,
            workers,
            sim_threads: 1,
            trace_workers: Some(workers),
        })
        .unwrap()
        .run()
    };
    let reference = run_with(THREAD_COUNTS[0]);
    let reference_json = reference.to_json_deterministic().render();
    for &workers in &THREAD_COUNTS[1..] {
        let report = run_with(workers);
        // Whole outcomes match except wall-times, which are measurements.
        for (a, b) in reference.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.demand_bytes, b.demand_bytes);
            assert_eq!(a.peer_bytes_by_layer, b.peer_bytes_by_layer);
            assert_eq!(a.server_bytes, b.server_bytes);
            assert_eq!(a.savings_valancius, b.savings_valancius);
            assert_eq!(a.savings_baliga, b.savings_baliga);
        }
        assert_eq!(
            reference_json,
            report.to_json_deterministic().render(),
            "sweep JSON must not depend on worker count {workers}"
        );
    }
}

#[test]
fn sweep_json_byte_identical_across_runs_with_fixed_seed() {
    let run = || {
        SweepRunner::new(SweepConfig {
            grid: SweepGrid::ci_quick(),
            seed: 2018,
            workers: 4,
            sim_threads: 2,
            trace_workers: None,
        })
        .unwrap()
        .run()
        .to_json_deterministic()
        .render()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.contains("consume-local/sweep-v1"));
}

#[test]
fn sim_threads_inside_sweep_do_not_change_results() {
    let run_with = |sim_threads: usize| {
        SweepRunner::new(SweepConfig {
            grid: SweepGrid::paper_point(),
            seed: 5,
            workers: 2,
            sim_threads,
            trace_workers: None,
        })
        .unwrap()
        .run()
        .to_json_deterministic()
        .render()
    };
    assert_eq!(run_with(1), run_with(8));
}

#[test]
fn segmented_trace_generation_bit_identical_to_monolithic() {
    // The segmented emitter draws from the same persistent per-item
    // streams as the monolithic day loop, so the concatenated segments
    // must be byte-identical to the generated trace — at every worker
    // count.
    let config = TraceConfig::london_sep2013().scaled(0.0005).unwrap();
    let reference = TraceGenerator::new(config.clone(), 99).generate().unwrap();
    for &workers in &THREAD_COUNTS {
        let generator = TraceGenerator::new(config.clone(), 99).workers(workers);
        assert_eq!(
            segment_records(&generator).as_slice(),
            reference.sessions(),
            "segmented emit must not depend on {workers} workers"
        );
    }
}

/// Every record of `generator`'s day stream, in emission order.
fn segment_records(generator: &TraceGenerator) -> Vec<SessionRecord> {
    let mut stream = generator.segments().unwrap();
    std::iter::from_fn(|| stream.next_segment())
        .flat_map(|segment| segment.to_records())
        .collect()
}

/// `store` pushed through one run as the online producer's daily batches.
fn simulate_by_day(sim: &Simulator, store: &SessionStore) -> SimReport {
    let mut run = sim.begin(store.horizon_secs(), store.population_len());
    for (batch, watermark) in batch_schedule(store, SECS_PER_DAY) {
        run.push_batch(&batch, watermark);
    }
    run.finish()
}

#[test]
fn segmented_engine_bit_identical_across_thread_counts_and_to_monolithic() {
    let store = SessionStore::from_trace(&shared_trace());
    for matcher in [MatcherKind::Hierarchical, MatcherKind::Random] {
        let reference = Simulator::new(SimConfig {
            threads: THREAD_COUNTS[0],
            matcher,
            ..Default::default()
        })
        .simulate(&store);
        for &threads in &THREAD_COUNTS {
            let sim = Simulator::new(SimConfig {
                threads,
                matcher,
                ..Default::default()
            });
            let report = simulate_by_day(&sim, &store);
            assert_eq!(
                reference, report,
                "{matcher:?} segmented report must match monolithic at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_user_scatter_bit_identical_across_thread_counts() {
    // Each push's chunks list the bytes of the sessions their machines
    // retired, and the lists fold into the run's per-user totals after
    // the parallel pass; `SimConfig::threads` decides which chunk lists a
    // session. The per-user vectors — and with them the whole report —
    // must be byte-identical at 1/2/8 workers.
    let trace = shared_trace();
    let store = SessionStore::from_trace(&trace);
    let reference = Simulator::new(SimConfig {
        threads: THREAD_COUNTS[0],
        ..Default::default()
    })
    .simulate(&store);
    assert!(reference.users.iter().any(|u| u.uploaded_bytes > 0));
    for &threads in &THREAD_COUNTS[1..] {
        let report = Simulator::new(SimConfig {
            threads,
            ..Default::default()
        })
        .simulate(&store);
        assert_eq!(
            reference.users, report.users,
            "per-user totals must not depend on {threads} workers"
        );
        assert_eq!(reference, report);
    }
}

/// A scaled config with every churn feature on: fragmentation, rejoins and
/// a flash-crowd day. Used to pin worker-count and path identity *with*
/// the fault-injection layer active.
fn churned_config() -> TraceConfig {
    use consume_local::trace::{ChurnConfig, FlashCrowd};
    let mut config = TraceConfig::london_sep2013().scaled(0.0005).unwrap();
    config.churn = ChurnConfig {
        departure_rate_per_hour: 2.0,
        rejoin_probability: 0.6,
        mean_rejoin_delay_secs: 900.0,
        flash_crowds: vec![FlashCrowd {
            day: 10,
            multiplier: 2.5,
        }],
    };
    config
}

#[test]
fn churned_trace_bit_identical_across_workers_and_paths() {
    let config = churned_config();
    let reference = TraceGenerator::new(config.clone(), 99).generate().unwrap();
    assert!(!reference.sessions().is_empty());
    // Fragmentation actually happened: more records than the churn-off run.
    let baseline = shared_trace();
    assert!(reference.sessions().len() > baseline.sessions().len());
    for &workers in &THREAD_COUNTS {
        let parallel = TraceGenerator::new(config.clone(), 99)
            .workers(workers)
            .generate()
            .unwrap();
        assert_eq!(
            reference.sessions(),
            parallel.sessions(),
            "churned trace must not depend on {workers} workers"
        );
        let generator = TraceGenerator::new(config.clone(), 99).workers(workers);
        assert_eq!(
            segment_records(&generator).as_slice(),
            reference.sessions(),
            "churned segmented emit must match monolithic at {workers} workers"
        );
    }
}

#[test]
fn churned_engine_bit_identical_across_threads_segments_and_online() {
    use consume_local::sim::online::{replay, ReplayConfig};

    let trace = TraceGenerator::new(churned_config(), 99)
        .generate()
        .unwrap();
    let store = SessionStore::from_trace(&trace);
    let config = SimConfig {
        cooperation_rate: 0.7,
        ..Default::default()
    };
    let reference = Simulator::new(SimConfig {
        threads: THREAD_COUNTS[0],
        ..config.clone()
    })
    .simulate(&store);
    reference.check_conservation().unwrap();
    // Defection actually bit: the degradation metrics are live.
    assert!(reference.degradation.failed_transfer_bytes > 0);
    assert!(reference.offload_loss().unwrap() > 0.0);
    for &threads in &THREAD_COUNTS {
        let sim = Simulator::new(SimConfig {
            threads,
            ..config.clone()
        });
        assert_eq!(
            reference,
            sim.simulate(&store),
            "churned report must not depend on {threads} threads"
        );
        assert_eq!(
            reference,
            simulate_by_day(&sim, &store),
            "churned segmented report must match monolithic at {threads} threads"
        );
    }
    // The live online path sees the same sessions and must agree too.
    let sim = Simulator::new(config);
    let (online_report, stats) = replay(&sim, &store, &ReplayConfig::default());
    assert_eq!(reference, online_report);
    assert_eq!(stats.events, store.len() as u64);
}

/// FNV-1a 64-bit over `bytes` — a stable, toolchain-independent digest for
/// the seed-report byte-identity pins below.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every session record of a trace, in order.
fn digest_sessions(trace: &Trace) -> u64 {
    use std::fmt::Write;
    let mut s = String::new();
    for r in trace.sessions() {
        write!(s, "{r:?};").unwrap();
    }
    fnv1a(s.as_bytes())
}

/// Digest of the fields a [`SimReport`] carried before the churn layer was
/// added. Deliberately enumerates fields instead of using the struct's
/// `Debug` output so that *adding* report fields (degradation metrics)
/// cannot disturb the pin — only changes to pre-existing numbers can.
fn digest_report_seed_fields(report: &SimReport) -> u64 {
    use std::fmt::Write;
    let mut t = String::new();
    write!(t, "{}|{}|", report.horizon_secs, report.window_secs).unwrap();
    for sw in &report.swarms {
        write!(
            t,
            "{};{:?};{};{:?};{:?};{:?};",
            sw.key, sw.ledger, sw.sessions, sw.capacity, sw.time_avg_capacity, sw.upload_ratio
        )
        .unwrap();
        for d in &sw.daily {
            write!(t, "{},{:?},{};", d.day, d.capacity, d.demand_bytes).unwrap();
        }
    }
    for u in &report.users {
        write!(t, "{}.{};", u.watched_bytes, u.uploaded_bytes).unwrap();
    }
    for c in &report.daily {
        write!(t, "{}|{:?}|{:?};", c.day, c.isp, c.ledger).unwrap();
    }
    write!(t, "{:?}|{:?}", report.total, report.warnings).unwrap();
    fnv1a(t.as_bytes())
}

/// Digests captured from the tree immediately before the churn layer
/// landed. With `ChurnConfig::default()` (churn disabled) both the trace
/// and the default-config report must stay byte-identical to the seed.
const SEED_TRACE_DIGEST: u64 = 0x3db6_4181_f164_412b;
const SEED_REPORT_DIGEST: u64 = 0x1389_1be1_d42e_37d0;

#[test]
fn churn_off_trace_and_report_match_seed_pin() {
    let trace = shared_trace();
    assert_eq!(
        digest_sessions(&trace),
        SEED_TRACE_DIGEST,
        "churn-off trace drifted from the pre-churn seed"
    );
    let store = SessionStore::from_trace(&trace);
    let report = Simulator::new(SimConfig::default()).simulate(&store);
    assert_eq!(
        digest_report_seed_fields(&report),
        SEED_REPORT_DIGEST,
        "churn-off report drifted from the pre-churn seed"
    );
}

/// Digests captured from the tree immediately before the metro-scale
/// changes (sort-key re-pack, swarm-state spill, sharding) landed: the
/// Medium-preset trace (seed 2018, 8 generation workers) and its
/// default-policy report (8 threads) must stay byte-identical through them.
const MEDIUM_TRACE_DIGEST: u64 = 0xa606_17ee_7689_9716;
const MEDIUM_REPORT_DIGEST: u64 = 0x0267_b6ff_ac7e_632b;

#[test]
fn medium_trace_and_report_match_pre_metro_pin() {
    let config = ScalePreset::Medium.apply(TraceConfig::london_sep2013());
    let trace = TraceGenerator::new(config, 2018)
        .workers(8)
        .generate()
        .unwrap();
    assert_eq!(trace.sessions().len(), 117_705);
    assert_eq!(
        digest_sessions(&trace),
        MEDIUM_TRACE_DIGEST,
        "medium trace drifted from the pre-metro pin"
    );
    let store = SessionStore::from_trace(&trace);
    let report = Simulator::new(SimConfig {
        threads: 8,
        ..Default::default()
    })
    .simulate(&store);
    assert_eq!(
        digest_report_seed_fields(&report),
        MEDIUM_REPORT_DIGEST,
        "medium report drifted from the pre-metro pin"
    );
}

#[test]
fn metro_sharded_runs_byte_identical_to_union_at_every_thread_count() {
    use consume_local::trace::metro::{MetroConfig, MetroTrace};

    let metro = MetroTrace::new(
        MetroConfig::five_city()
            .with_cities(3)
            .city_scaled(0.0005)
            .unwrap(),
        2018,
    )
    .unwrap();
    let reference = Simulator::new(SimConfig {
        threads: THREAD_COUNTS[0],
        ..Default::default()
    })
    .simulate(&mut metro.stream().unwrap());
    reference.check_conservation().unwrap();
    assert!(reference.warnings.is_empty(), "metro presets must not warn");
    for &threads in &THREAD_COUNTS {
        let sim = Simulator::new(SimConfig {
            threads,
            ..Default::default()
        });
        assert_eq!(
            reference,
            sim.simulate(&mut metro.stream().unwrap()),
            "metro union run must not depend on {threads} threads"
        );
        let sharded = sim
            .simulate_sharded(metro.shard_streams().unwrap().iter_mut().map(|s| &mut *s))
            .unwrap();
        assert_eq!(
            reference, sharded,
            "sharded metro run must match the union at {threads} threads"
        );
    }
}

#[test]
fn ten_million_user_shapes_stay_on_the_fast_path() {
    use consume_local::topology::ExchangeId;
    use consume_local::trace::device::DeviceClass;
    use consume_local::trace::generator::{
        merge_session_batches, merge_session_batches_wide, sort_key_fallback_required,
    };
    use consume_local::trace::metro::MetroConfig;
    use consume_local::trace::time::SimTime;
    use consume_local::trace::{ContentId, UserId};

    // The 10 M-user preset's measured maxima fit the compact 64-bit key:
    // the wide record-sort fallback is retired for this shape.
    let metro = MetroConfig::ten_million();
    assert!(metro.users() > 10_000_000);
    let (max_start, max_user, max_content) = metro.sort_key_maxima();
    assert!(!sort_key_fallback_required((
        max_start,
        max_user,
        max_content
    )));

    // Doctored sessions pinned at the preset maxima: the compact merge and
    // the forced-wide legacy path must agree byte for byte, and the engine
    // must emit no SortKeyFallback warning.
    let topology = IspTopology::london_table3().unwrap();
    let rec = |start: u64, user: u32, content: u32| SessionRecord {
        user: UserId(user),
        content: ContentId(content),
        start: SimTime(start),
        duration_secs: 60,
        device: DeviceClass::Desktop,
        isp: IspId(0),
        location: topology.location_of(ExchangeId(0)),
    };
    let records = vec![
        rec(max_start, max_user, max_content),
        rec(max_start, 0, 1),
        rec(0, max_user, 0),
        rec(0, 1, max_content),
        rec(12_345, 10_000_001, 7),
        rec(12_345, 10_000_001, 3),
    ];
    let (a, b) = records.split_at(records.len() / 2);
    let batches = [a.to_vec(), b.to_vec()];
    for &workers in &THREAD_COUNTS {
        let merged = merge_session_batches(&batches, workers);
        assert_eq!(
            merge_session_batches_wide(&batches, workers),
            merged,
            "forced-wide sort must match the compact path at {workers} workers"
        );
    }
    let store = SessionStore::from_records(&records, max_start + 1, max_user as usize + 1);
    let report = Simulator::new(SimConfig::default()).simulate(&store);
    assert!(
        report.warnings.is_empty(),
        "10 M-user shape must not warn: {:?}",
        report.warnings
    );
}
