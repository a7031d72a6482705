//! The engine's unit tests: the entry points end to end, and the fixtures
//! the tests beside the run, the snapshot payload and the row oracle share.

use super::*;
use crate::online::faults::batch_schedule;
use consume_local_energy::EnergyParams;
use consume_local_swarm::{MatcherKind, SwarmPolicy};
use consume_local_topology::{ExchangeId, IspId, IspTopology};
use consume_local_trace::device::DeviceClass;
use consume_local_trace::time::SECS_PER_DAY;
use consume_local_trace::{
    ContentId, SessionRecord, SimTime, Trace, TraceConfig, TraceGenerator, UserId,
};

/// A generated 0.0003-scale London month.
pub(crate) fn tiny_trace() -> Trace {
    TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 11)
        .generate()
        .unwrap()
}

/// A hand-built trace: two users, same ISP/exchange/bitrate, overlapping
/// sessions on one item.
pub(crate) fn pair_trace(offset_secs: u64) -> Trace {
    let base = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0002).unwrap(), 3)
        .generate()
        .unwrap();
    let topo = IspTopology::london_table3().unwrap();
    let loc = topo.location_of(ExchangeId(5));
    let mk = |user: u32, start: u64| SessionRecord {
        user: UserId(user),
        content: ContentId(0),
        start: SimTime(start),
        duration_secs: 600,
        device: DeviceClass::Desktop,
        isp: IspId(0),
        location: loc,
    };
    Trace::from_parts(
        base.config().clone(),
        base.catalogue().clone(),
        base.population().clone(),
        vec![mk(0, 0), mk(1, offset_secs)],
    )
}

#[test]
fn lone_viewer_gets_everything_from_server() {
    let trace = pair_trace(100_000); // sessions never overlap
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    assert_eq!(report.total.peer_bytes(), 0);
    assert_eq!(report.total.server_bytes, report.total.demand_bytes);
    assert_eq!(report.total_savings(&EnergyParams::valancius()), Some(0.0));
    report.check_conservation().unwrap();
}

#[test]
fn overlapping_pair_shares_locally() {
    let trace = pair_trace(0); // full overlap
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    // Each 10 s window: fetcher from server, peer 1 fully from peer 0.
    let demand = report.total.demand_bytes;
    assert_eq!(report.total.peer_bytes(), demand / 2);
    assert_eq!(
        report.total.peer_bytes_by_layer[0],
        demand / 2,
        "all at ExP"
    );
    // User 1 downloaded from peers; user 0 uploaded everything.
    assert_eq!(report.users[0].uploaded_bytes, demand / 2);
    assert_eq!(report.users[1].uploaded_bytes, 0);
    report.check_conservation().unwrap();
}

#[test]
fn partial_overlap_shares_partially() {
    let trace = pair_trace(300); // half overlap
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    let peer = report.total.peer_bytes();
    assert!(peer > 0);
    assert!(peer < report.total.demand_bytes / 2);
    report.check_conservation().unwrap();
}

#[test]
fn upload_ratio_caps_offload() {
    let trace = pair_trace(0);
    let full = Simulator::new(SimConfig::with_ratio(1.0)).simulate(&trace);
    let half = Simulator::new(SimConfig::with_ratio(0.5)).simulate(&trace);
    assert!((half.total.offload_share() / full.total.offload_share() - 0.5).abs() < 0.01);
}

#[test]
fn conservation_on_generated_trace() {
    let trace = tiny_trace();
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    report.check_conservation().unwrap();
    assert!(report.total.demand_bytes > 0);
    let s = report.total_savings(&EnergyParams::valancius()).unwrap();
    assert!((0.0..1.0).contains(&s), "savings {s}");
}

#[test]
fn store_source_matches_trace_source() {
    let trace = tiny_trace();
    let store = SessionStore::from_trace(&trace);
    for matcher in [MatcherKind::Hierarchical, MatcherKind::Random] {
        let cfg = SimConfig {
            matcher,
            ..Default::default()
        };
        let sim = Simulator::new(cfg);
        assert_eq!(
            sim.simulate(&trace),
            sim.simulate(&store),
            "{matcher:?}: prebuilt store must replay identically"
        );
    }
}

/// The grouping's packed sort against a plain map from key to the
/// start-ordered store indices, under every swarm policy preset. Extreme
/// content and ISP ids fill the packed key's fields to the top.
#[test]
fn grouping_equals_a_btreemap_under_every_policy() {
    let trace = tiny_trace();
    let mut records = trace.sessions().to_vec();
    for (i, (content, isp)) in [(u32::MAX, u8::MAX), (u32::MAX, 0), (0, u8::MAX)]
        .into_iter()
        .enumerate()
    {
        records.push(SessionRecord {
            content: ContentId(content),
            isp: IspId(isp),
            ..records[i * 7]
        });
    }
    let store =
        SessionStore::from_records(&records, trace.horizon_seconds(), trace.population().len());
    for policy in [
        SwarmPolicy::paper_default(),
        SwarmPolicy::cross_isp(),
        SwarmPolicy::mixed_bitrate(),
        SwarmPolicy::content_only(),
    ] {
        let mut expected: BTreeMap<SwarmKey, Vec<u32>> = BTreeMap::new();
        for i in 0..store.len() {
            let key = policy.key_parts(
                ContentId(store.content()[i]),
                store.isp()[i],
                store.bitrate_class(i),
            );
            expected.entry(key).or_default().push(i as u32);
        }
        let config = SimConfig {
            policy,
            ..Default::default()
        };
        let (indices, groups) = group_by_swarm(&config, &store);
        let grouped: Vec<(SwarmKey, Vec<u32>)> = groups
            .into_iter()
            .map(|(key, range)| (key, indices[range].to_vec()))
            .collect();
        assert_eq!(
            grouped,
            expected.into_iter().collect::<Vec<_>>(),
            "{policy:?}"
        );
    }
}

#[test]
fn deterministic_across_thread_counts() {
    let trace = tiny_trace();
    let c1 = SimConfig {
        threads: 1,
        ..Default::default()
    };
    let c4 = SimConfig {
        threads: 4,
        ..Default::default()
    };
    let r1 = Simulator::new(c1).simulate(&trace);
    let r4 = Simulator::new(c4).simulate(&trace);
    assert_eq!(r1, r4);
}

#[test]
fn random_matcher_deterministic_and_no_better_locality() {
    let trace = tiny_trace();
    let cfg = SimConfig {
        matcher: MatcherKind::Random,
        ..Default::default()
    };
    let a = Simulator::new(cfg.clone()).simulate(&trace);
    let b = Simulator::new(cfg).simulate(&trace);
    assert_eq!(a, b, "random matcher must be seed-deterministic");
    let hier = Simulator::new(SimConfig::default()).simulate(&trace);
    assert_eq!(hier.total.peer_bytes(), a.total.peer_bytes());
    assert!(
        hier.total.peer_bytes_by_layer[0] >= a.total.peer_bytes_by_layer[0],
        "hierarchical keeps at least as many bytes exchange-local"
    );
    // And that translates into at least as much energy saved.
    let p = EnergyParams::valancius();
    assert!(hier.total_savings(&p).unwrap() >= a.total_savings(&p).unwrap());
}

#[test]
fn capacity_measures_watch_time() {
    let trace = pair_trace(0);
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    let swarm = &report.swarms[0];
    // Time-averaged capacity: two 600 s sessions over the horizon.
    let expected = 2.0 * 600.0 / trace.horizon_seconds() as f64;
    assert!(
        (swarm.time_avg_capacity / expected - 1.0).abs() < 0.02,
        "time-avg capacity {} vs expected {expected}",
        swarm.time_avg_capacity
    );
    // Effective capacity: while active, occupancy is exactly 2, and
    // L̄ = 2 inverts to c ≈ 1.594.
    assert!(
        (swarm.capacity - 1.594).abs() < 0.01,
        "effective capacity {}",
        swarm.capacity
    );
}

#[test]
fn daily_cells_cover_active_days_only() {
    let trace = pair_trace(0); // both sessions on day 0
    let report = Simulator::new(SimConfig::default()).simulate(&trace);
    assert_eq!(report.daily.len(), 1);
    assert_eq!(report.daily[0].day, 0);
    assert_eq!(report.daily[0].isp, Some(IspId(0)));
}

#[test]
#[should_panic(expected = "invalid simulator config")]
fn rejects_invalid_config() {
    let _ = Simulator::new(SimConfig {
        window_secs: 0,
        ..Default::default()
    });
}

#[test]
fn preloading_reduces_sharing_but_conserves() {
    let trace = pair_trace(0);
    let cfg = SimConfig {
        preload_fraction: 0.4,
        ..Default::default()
    };
    let preloaded = Simulator::new(cfg).simulate(&trace);
    preloaded.check_conservation().unwrap();
    let baseline = Simulator::new(SimConfig::default()).simulate(&trace);
    // Same demand, less of it peer-shareable.
    assert_eq!(preloaded.total.demand_bytes, baseline.total.demand_bytes);
    assert!(preloaded.total.preload_bytes > 0);
    assert!(
        (preloaded.total.preload_bytes as f64 / preloaded.total.demand_bytes as f64 - 0.4).abs()
            < 0.01
    );
    assert!(preloaded.total.offload_share() < baseline.total.offload_share());
    // And therefore lower savings: preloading fights peer assistance.
    let p = EnergyParams::valancius();
    assert!(preloaded.total_savings(&p).unwrap() < baseline.total_savings(&p).unwrap());
}

#[test]
fn edge_cache_serves_head_items_locally() {
    let trace = pair_trace(100_000); // no overlap: all bytes are fallback
    let cfg = SimConfig {
        edge_cache: Some(crate::config::EdgeCache { top_items: 1 }),
        ..Default::default()
    };
    let cached = Simulator::new(cfg).simulate(&trace);
    cached.check_conservation().unwrap();
    // The pair trace watches item 0, which is cached: every byte served
    // from the exchange cache, none from the CDN.
    assert_eq!(cached.total.server_bytes, 0);
    assert_eq!(cached.total.cache_bytes, cached.total.demand_bytes);
    // Cache delivery skips the CDN network leg, saving energy even with
    // zero peer sharing.
    let p = EnergyParams::valancius();
    let s = cached.total_savings(&p).unwrap();
    assert!(s > 0.3, "cache-only savings {s}");
    // Uncached tail item would not benefit: compare against no cache.
    let plain = Simulator::new(SimConfig::default()).simulate(&trace);
    assert_eq!(plain.total.cache_bytes, 0);
    assert_eq!(plain.total_savings(&p), Some(0.0));
}

#[test]
fn partial_participation_cuts_offload() {
    let trace = tiny_trace();
    let full = Simulator::new(SimConfig::default()).simulate(&trace);
    let partial = Simulator::new(SimConfig {
        participation_rate: 0.3,
        ..Default::default()
    })
    .simulate(&trace);
    partial.check_conservation().unwrap();
    assert!(
        partial.total.offload_share() < full.total.offload_share(),
        "30% participation must offload less: {} vs {}",
        partial.total.offload_share(),
        full.total.offload_share()
    );
    // Non-participants never upload.
    let mut non_participants_uploading = 0;
    for (uid, t) in partial.active_users() {
        if !super::participates(uid, 0.3) {
            assert_eq!(t.uploaded_bytes, 0, "user {uid} must not upload");
            non_participants_uploading += 1;
        }
    }
    assert!(
        non_participants_uploading > 0,
        "test must cover non-participants"
    );
    // Deterministic membership: same result twice.
    let again = Simulator::new(SimConfig {
        participation_rate: 0.3,
        ..Default::default()
    })
    .simulate(&trace);
    assert_eq!(partial, again);
}

#[test]
fn participation_is_monotone() {
    let trace = tiny_trace();
    let offload_at = |rate: f64| {
        Simulator::new(SimConfig {
            participation_rate: rate,
            ..Default::default()
        })
        .simulate(&trace)
        .total
        .offload_share()
    };
    let lo = offload_at(0.2);
    let mid = offload_at(0.6);
    let hi = offload_at(1.0);
    assert!(
        lo < mid && mid < hi,
        "offload must grow with participation: {lo} {mid} {hi}"
    );
}

#[test]
fn segmented_source_matches_monolithic_store() {
    let trace = tiny_trace();
    let mono = SessionStore::from_trace(&trace);
    // Window lengths that divide a day, don't divide a day, and exceed
    // a day — the segment-boundary pause, with the admissions it makes,
    // must be invisible in all three regimes, across matchers and the
    // active-set knobs.
    let configs = [
        SimConfig::default(),
        SimConfig {
            matcher: MatcherKind::Random,
            window_secs: 7,
            ..Default::default()
        },
        SimConfig {
            preload_fraction: 0.3,
            participation_rate: 0.5,
            edge_cache: Some(crate::config::EdgeCache { top_items: 2 }),
            window_secs: 30,
            ..Default::default()
        },
        SimConfig {
            window_secs: 100_000, // > one segment: windows straddle days
            ..Default::default()
        },
        SimConfig {
            cooperation_rate: 0.6,
            ..Default::default()
        },
    ];
    for cfg in configs {
        let sim = Simulator::new(cfg.clone());
        assert_eq!(
            simulate_by_day(&sim, &mono),
            sim.simulate(&mono),
            "window_secs={}",
            cfg.window_secs
        );
    }
}

#[test]
fn defection_degrades_offload_but_conserves_bytes() {
    let trace = tiny_trace();
    let run = |cooperation: f64| {
        Simulator::new(SimConfig {
            cooperation_rate: cooperation,
            ..Default::default()
        })
        .simulate(&trace)
    };
    let clean = run(1.0);
    assert_eq!(
        clean.degradation,
        Degradation::default(),
        "full cooperation must record zero degradation"
    );
    let faulty = run(0.5);
    faulty.check_conservation().expect("defection conserves");
    let d = faulty.degradation;
    assert!(d.failed_transfer_bytes > 0, "defections must occur");
    assert_eq!(
        d.failed_by_layer.iter().sum::<u64>(),
        d.failed_transfer_bytes
    );
    assert!(d.defection_windows > 0);
    assert!(
        d.failed_demand_bytes > 0,
        "flaking receivers must abandon some window demand to the fallback"
    );
    assert!(faulty.offload_loss().unwrap() > 0.0);
    // Same sessions, same demand — only the byte routing changed.
    assert_eq!(faulty.total.demand_bytes, clean.total.demand_bytes);
    assert!(
        faulty.total.peer_bytes() < clean.total.peer_bytes(),
        "defection must reduce peer-served volume"
    );
    assert!(
        faulty.total.server_bytes > clean.total.server_bytes,
        "failed transfers fall back to the CDN"
    );
    // Upload credits shrink with the failed volume: defectors earn
    // nothing for bytes they never delivered.
    let credited: u64 = faulty.users.iter().map(|u| u.uploaded_bytes).sum();
    let clean_credited: u64 = clean.users.iter().map(|u| u.uploaded_bytes).sum();
    assert!(credited < clean_credited);
}

#[test]
fn trace_stream_matches_monolithic_run() {
    let config = consume_local_trace::TraceConfig::london_sep2013()
        .scaled(0.0003)
        .unwrap();
    let generator = TraceGenerator::new(config, 11);
    let sim = Simulator::new(SimConfig::default());
    let monolithic = sim.simulate(&generator.generate().unwrap());
    let mut stream = generator.segments().unwrap();
    let streamed = sim.simulate(&mut stream);
    assert_eq!(streamed, monolithic);
}

#[test]
fn cache_and_preload_compose() {
    let trace = pair_trace(0);
    let cfg = SimConfig {
        preload_fraction: 0.3,
        edge_cache: Some(crate::config::EdgeCache { top_items: 1 }),
        ..Default::default()
    };
    let report = Simulator::new(cfg).simulate(&trace);
    report.check_conservation().unwrap();
    // Preloaded bytes of cached items are served from the cache.
    assert_eq!(report.total.preload_bytes, 0);
    assert!(report.total.cache_bytes > 0);
    assert!(report.total.peer_bytes() > 0);
}

#[test]
fn sort_key_fallback_surfaces_as_report_warning() {
    let trace = tiny_trace();
    let sim = Simulator::new(SimConfig::default());
    assert!(
        sim.simulate(&trace).warnings.is_empty(),
        "London presets fit the packed sort key"
    );

    // A session at an old single-field bound no longer warns: the
    // dynamic layout absorbs it.
    let mut records = trace.sessions().to_vec();
    let mut at_old_bound = records[0];
    at_old_bound.content = ContentId(1 << 15);
    records.push(at_old_bound);
    let horizon = trace.horizon_seconds();
    let users = trace.population().len();
    let absorbed = SessionStore::from_records(&records, horizon, users);
    assert!(
        sim.simulate(&absorbed).warnings.is_empty(),
        "single old-bound exceedance must stay on the fast path"
    );

    // Jointly pathological maxima trip the warning, which carries the
    // measured maxima and is identical on every path. The user id
    // stays inside the population (the engine rejects any other), so
    // the overflow is start + user + content: 22 + 11 + 32 bits.
    let mut wide = records[0];
    wide.start = SimTime(horizon - 1);
    wide.user = UserId(users as u32 - 1);
    wide.content = ContentId(u32::MAX);
    records.push(wide);
    let doctored = SessionStore::from_records(&records, horizon, users);
    let report = sim.simulate(&doctored);
    let (max_start_secs, max_user, max_content) = doctored.sort_key_maxima();
    assert!(consume_local_trace::generator::sort_key_fallback_required(
        (max_start_secs, max_user, max_content)
    ));
    assert_eq!(
        report.warnings,
        vec![SimWarning::SortKeyFallback {
            max_start_secs,
            max_user,
            max_content
        }]
    );
    assert_eq!(
        simulate_by_day(&sim, &doctored),
        report,
        "warnings are batch-schedule invariant"
    );
}

/// `store` replayed through one run as one batch per day, each
/// watermarked at its day's end (the online producer's daily tick).
pub(crate) fn simulate_by_day(sim: &Simulator, store: &SessionStore) -> SimReport {
    let mut run = sim.begin(store.horizon_secs(), store.population_len());
    for (batch, watermark) in batch_schedule(store, SECS_PER_DAY) {
        run.push_batch(&batch, watermark);
    }
    run.finish()
}
