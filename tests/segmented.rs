//! Property tests for the day-batched engine: a store cut into one batch
//! per day (the batches the online producer emits at a daily tick) and
//! pushed through one run must give the whole store's report **byte for
//! byte** — whatever the records look like, and in particular when
//! sessions straddle day boundaries. A run whose last watermark falls
//! short of the horizon must finish with the same day closes and report.

use proptest::prelude::*;

use consume_local::prelude::*;
use consume_local::sim::online::faults::batch_schedule;
use consume_local::topology::{ExchangeId, IspId, PopId, UserLocation};
use consume_local::trace::device::DeviceClass;
use consume_local::trace::time::SECS_PER_DAY;
use consume_local::trace::{ContentId, SessionRecord, SessionStore, SimTime, UserId};

/// Three days: enough for first/middle/last-batch behaviour.
const HORIZON: u64 = 3 * 86_400;
const USERS: usize = 60;

fn record(
    (start, user, content, duration, device, isp, exchange): (u64, u32, u32, u32, usize, u8, u32),
) -> SessionRecord {
    SessionRecord {
        user: UserId(user),
        content: ContentId(content),
        start: SimTime(start),
        duration_secs: duration,
        device: DeviceClass::MIX[device].0,
        isp: IspId(isp),
        location: UserLocation::from_raw_parts(ExchangeId(exchange), PopId(exchange / 4)),
    }
}

/// Random records over a tiny world. Durations run up to two days, so many
/// sessions cross one or even two day boundaries; starts cover the
/// whole horizon including the final day (whose sessions may end beyond
/// the horizon).
fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    proptest::collection::vec(
        (
            0..HORIZON,
            0..USERS as u32,
            0u32..6,
            60u32..2 * 86_400,
            0usize..DeviceClass::MIX.len(),
            0u8..3,
            0u32..12,
        )
            .prop_map(record),
        1..80,
    )
}

/// Records clustered tightly around the day-1 boundary: every session
/// starts within ±30 minutes of midnight and lasts up to 2 hours, so
/// almost every window run is interrupted by the day cut.
fn boundary_straddler_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    proptest::collection::vec(
        (
            86_400u64 - 1_800..86_400 + 1_800,
            0..USERS as u32,
            0u32..3,
            60u32..7_200,
            0usize..DeviceClass::MIX.len(),
            0u8..2,
            0u32..6,
        )
            .prop_map(record),
        1..40,
    )
}

proptest! {
    #[test]
    fn segmented_engine_matches_monolithic_on_random_traces(
        records in records_strategy(),
        matcher_pick in 0u8..2,
        window_secs in 5u64..600,
        participation_pct in 30u64..=100,
    ) {
        let store = SessionStore::from_records(&records, HORIZON, USERS);
        let cfg = SimConfig {
            matcher: if matcher_pick == 1 {
                MatcherKind::Random
            } else {
                MatcherKind::Hierarchical
            },
            window_secs,
            participation_rate: participation_pct as f64 / 100.0,
            ..Default::default()
        };
        let sim = Simulator::new(cfg);
        prop_assert_eq!(simulate_by_day(&sim, &store), sim.simulate(&store));
    }

    #[test]
    fn segment_boundary_straddlers_replay_identically(
        records in boundary_straddler_strategy(),
        window_secs in 5u64..3_600,
        preload_tenths in 0u64..5,
    ) {
        let store = SessionStore::from_records(&records, HORIZON, USERS);
        let cfg = SimConfig {
            window_secs,
            preload_fraction: preload_tenths as f64 / 10.0,
            ..Default::default()
        };
        let sim = Simulator::new(cfg);
        prop_assert_eq!(simulate_by_day(&sim, &store), sim.simulate(&store));
    }
}

#[test]
fn generated_trace_segments_and_stream_replay_identically() {
    // End to end on a real generated trace: the store cut into daily
    // batches and the bounded-memory generate-and-simulate stream both
    // reproduce the monolithic report byte for byte.
    let config = TraceConfig::london_sep2013().scaled(0.0005).unwrap();
    let generator = TraceGenerator::new(config, 41);
    let trace = generator.generate().unwrap();
    let sim = Simulator::new(SimConfig::default());
    let monolithic = sim.simulate(&trace);

    let store = SessionStore::from_trace(&trace);
    assert_eq!(simulate_by_day(&sim, &store), monolithic);

    let mut stream = generator.segments().unwrap();
    assert_eq!(sim.simulate(&mut stream), monolithic);
}

#[test]
fn past_horizon_sessions_give_one_report_whatever_the_source() {
    // A generated month holds no session past its horizon (the generator
    // drops them). Add one, 100 000 s past the horizon on an item of its
    // own: the whole store hands it to the engine, the daily schedule
    // stops at the horizon, and both must give the month's report.
    let config = ScalePreset::Smoke.apply(TraceConfig::london_sep2013());
    let trace = TraceGenerator::new(config, 5).generate().unwrap();
    let horizon = trace.horizon_seconds();
    let mut records = trace.sessions().to_vec();
    assert!(records.iter().all(|r| r.start.as_secs() < horizon));
    let last_item = records.iter().map(|r| r.content.0).max().unwrap();
    records.push(SessionRecord {
        content: ContentId(last_item + 1),
        start: SimTime(horizon + 100_000),
        ..records[0]
    });
    let store = SessionStore::from_records(&records, horizon, trace.population().len());
    let sim = Simulator::new(SimConfig::default());
    let month = sim.simulate(&trace);
    assert_eq!(sim.simulate(&store), month);
    assert_eq!(simulate_by_day(&sim, &store), month);
}

#[test]
fn finish_closes_the_days_a_short_watermark_left_open() {
    // A month whose sessions all start before a cut, pushed hourly only up
    // to the cut: `finish_days` must run the sessions still going past the
    // cut to the horizon and close every later day, as the whole store
    // closes them. The cuts fall on a day's end and inside a day.
    let config = TraceConfig::london_sep2013().scaled(0.0003).unwrap();
    let trace = TraceGenerator::new(config, 5).generate().unwrap();
    let horizon = trace.horizon_seconds();
    for cut in [SECS_PER_DAY, 10 * SECS_PER_DAY, 10 * SECS_PER_DAY + 7_200] {
        let records: Vec<SessionRecord> = trace
            .sessions()
            .iter()
            .filter(|r| r.start.as_secs() < cut)
            .copied()
            .collect();
        let store = SessionStore::from_records(&records, horizon, trace.population().len());
        for threads in [1, 2] {
            let sim = Simulator::new(SimConfig {
                threads,
                ..Default::default()
            });
            let mut expect_closes = Vec::new();
            let expect = sim.simulate_days(&store, |close| expect_closes.push(close));
            let mut run = sim.begin(horizon, store.population_len());
            let mut closes = Vec::new();
            for (batch, watermark) in batch_schedule(&store, 3_600) {
                if watermark > cut {
                    break;
                }
                run.push_batch(&batch, watermark);
                run.drain_closed_days(|close| closes.push(close));
            }
            let report = run.finish_days(|close| closes.push(close));
            assert_eq!(closes.len() as u64, horizon.div_ceil(SECS_PER_DAY));
            // Sessions run on past the cut, into a day no watermark sealed.
            assert!(closes[(cut / SECS_PER_DAY) as usize].ledger.demand_bytes > 0);
            assert_eq!(closes, expect_closes, "cut {cut}, {threads} threads");
            assert_eq!(report, expect, "cut {cut}, {threads} threads");
        }
    }
}

/// `store` pushed through one run as one batch per day, each watermarked
/// at its day's end.
fn simulate_by_day(sim: &Simulator, store: &SessionStore) -> SimReport {
    let mut run = sim.begin(store.horizon_secs(), store.population_len());
    for (batch, watermark) in batch_schedule(store, SECS_PER_DAY) {
        run.push_batch(&batch, watermark);
    }
    run.finish()
}
