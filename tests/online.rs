//! Online-vs-batch byte-identity suite: the event-stream ingest path must
//! reproduce the batch engine's `SimReport` exactly — at every worker
//! count, every channel capacity and every watermark cadence — and the
//! bounded channel must never drop or reorder events no matter how slow
//! the consumer is.

use consume_local::prelude::*;
use consume_local::sim::online::{self, ReplayConfig};
use consume_local::sim::par::parallel_join;
use consume_local::sim::OnlineError;
use consume_local::trace::time::SECS_PER_DAY;
use consume_local::trace::{SessionRecord, SessionStore, SimTime, UserId};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn shared_store() -> SessionStore {
    let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0005).unwrap(), 99)
        .generate()
        .unwrap();
    SessionStore::from_trace(&trace)
}

fn simulator(threads: usize) -> Simulator {
    Simulator::new(SimConfig {
        threads,
        ..Default::default()
    })
}

#[test]
fn replay_byte_identical_across_speeds_and_thread_counts() {
    let store = shared_store();
    for &threads in &THREAD_COUNTS {
        let sim = simulator(threads);
        let expect = sim.simulate(&store);
        assert!(expect.total.demand_bytes > 0);
        let (report, stats) = online::replay(&sim, &store, &ReplayConfig::default());
        assert_eq!(
            report, expect,
            "replay must match the batch report at {threads} threads"
        );
        assert_eq!(stats.events, store.len() as u64);
    }
}

#[test]
fn backpressured_channel_never_drops_or_reorders() {
    let store = shared_store();
    let day = SECS_PER_DAY;
    let sim = simulator(2);
    let expect = sim.simulate(&store);
    // Capacity 0 is a rendezvous channel — every send waits for the
    // consumer — and capacity 2 forces thousands of blocking sends; both
    // must only ever slow the producer down, never lose or reorder work.
    for capacity in [0, 2] {
        let records = store.to_records();
        let (mut tx, source) =
            online::channel(store.horizon_secs(), store.population_len(), capacity);
        let (_, fed) = parallel_join(
            move || {
                let mut next_seal = day;
                for r in &records {
                    while r.start.as_secs() >= next_seal {
                        tx.advance_watermark(next_seal).unwrap();
                        next_seal += day;
                    }
                    tx.send_session(*r).unwrap();
                }
            },
            || {
                let mut fed = Vec::new();
                let mut last_watermark = 0;
                source.for_each_batch(&mut |batch, watermark| {
                    assert!(
                        watermark > last_watermark,
                        "watermarks advance monotonically"
                    );
                    last_watermark = watermark;
                    fed.extend(batch.to_records());
                });
                fed
            },
        );
        assert_eq!(
            fed,
            store.to_records(),
            "capacity {capacity}: every event arrives exactly once, in canonical order"
        );
        // And the same stream shape drives the engine to identical bytes.
        let records = store.to_records();
        let (mut tx, source) =
            online::channel(store.horizon_secs(), store.population_len(), capacity);
        let (_, report) = parallel_join(
            move || {
                let mut next_seal = day;
                for r in &records {
                    while r.start.as_secs() >= next_seal {
                        tx.advance_watermark(next_seal).unwrap();
                        next_seal += day;
                    }
                    tx.send_session(*r).unwrap();
                }
            },
            || sim.simulate(source),
        );
        assert_eq!(
            report, expect,
            "capacity {capacity}: backpressure must not change the report"
        );
    }
}

#[test]
fn odd_watermark_cadences_match_the_batch_report() {
    let store = shared_store();
    let sim = simulator(2);
    let expect = sim.simulate(&store);
    // Ticks that do not divide the day (or the hour) exercise batches that
    // straddle day boundaries; the engine's day-close logic must not care.
    for tick_secs in [1_000, 5_000, 100_000] {
        let config = ReplayConfig {
            tick_secs,
            ..ReplayConfig::default()
        };
        let (report, stats) = online::replay(&sim, &store, &config);
        assert_eq!(
            report, expect,
            "tick {tick_secs}s must match the batch report"
        );
        assert_eq!(stats.watermarks, store.horizon_secs().div_ceil(tick_secs));
        assert_eq!(
            stats.days_closed,
            store.horizon_secs().div_ceil(SECS_PER_DAY)
        );
    }
}

#[test]
fn online_day_closes_match_the_batch_day_closes() {
    let store = shared_store();
    let sim = simulator(2);
    let mut batch_days = Vec::new();
    let batch_report = sim.simulate_days(&store, |close| batch_days.push(close));
    let mut online_days = Vec::new();
    let (online_report, _) = online::replay_with(&sim, &store, &ReplayConfig::default(), |close| {
        online_days.push(close)
    });
    assert_eq!(online_report, batch_report);
    assert_eq!(
        online_days, batch_days,
        "per-day ledgers must be identical whether days close live or in batch"
    );
    assert_eq!(
        online_days.len() as u64,
        store.horizon_secs().div_ceil(SECS_PER_DAY)
    );
    assert!(online_days.iter().any(|c| c.ledger.demand_bytes > 0));
}

#[test]
fn producer_carries_on_past_rejected_events() {
    // Before every hundredth event the producer sends two the engine
    // cannot take: a user past the population and a start at the horizon.
    // Each gets its typed error, the producer carries on, and the consumer
    // finishes with the batch report of the good sessions.
    let store = shared_store();
    let sim = simulator(2);
    let (horizon, population) = (store.horizon_secs(), store.population_len());
    let user = population as u32;
    let records = store.to_records();
    let (mut tx, source) = online::channel(horizon, population, 16);
    let (_, report) = parallel_join(
        move || {
            for (i, r) in records.iter().enumerate() {
                if i % 100 == 0 {
                    let stranger = SessionRecord {
                        user: UserId(user),
                        ..*r
                    };
                    assert_eq!(
                        tx.send_session(stranger),
                        Err(OnlineError::UserOutsidePopulation {
                            user,
                            population_len: population
                        })
                    );
                    let late_comer = SessionRecord {
                        start: SimTime(horizon),
                        ..*r
                    };
                    assert_eq!(
                        tx.send_session(late_comer),
                        Err(OnlineError::PastHorizon {
                            start_secs: horizon,
                            horizon_secs: horizon
                        })
                    );
                }
                tx.send_session(*r).unwrap();
            }
        },
        || sim.simulate(source),
    );
    assert_eq!(report, sim.simulate(&store));
}
