//! Online serving mode: a live event-stream front-end for the engine.
//!
//! The batch paths hand [`Simulator::simulate`]
//! a source whose sessions already exist. This module covers the other
//! deployment shape — a long-running service where sessions *arrive*: a
//! producer thread pushes events into a bounded [`channel`] as they happen,
//! and the consumer side is an [`OnlineSource`] the engine drains like any
//! other [`SessionSource`]. Three properties make that safe:
//!
//! * **Backpressure, never loss.** The channel is bounded
//!   (`std::sync::mpsc::sync_channel`); a producer that outruns the
//!   simulation blocks in [`OnlineSender::send_session`] until the consumer
//!   catches up. Nothing is dropped or reordered.
//! * **Watermarks cut the batches.** The producer calls
//!   [`OnlineSender::advance_watermark`] to promise "no later event starts
//!   before `w`". Each watermark seals the sessions buffered so far into a
//!   canonical [`SessionStore`] batch, which is what lets the engine retire
//!   finished swarms and close days *while the stream is still open*
//!   ([`Simulator::simulate_days`]).
//!   Late events (start before the current watermark) are rejected at the
//!   sender with [`OnlineError::LateSession`] rather than silently skewing
//!   results, and so are events the engine cannot take: a start at or past
//!   the horizon ([`OnlineError::PastHorizon`]) or a user id outside the
//!   population ([`OnlineError::UserOutsidePopulation`]).
//! * **Byte-identical results.** Because the online path feeds the same
//!   resumable per-swarm machines through the same [`SessionSource`]
//!   contract, a replayed trace produces a [`SimReport`]
//!   equal to the batch run of the same sessions — at any worker count,
//!   any channel capacity and any watermark cadence (pinned by
//!   `tests/online.rs`).
//!
//! [`replay`] drives the whole arrangement from an existing trace: a
//! producer thread feeds a [`SessionStore`]'s records as fast as the
//! channel's backpressure allows, watermarking once per simulated tick,
//! while the calling thread simulates. A producer that must keep to a
//! wall-clock rate paces its own [`OnlineSender`].
//!
//! # Example
//!
//! ```
//! use consume_local_sim::{online, SimConfig, Simulator};
//! use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 7)
//!     .generate()?;
//! let store = SessionStore::from_trace(&trace);
//! let sim = Simulator::new(SimConfig::default());
//!
//! // Replay: identical report, plus stream statistics.
//! let (report, stats) = online::replay(&sim, &store, &online::ReplayConfig::default());
//! assert_eq!(report, sim.simulate(&store));
//! assert_eq!(stats.events, store.len() as u64);
//! assert_eq!(stats.days_closed, u64::from(trace.config().days));
//! # Ok(())
//! # }
//! ```

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use consume_local_trace::{SessionRecord, SessionStore};

use crate::engine::{DayClose, SegmentedRun, Simulator};
use crate::par::parallel_join;
use crate::report::SimReport;
use crate::source::SessionSource;

pub mod faults;

/// What flows through the bounded channel: events, and the promises that
/// seal them into batches.
#[derive(Debug)]
enum Envelope {
    /// One arriving session.
    Session(SessionRecord),
    /// "No later event starts before this second."
    Watermark(u64),
}

/// Errors the sending side of an online channel can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineError {
    /// The session starts before the current watermark, violating the
    /// promise [`OnlineSender::advance_watermark`] already made. The event
    /// was **not** enqueued; admitting it would silently skew results, so
    /// the producer must decide (drop it, or crash-and-replay from a
    /// watermark-aligned checkpoint).
    LateSession {
        /// The rejected session's start, in seconds.
        start_secs: u64,
        /// The watermark it arrived behind.
        watermark: u64,
    },
    /// The session starts at or past the stream's horizon, where no window
    /// runs, so it could never be simulated. The event was **not**
    /// enqueued.
    PastHorizon {
        /// The rejected session's start, in seconds.
        start_secs: u64,
        /// The stream's horizon, in seconds.
        horizon_secs: u64,
    },
    /// The session's user id is not below the stream's population length:
    /// its bytes would have no per-user row, and the engine would panic on
    /// it and end the run. The event was **not** enqueued.
    UserOutsidePopulation {
        /// The rejected session's user id.
        user: u32,
        /// The stream's population length.
        population_len: usize,
    },
    /// The consuming side hung up (the simulation finished or died); no
    /// further events can be delivered.
    Disconnected,
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LateSession {
                start_secs,
                watermark,
            } => write!(
                f,
                "late session: starts at {start_secs}s, behind watermark {watermark}s"
            ),
            Self::PastHorizon {
                start_secs,
                horizon_secs,
            } => write!(
                f,
                "session starts at {start_secs}s, at or past the {horizon_secs}s horizon"
            ),
            Self::UserOutsidePopulation {
                user,
                population_len,
            } => write!(
                f,
                "session user id {user} is outside the population of {population_len} users"
            ),
            Self::Disconnected => write!(f, "online channel disconnected"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Creates a bounded online ingest channel: the producer half feeds events
/// and watermarks, the consumer half is a [`SessionSource`] for
/// [`Simulator::simulate`](crate::Simulator::simulate) /
/// [`simulate_days`](crate::Simulator::simulate_days).
///
/// `capacity` bounds the number of in-flight envelopes (events plus
/// watermarks): a producer that outruns the simulation blocks — that is the
/// backpressure. `capacity = 0` is a rendezvous channel (every send waits
/// for the consumer).
///
/// `horizon_secs` and `population_len` describe the stream the way a
/// [`SessionStore`] would: windows stop at the horizon, and user ids index
/// into `population_len` users. The sender rejects any session that
/// starts at or past the horizon or names a user outside the population.
///
/// # Example
///
/// ```
/// use consume_local_sim::{online, par::parallel_join, SimConfig, Simulator};
/// use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 7)
///     .generate()?;
/// let store = SessionStore::from_trace(&trace);
/// let sim = Simulator::new(SimConfig::default());
///
/// let (mut tx, source) = online::channel(store.horizon_secs(), store.population_len(), 64);
/// let (sent, report) = parallel_join(
///     move || {
///         for i in 0..store.len() {
///             tx.send_session(store.record(i)).unwrap();
///         }
///         store.len() // sender drops here: end of stream
///     },
///     || sim.simulate(source),
/// );
/// assert_eq!(report.total_windows() > 0, sent > 0);
/// # Ok(())
/// # }
/// ```
pub fn channel(
    horizon_secs: u64,
    population_len: usize,
    capacity: usize,
) -> (OnlineSender, OnlineSource) {
    let (tx, rx) = sync_channel(capacity);
    (
        OnlineSender {
            tx,
            watermark: 0,
            horizon_secs,
            population_len,
        },
        OnlineSource {
            rx,
            horizon_secs,
            population_len,
        },
    )
}

/// The producer half of an online ingest [`channel`].
///
/// Dropping the sender ends the stream: the consumer flushes any buffered
/// events as a final batch and the simulation completes.
#[derive(Debug)]
pub struct OnlineSender {
    tx: SyncSender<Envelope>,
    watermark: u64,
    horizon_secs: u64,
    population_len: usize,
}

impl OnlineSender {
    /// Enqueues one arriving session, blocking while the channel is full
    /// (backpressure).
    ///
    /// Events need not be sorted — batches are put into canonical order
    /// when a watermark seals them — but each must start at or after the
    /// current watermark ([`OnlineError::LateSession`]) and before the
    /// horizon ([`OnlineError::PastHorizon`]), and its user id must be
    /// below the population length
    /// ([`OnlineError::UserOutsidePopulation`]). A rejected event is not
    /// enqueued, so the stream stays valid and the producer may carry on.
    pub fn send_session(&mut self, session: SessionRecord) -> Result<(), OnlineError> {
        let start_secs = session.start.as_secs();
        if start_secs < self.watermark {
            return Err(OnlineError::LateSession {
                start_secs,
                watermark: self.watermark,
            });
        }
        if start_secs >= self.horizon_secs {
            return Err(OnlineError::PastHorizon {
                start_secs,
                horizon_secs: self.horizon_secs,
            });
        }
        if session.user.0 as usize >= self.population_len {
            return Err(OnlineError::UserOutsidePopulation {
                user: session.user.0,
                population_len: self.population_len,
            });
        }
        self.tx
            .send(Envelope::Session(session))
            .map_err(|_| OnlineError::Disconnected)
    }

    /// Promises that no later event starts before `watermark` seconds,
    /// sealing everything buffered before it into a batch the engine may
    /// finish (swarm retirement, day closes). Blocks while the channel is
    /// full.
    ///
    /// Watermarks are monotone: a value at or below the current one is a
    /// no-op, not an error, so periodic wall-clock-driven senders need not
    /// special-case idle stretches. A watermark at or past the horizon
    /// seals the whole run.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<(), OnlineError> {
        if watermark <= self.watermark {
            return Ok(());
        }
        self.watermark = watermark;
        self.tx
            .send(Envelope::Watermark(watermark))
            .map_err(|_| OnlineError::Disconnected)
    }

    /// The current watermark (0 until the first
    /// [`advance_watermark`](OnlineSender::advance_watermark)).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

/// The consumer half of an online ingest [`channel`]: a [`SessionSource`]
/// whose batches are cut by the producer's watermarks.
#[derive(Debug)]
pub struct OnlineSource {
    rx: Receiver<Envelope>,
    horizon_secs: u64,
    population_len: usize,
}

impl SessionSource for OnlineSource {
    fn horizon_secs(&self) -> u64 {
        self.horizon_secs
    }

    fn population_len(&self) -> usize {
        self.population_len
    }

    /// Blocks on the channel; every watermark emits one batch (possibly
    /// empty — the day-close cadence must not depend on traffic), and
    /// disconnection flushes any remaining buffered events as a final
    /// batch.
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        let mut pending: Vec<SessionRecord> = Vec::new();
        let mut batch: Vec<SessionRecord> = Vec::new();
        while let Ok(envelope) = self.rx.recv() {
            match envelope {
                Envelope::Session(s) => pending.push(s),
                Envelope::Watermark(w) => {
                    // The sender checked events against *its* watermark, so
                    // everything starting before `w` is sealed by it; later
                    // starts stay buffered for a later batch.
                    batch.clear();
                    pending.retain(|s| {
                        let sealed = s.start.as_secs() < w;
                        if sealed {
                            batch.push(*s);
                        }
                        !sealed
                    });
                    let store =
                        SessionStore::from_records(&batch, self.horizon_secs, self.population_len);
                    sink(&store, w);
                }
            }
        }
        if !pending.is_empty() {
            let store =
                SessionStore::from_records(&pending, self.horizon_secs, self.population_len);
            sink(&store, u64::MAX);
        }
    }
}

/// Configuration for [`replay`] / [`resume_replay`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Simulated seconds per watermark tick (default: 3600, one hour).
    /// Smaller ticks mean fresher day-closes and smaller batches.
    pub tick_secs: u64,
    /// Channel capacity in envelopes (default: 1024).
    pub capacity: usize,
    /// Resume point in simulated seconds (default: 0, a fresh run): the
    /// watermark of the run the replay continues. Events starting before
    /// it are already inside the restored run's checkpoint and are not
    /// re-fed; set it to the snapshot's [`SegmentedRun::watermark`] for
    /// [`resume_replay`]. [`replay`] starts a fresh run, so it requires 0.
    pub resume_from: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            tick_secs: 3_600,
            capacity: 1_024,
            resume_from: 0,
        }
    }
}

/// What [`replay`] observed on the stream (all deterministic — wall time is
/// deliberately absent; the benchmark measures it outside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Sessions fed through the channel.
    pub events: u64,
    /// Watermarks emitted (one per simulated tick through the horizon).
    pub watermarks: u64,
    /// Days the engine closed while the stream was live or finishing.
    pub days_closed: u64,
}

/// Replays a store through an online [`channel`] as fast as backpressure
/// allows, simulating as events arrive. Returns the report —
/// byte-identical to `sim.simulate(&store)` — and the stream statistics.
/// A session the sender rejects (one starting at or past the horizon, or
/// one whose user is outside the population) is left out and the replay
/// carries on, so the report is then that of the accepted sessions.
///
/// The producer runs on a scoped thread; the calling thread simulates.
/// [`replay_with`] also observes each day close.
///
/// # Panics
///
/// Panics if `config.tick_secs` is 0 or `config.resume_from` is not 0.
pub fn replay(
    sim: &Simulator,
    store: &SessionStore,
    config: &ReplayConfig,
) -> (SimReport, ReplayStats) {
    replay_with(sim, store, config, |_| {})
}

/// [`replay`] with a day-close observer: `on_day_close` runs on the
/// consumer (calling) thread as each day seals, exactly as
/// [`Simulator::simulate_days`] reports them.
///
/// # Panics
///
/// Panics if `config.tick_secs` is 0 or `config.resume_from` is not 0.
pub fn replay_with(
    sim: &Simulator,
    store: &SessionStore,
    config: &ReplayConfig,
    on_day_close: impl FnMut(DayClose),
) -> (SimReport, ReplayStats) {
    let run = sim.begin(store.horizon_secs(), store.population_len());
    drive(run, store, config, on_day_close)
}

/// Resumes a crashed online run: drives a [`SegmentedRun`] restored by
/// [`Simulator::resume`](crate::Simulator::resume) over the **tail** of the
/// event stream — only events starting at or after `config.resume_from`
/// (set it to the restored run's [`SegmentedRun::watermark`]) are re-fed,
/// exactly what a journalling upstream replays after a consumer crash. The
/// final report is byte-identical to an uninterrupted [`replay`] of the
/// whole store (pinned by `tests/recovery.rs`), and [`ReplayStats`] counts
/// only the re-fed tail.
///
/// # Panics
///
/// Panics if `config.tick_secs` is 0 or `config.resume_from` does not
/// equal the restored run's watermark.
pub fn resume_replay(
    run: SegmentedRun,
    store: &SessionStore,
    config: &ReplayConfig,
) -> (SimReport, ReplayStats) {
    drive(run, store, config, |_| {})
}

/// The one replay driver behind [`replay`], [`replay_with`] and
/// [`resume_replay`]: a producer thread feeds the events at or after
/// `config.resume_from` through a fresh [`channel`] while the calling
/// thread finishes `run` over its batches. A fresh run's watermark is 0,
/// so one check covers both the fresh and the resumed case.
fn drive(
    run: SegmentedRun,
    store: &SessionStore,
    config: &ReplayConfig,
    mut on_day_close: impl FnMut(DayClose),
) -> (SimReport, ReplayStats) {
    assert_eq!(
        config.resume_from,
        run.watermark(),
        "resume_from must equal the run's watermark: behind it the source \
         would violate the watermark contract, ahead of it events would be \
         silently lost"
    );
    let (sender, source) = channel(
        store.horizon_secs(),
        store.population_len(),
        config.capacity,
    );
    let producer = feed_producer(store, config, sender);
    let (mut stats, (report, days_closed)) = parallel_join(producer, || {
        let mut days_closed = 0u64;
        let report = run.simulate_remaining_days(source, |close| {
            days_closed += 1;
            on_day_close(close);
        });
        (report, days_closed)
    });
    stats.days_closed = days_closed;
    (report, stats)
}

/// The producer loop of [`drive`]: one watermark per tick, emitted just
/// before the first event that crosses it, plus trailing ticks to cover
/// the horizon so every day closes through the same cadence. Events
/// starting before `config.resume_from` are skipped and ticks start past
/// it, as are events the sender rejects. If the consumer hangs up early
/// the partial stats are still meaningful.
fn feed_producer<'a>(
    store: &'a SessionStore,
    config: &ReplayConfig,
    mut sender: OnlineSender,
) -> impl FnOnce() -> ReplayStats + Send + 'a {
    assert!(config.tick_secs > 0, "tick_secs must be positive");
    let horizon = store.horizon_secs();
    let tick = config.tick_secs;
    let resume_from = config.resume_from;
    move || {
        let mut stats = ReplayStats::default();
        // The first tick strictly past the resume point (`resume_from` is
        // itself a watermark the restored run already holds).
        let mut next_tick = (resume_from / tick + 1) * tick;
        for i in 0..store.len() {
            let record = store.record(i);
            if record.start.as_secs() < resume_from {
                continue;
            }
            while record.start.as_secs() >= next_tick {
                if sender.advance_watermark(next_tick).is_err() {
                    return stats;
                }
                stats.watermarks += 1;
                next_tick += tick;
            }
            match sender.send_session(record) {
                Ok(()) => stats.events += 1,
                Err(OnlineError::Disconnected) => return stats,
                Err(_) => {}
            }
        }
        while next_tick < horizon + tick {
            if sender.advance_watermark(next_tick).is_err() {
                return stats;
            }
            stats.watermarks += 1;
            next_tick += tick;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use consume_local_trace::{TraceConfig, TraceGenerator};

    fn store() -> SessionStore {
        let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 7)
            .generate()
            .unwrap();
        SessionStore::from_trace(&trace)
    }

    #[test]
    fn watermarks_cut_batches_and_disconnect_flushes() {
        let store = store();
        let records = store.to_records();
        let day = consume_local_trace::time::SECS_PER_DAY;
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 8);
        let (_, batches) = parallel_join(
            move || {
                for r in &records {
                    tx.send_session(*r).unwrap();
                }
                // Seal the first two days, leave the rest to disconnect.
                tx.advance_watermark(day).unwrap();
                tx.advance_watermark(2 * day).unwrap();
            },
            || {
                let mut out: Vec<(usize, u64)> = Vec::new();
                let mut total: Vec<SessionRecord> = Vec::new();
                source.for_each_batch(&mut |batch, watermark| {
                    out.push((batch.len(), watermark));
                    total.extend(batch.to_records());
                });
                (out, total)
            },
        );
        let (shape, fed) = batches;
        let (day0, day1) = (
            store.first_at_or_after(day),
            store.first_at_or_after(2 * day),
        );
        assert_eq!(
            shape,
            [
                (day0, day),
                (day1 - day0, 2 * day),
                (store.len() - day1, u64::MAX)
            ]
        );
        // Nothing dropped, nothing reordered across batch seams.
        assert_eq!(fed, store.to_records());
    }

    #[test]
    fn empty_watermark_batches_are_emitted() {
        let (mut tx, source) = channel(86_400, 4, 4);
        let (_, shape) = parallel_join(
            move || {
                tx.advance_watermark(3_600).unwrap();
                tx.advance_watermark(3_600).unwrap(); // no-op: not monotone progress
                tx.advance_watermark(7_200).unwrap();
            },
            || {
                let mut out = Vec::new();
                source.for_each_batch(&mut |batch, watermark| out.push((batch.len(), watermark)));
                out
            },
        );
        assert_eq!(shape, vec![(0, 3_600), (0, 7_200)]);
    }

    #[test]
    fn late_sessions_are_rejected_at_the_sender() {
        let store = store();
        let (mut tx, source) = channel(store.horizon_secs(), store.population_len(), 4);
        tx.advance_watermark(1_000).unwrap();
        let mut late = store.record(0);
        late.start = consume_local_trace::SimTime(999);
        assert_eq!(
            tx.send_session(late),
            Err(OnlineError::LateSession {
                start_secs: 999,
                watermark: 1_000
            })
        );
        assert_eq!(tx.watermark(), 1_000);
        drop(source);
        assert_eq!(tx.advance_watermark(2_000), Err(OnlineError::Disconnected));
        let mut ok = store.record(0);
        ok.start = consume_local_trace::SimTime(5_000);
        assert_eq!(tx.send_session(ok), Err(OnlineError::Disconnected));
        let msg = OnlineError::LateSession {
            start_secs: 999,
            watermark: 1_000,
        }
        .to_string();
        assert!(msg.contains("999") && msg.contains("1000"), "{msg}");
        assert!(OnlineError::Disconnected
            .to_string()
            .contains("disconnected"));
    }

    #[test]
    fn sessions_past_the_horizon_are_rejected_at_the_sender() {
        let store = store();
        let horizon_secs = store.horizon_secs();
        let (mut tx, _source) = channel(horizon_secs, store.population_len(), 4);
        let mut session = store.record(0);
        for start_secs in [horizon_secs, 1 << 62] {
            session.start = consume_local_trace::SimTime(start_secs);
            let err = tx.send_session(session).unwrap_err();
            assert_eq!(
                err,
                OnlineError::PastHorizon {
                    start_secs,
                    horizon_secs
                }
            );
            assert!(err.to_string().contains(&start_secs.to_string()), "{err}");
        }
        session.start = consume_local_trace::SimTime(horizon_secs - 1);
        assert_eq!(tx.send_session(session), Ok(()));
    }

    #[test]
    fn sessions_outside_the_population_are_rejected_at_the_sender() {
        let store = store();
        let population_len = store.population_len();
        let (mut tx, _source) = channel(store.horizon_secs(), population_len, 4);
        let mut session = store.record(0);
        for user in [population_len as u32, u32::MAX] {
            session.user = consume_local_trace::UserId(user);
            let err = tx.send_session(session).unwrap_err();
            assert_eq!(
                err,
                OnlineError::UserOutsidePopulation {
                    user,
                    population_len
                }
            );
            assert!(err.to_string().contains(&user.to_string()), "{err}");
        }
        session.user = consume_local_trace::UserId(population_len as u32 - 1);
        assert_eq!(tx.send_session(session), Ok(()));
    }

    #[test]
    fn replay_matches_batch_report_and_counts_the_stream() {
        let store = store();
        let sim = Simulator::new(SimConfig::default());
        let expect = sim.simulate(&store);
        let config = ReplayConfig::default();
        let (report, stats) = replay(&sim, &store, &config);
        assert_eq!(report, expect);
        assert_eq!(stats.events, store.len() as u64);
        assert_eq!(
            stats.watermarks,
            store.horizon_secs().div_ceil(config.tick_secs)
        );
        assert_eq!(
            stats.days_closed,
            store
                .horizon_secs()
                .div_ceil(consume_local_trace::time::SECS_PER_DAY)
        );
    }
}
