//! The load side of the online workloads: a tick plan over a month, the
//! producer that sends it through `online::channel`, and the consumer-side
//! stamps of when each batch was handed over and handled.

use consume_local_sim::online::{OnlineError, OnlineSender};
use consume_local_sim::SessionSource;
use consume_local_trace::SessionStore;

use crate::clock::{sleep_until, Tick};
use crate::spans::{Span, Tracer};

/// One watermark tick: the store rows `lo..hi` start before `watermark`
/// and at or after the previous tick's watermark.
#[derive(Debug, Clone, Copy)]
pub struct TickPlan {
    /// First row of the tick.
    pub lo: usize,
    /// One past the last row of the tick.
    pub hi: usize,
    /// The watermark that seals the tick.
    pub watermark: u64,
}

/// Ticks of `tick_secs` from `from_secs` through the horizon, the cadence
/// `online::replay` uses: one watermark per tick, the last at or past the
/// horizon.
pub fn tick_plan(store: &SessionStore, from_secs: u64, tick_secs: u64) -> Vec<TickPlan> {
    let mut plan = Vec::new();
    let mut lo = store.first_at_or_after(from_secs);
    let mut watermark = from_secs + tick_secs;
    while watermark < store.horizon_secs() + tick_secs {
        let hi = store.first_at_or_after(watermark);
        plan.push(TickPlan { lo, hi, watermark });
        lo = hi;
        watermark += tick_secs;
    }
    plan
}

/// When the producer sends each tick.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Tick `k` (0-based) is due at `start + (k + 1) · period_s`: an open
    /// loop that does not slow when the consumer does.
    Schedule {
        /// Time zero of the schedule.
        start: Tick,
        /// Seconds between ticks.
        period_s: f64,
    },
    /// As fast as channel backpressure allows.
    Saturate,
}

impl Pace {
    /// When tick `k` is due (`None` when saturating).
    pub fn due(self, k: usize) -> Option<Tick> {
        match self {
            Pace::Schedule { start, period_s } => Some(start.plus_secs(period_s * (k + 1) as f64)),
            Pace::Saturate => None,
        }
    }
}

/// What the producer saw.
#[derive(Debug, Default)]
pub struct ProducerLog {
    /// Sessions enqueued.
    pub sent: u64,
    /// Watermarks enqueued.
    pub watermarks: u64,
    /// Sends and watermarks rejected with an [`OnlineError`].
    pub failed: u64,
    /// Per tick: how late the producer started it, in ms (scheduled only).
    pub late_ms: Vec<f64>,
    /// `online.send` spans (traced runs only): the producer's time inside
    /// `send_session` / `advance_watermark`, one span per tick.
    pub spans: Vec<Span>,
}

/// Sends `plan` through `sender` at `pace`: each tick's sessions, then its
/// watermark. With `origin`, records one `online.send` span per tick on a
/// tracer of its own. Dropping the sender at the end closes the stream.
pub fn produce(
    mut sender: OnlineSender,
    store: &SessionStore,
    plan: &[TickPlan],
    pace: Pace,
    origin: Option<Tick>,
) -> ProducerLog {
    let tracer = origin.map(|o| Tracer::new(o, 1));
    let mut log = ProducerLog::default();
    let (mut sent, mut watermarks, mut failed) = (0u64, 0u64, 0u64);
    let mut count = |result: Result<(), OnlineError>, ok: &mut u64| match result {
        Ok(()) => *ok += 1,
        Err(_) => failed += 1,
    };
    for (k, tick) in plan.iter().enumerate() {
        if let Some(due) = pace.due(k) {
            sleep_until(due);
            log.late_ms.push(Tick::now().ms_since(due));
        }
        let open = tracer.as_ref().map(|t| t.open("online.send"));
        for row in tick.lo..tick.hi {
            count(sender.send_session(store.record(row)), &mut sent);
        }
        count(sender.advance_watermark(tick.watermark), &mut watermarks);
        if let (Some(t), Some(open)) = (&tracer, open) {
            t.close(open);
        }
    }
    log.sent = sent;
    log.watermarks = watermarks;
    log.failed = failed;
    log.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    log
}

/// A [`SessionSource`] that stamps when each batch was handed to the sink
/// and when the sink returned: the end points of a batch's lag.
pub struct Stamped<'a, S> {
    /// The wrapped source.
    pub inner: S,
    /// `(handed over, handled)` per batch, in batch order.
    pub stamps: &'a mut Vec<(Tick, Tick)>,
}

impl<S: SessionSource> SessionSource for Stamped<'_, S> {
    fn horizon_secs(&self) -> u64 {
        self.inner.horizon_secs()
    }

    fn population_len(&self) -> usize {
        self.inner.population_len()
    }

    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        let stamps = self.stamps;
        self.inner.for_each_batch(&mut |batch, watermark| {
            let start = Tick::now();
            sink(batch, watermark);
            stamps.push((start, Tick::now()));
        });
    }
}

/// Per-batch lag in ms from `(handed over, handled)` stamps: from the
/// handover in a closed loop, from the due time in an open one (so time a
/// batch waited for a busy consumer counts).
pub fn lag_ms(stamps: &[(Tick, Tick)], pace: Pace) -> Vec<f64> {
    stamps
        .iter()
        .enumerate()
        .map(|(k, &(start, end))| end.ms_since(pace.due(k).unwrap_or(start)))
        .collect()
}

/// Consumer time spent sealing each batch: for batch `k`, the part of the
/// gap before its sink call that comes after its watermark was enqueued
/// (waiting for the producer is idle time, not sealing). Pairs the
/// consumer's `gaps` with the producer's per-tick `sends` by index.
pub fn sealing_ms(gaps: &[&Span], sends: &[&Span]) -> f64 {
    gaps.iter()
        .zip(sends)
        .map(|(gap, send)| (gap.end_s - gap.start_s.max(send.end_s)).max(0.0) * 1e3)
        .sum()
}
