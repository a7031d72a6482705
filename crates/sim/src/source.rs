//! The [`SessionSource`] abstraction: where sessions come from.
//!
//! The engine itself only ever consumes **watermarked, start-ordered
//! session batches** — it does not care whether they were materialised up
//! front, generated a day at a time, or received over a live channel. This
//! module names that contract as a trait so
//! [`Simulator::simulate`](crate::Simulator::simulate) is the single entry
//! point behind which every feeding mode meets:
//!
//! * [`&SessionStore`](consume_local_trace::SessionStore) — the whole
//!   horizon as one batch (the sweep runner's share-one-store shape);
//! * [`&Trace`](consume_local_trace::Trace) — columnarised on the fly,
//!   then one batch;
//! * [`&mut SegmentStream`](consume_local_trace::SegmentStream) — one
//!   batch per day, watermarked at the day's end; each day is generated,
//!   fed and dropped (bounded peak memory);
//! * [`&mut MetroStream`](consume_local_trace::metro::MetroStream) — the
//!   multi-city form: one merged metro day per batch (union stream), or a
//!   single city's days for the swarm-sharded mode ([`crate::shard`]);
//! * [`OnlineSource`](crate::online::OnlineSource) — batches cut by the
//!   sender's watermarks as events arrive over the bounded channel.
//!
//! Whatever the source, the report is byte-identical for the same sessions
//! (pinned by `tests/segmented.rs` and `tests/online.rs`): the watermark
//! contract below is exactly what the resumable per-swarm machines need to
//! make batch boundaries invisible.
//!
//! This is the only source trait, and every source is infallible: it hands
//! over all of its batches, then ends. Faults are handled where they
//! arise instead: the online sender rejects late events with a typed
//! [`OnlineError`](crate::online::OnlineError), a full channel blocks the
//! producer, and a crashed consumer resumes from its last snapshot
//! ([`crate::checkpoint`]). No driver ever retries a source.
//!
//! # The watermark contract
//!
//! [`SessionSource::for_each_batch`] hands the sink pairs
//! `(batch, watermark)` such that
//!
//! 1. batches arrive in watermark order (watermarks are monotone);
//! 2. every session in a batch starts in
//!    `[previous watermark, watermark)` (first batch: from 0);
//! 3. after a batch with watermark `w`, **no** later batch contains a
//!    session starting before `w`.
//!
//! Within a batch, sessions are in canonical trace order (start, user,
//! content) — [`SessionStore`] construction enforces that. Watermarks need
//! not align to days or windows, and `u64::MAX` (or anything at or past
//! the horizon) marks a final batch.
//!
//! A session that starts at or past the horizon runs no window, so it is
//! not part of the run: the engine leaves it out of every batch, with no
//! swarm, no session count and no share of the sort-key maxima. A source
//! may therefore hand such sessions over (the whole-store batch) or drop
//! them (the online schedule stops at the horizon) and give the same
//! report.

use consume_local_trace::metro::MetroStream;
use consume_local_trace::time::SECS_PER_DAY;
use consume_local_trace::{SegmentStream, SessionStore, Trace};

/// A producer of watermarked, day-ordered session batches — anything
/// [`Simulator::simulate`](crate::Simulator::simulate) can consume. See
/// the [module docs](self) for the watermark contract implementations must
/// uphold.
///
/// `for_each_batch` takes `self` by value: a source is consumed by exactly
/// one run. The borrowed implementations (`&SessionStore`, `&Trace`,
/// `&mut SegmentStream`) make the common cases free to re-create.
pub trait SessionSource {
    /// The replay horizon in seconds (windows stop here).
    fn horizon_secs(&self) -> u64;

    /// Number of users the sessions' user ids index into.
    fn population_len(&self) -> usize;

    /// Feeds every batch to `sink` as `(batch, watermark)`, in watermark
    /// order, honouring the contract in the [module docs](self).
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64));
}

impl SessionSource for &SessionStore {
    fn horizon_secs(&self) -> u64 {
        SessionStore::horizon_secs(self)
    }

    fn population_len(&self) -> usize {
        SessionStore::population_len(self)
    }

    /// The whole store as one final batch.
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        sink(self, u64::MAX);
    }
}

impl SessionSource for &Trace {
    fn horizon_secs(&self) -> u64 {
        self.horizon_seconds()
    }

    fn population_len(&self) -> usize {
        self.population().len()
    }

    /// Columnarises the trace, then feeds it as one final batch.
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        sink(&SessionStore::from_trace(self), u64::MAX);
    }
}

impl SessionSource for &mut SegmentStream<'_> {
    fn horizon_secs(&self) -> u64 {
        self.config().horizon_seconds()
    }

    fn population_len(&self) -> usize {
        self.population().len()
    }

    /// Generates, feeds and drops one day segment at a time, so peak
    /// memory holds a single day of the trace.
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        loop {
            let day = u64::from(self.next_day());
            let Some(segment) = self.next_segment() else {
                return;
            };
            sink(&segment, (day + 1) * SECS_PER_DAY);
        }
    }
}

impl SessionSource for &mut MetroStream<'_> {
    fn horizon_secs(&self) -> u64 {
        MetroStream::horizon_secs(self)
    }

    fn population_len(&self) -> usize {
        MetroStream::population_len(self)
    }

    /// One merged multi-city batch per day, watermarked at the day's end —
    /// the union (or per-city shard) form of the metro presets. Peak memory
    /// holds one day of each participating city.
    fn for_each_batch(self, sink: &mut dyn FnMut(&SessionStore, u64)) {
        loop {
            let day = u64::from(self.next_day());
            let Some(segment) = self.next_segment() else {
                return;
            };
            sink(&segment, (day + 1) * SECS_PER_DAY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consume_local_trace::{TraceConfig, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 5)
            .generate()
            .unwrap()
    }

    /// Drains a source into `(batch length, watermark)` pairs plus the
    /// trait-reported metadata, through the trait interface only.
    fn drain(source: impl SessionSource) -> (u64, usize, Vec<(usize, u64)>) {
        let horizon = source.horizon_secs();
        let population = source.population_len();
        let mut out = Vec::new();
        source.for_each_batch(&mut |batch, watermark| out.push((batch.len(), watermark)));
        (horizon, population, out)
    }

    #[test]
    fn monolithic_sources_emit_one_final_batch() {
        let trace = trace();
        let store = SessionStore::from_trace(&trace);
        let expect = (
            trace.horizon_seconds(),
            trace.population().len(),
            vec![(store.len(), u64::MAX)],
        );
        assert_eq!(drain(&store), expect);
        assert_eq!(drain(&trace), expect);
    }

    #[test]
    fn segmented_sources_watermark_each_day_end() {
        // The generated day stream hands over the online producer's daily
        // batches of the same trace: day `d`'s sessions, sealed at its end.
        let trace = trace();
        let store = SessionStore::from_trace(&trace);
        let expect: Vec<(usize, u64)> = crate::online::faults::batch_schedule(&store, SECS_PER_DAY)
            .iter()
            .map(|(batch, watermark)| (batch.len(), *watermark))
            .collect();
        assert_eq!(expect.len() as u32, trace.config().days);

        let generator = TraceGenerator::new(trace.config().clone(), 5);
        let mut stream = generator.segments().unwrap();
        assert_eq!(
            drain(&mut stream),
            (trace.horizon_seconds(), trace.population().len(), expect)
        );
    }
}
