//! Columnar (structure-of-arrays) session storage.
//!
//! A [`Trace`] keeps its sessions as a row-major
//! `Vec<SessionRecord>` — convenient for generation and I/O, but the
//! simulation engine touches only a few fields per pass (grouping reads
//! content/ISP/bitrate, the window loop reads start/duration and the peer
//! columns), so row storage drags the untouched bytes of every 40-byte
//! record through the cache. [`SessionStore`] transposes the trace once into
//! parallel columns, and is cheap to share (`Arc`) across the many
//! scenarios of a sweep that replay the same trace.
//!
//! Column order is the trace's canonical session order (start, then user,
//! then content), so index `i` in every column is the trace's session `i`.
//! The store holds its columns and nothing else, so its memory follows its
//! session count: no structure is sized by the horizon or by the latest
//! start. Start lookups binary-search the start column.
//!
//! A store is the one stored form of a session set. For bounded memory,
//! [`TraceGenerator::segments`](crate::generator::TraceGenerator::segments)
//! streams a trace as one store per day instead of holding the whole
//! month.
//!
//! # Example
//!
//! ```
//! use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), consume_local_trace::TraceError> {
//! let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 9)
//!     .generate()?;
//! let store = SessionStore::from_trace(&trace);
//! assert_eq!(store.len(), trace.sessions().len());
//! assert_eq!(store.record(0), trace.sessions()[0]);
//! # Ok(())
//! # }
//! ```

use consume_local_topology::{IspId, UserLocation};

use crate::content::ContentId;
use crate::device::{BitrateClass, DeviceClass};
use crate::generator::Trace;
use crate::population::UserId;
use crate::session::SessionRecord;
use crate::time::SimTime;

/// A start-sorted, columnar view of a trace's sessions.
///
/// Built once per trace ([`SessionStore::from_trace`]) and shared across
/// every simulation that replays it; see the crate-level docs of
/// [`store`](crate::store) for the layout rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStore {
    start_secs: Vec<u64>,
    duration_secs: Vec<u32>,
    user: Vec<u32>,
    content: Vec<u32>,
    device: Vec<DeviceClass>,
    isp: Vec<IspId>,
    location: Vec<UserLocation>,
    horizon_secs: u64,
    population_len: usize,
    /// Largest user id across the sessions (0 when empty).
    max_user: u32,
    /// Largest content id across the sessions (0 when empty).
    max_content: u32,
}

impl SessionStore {
    /// Columnarises a trace (sessions are already in canonical order).
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_sorted(
            trace.sessions(),
            trace.horizon_seconds(),
            trace.population().len(),
        )
    }

    /// Builds a store from arbitrary records: sorts a copy into the
    /// canonical trace order (start, user, content — exactly
    /// [`Trace::from_parts`]) and columnarises it.
    ///
    /// `horizon_secs` is the replay horizon (sessions may end beyond it);
    /// `population_len` the number of users the records index into.
    pub fn from_records(
        records: &[SessionRecord],
        horizon_secs: u64,
        population_len: usize,
    ) -> Self {
        let mut sorted = records.to_vec();
        crate::generator::sort_sessions(&mut sorted);
        Self::from_sorted(&sorted, horizon_secs, population_len)
    }

    pub(crate) fn from_sorted(
        sessions: &[SessionRecord],
        horizon_secs: u64,
        population_len: usize,
    ) -> Self {
        debug_assert!(sessions.windows(2).all(|w| w[0].start <= w[1].start));
        let n = sessions.len();
        let mut store = Self {
            start_secs: Vec::with_capacity(n),
            duration_secs: Vec::with_capacity(n),
            user: Vec::with_capacity(n),
            content: Vec::with_capacity(n),
            device: Vec::with_capacity(n),
            isp: Vec::with_capacity(n),
            location: Vec::with_capacity(n),
            horizon_secs,
            population_len,
            max_user: 0,
            max_content: 0,
        };
        for s in sessions {
            store.start_secs.push(s.start.as_secs());
            store.duration_secs.push(s.duration_secs);
            store.user.push(s.user.0);
            store.content.push(s.content.0);
            store.device.push(s.device);
            store.isp.push(s.isp);
            store.location.push(s.location);
            store.max_user = store.max_user.max(s.user.0);
            store.max_content = store.max_content.max(s.content.0);
        }
        store
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.start_secs.len()
    }

    /// Whether the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.start_secs.is_empty()
    }

    /// The replay horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.horizon_secs
    }

    /// Number of users the `user` column indexes into.
    pub fn population_len(&self) -> usize {
        self.population_len
    }

    /// Start times in seconds, ascending.
    pub fn start_secs(&self) -> &[u64] {
        &self.start_secs
    }

    /// Watched durations in seconds.
    pub fn duration_secs(&self) -> &[u32] {
        &self.duration_secs
    }

    /// Viewer user ids.
    pub fn user(&self) -> &[u32] {
        &self.user
    }

    /// Content item ids.
    pub fn content(&self) -> &[u32] {
        &self.content
    }

    /// Device classes (fix the streaming bitrate).
    pub fn device(&self) -> &[DeviceClass] {
        &self.device
    }

    /// Viewer ISPs.
    pub fn isp(&self) -> &[IspId] {
        &self.isp
    }

    /// Viewer attachment points.
    pub fn location(&self) -> &[UserLocation] {
        &self.location
    }

    /// The per-field maxima that decide whether the 59-bit compact sort key
    /// can represent these sessions: `(max start seconds, max user id,
    /// max content id)`, all zero for an empty store.
    ///
    /// The engine folds these across every batch it ingests and surfaces a
    /// structured `SimReport` warning when any field exceeds
    /// [`sort_key_bounds`](crate::generator::sort_key_bounds) — the trace
    /// merge has then already fallen back to the wide sort, so results are
    /// still exact, just slower to produce.
    pub fn sort_key_maxima(&self) -> (u64, u32, u32) {
        (
            self.start_secs.last().copied().unwrap_or(0),
            self.max_user,
            self.max_content,
        )
    }

    /// Session `i`'s swarm bitrate class.
    pub fn bitrate_class(&self, i: usize) -> BitrateClass {
        self.device[i].bitrate_class()
    }

    /// Reassembles session `i` as a row record.
    pub fn record(&self, i: usize) -> SessionRecord {
        SessionRecord {
            user: UserId(self.user[i]),
            content: ContentId(self.content[i]),
            start: SimTime(self.start_secs[i]),
            duration_secs: self.duration_secs[i],
            device: self.device[i],
            isp: self.isp[i],
            location: self.location[i],
        }
    }

    /// Reassembles every session (canonical order) — the inverse of
    /// [`SessionStore::from_records`] up to that ordering.
    pub fn to_records(&self) -> Vec<SessionRecord> {
        (0..self.len()).map(|i| self.record(i)).collect()
    }

    /// Index of the first session starting at or after `secs` (or `len()`):
    /// one binary search over the start column.
    pub fn first_at_or_after(&self, secs: u64) -> usize {
        self.start_secs.partition_point(|&s| s < secs)
    }

    /// A sliding active-window cursor over a start-sorted index subset (one
    /// sub-swarm's sessions — or the whole store via `0..len`).
    pub fn cursor<'a>(&'a self, indices: &'a [u32]) -> StoreCursor<'a> {
        debug_assert!(indices
            .windows(2)
            .all(|w| self.start_secs[w[0] as usize] <= self.start_secs[w[1] as usize]));
        StoreCursor {
            // The cursor holds the start column directly — one load fewer
            // per window probe than going through the store.
            starts: &self.start_secs,
            indices,
            pos: 0,
        }
    }
}

/// Sliding active-window cursor handed out by [`SessionStore::cursor`]:
/// admits each session exactly once, in start order, as the window boundary
/// advances. The engine drives one cursor per sub-swarm instead of
/// re-scanning row records.
#[derive(Debug)]
pub struct StoreCursor<'a> {
    starts: &'a [u64],
    indices: &'a [u32],
    pos: usize,
}

impl StoreCursor<'_> {
    /// Calls `admit` with every not-yet-admitted session index whose start
    /// is at or before `t_secs`, in start order.
    #[inline]
    pub fn admit_until(&mut self, t_secs: u64, mut admit: impl FnMut(usize)) {
        while self.pos < self.indices.len() {
            let i = self.indices[self.pos] as usize;
            if self.starts[i] > t_secs {
                break;
            }
            admit(i);
            self.pos += 1;
        }
    }

    /// Start time of the next unadmitted session, if any.
    #[inline]
    pub fn next_start_secs(&self) -> Option<u64> {
        self.indices.get(self.pos).map(|&i| self.starts[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};

    fn small_trace() -> Trace {
        TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0005).unwrap(), 31)
            .generate()
            .unwrap()
    }

    #[test]
    fn from_trace_round_trips_every_record() {
        let trace = small_trace();
        let store = SessionStore::from_trace(&trace);
        assert_eq!(store.len(), trace.sessions().len());
        assert!(!store.is_empty());
        assert_eq!(store.horizon_secs(), trace.horizon_seconds());
        assert_eq!(store.population_len(), trace.population().len());
        assert_eq!(store.to_records(), trace.sessions());
        for (i, s) in trace.sessions().iter().enumerate().step_by(97) {
            assert_eq!(store.record(i), *s);
            assert_eq!(store.bitrate_class(i), s.bitrate_class());
        }
    }

    #[test]
    fn from_records_sorts_canonically() {
        let trace = small_trace();
        let mut shuffled = trace.sessions().to_vec();
        shuffled.reverse();
        let store = SessionStore::from_records(
            &shuffled,
            trace.horizon_seconds(),
            trace.population().len(),
        );
        assert_eq!(store.to_records(), trace.sessions());
    }

    #[test]
    fn window_index_finds_first_start() {
        let trace = small_trace();
        let store = SessionStore::from_trace(&trace);
        let starts = store.start_secs();
        for probe in [0, 1, 3_600, 86_400 + 7, 15 * 86_400, store.horizon_secs()] {
            let got = store.first_at_or_after(probe);
            let expect = starts.iter().filter(|&&s| s < probe).count();
            assert_eq!(got, expect, "probe {probe}");
        }
    }

    #[test]
    fn far_future_start_round_trips_without_an_index() {
        // One session starting at 2^62 s, far past a one-day horizon. The
        // store holds its columns and nothing sized by the clock, so this
        // costs one row of memory.
        let start = 1u64 << 62;
        let mut session = small_trace().sessions()[0];
        session.start = SimTime(start);
        let store = SessionStore::from_records(&[session], 86_400, 10);
        assert_eq!(store.len(), 1);
        assert_eq!(store.sort_key_maxima().0, start);
        for (probe, expect) in [(0, 0), (start - 1, 0), (start, 0), (start + 1, 1)] {
            assert_eq!(store.first_at_or_after(probe), expect, "probe {probe}");
        }
        assert_eq!(store.to_records(), vec![session]);
    }

    #[test]
    fn empty_store_is_consistent() {
        let store = SessionStore::from_records(&[], 86_400, 10);
        assert!(store.is_empty());
        assert_eq!(store.first_at_or_after(0), 0);
        assert_eq!(store.first_at_or_after(90_000), 0);
        assert!(store.to_records().is_empty());
        let indices: [u32; 0] = [];
        let mut cursor = store.cursor(&indices);
        assert_eq!(cursor.next_start_secs(), None);
        cursor.admit_until(1_000_000, |_| panic!("nothing to admit"));
    }

    #[test]
    fn cursor_admits_each_session_once_in_start_order() {
        let trace = small_trace();
        let store = SessionStore::from_trace(&trace);
        let indices: Vec<u32> = (0..store.len() as u32).collect();
        let mut cursor = store.cursor(&indices);
        let mut admitted = Vec::new();
        let dt = 6 * 3_600;
        let mut t = 0u64;
        while cursor.next_start_secs().is_some() {
            cursor.admit_until(t, |i| admitted.push(i));
            if let Some(next) = cursor.next_start_secs() {
                assert!(next > t, "cursor must make progress");
            }
            t += dt;
        }
        assert_eq!(admitted.len(), store.len());
        assert!(admitted.windows(2).all(|w| w[0] < w[1]));
        // Every admitted index had started by its admission window.
        for (k, &i) in admitted.iter().enumerate().step_by(101) {
            let _ = k;
            assert!(store.start_secs()[i] <= t);
        }
    }

    #[test]
    fn sort_key_maxima_track_columns() {
        let empty = SessionStore::from_records(&[], 86_400, 4);
        assert_eq!(empty.sort_key_maxima(), (0, 0, 0));

        let trace = small_trace();
        let store = SessionStore::from_trace(&trace);
        let sessions = trace.sessions();
        let expect = (
            sessions.iter().map(|s| s.start.as_secs()).max().unwrap(),
            sessions.iter().map(|s| s.user.0).max().unwrap(),
            sessions.iter().map(|s| s.content.0).max().unwrap(),
        );
        assert_eq!(store.sort_key_maxima(), expect);
    }

    #[test]
    fn cursor_over_subset_respects_subset_order() {
        let trace = small_trace();
        let store = SessionStore::from_trace(&trace);
        let subset: Vec<u32> = (0..store.len() as u32).filter(|i| i % 7 == 0).collect();
        let mut cursor = store.cursor(&subset);
        let mut seen = Vec::new();
        cursor.admit_until(store.horizon_secs(), |i| seen.push(i as u32));
        assert_eq!(seen, subset);
        assert_eq!(cursor.next_start_secs(), None);
    }
}
