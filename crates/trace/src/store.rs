//! Columnar (structure-of-arrays) session storage.
//!
//! A [`Trace`] keeps its sessions as a row-major
//! `Vec<SessionRecord>` — convenient for generation and I/O, but the
//! simulation engine touches only a few fields per pass (grouping reads
//! content/ISP/bitrate, the window loop reads start/duration and the peer
//! columns), so row storage drags the untouched bytes of every 40-byte
//! record through the cache. [`SessionStore`] transposes the trace once into
//! parallel columns plus a per-start-window cursor index, and is cheap to
//! share (`Arc`) across the many scenarios of a sweep that replay the same
//! trace.
//!
//! Column order is the trace's canonical session order (start, then user,
//! then content), so index `i` in every column is the trace's session `i`.
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

/// Granularity of the per-start-window cursor index: one offset per hour of
/// the horizon bounds any in-bucket search to the sessions of that hour.
const INDEX_WINDOW_SECS: u64 = crate::time::SECS_PER_HOUR;

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
    /// `window_offsets[w]` = index of the first session starting at or after
    /// `w × INDEX_WINDOW_SECS`; one trailing entry holds `len()`.
    window_offsets: Vec<u32>,
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
            window_offsets: Vec::new(),
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
        store.window_offsets = build_window_offsets(&store.start_secs, horizon_secs);
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

    /// Session `i`'s end time in seconds (`start + duration`).
    pub fn end_secs(&self, i: usize) -> u64 {
        self.start_secs[i] + u64::from(self.duration_secs[i])
    }

    /// Session `i`'s streaming bitrate in bits per second.
    pub fn bitrate_bps(&self, i: usize) -> u32 {
        self.device[i].bitrate_bps()
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

    /// Index of the first session starting at or after `secs` (or `len()`).
    ///
    /// The per-start-window index bounds the binary search to one window's
    /// sessions, so lookups touch a cache line or two instead of the whole
    /// start column.
    pub fn first_at_or_after(&self, secs: u64) -> usize {
        let w = (secs / INDEX_WINDOW_SECS) as usize;
        if w + 1 >= self.window_offsets.len() {
            return self.len();
        }
        let lo = self.window_offsets[w] as usize;
        let hi = self.window_offsets[w + 1] as usize;
        lo + self.start_secs[lo..hi].partition_point(|&s| s < secs)
    }

    /// The sessions starting inside cursor-index window `w` (index range
    /// into the columns).
    pub fn window_range(&self, w: usize) -> std::ops::Range<usize> {
        let lo = self
            .window_offsets
            .get(w)
            .copied()
            .unwrap_or(self.len() as u32) as usize;
        let hi = self
            .window_offsets
            .get(w + 1)
            .copied()
            .unwrap_or(self.len() as u32) as usize;
        lo..hi
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

/// `offsets[w]` = first index with `start >= w × INDEX_WINDOW_SECS`, with a
/// trailing `len` sentinel. Covers the horizon even where no sessions start.
fn build_window_offsets(start_secs: &[u64], horizon_secs: u64) -> Vec<u32> {
    let max_start = start_secs.last().copied().unwrap_or(0);
    let windows = (max_start.max(horizon_secs.saturating_sub(1)) / INDEX_WINDOW_SECS) as usize + 1;
    let mut offsets = Vec::with_capacity(windows + 1);
    let mut i = 0usize;
    for w in 0..windows {
        let boundary = w as u64 * INDEX_WINDOW_SECS;
        while i < start_secs.len() && start_secs[i] < boundary {
            i += 1;
        }
        offsets.push(i as u32);
    }
    offsets.push(start_secs.len() as u32);
    offsets
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

    /// Whether every session has been admitted.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.pos >= self.indices.len()
    }
}

/// A trace's sessions as per-day [`SessionStore`] segments.
///
/// The monolithic [`SessionStore`] holds the whole horizon's columns at
/// once — fine up to the `medium` preset, but the `large`/`full` presets
/// (1.2 M / 23.5 M sessions) pay tens of bytes per session for the entire
/// month. A `SegmentedStore` partitions the canonical session order by
/// **start day**: segment `d` is a complete `SessionStore` over the
/// sessions starting in `[d·86400, (d+1)·86400)`, and concatenating the
/// segments reproduces the monolithic column order exactly (sessions are
/// globally start-sorted, so the day partition is contiguous).
///
/// A materialised `SegmentedStore` still holds every segment; the bounded
/// *peak*-memory path streams segments one at a time from
/// [`TraceGenerator::segments`](crate::generator::TraceGenerator::segments)
/// into the engine (`Simulator::simulate(&mut stream)` in
/// `consume-local-sim`) so only one day is resident. The materialised form is the shared,
/// replayable middle ground (sweeps, tests) and carries the same global
/// [`window_range`](SegmentedStore::window_range) /
/// [`first_at_or_after`](SegmentedStore::first_at_or_after) lookup API as
/// the monolithic store; the sliding-cursor API lives on each segment
/// ([`SessionStore::cursor`]).
///
/// # Example
///
/// ```
/// use consume_local_trace::{SegmentedStore, SessionStore, TraceConfig, TraceGenerator};
///
/// # fn main() -> Result<(), consume_local_trace::TraceError> {
/// let config = TraceConfig::london_sep2013().scaled(0.0003)?;
/// let trace = TraceGenerator::new(config, 9).generate()?;
/// let monolithic = SessionStore::from_trace(&trace);
/// let segmented = SegmentedStore::from_trace(&trace);
/// // One segment per horizon day; concatenation is the monolithic order.
/// assert_eq!(segmented.num_segments() as u64, trace.config().days as u64);
/// assert_eq!(segmented.len(), monolithic.len());
/// assert_eq!(segmented.to_records(), monolithic.to_records());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedStore {
    segments: Vec<SessionStore>,
    /// `offsets[d]` = global index of segment `d`'s first session; one
    /// trailing entry holds `len()`.
    offsets: Vec<usize>,
    horizon_secs: u64,
    population_len: usize,
}

impl SegmentedStore {
    /// Seconds covered by one segment (one day).
    pub const SEGMENT_SECS: u64 = crate::time::SECS_PER_DAY;

    /// Partitions a trace's (already canonically sorted) sessions into
    /// per-day segments.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_sorted(
            trace.sessions(),
            trace.horizon_seconds(),
            trace.population().len(),
        )
    }

    /// Builds a segmented store from arbitrary records: sorts a copy into
    /// canonical trace order, then partitions it by start day. Semantics of
    /// `horizon_secs` / `population_len` are as
    /// [`SessionStore::from_records`].
    pub fn from_records(
        records: &[SessionRecord],
        horizon_secs: u64,
        population_len: usize,
    ) -> Self {
        let mut sorted = records.to_vec();
        crate::generator::sort_sessions(&mut sorted);
        Self::from_sorted(&sorted, horizon_secs, population_len)
    }

    fn from_sorted(sessions: &[SessionRecord], horizon_secs: u64, population_len: usize) -> Self {
        let days = day_count(horizon_secs, sessions.last().map(|s| s.start.as_secs()));
        let mut segments = Vec::with_capacity(days);
        let mut offsets = Vec::with_capacity(days + 1);
        let mut lo = 0usize;
        for day in 0..days {
            let boundary = (day as u64 + 1) * Self::SEGMENT_SECS;
            let hi = lo + sessions[lo..].partition_point(|s| s.start.as_secs() < boundary);
            offsets.push(lo);
            segments.push(SessionStore::from_sorted(
                &sessions[lo..hi],
                horizon_secs,
                population_len,
            ));
            lo = hi;
        }
        debug_assert_eq!(lo, sessions.len());
        offsets.push(sessions.len());
        Self {
            segments,
            offsets,
            horizon_secs,
            population_len,
        }
    }

    /// Assembles a segmented store from per-day segments (segment `d` must
    /// hold exactly the sessions starting in day `d`, canonically ordered —
    /// the shape [`TraceGenerator::segments`](crate::generator::TraceGenerator::segments)
    /// emits).
    pub fn from_day_segments(
        segments: Vec<SessionStore>,
        horizon_secs: u64,
        population_len: usize,
    ) -> Self {
        debug_assert!(segments.iter().enumerate().all(|(d, s)| {
            let lo = d as u64 * Self::SEGMENT_SECS;
            s.start_secs()
                .iter()
                .all(|&t| (lo..lo + Self::SEGMENT_SECS).contains(&t))
        }));
        let mut offsets = Vec::with_capacity(segments.len() + 1);
        let mut acc = 0usize;
        for s in &segments {
            offsets.push(acc);
            acc += s.len();
        }
        offsets.push(acc);
        Self {
            segments,
            offsets,
            horizon_secs,
            population_len,
        }
    }

    /// The per-day segments, in day order.
    pub fn segments(&self) -> &[SessionStore] {
        &self.segments
    }

    /// Segment `day` (sessions starting in `[day·86400, (day+1)·86400)`).
    pub fn segment(&self, day: usize) -> &SessionStore {
        &self.segments[day]
    }

    /// Number of day segments (covers the horizon and any later-starting
    /// sessions).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total number of sessions across all segments.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets carry a len sentinel")
    }

    /// Whether the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The replay horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.horizon_secs
    }

    /// Number of users the `user` columns index into.
    pub fn population_len(&self) -> usize {
        self.population_len
    }

    /// Reassembles global session `i` as a row record (same indexing as the
    /// monolithic store: canonical order across the concatenated segments).
    pub fn record(&self, i: usize) -> SessionRecord {
        let day = self.offsets.partition_point(|&o| o <= i) - 1;
        self.segments[day].record(i - self.offsets[day])
    }

    /// Reassembles every session in canonical order — identical to the
    /// monolithic [`SessionStore::to_records`] of the same sessions.
    pub fn to_records(&self) -> Vec<SessionRecord> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.segments {
            out.extend(s.to_records());
        }
        out
    }

    /// Global index of the first session starting at or after `secs` (or
    /// `len()`), agreeing with [`SessionStore::first_at_or_after`] on the
    /// monolithic store of the same sessions.
    pub fn first_at_or_after(&self, secs: u64) -> usize {
        let day = (secs / Self::SEGMENT_SECS) as usize;
        if day >= self.segments.len() {
            return self.len();
        }
        self.offsets[day] + self.segments[day].first_at_or_after(secs)
    }

    /// The global index range of sessions starting inside cursor-index
    /// window `w` (hour `w` of the horizon) — the segmented counterpart of
    /// [`SessionStore::window_range`].
    pub fn window_range(&self, w: usize) -> std::ops::Range<usize> {
        const WINDOWS_PER_SEGMENT: usize =
            (SegmentedStore::SEGMENT_SECS / INDEX_WINDOW_SECS) as usize;
        let day = w / WINDOWS_PER_SEGMENT;
        if day >= self.segments.len() {
            return self.len()..self.len();
        }
        let local = self.segments[day].window_range(w);
        let base = self.offsets[day];
        base + local.start..base + local.end
    }
}

/// Number of day segments needed to cover `horizon_secs` and the last
/// session start (sessions may start beyond the horizon; they are never
/// replayed but stay representable, as in the monolithic store).
fn day_count(horizon_secs: u64, last_start: Option<u64>) -> usize {
    let spd = SegmentedStore::SEGMENT_SECS;
    let for_horizon = horizon_secs.div_ceil(spd).max(1);
    let for_sessions = last_start.map_or(0, |s| s / spd + 1);
    for_horizon.max(for_sessions) as usize
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
            assert_eq!(store.end_secs(i), s.end().as_secs());
            assert_eq!(store.bitrate_bps(i), s.bitrate_bps());
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
            let expect = starts.partition_point(|&s| s < probe);
            assert_eq!(got, expect, "probe {probe}");
        }
        // Window ranges tile the whole column.
        let mut covered = 0usize;
        let windows = store.horizon_secs().div_ceil(INDEX_WINDOW_SECS) as usize;
        for w in 0..windows {
            let r = store.window_range(w);
            assert_eq!(r.start, covered);
            covered = r.end;
            for i in r {
                assert_eq!(starts[i] / INDEX_WINDOW_SECS, w as u64);
            }
        }
        assert_eq!(covered, store.len());
        assert_eq!(store.window_range(windows + 5), store.len()..store.len());
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
        assert!(cursor.exhausted());
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
        while !cursor.exhausted() {
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
    fn segmented_store_matches_monolithic_views() {
        let trace = small_trace();
        let mono = SessionStore::from_trace(&trace);
        let seg = SegmentedStore::from_trace(&trace);
        assert_eq!(seg.num_segments() as u32, trace.config().days);
        assert_eq!(seg.len(), mono.len());
        assert!(!seg.is_empty());
        assert_eq!(seg.horizon_secs(), mono.horizon_secs());
        assert_eq!(seg.population_len(), mono.population_len());
        assert_eq!(seg.to_records(), mono.to_records());
        for i in (0..mono.len()).step_by(89) {
            assert_eq!(seg.record(i), mono.record(i));
        }
        // Segment d holds exactly day d's sessions, canonically ordered.
        for (d, s) in seg.segments().iter().enumerate() {
            let lo = d as u64 * SegmentedStore::SEGMENT_SECS;
            assert!(s
                .start_secs()
                .iter()
                .all(|&t| t >= lo && t < lo + SegmentedStore::SEGMENT_SECS));
            assert_eq!(s, seg.segment(d));
        }
        // Global lookups agree with the monolithic index.
        for probe in [
            0,
            59,
            3_600,
            86_399,
            86_400,
            15 * 86_400 + 7,
            seg.horizon_secs() + 5,
        ] {
            assert_eq!(
                seg.first_at_or_after(probe),
                mono.first_at_or_after(probe),
                "probe {probe}"
            );
        }
        let windows = (seg.horizon_secs() / INDEX_WINDOW_SECS) as usize;
        for w in (0..windows).step_by(7).chain([windows + 3]) {
            assert_eq!(seg.window_range(w), mono.window_range(w), "window {w}");
        }
    }

    #[test]
    fn segmented_from_records_and_day_segments_agree() {
        let trace = small_trace();
        let mut shuffled = trace.sessions().to_vec();
        shuffled.reverse();
        let from_records = SegmentedStore::from_records(
            &shuffled,
            trace.horizon_seconds(),
            trace.population().len(),
        );
        let from_trace = SegmentedStore::from_trace(&trace);
        assert_eq!(from_records, from_trace);
        let reassembled = SegmentedStore::from_day_segments(
            from_trace.segments().to_vec(),
            trace.horizon_seconds(),
            trace.population().len(),
        );
        assert_eq!(reassembled, from_trace);
    }

    #[test]
    fn segmented_empty_and_beyond_horizon_sessions() {
        let empty = SegmentedStore::from_records(&[], 2 * 86_400, 4);
        assert!(empty.is_empty());
        assert_eq!(empty.num_segments(), 2);
        assert_eq!(empty.first_at_or_after(0), 0);
        assert_eq!(empty.window_range(5), 0..0);
        assert_eq!(empty.window_range(1_000), 0..0);

        // A session starting beyond the horizon grows the segment list, as
        // the monolithic window index grows to cover it.
        let trace = small_trace();
        let mut records = vec![trace.sessions()[0]];
        records[0].start = SimTime(3 * 86_400 + 10);
        let seg = SegmentedStore::from_records(&records, 86_400, 10);
        assert_eq!(seg.num_segments(), 4);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.record(0), records[0]);
        assert_eq!(seg.first_at_or_after(0), 0);
        assert_eq!(seg.first_at_or_after(4 * 86_400), 1);
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
        assert!(cursor.exhausted());
    }
}
