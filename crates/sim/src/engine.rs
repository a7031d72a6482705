//! The discrete time-step simulation engine.
//!
//! For every sub-swarm the engine sweeps the trace in Δτ windows, skipping
//! idle gaps, and delegates per-window upload assignment to the configured
//! matcher. Sub-swarms are independent, so every batch advances their
//! machines across std-scoped worker threads, in contiguous chunks cut by a
//! deterministic per-machine cost: the key leads with the popularity rank,
//! so the head swarms, created first, sit at the front and get chunks of
//! their own. A batch visits only the machines it brings sessions to and
//! those still holding sessions, found through a key → slot index, so a
//! small batch costs what it brings, not what the run holds. Results are
//! merged in deterministic key order and the random matcher is seeded per
//! swarm, so the report is bit-identical regardless of thread count.
//!
//! A swarm's windows come in **membership runs**: between two admissions
//! or retirements the active set, and with it every matcher input, is
//! fixed. The closest-first matcher still turns its uploader scan one step
//! per window, so a run's outcomes cycle with a period of the lcm of its
//! locality group sizes
//! ([`Matcher::outcome_period`](consume_local_swarm::Matcher::outcome_period)).
//! When a run draws no fault-injection coins (a lone peer, or full
//! cooperation) and lasts at least two periods, the engine matches its
//! first period and accounts the rest in closed form; a lone peer is the
//! period-1 case. Every ledger and user total is a `u64` sum, so the bytes
//! equal matching every window.
//!
//! The engine replays the **columnar** [`SessionStore`]: grouping reads the
//! content/ISP/bitrate columns, each sub-swarm drives the store's sliding
//! active-window cursor over the start-sorted columns, and only the columns
//! a pass touches move through the cache. A session enters its swarm's
//! active set at the first window boundary at or after its start, or at
//! the pause when a batch's watermark falls before that boundary; either
//! way, and on a snapshot restore, its window quantities come from one
//! derivation of its bitrate, its user and the configuration.
//!
//! Every way of feeding sessions to the engine goes through one entry
//! point: [`Simulator::simulate`] consumes any [`SessionSource`] — a whole
//! trace or prebuilt store in one batch, a generated
//! [`SegmentStream`](consume_local_trace::SegmentStream) day by day, or the
//! [`online`](crate::online) ingest channel as watermarked batches — and
//! every source produces the **byte-identical** report (the resumable
//! per-swarm window loops of [`SegmentedRun`] make batch boundaries
//! invisible).
//!
//! This file holds the entry points, the report merge and the helpers the
//! parts share. The per-swarm machine is in `engine/machine.rs`, the
//! batch-by-batch run in `engine/run.rs` and the test-only row oracle in
//! `engine/oracle.rs`; a run's snapshot layout sits with its envelope in
//! [`crate::checkpoint`].

use std::borrow::Cow;
use std::collections::BTreeMap;

use consume_local_swarm::SwarmKey;
use consume_local_topology::IspId;
use consume_local_trace::{ContentId, SessionRecord, SessionStore};

use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::config::{SimConfig, SimConfigError};
use crate::ledger::ByteLedger;
use crate::report::{
    DailyIspCell, Degradation, SimReport, SimWarning, SwarmDay, SwarmReport, UserTraffic,
};
use crate::source::SessionSource;

pub(crate) mod machine;
#[cfg(test)]
mod oracle;
pub(crate) mod run;
#[cfg(test)]
pub(crate) mod tests;

pub use run::SegmentedRun;

/// The simulator: a configured engine, reusable across traces.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::validate`]);
    /// use [`Simulator::try_new`] to handle invalid configurations as typed
    /// errors instead.
    pub fn new(config: SimConfig) -> Self {
        match Self::try_new(config) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid simulator config: {e}"),
        }
    }

    /// Creates a simulator, rejecting an invalid configuration as a typed
    /// [`SimConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint (see [`SimConfig::validate`]).
    pub fn try_new(config: SimConfig) -> Result<Self, SimConfigError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation over any [`SessionSource`] and returns the full
    /// report — the one entry point behind which every feeding mode meets.
    ///
    /// The report is **byte-identical across sources**: a whole
    /// [`Trace`](consume_local_trace::Trace), its prebuilt
    /// [`SessionStore`], a generated
    /// [`SegmentStream`](consume_local_trace::SegmentStream), or the online
    /// ingest channel ([`online::channel`](crate::online::channel)) all
    /// produce the same bytes for the same sessions, at any thread count
    /// and any batch schedule. A caller replaying the same trace under many
    /// configurations (the sweep runner) should build the store once and
    /// pass `&store`.
    ///
    /// # Example
    ///
    /// ```
    /// use consume_local_sim::{SimConfig, Simulator};
    /// use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let generator = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003)?, 7);
    /// let trace = generator.generate()?;
    /// let store = SessionStore::from_trace(&trace);   // build once, share freely
    /// let sim = Simulator::new(SimConfig::default());
    /// let report = sim.simulate(&store);
    /// // Any other source of the same sessions replays identically.
    /// assert_eq!(report, sim.simulate(&trace));
    /// assert_eq!(report, sim.simulate(&mut generator.segments()?));
    /// assert!(report.total.demand_bytes > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn simulate(&self, source: impl SessionSource) -> SimReport {
        self.simulate_days(source, |_| {})
    }

    /// Like [`Simulator::simulate`], additionally invoking `on_day_close`
    /// with each day's system-wide ledger as the source's watermark closes
    /// it — the serving-mode hook behind the online engine's day reports.
    ///
    /// A day closes as soon as the watermark reaches its end (no session
    /// starting later can touch it); days the source never watermarks past
    /// close at the end of the run, so every horizon day is emitted exactly
    /// once, in day order. The returned report is byte-identical to
    /// [`Simulator::simulate`] on the same source, and the emitted ledgers
    /// are exactly the per-day cells of that report aggregated across ISPs.
    pub fn simulate_days(
        &self,
        source: impl SessionSource,
        on_day_close: impl FnMut(DayClose),
    ) -> SimReport {
        self.begin(source.horizon_secs(), source.population_len())
            .simulate_remaining_days(source, on_day_close)
    }

    /// Like [`Simulator::simulate_days`], writing crash-safe snapshots at
    /// the cadence of `checkpointer` (after the watermark advance or day
    /// close that made one due — always at a batch boundary, so the
    /// snapshot is a complete resumable state). After a crash,
    /// [`Simulator::resume`] (or
    /// [`resume_latest`](crate::checkpoint::resume_latest)) rebuilds the
    /// run from the newest snapshot and
    /// [`SegmentedRun::simulate_remaining_days`] finishes it on the
    /// post-checkpoint batches, byte-identically to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates the first snapshot-write failure as its
    /// [`CheckpointError`] (the simulation stops at that batch boundary;
    /// the last successfully written snapshot is intact).
    pub fn simulate_days_checkpointed(
        &self,
        source: impl SessionSource,
        checkpointer: &mut Checkpointer,
        mut on_day_close: impl FnMut(DayClose),
    ) -> Result<SimReport, CheckpointError> {
        let mut run = self.begin(source.horizon_secs(), source.population_len());
        let mut failure: Option<CheckpointError> = None;
        source.for_each_batch(&mut |batch, watermark| {
            if failure.is_none() {
                failure = run
                    .push_checkpointed(batch, watermark, checkpointer, &mut on_day_close)
                    .err();
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(run.finish_days(on_day_close)),
        }
    }

    /// Begins an incremental run: push watermarked session batches with
    /// [`SegmentedRun::push_batch`], then call [`SegmentedRun::finish`].
    /// [`Simulator::simulate`] is the one-call wrapper; this entry point
    /// exists for callers that interleave batch production with other work
    /// (checkpointing between batches, or timing each push).
    pub fn begin(&self, horizon_secs: u64, population_len: usize) -> SegmentedRun {
        SegmentedRun {
            sim: self.clone(),
            horizon_secs,
            states: Vec::new(),
            index: BTreeMap::new(),
            live: Vec::new(),
            touched: Vec::new(),
            users: vec![UserTraffic::default(); population_len],
            watermark: 0,
            closed_days: 0,
            spilled_days: 0,
            spilled_cells: Vec::new(),
            max_start_secs: 0,
            max_user: 0,
            max_content: 0,
        }
    }

    /// Merges key-ordered per-swarm outputs, the run's per-user totals and
    /// its grouped day × ISP cells into the final report — the common tail
    /// of [`SegmentedRun::finish_days`] (and through it every entry point)
    /// and of the test-only row oracle. Both spill every day before they
    /// get here, so each swarm's spilled days are its report points as
    /// they stand, and the report's day × ISP cells are `cells`.
    fn merge_outputs(
        &self,
        horizon: u64,
        users: Vec<UserTraffic>,
        parts: Vec<(SwarmKey, u64, SwarmOutput)>,
        cells: Vec<DayCell>,
        warnings: Vec<SimWarning>,
    ) -> SimReport {
        let total_windows = horizon / self.config.window_secs;
        let mut swarms = Vec::with_capacity(parts.len());
        let mut total = ByteLedger::new();
        let mut degradation = Degradation::default();
        for (key, sessions, mut out) in parts {
            total.merge(&out.ledger);
            degradation.merge(&out.degradation);
            // The points grew one spill at a time; the report keeps them
            // at their exact length.
            out.daily.shrink_to_fit();
            swarms.push(SwarmReport {
                key,
                ledger: out.ledger,
                sessions,
                capacity: effective_capacity(&out.ledger),
                time_avg_capacity: out.ledger.measured_capacity(total_windows),
                upload_ratio: out.upload_ratio,
                daily: out.daily,
            });
        }
        let daily = cells
            .into_iter()
            .map(|(day, isp, ledger)| DailyIspCell { day, isp, ledger })
            .collect();

        SimReport {
            horizon_secs: horizon,
            window_secs: self.config.window_secs,
            swarms,
            users,
            daily,
            total,
            degradation,
            warnings,
        }
    }
}

/// One day's closed system-wide ledger, emitted by
/// [`Simulator::simulate_days`] / [`SegmentedRun::drain_closed_days`] as
/// the watermark (or the end of the run) seals the day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayClose {
    /// 0-based day index.
    pub day: u32,
    /// The day's ledger summed across every swarm (equals the day's
    /// [`DailyIspCell`]s of the final report aggregated over ISPs).
    pub ledger: ByteLedger,
}

/// The [`SimWarning`]s implied by a session set's sort-key maxima: one
/// [`SimWarning::SortKeyFallback`] when the joint field widths overflow
/// the packed 64-bit key (the same predicate the trace crate's packing and
/// `TraceStats` use), nothing otherwise. Element-wise maxima folding
/// across batches equals the monolithic maxima, so every source yields the
/// same warning set for the same sessions.
fn sort_key_warnings(maxima: (u64, u32, u32)) -> Vec<SimWarning> {
    let (max_start_secs, max_user, max_content) = maxima;
    if consume_local_trace::generator::sort_key_fallback_required(maxima) {
        vec![SimWarning::SortKeyFallback {
            max_start_secs,
            max_user,
            max_content,
        }]
    } else {
        Vec::new()
    }
}

/// The number of leading days a watermark has sealed: days whose end it
/// has reached, or every horizon day once it reaches the horizon.
pub(crate) fn sealed_days(watermark: u64, horizon_secs: u64) -> u64 {
    let spd = consume_local_trace::time::SECS_PER_DAY;
    let total_days = horizon_secs.div_ceil(spd);
    if watermark >= horizon_secs {
        total_days
    } else {
        (watermark / spd).min(total_days)
    }
}

/// One day × ISP cell of the report's daily list, `(day, isp, ledger)`.
pub(crate) type DayCell = (u32, Option<IspId>, ByteLedger);

/// Spills the entries of a swarm's day-sorted `daily` list that lie before
/// day `sealed`: each becomes the report's [`SwarmDay`] point in `spilled`
/// (its capacity inverted here, once) and the swarm's share of its day ×
/// ISP cell in `cells`.
fn spill_days(
    daily: &mut Vec<(u32, ByteLedger)>,
    sealed: u64,
    isp: Option<IspId>,
    spilled: &mut Vec<SwarmDay>,
    cells: &mut Vec<DayCell>,
) {
    let cut = daily.partition_point(|&(d, _)| u64::from(d) < sealed);
    for (day, ledger) in daily.drain(..cut) {
        spilled.push(SwarmDay {
            day,
            capacity: effective_capacity(&ledger),
            demand_bytes: ledger.demand_bytes,
        });
        cells.push((day, isp, ledger));
    }
}

/// Folds one round of spilled per-swarm cells into the grouped,
/// `(day, isp)`-sorted cells: one sort, then a merge of equal neighbours.
/// Every cell of a round lies on a later day than any grouped one (days
/// spill in order), so the grouped list stays sorted, and its ledgers are
/// commutative `u64` sums, so any round cut gives the same bytes.
fn fold_cells(grouped: &mut Vec<DayCell>, mut round: Vec<DayCell>) {
    round.sort_by_key(|&(day, isp, _)| (day, isp));
    for (day, isp, ledger) in round {
        match grouped.last_mut() {
            Some(c) if c.0 == day && c.1 == isp => c.2.merge(&ledger),
            _ => grouped.push((day, isp, ledger)),
        }
    }
}

/// One session's per-user bytes, `(user, watched, uploaded)`, handed out
/// when the session leaves its swarm's active set and folded into the
/// run's per-user totals ([`add_user_bytes`]).
type UserBytes = (u32, u64, u64);

/// Adds sessions' [`UserBytes`] to the run's per-user totals. Every total
/// is a `u64` sum, so neither the order of the rows nor which chunk listed
/// them can move a byte: the totals are the same at any thread count,
/// batch schedule and resume point.
fn add_user_bytes<'a>(users: &mut [UserTraffic], rows: impl IntoIterator<Item = &'a UserBytes>) {
    for &(user, watched, uploaded) in rows {
        let total = &mut users[user as usize];
        total.watched_bytes += watched;
        total.uploaded_bytes += uploaded;
    }
}

/// The sessions of `store` that start before `horizon_secs`, the only ones
/// a run simulates: one binary search over the start column, and the store
/// itself, uncopied, when nothing lies past the horizon.
fn before_horizon(store: &SessionStore, horizon_secs: u64) -> Cow<'_, SessionStore> {
    let cut = store.first_at_or_after(horizon_secs);
    if cut == store.len() {
        return Cow::Borrowed(store);
    }
    let records: Vec<SessionRecord> = (0..cut).map(|i| store.record(i)).collect();
    Cow::Owned(SessionStore::from_records(
        &records,
        store.horizon_secs(),
        store.population_len(),
    ))
}

/// Groups a store's sessions into sub-swarms with one sort of packed
/// integers instead of a `HashMap<SwarmKey, Vec<u32>>` rebuild: each
/// session is one `u128` of its key ([`pack_key`]) above its store index,
/// so the unstable sort orders by key and breaks ties by index. Within a
/// swarm, indices therefore keep the trace's canonical start order (the
/// window loop's admission invariant), and swarms come out key-ordered.
/// Keys are assembled straight from the content/ISP/device columns. Every
/// batch of [`SegmentedRun::push_batch`] goes through it: the grouping is
/// part of the byte-identity contract between the monolithic and
/// batch-sequential paths, so it must have exactly one definition.
#[allow(clippy::type_complexity)]
fn group_by_swarm(
    config: &SimConfig,
    store: &SessionStore,
) -> (Vec<u32>, Vec<(SwarmKey, std::ops::Range<usize>)>) {
    let content = store.content();
    let isp = store.isp();
    let key_of = |i: usize| {
        config
            .policy
            .key_parts(ContentId(content[i]), isp[i], store.bitrate_class(i))
    };
    let mut packed: Vec<u128> = (0..store.len())
        .map(|i| pack_key(&key_of(i)) << 32 | i as u128)
        .collect();
    packed.sort_unstable();
    let indices: Vec<u32> = packed.iter().map(|&p| p as u32).collect();
    let mut groups: Vec<(SwarmKey, std::ops::Range<usize>)> = Vec::new();
    let mut start = 0usize;
    while start < packed.len() {
        let key_bits = packed[start] >> 32;
        let mut end = start + 1;
        while end < packed.len() && packed[end] >> 32 == key_bits {
            end += 1;
        }
        groups.push((key_of(indices[start] as usize), start..end));
        start = end;
    }
    (indices, groups)
}

/// `key` as a 74-bit integer that orders like `SwarmKey`'s derived `Ord`:
/// the content id, then the ISP + 1 (0 for none, below every ISP), then the
/// bitrate + 1 (0 for none).
fn pack_key(key: &SwarmKey) -> u128 {
    let isp = key.isp.map_or(0, |isp| u128::from(isp.0) + 1);
    let bitrate = key.bitrate.map_or(0, |b| u128::from(b.bps()) + 1);
    u128::from(key.content.0) << 42 | isp << 33 | bitrate
}

/// Window-aligned ceiling: the first window boundary at or after `secs`.
fn align_up(secs: u64, dt: u64) -> u64 {
    secs.div_ceil(dt) * dt
}

/// Deterministic participation membership: the same user participates (or
/// not) in every swarm, run and configuration with the same rate.
fn participates(user: u32, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    // splitmix64 of the user id → uniform in [0, 1).
    let mut x = u64::from(user).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) < rate
}

/// Domain-separation tag mixed into the base seed for the defection
/// stream, so defection coins never correlate with the random matcher's
/// stream even for the same swarm key.
const DEFECT_STREAM_TAG: u64 = 0x5afe_c0de_d15c_0bed;

/// Domain-separation tag for the receiver-side flake stream: whether a
/// defecting user's *demand* flakes in a window is independent of whether
/// its *uploads* fail (both coins share the counter-hash construction of
/// [`defects`] but never the seed).
const RECV_DEFECT_STREAM_TAG: u64 = 0x5afe_c0de_00f1_a4ed;

/// Deterministic defection coin for `(swarm, user, window)`: `true` when a
/// matched uploader silently fails to deliver this window's bytes.
///
/// Like [`participates`], this is a counter-based hash rather than a
/// stateful RNG: the coin depends only on the swarm's defection seed, the
/// user id and the window start, so it is identical across thread counts,
/// segment boundaries and the online replay path — no draw-order to keep
/// in sync.
fn defects(seed: u64, user: u32, window_start_secs: u64, cooperation: f64) -> bool {
    if cooperation >= 1.0 {
        return false;
    }
    let mut x = seed
        ^ u64::from(user).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ window_start_secs.wrapping_mul(0xd1b5_4a32_d192_ed03);
    // splitmix64 finaliser → uniform in [0, 1).
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) >= cooperation
}

/// The ledger's effective M/M/∞ capacity: while-active mean occupancy
/// inverted through `L̄ = c/(1 − e^(−c))`.
fn effective_capacity(ledger: &ByteLedger) -> f64 {
    if ledger.active_windows == 0 {
        return 0.0;
    }
    let l_bar = ledger.peer_windows as f64 / ledger.active_windows as f64;
    consume_local_analytics::capacity_from_active_mean(l_bar)
}

/// Deterministic per-swarm seed for the (optionally random) matcher, so the
/// result does not depend on which worker thread picks the swarm up.
fn swarm_seed(base: u64, key: &SwarmKey) -> u64 {
    let mut x = base ^ (u64::from(key.content.0) << 1);
    if let Some(isp) = key.isp {
        x ^= (u64::from(isp.0) + 1) << 40;
    }
    if let Some(b) = key.bitrate {
        x ^= u64::from(b.bps()) << 16;
    }
    // splitmix64 finaliser
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One swarm's share of the final report, taken once every day is spilled:
/// its whole-run ledger, its spilled days in day order (their day × ISP
/// cells are the run's), its upload ratio and its fault losses.
#[derive(Debug, Default)]
struct SwarmOutput {
    ledger: ByteLedger,
    daily: Vec<SwarmDay>,
    upload_ratio: f64,
    degradation: Degradation,
}
