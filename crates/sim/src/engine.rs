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
//! locality group sizes ([`Matcher::outcome_period`]). When a run draws no
//! fault-injection coins (a lone peer, or full cooperation) and lasts at
//! least two periods, the engine matches its first period and accounts the
//! rest in closed form; a lone peer is the period-1 case. Every ledger and
//! user total is a `u64` sum, so the bytes equal matching every window.
//!
//! The engine replays the **columnar** [`SessionStore`]: grouping reads the
//! content/ISP/bitrate columns, each sub-swarm drives the store's sliding
//! active-window cursor over the start-sorted columns, and only the columns
//! a pass touches move through the cache.
//!
//! Every way of feeding sessions to the engine goes through one entry
//! point: [`Simulator::simulate`] consumes any [`SessionSource`] — a whole
//! trace or prebuilt store in one batch, a generated
//! [`SegmentStream`](consume_local_trace::SegmentStream) day by day, or the
//! [`online`](crate::online) ingest channel as watermarked batches — and
//! every source produces the **byte-identical** report (the resumable
//! per-swarm window loops of [`SegmentedRun`] make batch boundaries
//! invisible).

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};

use consume_local_swarm::matching::MatchOutcome;
use consume_local_swarm::{Matcher, MatcherKind, Peer, SwarmKey, SwarmPolicy};
use consume_local_topology::{ExchangeId, IspId, PopId, UserLocation};
use consume_local_trace::{device::BitrateClass, ContentId, SessionRecord, SessionStore, SimTime};

use crate::checkpoint::{CheckpointError, Checkpointer, SnapshotReader, SnapshotWriter};
use crate::config::{EdgeCache, SimConfig, SimConfigError, UploadModel};
use crate::ledger::ByteLedger;
use crate::par::parallel_map_slices;
use crate::report::{DailyIspCell, Degradation, SimReport, SimWarning, SwarmReport, UserTraffic};
use crate::source::SessionSource;

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
    /// get here, so each swarm's days are its frozen days and the report's
    /// day × ISP cells are `cells` as they stand.
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
        for (key, sessions, out) in parts {
            total.merge(&out.ledger);
            degradation.merge(&out.degradation);
            let daily = out
                .frozen
                .iter()
                .map(|f| crate::report::SwarmDay {
                    day: f.day,
                    capacity: f.capacity(),
                    demand_bytes: f.demand_bytes,
                })
                .collect();
            swarms.push(SwarmReport {
                key,
                ledger: out.ledger,
                sessions,
                capacity: effective_capacity(&out.ledger),
                time_avg_capacity: out.ledger.measured_capacity(total_windows),
                upload_ratio: out.upload_ratio,
                daily,
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
fn sealed_days(watermark: u64, horizon_secs: u64) -> u64 {
    let spd = consume_local_trace::time::SECS_PER_DAY;
    let total_days = horizon_secs.div_ceil(spd);
    if watermark >= horizon_secs {
        total_days
    } else {
        (watermark / spd).min(total_days)
    }
}

/// One day × ISP cell of the report's daily list, `(day, isp, ledger)`.
type DayCell = (u32, Option<IspId>, ByteLedger);

/// Spills the entries of a swarm's day-sorted `daily` list that lie before
/// day `sealed`: each becomes a compact [`FrozenDay`] in `frozen` and the
/// swarm's share of its day × ISP cell in `cells`.
fn spill_days(
    daily: &mut Vec<(u32, ByteLedger)>,
    sealed: u64,
    isp: Option<IspId>,
    frozen: &mut Vec<FrozenDay>,
    cells: &mut Vec<DayCell>,
) {
    let cut = daily.partition_point(|&(d, _)| u64::from(d) < sealed);
    for (day, ledger) in daily.drain(..cut) {
        frozen.push(FrozenDay {
            day,
            demand_bytes: ledger.demand_bytes,
            active_windows: ledger.active_windows,
            peer_windows: ledger.peer_windows,
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

/// The columnar active set of one sub-swarm: parallel per-session columns in
/// arrival order, with the `peers`/`needs`/`budgets` columns shaped exactly
/// as [`Matcher::match_window_into`] consumes them. Pushes append to every
/// column; retiring compacts all columns in lockstep (order-preserving, like
/// `Vec::retain`) and hands each retired session's [`UserBytes`] out, and
/// `min_end` lets a window skip the retire scan when no active session can
/// have ended yet.
#[derive(Debug)]
struct ActiveSet {
    /// Session end times in seconds.
    ends: Vec<u64>,
    /// Each session's user id.
    users: Vec<u32>,
    /// Bytes each session has watched so far (preloaded bytes included).
    watched: Vec<u64>,
    /// Upload bytes each session has been credited so far.
    uploaded: Vec<u64>,
    /// Matcher input: peer identities.
    peers: Vec<Peer>,
    /// Full per-window demand `β·Δτ/8` in bytes, preload included.
    full_demands: Vec<u64>,
    /// In-swarm per-window demand (full demand minus the preloaded part).
    demands: Vec<u64>,
    /// Per-window bytes served by predictive preloading.
    preloads: Vec<u64>,
    /// Matcher input: peer-receivable caps `min(demand, q·Δτ/8)`.
    needs: Vec<u64>,
    /// Matcher input: per-window upload budgets (0 for non-participants).
    budgets: Vec<u64>,
    /// Smallest entry of `ends` (`u64::MAX` when empty): windows with
    /// `t < min_end` cannot retire anything and skip the scan.
    min_end: u64,
}

impl Default for ActiveSet {
    fn default() -> Self {
        Self {
            ends: Vec::new(),
            users: Vec::new(),
            watched: Vec::new(),
            uploaded: Vec::new(),
            peers: Vec::new(),
            full_demands: Vec::new(),
            demands: Vec::new(),
            preloads: Vec::new(),
            needs: Vec::new(),
            budgets: Vec::new(),
            min_end: u64::MAX,
        }
    }
}

impl ActiveSet {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        end: u64,
        user: u32,
        peer: Peer,
        full_demand: u64,
        demand: u64,
        preload: u64,
        need: u64,
        budget: u64,
    ) {
        self.ends.push(end);
        self.users.push(user);
        self.watched.push(0);
        self.uploaded.push(0);
        self.peers.push(peer);
        self.full_demands.push(full_demand);
        self.demands.push(demand);
        self.preloads.push(preload);
        self.needs.push(need);
        self.budgets.push(budget);
        self.min_end = self.min_end.min(end);
    }

    /// Drops every session with `end <= t`, preserving arrival order —
    /// exactly `retain(|a| a.end > t)` over the row shape — and appends each
    /// dropped session's bytes to `retired`. Returns whether the set
    /// changed; the no-op case is decided by one `min_end` compare.
    fn retire_ended(&mut self, t: u64, retired: &mut Vec<UserBytes>) -> bool {
        if self.min_end > t {
            return false;
        }
        let mut w = 0usize;
        let mut min_end = u64::MAX;
        for r in 0..self.ends.len() {
            let end = self.ends[r];
            if end <= t {
                retired.push((self.users[r], self.watched[r], self.uploaded[r]));
            } else {
                if w != r {
                    self.ends[w] = end;
                    self.users[w] = self.users[r];
                    self.watched[w] = self.watched[r];
                    self.uploaded[w] = self.uploaded[r];
                    self.peers[w] = self.peers[r];
                    self.full_demands[w] = self.full_demands[r];
                    self.demands[w] = self.demands[r];
                    self.preloads[w] = self.preloads[r];
                    self.needs[w] = self.needs[r];
                    self.budgets[w] = self.budgets[r];
                }
                min_end = min_end.min(end);
                w += 1;
            }
        }
        self.ends.truncate(w);
        self.users.truncate(w);
        self.watched.truncate(w);
        self.uploaded.truncate(w);
        self.peers.truncate(w);
        self.full_demands.truncate(w);
        self.demands.truncate(w);
        self.preloads.truncate(w);
        self.needs.truncate(w);
        self.budgets.truncate(w);
        self.min_end = min_end;
        true
    }
}

/// A session queued for admission but not yet reached by its swarm's window
/// loop when a day segment ended: everything the admission path needs,
/// materialised so the segment's columns can be dropped. At most one
/// window's worth of sessions per swarm is ever carried (plus, for window
/// lengths beyond a day, the windows the boundary overran).
#[derive(Debug, Clone, Copy)]
struct PendingSession {
    start: u64,
    end: u64,
    user: u32,
    bitrate_bps: u32,
    isp: IspId,
    location: UserLocation,
}

/// The matcher slot of a [`SwarmSim`]: a live machine owns its built
/// matcher; a dormant (compacted) machine keeps only the matcher's
/// checkpoint word — exactly what [`crate::checkpoint`] persists — and
/// rebuilds the matcher from it on reactivation.
enum MatcherSlot {
    Live(Box<dyn Matcher + Send>),
    Dormant { word: u64 },
}

impl MatcherSlot {
    /// The live matcher. Callers must have thawed the machine first.
    fn live_mut(&mut self) -> &mut (dyn Matcher + Send) {
        match self {
            MatcherSlot::Live(m) => m.as_mut(),
            MatcherSlot::Dormant { .. } => unreachable!("dormant machine advanced without thaw"),
        }
    }

    /// The matcher's checkpoint word, live or dormant.
    fn word(&self) -> u64 {
        match self {
            MatcherSlot::Live(m) => m.checkpoint_word(),
            MatcherSlot::Dormant { word } => *word,
        }
    }
}

/// The resumable per-swarm window loop: the columnar active set, the
/// matcher (rotation/RNG state included), the current window boundary and
/// the per-swarm accumulators, packaged so the loop can pause at a segment
/// boundary and resume when the next day's sessions arrive. Per-user bytes
/// are not among them: each active session carries its own, and hands them
/// out when it leaves the active set.
///
/// A one-batch source drives it over the whole store in one
/// [`SwarmSim::advance`] call; [`SegmentedRun`] drives the same machine one
/// batch at a time. Because a pause/resume changes neither the active
/// set, the matcher state, the cached membership totals nor the window
/// boundary — and sessions unreached at a boundary are carried forward in
/// start order — the two schedules produce byte-identical outputs (pinned
/// by `tests/segmented.rs`).
///
/// The active set is fully columnar ([`ActiveSet`]): its peer/need/budget
/// columns feed [`Matcher::match_window_into`] as slices directly, so a
/// steady-state window performs **zero** allocation and zero copying of
/// window inputs — the per-window work is the matcher itself, the
/// per-session byte columns and the ledger. Membership-dependent totals
/// (demand, preload, the CDN-ineligible remainder) are cached between
/// membership changes, and the retire scan is skipped entirely while every
/// active session's end lies beyond the boundary (`min_end` tracking).
///
/// Most windows are never matched at all: a membership run that draws no
/// fault-injection coins and lasts two or more outcome periods is matched
/// for one period and accounted in closed form for the rest
/// ([`SwarmSim::start_run`]). The cycle's ledgers are scratch, released with
/// the rest when the machine goes quiescent.
struct SwarmSim {
    matcher: MatcherSlot,
    /// The matcher's key-derived seed (`swarm_seed` of the run seed and the
    /// swarm key), kept so a dormant machine can rebuild its matcher
    /// without knowing its key.
    matcher_seed: u64,
    active: ActiveSet,
    /// The next window boundary to process (always a multiple of Δτ).
    t: SimTime,
    /// Sessions carried across a segment boundary, in start order; always
    /// ahead of (or equal to) `t` and behind every later segment's starts.
    carry: VecDeque<PendingSession>,
    ledger: ByteLedger,
    daily: Vec<(u32, ByteLedger)>,
    upload_ratio: f64,
    /// Whether this swarm's item sits in the configured edge cache.
    cached: bool,
    /// Membership-dependent window totals, recomputed only when the active
    /// set changes (integer sums in index order, so they equal a fresh
    /// per-window recomputation exactly).
    sums_stale: bool,
    preload_total: u64,
    swarm_demand: u64,
    ineligible: u64,
    outcome: MatchOutcome,
    /// Seed of this swarm's dedicated defection stream (independent of the
    /// matcher's stream, so fault injection never perturbs matching).
    defect_seed: u64,
    /// Seed of the receiver-side flake stream (its own domain tag: a user
    /// defecting as an uploader and flaking as a receiver are independent
    /// coins, both derived from the same counter-hash construction).
    recv_defect_seed: u64,
    /// Copy-on-flake scratch for the needs column: windows where a
    /// defecting receiver's demand flakes get their zeroed needs here, so
    /// the shared column (and the cached membership sums) stay untouched.
    needs_flaked: Vec<u64>,
    /// Replay scratch for [`SwarmSim::start_run`]: the ledger of each
    /// window of one outcome cycle, in rotation order.
    cycle_ledgers: Vec<ByteLedger>,
    /// Fault-injection losses accumulated over the swarm's lifetime.
    degradation: Degradation,
}

impl SwarmSim {
    /// Creates an empty machine for swarm `key` with a fresh matcher, its
    /// next window boundary at `t` and the report's upload ratio: the one
    /// place the key-derived seeds, the edge-cache bit and the scratch
    /// buffers are set, for a new swarm and for a restored one alike.
    fn new(sim: &Simulator, key: &SwarmKey, t: u64, upload_ratio: f64) -> Self {
        let matcher_seed = swarm_seed(sim.config.seed, key);
        Self {
            matcher: MatcherSlot::Live(sim.config.matcher.build(matcher_seed)),
            matcher_seed,
            active: ActiveSet::default(),
            t: SimTime(t),
            carry: VecDeque::new(),
            ledger: ByteLedger::new(),
            daily: Vec::new(),
            upload_ratio,
            cached: sim
                .config
                .edge_cache
                .is_some_and(|c| key.content.0 < c.top_items),
            sums_stale: true,
            preload_total: 0,
            swarm_demand: 0,
            ineligible: 0,
            outcome: MatchOutcome::default(),
            defect_seed: swarm_seed(sim.config.seed ^ DEFECT_STREAM_TAG, key),
            recv_defect_seed: swarm_seed(sim.config.seed ^ RECV_DEFECT_STREAM_TAG, key),
            needs_flaked: Vec::new(),
            cycle_ledgers: Vec::new(),
            degradation: Degradation::default(),
        }
    }

    /// Admits one session into the active set (skipping sessions that end
    /// by the current boundary). Per-session window quantities are fixed
    /// for the whole session (bitrate and Δτ do not change), so they are
    /// computed once here instead of once per window. A preloaded fraction
    /// of every session's bytes bypasses the swarm (§VI preloading
    /// extension; 0 by default).
    fn admit(&mut self, sim: &Simulator, p: PendingSession) {
        if p.end <= self.t.as_secs() {
            return;
        }
        let dt = sim.config.window_secs;
        let full_demand = u64::from(p.bitrate_bps) * dt / 8;
        let preload = (full_demand as f64 * sim.config.preload_fraction) as u64;
        let demand = full_demand - preload;
        // Non-participating users never upload (NetSession-style partial
        // participation); their own peer-receipt cap is based on the
        // swarm's typical uplink, not their zero one.
        let nominal_budget = sim.config.upload.budget_bytes(p.bitrate_bps, dt);
        let budget = if participates(p.user, sim.config.participation_rate) {
            nominal_budget
        } else {
            0
        };
        self.active.push(
            p.end,
            p.user,
            Peer {
                isp: p.isp,
                location: p.location,
            },
            full_demand,
            demand,
            preload,
            demand.min(nominal_budget),
            budget,
        );
    }

    /// Runs the window loop over `indices` (a start-ordered index subset of
    /// `store` — one segment's sessions for this swarm, or the whole
    /// store), processing every window boundary strictly below `limit` that
    /// the supplied sessions cover, and pausing at `limit` with unreached
    /// sessions moved into the carry buffer. Pass `limit = u64::MAX` for a
    /// single full-horizon pass. Sessions that leave the active set append
    /// their bytes to `retired`.
    ///
    /// The first window of each membership run — after an admission or a
    /// retirement, and the first window of every call, since a batch
    /// boundary pauses a run — sizes the run up to the next membership
    /// event or `limit` and, when the run draws no coins (one peer, or
    /// `cooperation_rate >= 1.0`), hands it to [`SwarmSim::start_run`] for
    /// replay. Every other window is matched one by one.
    fn advance(
        &mut self,
        sim: &Simulator,
        store: &SessionStore,
        indices: &[u32],
        limit: u64,
        horizon: u64,
        retired: &mut Vec<UserBytes>,
    ) {
        self.thaw(sim);
        let dt = sim.config.window_secs;
        // Hot columns as local slices: one pointer load each at admission
        // time instead of a walk through the store on every field.
        let starts_col = store.start_secs();
        let durations_col = store.duration_secs();
        let users_col = store.user();
        let devices_col = store.device();
        let isps_col = store.isp();
        let locations_col = store.location();
        let pending_of = |i: usize| PendingSession {
            start: starts_col[i],
            end: starts_col[i] + u64::from(durations_col[i]),
            user: users_col[i],
            bitrate_bps: devices_col[i].bitrate_bps(),
            isp: isps_col[i],
            location: locations_col[i],
        };
        // The store's sliding cursor admits each session exactly once as
        // the window boundary crosses its start.
        let mut cursor = store.cursor(indices);
        // A batch boundary pauses a membership run, so the first window of
        // every call starts one (it may continue where the last call left).
        let mut run_start = true;

        loop {
            let t = self.t.as_secs();
            if t >= horizon {
                // Windows stop at the horizon; whatever the cursor still
                // holds can never be replayed (same as the monolithic loop
                // exiting), so there is nothing to carry.
                return;
            }
            if t >= limit {
                // Window `t` belongs to the next segment's pass: stash the
                // segment's unreached sessions before its columns go away.
                let carry = &mut self.carry;
                cursor.admit_until(u64::MAX, |i| carry.push_back(pending_of(i)));
                return;
            }
            self.sums_stale |= self.active.retire_ended(t, retired);
            let len_before_admit = self.active.len();
            // Carried sessions first: their starts precede every session of
            // the current segment, so admission order stays start-ordered.
            while let Some(p) = self.carry.front().copied() {
                if p.start > t {
                    break;
                }
                self.carry.pop_front();
                self.admit(sim, p);
            }
            cursor.admit_until(t, |i| self.admit(sim, pending_of(i)));
            self.sums_stale |= self.active.len() != len_before_admit;
            let next_start = self
                .carry
                .front()
                .map(|p| p.start)
                .or_else(|| cursor.next_start_secs());
            if self.active.is_empty() {
                let Some(next_start) = next_start else {
                    // Nothing active and nothing queued: paused (more
                    // segments may follow) or finished.
                    return;
                };
                // Jump to the first window boundary at which the next
                // session is active (align *up*: a boundary before its start
                // would never pick it up and loop forever).
                self.t = SimTime(align_up(next_start, dt).max(t + dt));
                continue;
            }

            // A membership change starts a run. Its windows see one active
            // set, so with a lone peer (no coins to draw) or full
            // cooperation (no coins at all) they differ only in the
            // matcher's rotation, and the run is replayable.
            run_start |= self.sums_stale;
            if run_start && (self.active.len() == 1 || sim.config.cooperation_rate >= 1.0) {
                // The run lasts until the next membership event — the
                // earliest end, the boundary at or after the next start,
                // the horizon — or the batch limit, whichever comes first.
                let mut upper = self.active.min_end.min(horizon);
                if let Some(next_start) = next_start {
                    upper = upper.min(align_up(next_start, dt));
                }
                let k = (upper - t).div_ceil(dt).min((limit - t).div_ceil(dt));
                debug_assert!(k >= 1, "the current window is always in the run");
                let stepped = self.start_run(sim, t, k);
                self.t = SimTime(t + stepped * dt);
            } else {
                let window_ledger = self.step_window(sim, t);
                self.book(t, window_ledger);
                self.t = self.t + dt;
            }
            run_start = false;
        }
    }

    /// Matches the first window of a replayable membership run of `k`
    /// windows starting at `t`, and returns how many windows it accounted.
    ///
    /// When the matcher reports an outcome period `P` with `k ≥ 2P`, the
    /// run's outcomes cycle through its first `P` windows: those are
    /// matched as usual and the other `k − P` accounted in closed form —
    /// each day chunk's ledger is `Σ_r count_r × ledger_r` over the cycle's
    /// rotations, each session's watched bytes grow by its full demand per
    /// window and its uploads by `Σ_r count_r × upload_r` — before the
    /// matcher skips them. Every total is a commutative `u64` sum, so the
    /// bytes equal `k` matched windows exactly. Otherwise only the first
    /// window is matched.
    fn start_run(&mut self, sim: &Simulator, t: u64, k: u64) -> u64 {
        let dt = sim.config.window_secs;
        let first = self.step_window(sim, t);
        self.book(t, first);
        let period = match self.matcher.live_mut().outcome_period() {
            Some(p) if p <= k / 2 => p,
            _ => return 1,
        };
        let replayed = k - period;
        // Replayed window `j` repeats rotation `j % period`, so among the
        // first `j` replayed windows rotation `r` recurs this often.
        let recurrences = |j: u64, r: u64| j / period + u64::from(r < j % period);
        self.cycle_ledgers.clear();
        self.cycle_ledgers.push(first);
        for r in 0..period {
            if r > 0 {
                let window_ledger = self.step_window(sim, t + r * dt);
                self.book(t + r * dt, window_ledger);
                self.cycle_ledgers.push(window_ledger);
            }
            // Full cooperation (or a lone peer) never voids an upload.
            let count = recurrences(replayed, r);
            for (credited, p) in self.active.uploaded.iter_mut().zip(&self.outcome.per_peer) {
                *credited += count * p.uploaded;
            }
        }
        for (watched, &full_demand) in self
            .active
            .watched
            .iter_mut()
            .zip(&self.active.full_demands)
        {
            *watched += full_demand * replayed;
        }

        // Chunk the replayed windows by the day each starts in (windows
        // straddling midnight belong to their start's day, exactly as the
        // per-window path books them).
        let spd = consume_local_trace::time::SECS_PER_DAY;
        let mut j = 0u64;
        while j < replayed {
            let tw = t + (period + j) * dt;
            let day_end = (tw / spd + 1) * spd;
            let in_day = (day_end - tw).div_ceil(dt).min(replayed - j);
            let mut chunk = ByteLedger::new();
            for (r, ledger) in (0..).zip(&self.cycle_ledgers) {
                chunk.merge_times(ledger, recurrences(j + in_day, r) - recurrences(j, r));
            }
            self.book(tw, chunk);
            j += in_day;
        }
        self.matcher.live_mut().skip_windows(replayed);
        k
    }

    /// Matches window `t` of the current active set and accounts it into
    /// the per-session byte columns and the degradation tally, returning
    /// the window's ledger for [`SwarmSim::book`].
    fn step_window(&mut self, sim: &Simulator, t: u64) -> ByteLedger {
        // Peer 0 (earliest joiner — the columns preserve arrival order)
        // is the fresh fetcher. The CDN-side "ineligible" remainder
        // carries the fetcher's full in-swarm demand plus every peer's
        // demand − need. An unchanged membership also means an unchanged
        // peer sequence, which the matcher turns into a reused locality
        // grouping (no per-window sort in stable windows).
        let peers_unchanged = !self.sums_stale;
        if self.sums_stale {
            self.preload_total = self.active.preloads.iter().sum();
            self.swarm_demand = self.active.demands.iter().sum();
            let tail_needs: u64 = self.active.needs[1..].iter().sum();
            self.ineligible = self.swarm_demand - tail_needs;
            self.sums_stale = false;
        }

        // Receiver-side fault injection: a defecting user's *demand* can
        // flake for a window (same counter-hash construction as uploader
        // defection, its own stream tag). A flaking receiver accepts no
        // peer bytes this window — its need is withheld from matching
        // and the deferred volume is served by the CDN/cache fallback
        // instead, accounted exactly in `failed_demand_bytes`. The
        // shared needs column is never mutated (copy-on-flake scratch),
        // so the cached membership sums stay valid.
        let cooperation = sim.config.cooperation_rate;
        let mut failed_demand = 0u64;
        let mut flaked = false;
        if cooperation < 1.0 {
            for k in 1..self.active.len() {
                let need = self.active.needs[k];
                if need > 0 && defects(self.recv_defect_seed, self.active.users[k], t, cooperation)
                {
                    if !flaked {
                        self.needs_flaked.clear();
                        self.needs_flaked.extend_from_slice(&self.active.needs);
                        flaked = true;
                    }
                    self.needs_flaked[k] = 0;
                    failed_demand += need;
                }
            }
        }
        let needs: &[u64] = if flaked {
            &self.needs_flaked
        } else {
            &self.active.needs
        };
        self.matcher.live_mut().match_window_into_hinted(
            &self.active.peers,
            needs,
            &self.active.budgets,
            0,
            peers_unchanged,
            &mut self.outcome,
        );

        // Fault injection: a matched uploader may silently defect this
        // window (deterministic hash of swarm/user/window — see
        // `defects`). Its transfers fail, its upload credit is void, and
        // the receivers' bytes fall back to the CDN/cache. The per-session
        // byte pass therefore runs *before* the ledger so the failed volume
        // can be re-routed. The matcher's outcome itself is never mutated:
        // a replayed run reads its per-peer uploads.
        let mut failed_total = 0u64;
        let mut failed_by_layer = [0u64; 3];
        debug_assert_eq!(self.outcome.per_peer.len(), self.active.len());
        let active = &mut self.active;
        for ((((watched, credited), &full_demand), &user), peer) in active
            .watched
            .iter_mut()
            .zip(&mut active.uploaded)
            .zip(&active.full_demands)
            .zip(&active.users)
            .zip(&self.outcome.per_peer)
        {
            // Users watch their full demand (preloaded bytes included).
            *watched += full_demand;
            if peer.uploaded > 0 && defects(self.defect_seed, user, t, cooperation) {
                failed_total += peer.uploaded;
                for (f, u) in failed_by_layer.iter_mut().zip(peer.uploaded_by_layer) {
                    *f += u;
                }
            } else {
                *credited += peer.uploaded;
            }
        }
        if failed_total > 0 || failed_demand > 0 {
            self.degradation.merge(&Degradation {
                failed_transfer_bytes: failed_total,
                failed_by_layer,
                defection_windows: 1,
                failed_demand_bytes: failed_demand,
            });
        }

        // Account the window. The CDN-side fallback carries the
        // ineligible remainder, the demand flaking receivers withheld
        // from matching, the matcher's residual unmet needs and the
        // bytes defectors failed to deliver; with an edge cache holding
        // this item, that fallback is served at the exchange instead of
        // the CDN.
        let demand_total = self.swarm_demand + self.preload_total;
        let fallback = self.ineligible + failed_demand + self.outcome.server_bytes + failed_total;
        let (server_total, cache_total, preload_srv, preload_cache) = if self.cached {
            (0, fallback, 0, self.preload_total)
        } else {
            (fallback, 0, self.preload_total, 0)
        };

        let mut peer_bytes_by_layer = self.outcome.peer_bytes_by_layer;
        for (p, f) in peer_bytes_by_layer.iter_mut().zip(failed_by_layer) {
            *p -= f;
        }
        let mut window_ledger = ByteLedger {
            demand_bytes: demand_total,
            server_bytes: server_total + preload_srv,
            peer_bytes_by_layer,
            cache_bytes: cache_total + preload_cache,
            preload_bytes: 0,
            active_windows: 1,
            peer_windows: self.active.len() as u64,
        };
        // Preload bytes are tracked in their own class when not cached.
        if !self.cached {
            window_ledger.server_bytes -= preload_srv;
            window_ledger.preload_bytes = preload_srv;
        }
        debug_assert!(window_ledger.is_conserved(), "window bytes must conserve");
        window_ledger
    }

    /// Books a ledger of windows starting in the day of `t` into the swarm
    /// total and the day-sorted daily list.
    fn book(&mut self, t: u64, ledger: ByteLedger) {
        self.ledger.merge(&ledger);
        let day = (t / consume_local_trace::time::SECS_PER_DAY) as u32;
        match self.daily.last_mut() {
            Some((d, daily)) if *d == day => daily.merge(&ledger),
            _ => self.daily.push((day, ledger)),
        }
    }

    /// Extracts the output of a machine the run's final push has advanced
    /// to the horizon and spilled, with its `frozen` days: the sessions
    /// still active (those running past the horizon) append their bytes
    /// to `retired`. Taking `&mut self` lets [`SegmentedRun::finish_days`]
    /// walk its machines in key order through the slot index.
    fn take_output(&mut self, frozen: Vec<FrozenDay>, retired: &mut Vec<UserBytes>) -> SwarmOutput {
        debug_assert!(self.daily.is_empty(), "the final push spills every day");
        self.active.retire_ended(u64::MAX, retired);
        SwarmOutput {
            ledger: std::mem::take(&mut self.ledger),
            frozen,
            upload_ratio: self.upload_ratio,
            degradation: std::mem::take(&mut self.degradation),
        }
    }

    /// Whether the machine neither holds active/carried sessions nor can
    /// receive any in the current segment — nothing to advance.
    fn is_quiescent(&self) -> bool {
        self.active.is_empty() && self.carry.is_empty()
    }

    /// What [`cost_chunks`] charges for advancing the machine over a batch
    /// that brings it `new_sessions` sessions: one for the visit plus every
    /// session it admits, holds active or carries.
    fn cost(&self, new_sessions: usize) -> u64 {
        (1 + new_sessions + self.active.len() + self.carry.len()) as u64
    }

    /// Compacts a quiescent machine to its dormant form: window-loop
    /// scratch released, matcher reduced to its checkpoint word and the
    /// daily list trimmed to size. Everything discarded is derived state a
    /// checkpoint restore already recomputes or the next admission regrows,
    /// so dormancy cannot affect results — only the resident footprint.
    /// Hundreds of thousands of machines persist across a full-scale run
    /// but only a day's worth are ever mid-session, so this is the
    /// per-swarm RSS lever. A dormant machine is left as it is.
    fn freeze(&mut self) {
        debug_assert!(self.is_quiescent());
        let MatcherSlot::Live(m) = &self.matcher else {
            return;
        };
        self.matcher = MatcherSlot::Dormant {
            word: m.checkpoint_word(),
        };
        self.active = ActiveSet::default();
        self.carry = VecDeque::new();
        self.outcome = MatchOutcome::default();
        self.needs_flaked = Vec::new();
        self.cycle_ledgers = Vec::new();
        self.daily.shrink_to_fit();
    }

    /// Reactivates a dormant machine, rebuilding the derived state
    /// [`SwarmSim::freeze`] dropped exactly as [`Simulator::resume`]
    /// rebuilds a live one from a snapshot: matcher from seed + restored
    /// word, membership sums marked stale. A live machine is untouched.
    fn thaw(&mut self, sim: &Simulator) {
        let MatcherSlot::Dormant { word } = self.matcher else {
            return;
        };
        let mut matcher = sim.config.matcher.build(self.matcher_seed);
        matcher.restore_word(word);
        self.matcher = MatcherSlot::Live(matcher);
        self.sums_stale = true;
    }
}

/// Chunks per worker in [`cost_chunks`]: slack for work stealing to even
/// out a misestimated cost. A [`parallel_map_slices`] steal costs one lock
/// per *chunk*, so chunking per state would pay one lock per swarm per
/// batch — hundreds of millions at full scale.
const CHUNKS_PER_WORKER: u64 = 8;

/// Contiguous chunk offsets fanning a list of per-swarm machines out over
/// `workers` threads, cut by each machine's deterministic cost
/// ([`SwarmSim::cost`]) instead of by count.
///
/// The swarm key leads with [`ContentId`], which is the popularity rank.
/// A push's work list is in slot order, and a batch creates its new
/// machines in key order, so the head swarms — created by the first
/// batches — sit near the front: chunks of equal *count* would hand the
/// first one most of the work. Here a chunk closes as soon as its cost
/// reaches the target `total / (workers × 8)`, rounded up. A head swarm at
/// or above the target therefore gets a chunk of its own, and
/// [`parallel_map_slices`] steals chunks in index order, so the head
/// swarms start first.
///
/// The offsets are ascending and cover `0..costs.len()` in at most
/// `workers × 8` chunks, each costing at most the target plus its heaviest
/// state; zero-cost states ride in whichever chunk holds them. When every
/// cost is zero there are no chunks, so nothing fans out. Chunking decides
/// only which thread advances a machine, never what it computes.
fn cost_chunks(costs: &[u64], workers: usize) -> Vec<usize> {
    let total: u64 = costs.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let target = total.div_ceil(workers.max(1) as u64 * CHUNKS_PER_WORKER);
    let mut offsets = vec![0];
    let mut acc = 0u64;
    for (i, &cost) in costs.iter().enumerate() {
        acc += cost;
        if acc >= target {
            offsets.push(i + 1);
            acc = 0;
        }
    }
    if acc > 0 {
        // A remainder below the target closes one more chunk.
        offsets.push(costs.len());
    } else {
        // Trailing zero-cost states join the last chunk.
        *offsets.last_mut().expect("total > 0 closed a chunk") = costs.len();
    }
    offsets
}

/// A push's work list: the `live` slots and the batch's `(slot, sessions)`
/// pairs, both ascending, merged into one ascending list of distinct slots,
/// each with its batch sessions (none for a live machine the batch does
/// not reach).
fn merge_work<'b>(live: &[u32], batch: &[(u32, &'b [u32])]) -> Vec<(u32, &'b [u32])> {
    let mut work = Vec::with_capacity(live.len() + batch.len());
    let mut live = live.iter().copied().peekable();
    for &(slot, sessions) in batch {
        while let Some(l) = live.next_if(|&l| l < slot) {
            work.push((l, &[][..]));
        }
        live.next_if_eq(&slot);
        work.push((slot, sessions));
    }
    work.extend(live.map(|l| (l, &[][..])));
    work
}

/// Exclusive references to the machines at the ascending, distinct slots
/// of `work`, each paired with its batch sessions: one walk of
/// `split_at_mut` over `states`, so the borrow checker proves the
/// references disjoint.
fn gather_machines<'s, 'b>(
    states: &'s mut [SwarmState],
    work: &[(u32, &'b [u32])],
) -> Vec<(&'s mut SwarmState, &'b [u32])> {
    let mut machines = Vec::with_capacity(work.len());
    let mut rest = states;
    let mut next = 0usize;
    for &(slot, sessions) in work {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(slot as usize - next);
        let (state, tail) = tail
            .split_first_mut()
            .expect("work slots index the machines");
        machines.push((state, sessions));
        rest = tail;
        next = slot as usize + 1;
    }
    machines
}

/// One spilled (sealed) day of a swarm's ledger, kept in the compact form
/// the final report needs: the [`crate::report::SwarmDay`] point is
/// `(day, demand_bytes, capacity)` where the capacity is a function of the
/// window counts alone, so the other ledger classes need not stay resident
/// per swarm — their sums live on in the run-level day × ISP cells.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FrozenDay {
    day: u32,
    demand_bytes: u64,
    active_windows: u64,
    peer_windows: u64,
}

impl FrozenDay {
    /// The day's effective capacity, bit-identical to
    /// [`effective_capacity`] of the full ledger it was frozen from.
    fn capacity(&self) -> f64 {
        if self.active_windows == 0 {
            return 0.0;
        }
        let l_bar = self.peer_windows as f64 / self.active_windows as f64;
        consume_local_analytics::capacity_from_active_mean(l_bar)
    }
}

/// One swarm's persistent entry in a [`SegmentedRun`].
#[derive(Debug)]
struct SwarmState {
    key: SwarmKey,
    /// Sessions grouped into this swarm so far (the monolithic report's
    /// per-swarm session count, accumulated per segment).
    sessions: u64,
    /// Sealed days spilled out of the machine's `daily` list, day-ordered
    /// (see [`SegmentedRun::seal_days`]).
    frozen: Vec<FrozenDay>,
    /// Whether the machine's slot is listed in [`SegmentedRun`]'s
    /// `touched` list (derived state: a snapshot does not carry it).
    touched: bool,
    swarm: SwarmSim,
}

impl std::fmt::Debug for SwarmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmSim")
            .field("t", &self.t)
            .field("active", &self.active.len())
            .field("carry", &self.carry.len())
            .finish_non_exhaustive()
    }
}

/// An in-progress incremental simulation (see [`Simulator::begin`]):
/// persistent per-swarm window-loop machines, advanced one watermarked
/// session batch at a time. Every batch — a day, a 15-minute tick or the
/// whole horizon at once — takes the same path: upsert the batch's swarms,
/// then advance the machines with work in cost-balanced chunks.
///
/// A machine keeps the slot it was created in, and a key → slot index
/// serves lookups and the key-ordered walks of the report and the
/// snapshot. Two slot lists bound what a push visits:
///
/// - the **live** machines, those holding active or carried sessions:
///   with the batch's machines, they are all a push advances;
/// - the **touched** machines, those advanced since the last day seal or
///   still holding unspilled days: all a day seal spills and freezes.
///
/// So a push costs what its batch and the live sessions bring, not what
/// the run has accumulated. A machine that falls quiescent stays warm
/// (matcher built, buffers kept) until the next push that seals a day
/// freezes it, so a session arriving later the same day does not rebuild
/// it; at most the machines touched since the last seal stay warm.
///
/// A run ends through the same step: [`SegmentedRun::finish_days`] is one
/// more push, of an empty batch at the last possible watermark, which runs
/// the live machines to the horizon and seals every remaining day like
/// any day-sealing push. The report is then read off the spilled days.
///
/// Peak memory is the batch being fed plus the engine's own state
/// (active/carried sessions, accumulators and the growing report) — the
/// trace itself is never resident as a whole, which is what makes the
/// `large`/`full` presets runnable on one-day-sized memory.
#[derive(Debug)]
pub struct SegmentedRun {
    sim: Simulator,
    horizon_secs: u64,
    /// Persistent per-swarm machines, in slot (creation) order.
    states: Vec<SwarmState>,
    /// Every machine's slot, by key.
    index: BTreeMap<SwarmKey, u32>,
    /// Slots of the machines holding active or carried sessions, ascending.
    live: Vec<u32>,
    /// Slots of the machines advanced since the last day seal or still
    /// holding unspilled `daily` entries, unordered; each has its
    /// `touched` flag set. Every quiescent machine outside this list is
    /// frozen.
    touched: Vec<u32>,
    /// Per-user totals of every session that has left its swarm's active
    /// set, one per user of the population, indexed by user id; sessions
    /// still active hold their bytes in their machine's [`ActiveSet`]
    /// columns.
    users: Vec<UserTraffic>,
    /// The time every pushed session so far starts strictly before, and no
    /// future session may start before (monotone).
    watermark: u64,
    /// Days already emitted by [`SegmentedRun::drain_closed_days`].
    closed_days: u64,
    /// Days whose per-swarm ledgers have been spilled: between pushes,
    /// exactly the days the watermark has sealed ([`sealed_days`]). Every
    /// machine's `daily` list holds only days at or past this boundary.
    spilled_days: u64,
    /// The spilled days' accumulated day × ISP cells, `(day, isp)`-sorted
    /// and grouped — byte-identical to the prefix of the final report's
    /// `daily` list covering those days.
    spilled_cells: Vec<DayCell>,
    /// Element-wise sort-key maxima folded across every pushed batch (see
    /// [`SessionStore::sort_key_maxima`]).
    max_start_secs: u64,
    max_user: u32,
    max_content: u32,
}

impl SegmentedRun {
    /// Feeds a batch of sessions and advances the watermark: every session
    /// in `batch` must start in `[previous watermark, watermark)`, and no
    /// later batch may contain a session starting before `watermark` — the
    /// [`SessionSource`] contract. Batches need not align to days (the
    /// online channel watermarks at its own cadence); empty batches are
    /// fine and just advance time.
    ///
    /// Grouping, machine upsert and the parallel fan-out are deterministic
    /// for any thread count, and any batch schedule of the same sessions
    /// produces byte-identical final output. A whole-horizon batch (the
    /// monolithic store's shape) is no special case: it is one push whose
    /// advance runs every machine to the horizon.
    ///
    /// A push visits only the machines its batch brings sessions to and
    /// the live ones, merged in slot order into one work list; a new swarm
    /// takes the next slot, so nothing is re-sorted. The fan-out over the
    /// work list is cut by cost, not by count: a machine costs one plus
    /// its batch sessions, active and carried sessions. Head swarms thus
    /// get chunks of their own, and a batch that brings no work and finds
    /// no live machine spawns no thread. A push that seals a day also
    /// spills it and freezes every machine that fell quiescent since the
    /// last seal.
    ///
    /// Sessions starting at or past the horizon never run a window, so the
    /// run leaves them out: they get no machine, no session count and no
    /// share of the sort-key maxima (the watermark contract in
    /// [`crate::source`]).
    ///
    /// # Panics
    ///
    /// Panics if `watermark` is below the previous watermark, if a session
    /// in `batch` starts outside `[previous watermark, watermark)`, or if
    /// the user id of a session before the horizon is not below the run's
    /// population length (its bytes would have no per-user row to land
    /// in). All three are checked before any state changes.
    pub fn push_batch(&mut self, batch: &SessionStore, watermark: u64) {
        assert!(
            watermark >= self.watermark,
            "watermark must be monotone: {watermark} < {}",
            self.watermark
        );
        assert!(
            batch.is_empty()
                || (batch.start_secs()[0] >= self.watermark
                    && *batch.start_secs().last().expect("non-empty") < watermark),
            "batch sessions must start in [previous watermark, watermark)"
        );
        let batch = &*before_horizon(batch, self.horizon_secs);
        let (s, u, c) = batch.sort_key_maxima();
        assert!(
            batch.is_empty() || (u as usize) < self.users.len(),
            "batch user id {u} is outside the population of {} users",
            self.users.len()
        );
        self.max_start_secs = self.max_start_secs.max(s);
        self.max_user = self.max_user.max(u);
        self.max_content = self.max_content.max(c);

        let limit = watermark;
        self.watermark = watermark;

        // 1. Group the batch's sessions into sub-swarms — the same shared
        //    grouping every path uses, so they can never diverge on keying
        //    or tie order.
        let (indices, groups) = group_by_swarm(&self.sim.config, batch);

        // 2. Upsert machines: existing swarms count their new sessions, new
        //    keys get the next slot and a machine initialised from their
        //    earliest session. Then the batch's machines go in slot order.
        let mut batch_work: Vec<(u32, &[u32])> = Vec::with_capacity(groups.len());
        for (key, range) in &groups {
            let slot = match self.index.entry(*key) {
                Entry::Occupied(e) => {
                    let slot = *e.get();
                    self.states[slot as usize].sessions += range.len() as u64;
                    slot
                }
                Entry::Vacant(e) => {
                    let slot = u32::try_from(self.states.len()).expect("fewer than 2^32 swarms");
                    // The first window boundary and the report's upload
                    // ratio come from the swarm's earliest session (the
                    // ratio is uniform within bitrate-split swarms; a
                    // demand-weighted mix otherwise).
                    let first = indices[range.start] as usize;
                    let config = &self.sim.config;
                    let t = align_up(batch.start_secs()[first], config.window_secs);
                    let bitrate_bps = batch.device()[first].bitrate_bps();
                    let upload_ratio = config.upload.ratio_for(bitrate_bps).min(1.0);
                    self.states.push(SwarmState {
                        key: *key,
                        sessions: range.len() as u64,
                        frozen: Vec::new(),
                        touched: false,
                        swarm: SwarmSim::new(&self.sim, key, t, upload_ratio),
                    });
                    *e.insert(slot)
                }
            };
            batch_work.push((slot, &indices[range.clone()]));
        }
        batch_work.sort_unstable_by_key(|&(slot, _)| slot);

        // 3. The work list: the live machines and the batch's, merged in
        //    slot order, each with its batch sessions. Every machine on it
        //    has work; no other machine does.
        let work = merge_work(&self.live, &batch_work);

        // 4. Advance the work list in parallel over disjoint cost-balanced
        //    chunks (slot-ordered: the final state of every machine is
        //    independent of which thread ran it). Each chunk lists the
        //    bytes of the sessions its machines retired, and the lists fold
        //    into the per-user totals once the pass is over. A push that
        //    seals a day freezes its quiescent machines right here, so a
        //    daily push's freezes run in parallel, not in the seal walk.
        let seals = sealed_days(watermark, self.horizon_secs) > self.spilled_days;
        let sim = &self.sim;
        let horizon = self.horizon_secs;
        let mut machines = gather_machines(&mut self.states, &work);
        let costs: Vec<u64> = machines
            .iter()
            .map(|(state, sessions)| state.swarm.cost(sessions.len()))
            .collect();
        let offsets = cost_chunks(&costs, sim.config.threads);
        let retired =
            parallel_map_slices(&mut machines, &offsets, sim.config.threads, |_, chunk| {
                let mut retired = Vec::new();
                for (state, sessions) in chunk {
                    let swarm = &mut state.swarm;
                    swarm.advance(sim, batch, sessions, limit, horizon, &mut retired);
                    if seals && swarm.is_quiescent() {
                        swarm.freeze();
                    }
                }
                retired
            });
        drop(machines);
        add_user_bytes(&mut self.users, retired.iter().flatten());

        // 5. Re-list the live machines (every one was on the work list,
        //    so the list stays ascending) and note the newly touched ones.
        self.live.clear();
        for &(slot, _) in &work {
            let state = &mut self.states[slot as usize];
            if !state.swarm.is_quiescent() {
                self.live.push(slot);
            }
            if !state.touched {
                state.touched = true;
                self.touched.push(slot);
            }
        }
        if seals {
            self.seal_days();
        }
    }

    /// Seals every day the watermark has newly sealed, walking only the
    /// touched machines (every other one is frozen and holds no unspilled
    /// day):
    ///
    /// - **Spill.** Each sealed `(day, ledger)` entry is folded into the
    ///   run-level day × ISP cells ([`spill_days`], [`fold_cells`]) and
    ///   replaced by a compact [`FrozenDay`]. A day is sealed once the
    ///   watermark passes its end — machines with pending work always
    ///   advance to the watermark and later sessions start at or after
    ///   it, so sealed entries can never grow again (the invariant
    ///   [`SegmentedRun::drain_closed_days`] already relies on).
    /// - **Freeze.** Every quiescent machine is compacted
    ///   ([`SwarmSim::freeze`]), so after a day seal no quiescent machine
    ///   holds a built matcher.
    ///
    /// A machine leaves the touched list once it holds no unspilled day;
    /// if it is live, its next advance lists it again.
    fn seal_days(&mut self) {
        let sealed = sealed_days(self.watermark, self.horizon_secs);
        let mut cells = Vec::new();
        let states = &mut self.states;
        self.touched.retain(|&slot| {
            let state = &mut states[slot as usize];
            let daily = &mut state.swarm.daily;
            spill_days(daily, sealed, state.key.isp, &mut state.frozen, &mut cells);
            if state.swarm.is_quiescent() {
                state.swarm.freeze();
            }
            state.touched = !state.swarm.daily.is_empty();
            state.touched
        });
        fold_cells(&mut self.spilled_cells, cells);
        self.spilled_days = sealed;
    }

    /// Emits a [`DayClose`] for every day the current watermark has sealed
    /// but [`drain_closed_days`](Self::drain_closed_days) has not yet
    /// emitted, in day order. A day is sealed once the watermark reaches
    /// its end: every window of the day has then been processed (the
    /// machines advanced past it) and no future session can start inside
    /// it, so the day's ledger is final. Days the watermark never passes
    /// are emitted by [`SegmentedRun::finish_days`].
    ///
    /// Every push spills the days it seals, so a sealed day's ledger is the
    /// sum of its grouped day × ISP cells (per-ISP instead of per-swarm —
    /// `u64` addition makes the regrouping exact).
    pub fn drain_closed_days(&mut self, mut on_day_close: impl FnMut(DayClose)) {
        while self.closed_days < self.spilled_days {
            let day = self.closed_days as u32;
            let mut ledger = ByteLedger::new();
            let from = self.spilled_cells.partition_point(|&(d, _, _)| d < day);
            for (d, _, cell) in &self.spilled_cells[from..] {
                if *d != day {
                    break;
                }
                ledger.merge(cell);
            }
            on_day_close(DayClose { day, ledger });
            self.closed_days += 1;
        }
    }

    /// One checkpointed serving step, shared by
    /// [`Simulator::simulate_days_checkpointed`] and the crash harness's
    /// doomed consumer ([`crate::online::faults::crash_and_recover`]):
    /// push the batch, emit the days it closed, then note the watermark
    /// advance and each closed day with `checkpointer`, which writes a
    /// snapshot whenever one falls due.
    ///
    /// # Errors
    ///
    /// Propagates the first snapshot-write failure; the batch is pushed by
    /// then, so the run stops at this batch boundary.
    pub(crate) fn push_checkpointed(
        &mut self,
        batch: &SessionStore,
        watermark: u64,
        checkpointer: &mut Checkpointer,
        on_day_close: impl FnMut(DayClose),
    ) -> Result<(), CheckpointError> {
        self.push_batch(batch, watermark);
        let before = self.closed_days;
        self.drain_closed_days(on_day_close);
        checkpointer.note_watermark(self)?;
        for _ in before..self.closed_days {
            checkpointer.note_day_close(self)?;
        }
        Ok(())
    }

    /// Completes the run and returns the final report, byte-identical to
    /// [`Simulator::simulate`] on a monolithic store of the same sessions
    /// (see [`SegmentedRun::finish_days`]).
    pub fn finish(self) -> SimReport {
        self.finish_days(|_| {})
    }

    /// Completes the run, emitting a [`DayClose`] for every horizon day not
    /// yet drained, and returns the final report.
    ///
    /// The end of a run is one more push: an empty batch at watermark
    /// `u64::MAX` runs every live machine to the horizon and spills every
    /// day not yet spilled (nothing is left to run or spill when the pushed
    /// batches already reached the horizon). The remaining days then close
    /// like any sealed day, so their ledgers account the sessions running
    /// past the last watermark, and the report is read off the spilled
    /// days, walking the machines in key order.
    pub fn finish_days(mut self, on_day_close: impl FnMut(DayClose)) -> SimReport {
        let horizon_secs = self.horizon_secs;
        self.push_batch(&SessionStore::from_records(&[], horizon_secs, 0), u64::MAX);
        self.drain_closed_days(on_day_close);
        // The sessions still active at the horizon hand their bytes out as
        // their machine's output is taken.
        let mut retired = Vec::new();
        let parts = self
            .index
            .values()
            .map(|&slot| {
                let state = &mut self.states[slot as usize];
                let frozen = std::mem::take(&mut state.frozen);
                let out = state.swarm.take_output(frozen, &mut retired);
                (state.key, state.sessions, out)
            })
            .collect();
        add_user_bytes(&mut self.users, &retired);
        let warnings = sort_key_warnings((self.max_start_secs, self.max_user, self.max_content));
        self.sim.merge_outputs(
            horizon_secs,
            self.users,
            parts,
            self.spilled_cells,
            warnings,
        )
    }

    /// Drives the run to completion over `source` — the tail of
    /// [`Simulator::simulate_days`], callable on a run restored by
    /// [`Simulator::resume`]. The source must deliver exactly the sessions
    /// the original source would have delivered after the snapshot's
    /// watermark (see [`SegmentedRun::watermark`]); the result is then
    /// byte-identical to the uninterrupted run. Days closed before the
    /// snapshot are not re-emitted.
    pub fn simulate_remaining_days(
        mut self,
        source: impl SessionSource,
        mut on_day_close: impl FnMut(DayClose),
    ) -> SimReport {
        source.for_each_batch(&mut |batch, watermark| {
            self.push_batch(batch, watermark);
            self.drain_closed_days(&mut on_day_close);
        });
        self.finish_days(on_day_close)
    }

    /// The current watermark: every pushed session starts strictly before
    /// it, and a post-crash source must re-feed exactly the sessions
    /// starting at or after it.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The run's horizon in seconds.
    pub fn horizon_secs(&self) -> u64 {
        self.horizon_secs
    }

    /// Serialises the run's complete resumable state as one versioned
    /// snapshot (see [`crate::checkpoint`] for the envelope): configuration
    /// and horizon, the per-user totals (one row per user, in user id
    /// order), run-level counters and every swarm machine — active-set
    /// columns with their per-session bytes, carried sessions, matcher
    /// state word and accumulated ledgers. [`Simulator::resume`] inverts
    /// it; the restored run continues byte-identically.
    ///
    /// Call at a batch boundary (between [`SegmentedRun::push_batch`]
    /// calls) — mid-batch there is no coherent state to capture.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`CheckpointError::Io`].
    pub fn checkpoint(&self, out: &mut impl Write) -> Result<(), CheckpointError> {
        let mut w = SnapshotWriter::new();
        put_config(&mut w, &self.sim.config);
        w.put_u64(self.horizon_secs);
        w.put_len(self.users.len());
        for t in &self.users {
            w.put_u64(t.watched_bytes);
            w.put_u64(t.uploaded_bytes);
        }
        w.put_u64(self.watermark);
        w.put_u64(self.closed_days);
        w.put_u64(self.spilled_days);
        w.put_len(self.spilled_cells.len());
        for (day, isp, ledger) in &self.spilled_cells {
            w.put_u32(*day);
            match isp {
                Some(isp) => {
                    w.put_bool(true);
                    w.put_u8(isp.0);
                }
                None => w.put_bool(false),
            }
            put_ledger(&mut w, ledger);
        }
        w.put_u64(self.max_start_secs);
        w.put_u32(self.max_user);
        w.put_u32(self.max_content);
        w.put_len(self.states.len());
        for &slot in self.index.values() {
            let state = &self.states[slot as usize];
            put_key(&mut w, &state.key);
            w.put_u64(state.sessions);
            w.put_len(state.frozen.len());
            for f in &state.frozen {
                w.put_u32(f.day);
                w.put_u64(f.demand_bytes);
                w.put_u64(f.active_windows);
                w.put_u64(f.peer_windows);
            }
            put_swarm(&mut w, &state.swarm);
        }
        w.finish(out)
    }
}

impl Simulator {
    /// Rebuilds a [`SegmentedRun`] from a snapshot written by
    /// [`SegmentedRun::checkpoint`]. The restored run is byte-equivalent to
    /// the one that was checkpointed: feeding it the batches the original
    /// would have received after the snapshot's watermark (at any batch
    /// schedule or thread count) yields the exact report of the
    /// uninterrupted run.
    ///
    /// Derived state the snapshot omits — matcher scratch, cached
    /// membership sums, the edge-cache membership bit — is recomputed here;
    /// none of it affects outcomes (pinned by `tests/recovery.rs`). A
    /// machine with no active or carried sessions comes back dormant, as
    /// the donor left it.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]: envelope violations from the reader,
    /// [`CheckpointError::Corrupt`] for structurally invalid payloads
    /// (unknown tags, out-of-order keys, more closed days than spilled
    /// ones, a population with more rows than the payload holds, user ids
    /// outside the population, an invalid configuration).
    pub fn resume(input: &mut impl Read) -> Result<SegmentedRun, CheckpointError> {
        let mut r = SnapshotReader::from_reader(input)?;
        let config = take_config(&mut r)?;
        let sim = Simulator::try_new(config)
            .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
        let horizon_secs = r.take_u64("horizon")?;
        // Each user's totals take 16 payload bytes, so the population is
        // bounded by the bytes left before anything is allocated for it.
        let population_len = r.take_len_of(16, "population length")?;
        let mut users = Vec::with_capacity(population_len);
        for _ in 0..population_len {
            users.push(UserTraffic {
                watched_bytes: r.take_u64("watched bytes")?,
                uploaded_bytes: r.take_u64("uploaded bytes")?,
            });
        }
        let watermark = r.take_u64("watermark")?;
        let closed_days = r.take_u64("closed days")?;
        let spilled_days = r.take_u64("spilled days")?;
        if spilled_days != sealed_days(watermark, horizon_secs) {
            return Err(CheckpointError::Corrupt(
                "spilled days differ from the days the watermark sealed",
            ));
        }
        if closed_days > spilled_days {
            return Err(CheckpointError::Corrupt(
                "closed days exceed the spilled days",
            ));
        }
        let cells = r.take_len("spilled cell count")?;
        let mut spilled_cells = Vec::with_capacity(cells);
        let mut prev_cell: Option<(u32, Option<IspId>)> = None;
        for _ in 0..cells {
            let day = r.take_u32("spilled cell day")?;
            if u64::from(day) >= spilled_days {
                return Err(CheckpointError::Corrupt("spilled cell past boundary"));
            }
            let isp = if r.take_bool("spilled cell isp flag")? {
                Some(IspId(r.take_u8("spilled cell isp")?))
            } else {
                None
            };
            if prev_cell.is_some_and(|p| p >= (day, isp)) {
                return Err(CheckpointError::Corrupt("spilled cells out of order"));
            }
            prev_cell = Some((day, isp));
            spilled_cells.push((day, isp, take_ledger(&mut r)?));
        }
        let max_start_secs = r.take_u64("sort-key maxima")?;
        let max_user = r.take_u32("sort-key maxima")?;
        let max_content = r.take_u32("sort-key maxima")?;
        let n = r.take_len("swarm count")?;
        let mut states = Vec::with_capacity(n);
        let mut live = Vec::new();
        let mut touched = Vec::new();
        let mut prev: Option<SwarmKey> = None;
        let n =
            u32::try_from(n).map_err(|_| CheckpointError::Corrupt("swarm count out of bounds"))?;
        for slot in 0..n {
            let key = take_key(&mut r)?;
            if prev.is_some_and(|p| p >= key) {
                return Err(CheckpointError::Corrupt("swarm keys out of order"));
            }
            prev = Some(key);
            let sessions = r.take_u64("swarm session count")?;
            let frozen_len = r.take_len("frozen day count")?;
            let mut frozen = Vec::with_capacity(frozen_len);
            let mut prev_day: Option<u32> = None;
            for _ in 0..frozen_len {
                let day = r.take_u32("frozen day index")?;
                if u64::from(day) >= spilled_days || prev_day.is_some_and(|p| p >= day) {
                    return Err(CheckpointError::Corrupt("frozen days out of order"));
                }
                prev_day = Some(day);
                frozen.push(FrozenDay {
                    day,
                    demand_bytes: r.take_u64("frozen day")?,
                    active_windows: r.take_u64("frozen day")?,
                    peer_windows: r.take_u64("frozen day")?,
                });
            }
            let swarm = take_swarm(&mut r, &sim, &key, population_len)?;
            // Machines come back in key order. A quiescent one comes back
            // frozen, so only those with unspilled days are touched.
            if !swarm.is_quiescent() {
                live.push(slot);
            }
            let holds_days = !swarm.daily.is_empty();
            if holds_days {
                touched.push(slot);
            }
            states.push(SwarmState {
                key,
                sessions,
                frozen,
                touched: holds_days,
                swarm,
            });
        }
        r.finish()?;
        // Keys in ascending order: the index is built in bulk.
        let index = (0..).zip(&states).map(|(slot, s)| (s.key, slot)).collect();
        Ok(SegmentedRun {
            sim,
            horizon_secs,
            states,
            index,
            live,
            touched,
            users,
            watermark,
            closed_days,
            spilled_days,
            spilled_cells,
            max_start_secs,
            max_user,
            max_content,
        })
    }
}

// --- Snapshot payload codec -------------------------------------------------
//
// The field-by-field layout behind `SegmentedRun::checkpoint` /
// `Simulator::resume`. Every `put_*` below has its exactly-inverse `take_*`;
// the envelope (magic, version, digest) lives in `crate::checkpoint`.
// Bumping `SNAPSHOT_VERSION` is required for any layout change here.

fn put_config(w: &mut SnapshotWriter, c: &SimConfig) {
    w.put_u64(c.window_secs);
    match c.upload {
        UploadModel::Ratio(r) => {
            w.put_u8(0);
            w.put_f64(r);
        }
        UploadModel::AbsoluteBps(q) => {
            w.put_u8(1);
            w.put_u32(q);
        }
    }
    w.put_bool(c.policy.split_by_isp);
    w.put_bool(c.policy.split_by_bitrate);
    w.put_u8(match c.matcher {
        MatcherKind::Hierarchical => 0,
        MatcherKind::Random => 1,
    });
    w.put_u64(c.seed);
    w.put_u64(c.threads as u64);
    w.put_f64(c.preload_fraction);
    match c.edge_cache {
        Some(cache) => {
            w.put_bool(true);
            w.put_u32(cache.top_items);
        }
        None => w.put_bool(false),
    }
    w.put_f64(c.participation_rate);
    w.put_f64(c.cooperation_rate);
}

fn take_config(r: &mut SnapshotReader) -> Result<SimConfig, CheckpointError> {
    let window_secs = r.take_u64("window length")?;
    let upload = match r.take_u8("upload model tag")? {
        0 => UploadModel::Ratio(r.take_f64("upload ratio")?),
        1 => UploadModel::AbsoluteBps(r.take_u32("upload bandwidth")?),
        _ => return Err(CheckpointError::Corrupt("unknown upload model tag")),
    };
    let policy = SwarmPolicy {
        split_by_isp: r.take_bool("policy")?,
        split_by_bitrate: r.take_bool("policy")?,
    };
    let matcher = match r.take_u8("matcher tag")? {
        0 => MatcherKind::Hierarchical,
        1 => MatcherKind::Random,
        _ => return Err(CheckpointError::Corrupt("unknown matcher tag")),
    };
    let seed = r.take_u64("seed")?;
    let threads = r.take_u64("threads")?;
    if threads == 0 || threads > 4096 {
        return Err(CheckpointError::Corrupt("thread count out of bounds"));
    }
    let preload_fraction = r.take_f64("preload fraction")?;
    let edge_cache = if r.take_bool("edge cache flag")? {
        Some(EdgeCache {
            top_items: r.take_u32("edge cache items")?,
        })
    } else {
        None
    };
    let participation_rate = r.take_f64("participation rate")?;
    let cooperation_rate = r.take_f64("cooperation rate")?;
    Ok(SimConfig {
        window_secs,
        upload,
        policy,
        matcher,
        seed,
        threads: threads as usize,
        preload_fraction,
        edge_cache,
        participation_rate,
        cooperation_rate,
    })
}

fn put_key(w: &mut SnapshotWriter, key: &SwarmKey) {
    w.put_u32(key.content.0);
    match key.isp {
        Some(isp) => {
            w.put_bool(true);
            w.put_u8(isp.0);
        }
        None => w.put_bool(false),
    }
    match key.bitrate {
        Some(b) => {
            w.put_bool(true);
            w.put_u32(b.bps());
        }
        None => w.put_bool(false),
    }
}

fn take_key(r: &mut SnapshotReader) -> Result<SwarmKey, CheckpointError> {
    let content = ContentId(r.take_u32("swarm content")?);
    let isp = if r.take_bool("swarm isp flag")? {
        Some(IspId(r.take_u8("swarm isp")?))
    } else {
        None
    };
    let bitrate = if r.take_bool("swarm bitrate flag")? {
        Some(BitrateClass(r.take_u32("swarm bitrate")?))
    } else {
        None
    };
    Ok(SwarmKey {
        content,
        isp,
        bitrate,
    })
}

fn put_ledger(w: &mut SnapshotWriter, l: &ByteLedger) {
    w.put_u64(l.demand_bytes);
    w.put_u64(l.server_bytes);
    for &v in &l.peer_bytes_by_layer {
        w.put_u64(v);
    }
    w.put_u64(l.cache_bytes);
    w.put_u64(l.preload_bytes);
    w.put_u64(l.active_windows);
    w.put_u64(l.peer_windows);
}

fn take_ledger(r: &mut SnapshotReader) -> Result<ByteLedger, CheckpointError> {
    let mut l = ByteLedger::new();
    l.demand_bytes = r.take_u64("ledger")?;
    l.server_bytes = r.take_u64("ledger")?;
    for v in &mut l.peer_bytes_by_layer {
        *v = r.take_u64("ledger")?;
    }
    l.cache_bytes = r.take_u64("ledger")?;
    l.preload_bytes = r.take_u64("ledger")?;
    l.active_windows = r.take_u64("ledger")?;
    l.peer_windows = r.take_u64("ledger")?;
    Ok(l)
}

fn put_peer(w: &mut SnapshotWriter, p: &Peer) {
    w.put_u8(p.isp.0);
    w.put_u32(p.location.exchange().0);
    w.put_u32(p.location.pop().0);
}

fn take_peer(r: &mut SnapshotReader) -> Result<Peer, CheckpointError> {
    let isp = IspId(r.take_u8("peer isp")?);
    let exchange = ExchangeId(r.take_u32("peer exchange")?);
    let pop = PopId(r.take_u32("peer pop")?);
    Ok(Peer {
        isp,
        location: UserLocation::from_raw_parts(exchange, pop),
    })
}

fn put_swarm(w: &mut SnapshotWriter, s: &SwarmSim) {
    w.put_u64(s.matcher.word());
    w.put_u64(s.t.as_secs());
    w.put_f64(s.upload_ratio);
    put_ledger(w, &s.ledger);
    w.put_u64(s.degradation.failed_transfer_bytes);
    for &v in &s.degradation.failed_by_layer {
        w.put_u64(v);
    }
    w.put_u64(s.degradation.defection_windows);
    w.put_u64(s.degradation.failed_demand_bytes);
    w.put_len(s.daily.len());
    for (day, ledger) in &s.daily {
        w.put_u32(*day);
        put_ledger(w, ledger);
    }
    w.put_len(s.active.len());
    for &v in &s.active.ends {
        w.put_u64(v);
    }
    for &v in &s.active.users {
        w.put_u32(v);
    }
    for &v in &s.active.watched {
        w.put_u64(v);
    }
    for &v in &s.active.uploaded {
        w.put_u64(v);
    }
    for p in &s.active.peers {
        put_peer(w, p);
    }
    for &v in &s.active.full_demands {
        w.put_u64(v);
    }
    for &v in &s.active.demands {
        w.put_u64(v);
    }
    for &v in &s.active.preloads {
        w.put_u64(v);
    }
    for &v in &s.active.needs {
        w.put_u64(v);
    }
    for &v in &s.active.budgets {
        w.put_u64(v);
    }
    w.put_len(s.carry.len());
    for p in &s.carry {
        w.put_u64(p.start);
        w.put_u64(p.end);
        w.put_u32(p.user);
        w.put_u32(p.bitrate_bps);
        w.put_u8(p.isp.0);
        w.put_u32(p.location.exchange().0);
        w.put_u32(p.location.pop().0);
    }
}

/// Reads a user id, rejecting one that does not index the run's per-user
/// totals.
fn take_user(r: &mut SnapshotReader, population_len: usize) -> Result<u32, CheckpointError> {
    let user = r.take_u32("user id")?;
    if user as usize >= population_len {
        return Err(CheckpointError::Corrupt("user id outside the population"));
    }
    Ok(user)
}

fn take_swarm(
    r: &mut SnapshotReader,
    sim: &Simulator,
    key: &SwarmKey,
    population_len: usize,
) -> Result<SwarmSim, CheckpointError> {
    let word = r.take_u64("matcher word")?;
    let t = r.take_u64("window boundary")?;
    let upload_ratio = r.take_f64("upload ratio")?;
    let ledger = take_ledger(r)?;
    let degradation = Degradation {
        failed_transfer_bytes: r.take_u64("degradation")?,
        failed_by_layer: [
            r.take_u64("degradation")?,
            r.take_u64("degradation")?,
            r.take_u64("degradation")?,
        ],
        defection_windows: r.take_u64("degradation")?,
        failed_demand_bytes: r.take_u64("degradation")?,
    };

    let daily_len = r.take_len("daily ledgers")?;
    let mut daily = Vec::with_capacity(daily_len);
    let mut prev_day: Option<u32> = None;
    for _ in 0..daily_len {
        let day = r.take_u32("day index")?;
        if prev_day.is_some_and(|p| p >= day) {
            return Err(CheckpointError::Corrupt("daily ledgers out of order"));
        }
        prev_day = Some(day);
        daily.push((day, take_ledger(r)?));
    }

    let active_len = r.take_len("active set")?;
    let mut active = ActiveSet::default();
    for _ in 0..active_len {
        active.ends.push(r.take_u64("active ends")?);
    }
    for _ in 0..active_len {
        active.users.push(take_user(r, population_len)?);
    }
    for _ in 0..active_len {
        active.watched.push(r.take_u64("active watched bytes")?);
    }
    for _ in 0..active_len {
        active.uploaded.push(r.take_u64("active uploaded bytes")?);
    }
    for _ in 0..active_len {
        active.peers.push(take_peer(r)?);
    }
    for _ in 0..active_len {
        active.full_demands.push(r.take_u64("active demands")?);
    }
    for _ in 0..active_len {
        active.demands.push(r.take_u64("active demands")?);
    }
    for _ in 0..active_len {
        active.preloads.push(r.take_u64("active preloads")?);
    }
    for _ in 0..active_len {
        active.needs.push(r.take_u64("active needs")?);
    }
    for _ in 0..active_len {
        active.budgets.push(r.take_u64("active budgets")?);
    }
    active.min_end = active.ends.iter().copied().min().unwrap_or(u64::MAX);

    let carry_len = r.take_len("carry buffer")?;
    let mut carry = VecDeque::with_capacity(carry_len);
    for _ in 0..carry_len {
        let start = r.take_u64("carry start")?;
        let end = r.take_u64("carry end")?;
        let user = take_user(r, population_len)?;
        let bitrate_bps = r.take_u32("carry bitrate")?;
        let isp = IspId(r.take_u8("carry isp")?);
        let exchange = ExchangeId(r.take_u32("carry exchange")?);
        let pop = PopId(r.take_u32("carry pop")?);
        if carry
            .back()
            .is_some_and(|p: &PendingSession| p.start > start)
        {
            return Err(CheckpointError::Corrupt("carry buffer out of order"));
        }
        carry.push_back(PendingSession {
            start,
            end,
            user,
            bitrate_bps,
            isp,
            location: UserLocation::from_raw_parts(exchange, pop),
        });
    }

    let mut swarm = SwarmSim::new(sim, key, t, upload_ratio);
    swarm.active = active;
    swarm.carry = carry;
    swarm.ledger = ledger;
    swarm.daily = daily;
    swarm.degradation = degradation;
    // A quiescent machine comes back dormant, exactly as `freeze` left it
    // in the donor, without replaying the random matcher's stream to the
    // word; `thaw` does that when a session arrives.
    if swarm.is_quiescent() {
        swarm.matcher = MatcherSlot::Dormant { word };
    } else {
        swarm.matcher.live_mut().restore_word(word);
    }
    Ok(swarm)
}

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
/// its whole-run ledger, its days as [`FrozenDay`]s in day order (their
/// day × ISP cells are the run's), its upload ratio and its fault losses.
#[derive(Debug, Default)]
struct SwarmOutput {
    ledger: ByteLedger,
    frozen: Vec<FrozenDay>,
    upload_ratio: f64,
    degradation: Degradation,
}

/// One active session with its per-window quantities precomputed at join
/// time (they are constant for the session's lifetime).
///
/// Test-only: the production window loop keeps these quantities as the
/// parallel columns of [`ActiveSet`]; this row shape survives solely for the
/// reference path ([`Simulator::run_store_rows`]) the SoA loop is
/// property-tested against.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct ActiveSession {
    end: SimTime,
    /// Rank of the session's user among the swarm's sorted distinct users.
    user_slot: u32,
    peer: Peer,
    /// Full per-window demand `β·Δτ/8` in bytes, preload included.
    full_demand: u64,
    /// In-swarm per-window demand (full demand minus the preloaded part).
    demand: u64,
    /// Per-window bytes served by predictive preloading.
    preload: u64,
    /// Peer-receivable cap `min(demand, q·Δτ/8)`.
    need: u64,
    /// Per-window upload budget (0 for non-participants).
    budget: u64,
}

#[cfg(test)]
impl Simulator {
    /// The reference row-based engine: production's grouping, day spill
    /// and key-ordered merge around a per-swarm window loop that
    /// materialises [`ActiveSession`] rows instead of driving the columnar
    /// [`ActiveSet`], over the whole store in one pass. Kept only as the
    /// oracle the SoA fast path is property-tested against.
    fn run_store_rows(&self, store: &SessionStore) -> SimReport {
        let store = &*before_horizon(store, store.horizon_secs());
        let (indices, keyed) = group_by_swarm(&self.config, store);
        let outputs = crate::par::parallel_map(keyed.len(), self.config.threads, |i| {
            let (key, range) = &keyed[i];
            self.simulate_swarm_rows(*key, &indices[range.clone()], store)
        });
        let mut users = vec![UserTraffic::default(); store.population_len()];
        let mut cells = Vec::new();
        let parts: Vec<(SwarmKey, u64, SwarmOutput)> = outputs
            .into_iter()
            .zip(&keyed)
            .map(|((out, swarm_cells, rows), (key, range))| {
                add_user_bytes(&mut users, &rows);
                cells.extend(swarm_cells);
                (*key, range.len() as u64, out)
            })
            .collect();
        let mut grouped = Vec::new();
        fold_cells(&mut grouped, cells);
        self.merge_outputs(
            store.horizon_secs(),
            users,
            parts,
            grouped,
            sort_key_warnings(store.sort_key_maxima()),
        )
    }

    /// The pre-SoA row-based window loop, kept verbatim as the oracle for
    /// property tests: materialises [`ActiveSession`] rows, rebuilds the
    /// matcher's peer/need/budget inputs every window and keeps its own
    /// per-user accumulators over the swarm's sorted distinct users. Its
    /// days spill at the end, so it returns its day × ISP cells too.
    fn simulate_swarm_rows(
        &self,
        key: SwarmKey,
        indices: &[u32],
        store: &SessionStore,
    ) -> (SwarmOutput, Vec<DayCell>, Vec<UserBytes>) {
        let dt = self.config.window_secs;
        let starts_col = store.start_secs();
        let durations_col = store.duration_secs();
        let users_col = store.user();
        let devices_col = store.device();
        let isps_col = store.isp();
        let locations_col = store.location();
        let mut matcher = self
            .config
            .matcher
            .build(swarm_seed(self.config.seed, &key));

        let mut out = SwarmOutput::default();
        let mut daily: Vec<(u32, ByteLedger)> = Vec::new();
        let mut swarm_users: Vec<u32> = indices.iter().map(|&i| users_col[i as usize]).collect();
        swarm_users.sort_unstable();
        swarm_users.dedup();
        let mut user_acc: Vec<(u64, u64)> = vec![(0, 0); swarm_users.len()];

        let first_bitrate = devices_col[indices[0] as usize].bitrate_bps();
        out.upload_ratio = self.config.upload.ratio_for(first_bitrate).min(1.0);

        let preload_f = self.config.preload_fraction;
        let cached = self
            .config
            .edge_cache
            .is_some_and(|c| key.content.0 < c.top_items);

        let mut active: Vec<ActiveSession> = Vec::new();
        let mut cursor = store.cursor(indices);
        let mut t = SimTime(align_up(starts_col[indices[0] as usize], dt));
        let horizon = SimTime(store.horizon_secs());

        let mut peers: Vec<Peer> = Vec::new();
        let mut needs: Vec<u64> = Vec::new();
        let mut budgets: Vec<u64> = Vec::new();
        let mut outcome = MatchOutcome::default();

        while t < horizon {
            active.retain(|a| a.end > t);
            cursor.admit_until(t.as_secs(), |i| {
                let end = SimTime(starts_col[i] + u64::from(durations_col[i]));
                if end > t {
                    let bitrate = devices_col[i].bitrate_bps();
                    let user = users_col[i];
                    let full_demand = u64::from(bitrate) * dt / 8;
                    let preload = (full_demand as f64 * preload_f) as u64;
                    let demand = full_demand - preload;
                    let nominal_budget = self.config.upload.budget_bytes(bitrate, dt);
                    let budget = if participates(user, self.config.participation_rate) {
                        nominal_budget
                    } else {
                        0
                    };
                    let user_slot = swarm_users
                        .binary_search(&user)
                        .expect("swarm_users indexes every session user")
                        as u32;
                    active.push(ActiveSession {
                        end,
                        user_slot,
                        peer: Peer {
                            isp: isps_col[i],
                            location: locations_col[i],
                        },
                        full_demand,
                        demand,
                        preload,
                        need: demand.min(nominal_budget),
                        budget,
                    });
                }
            });
            if active.is_empty() {
                let Some(next_start) = cursor.next_start_secs() else {
                    break;
                };
                t = SimTime(align_up(next_start, dt).max(t.as_secs() + dt));
                continue;
            }

            peers.clear();
            needs.clear();
            budgets.clear();
            let mut preload_total = 0u64;
            let mut swarm_demand = 0u64;
            let mut ineligible = 0u64;
            for (k, a) in active.iter().enumerate() {
                preload_total += a.preload;
                swarm_demand += a.demand;
                ineligible += if k == 0 { a.demand } else { a.demand - a.need };
                peers.push(a.peer);
                needs.push(a.need);
                budgets.push(a.budget);
            }
            // Mirror of the SoA loop's receiver-side flaking: a defecting
            // receiver's need is zeroed before matching and its deferred
            // demand lands in the fallback.
            let recv_defect_seed = swarm_seed(self.config.seed ^ RECV_DEFECT_STREAM_TAG, &key);
            let cooperation = self.config.cooperation_rate;
            let mut failed_demand = 0u64;
            for (k, a) in active.iter().enumerate().skip(1) {
                let user = swarm_users[a.user_slot as usize];
                if needs[k] > 0 && defects(recv_defect_seed, user, t.as_secs(), cooperation) {
                    failed_demand += needs[k];
                    needs[k] = 0;
                }
            }
            matcher.match_window_into(&peers, &needs, &budgets, 0, &mut outcome);

            // Mirror of the SoA loop's fault injection, keyed on the same
            // (swarm, user id, window) coin.
            let defect_seed = swarm_seed(self.config.seed ^ DEFECT_STREAM_TAG, &key);
            let mut failed_total = 0u64;
            let mut failed_by_layer = [0u64; 3];
            for (k, a) in active.iter().enumerate() {
                let acc = &mut user_acc[a.user_slot as usize];
                acc.0 += a.full_demand;
                let uploaded = outcome.per_peer[k].uploaded;
                let user = swarm_users[a.user_slot as usize];
                if uploaded > 0 && defects(defect_seed, user, t.as_secs(), cooperation) {
                    failed_total += uploaded;
                    for (f, u) in failed_by_layer
                        .iter_mut()
                        .zip(outcome.per_peer[k].uploaded_by_layer)
                    {
                        *f += u;
                    }
                } else {
                    acc.1 += uploaded;
                }
            }
            if failed_total > 0 || failed_demand > 0 {
                out.degradation.merge(&Degradation {
                    failed_transfer_bytes: failed_total,
                    failed_by_layer,
                    defection_windows: 1,
                    failed_demand_bytes: failed_demand,
                });
            }

            let demand_total = swarm_demand + preload_total;
            let fallback = ineligible + failed_demand + outcome.server_bytes + failed_total;
            let (server_total, cache_total, preload_srv, preload_cache) = if cached {
                (0, fallback, 0, preload_total)
            } else {
                (fallback, 0, preload_total, 0)
            };

            let mut peer_bytes_by_layer = outcome.peer_bytes_by_layer;
            for (p, f) in peer_bytes_by_layer.iter_mut().zip(failed_by_layer) {
                *p -= f;
            }
            let mut window_ledger = ByteLedger {
                demand_bytes: demand_total,
                server_bytes: server_total + preload_srv,
                peer_bytes_by_layer,
                cache_bytes: cache_total + preload_cache,
                preload_bytes: 0,
                active_windows: 1,
                peer_windows: active.len() as u64,
            };
            if !cached {
                window_ledger.server_bytes -= preload_srv;
                window_ledger.preload_bytes = preload_srv;
            }

            out.ledger.merge(&window_ledger);
            let day = (t.as_secs() / consume_local_trace::time::SECS_PER_DAY) as u32;
            match daily.last_mut() {
                Some((d, ledger)) if *d == day => ledger.merge(&window_ledger),
                _ => {
                    daily.push((day, std::mem::take(&mut window_ledger)));
                }
            }

            t = t + dt;
        }

        let mut cells = Vec::new();
        spill_days(&mut daily, u64::MAX, key.isp, &mut out.frozen, &mut cells);
        let users = swarm_users
            .into_iter()
            .zip(user_acc)
            .map(|(u, (w, up))| (u, w, up))
            .collect();
        (out, cells, users)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::faults::batch_schedule;
    use consume_local_energy::EnergyParams;
    use consume_local_swarm::MatcherKind;
    use consume_local_topology::{ExchangeId, IspId, IspTopology};
    use consume_local_trace::device::DeviceClass;
    use consume_local_trace::time::SECS_PER_DAY;
    use consume_local_trace::{
        ContentId, SessionRecord, Trace, TraceConfig, TraceGenerator, UserId,
    };

    fn tiny_trace() -> Trace {
        TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 11)
            .generate()
            .unwrap()
    }

    /// A hand-built trace: two users, same ISP/exchange/bitrate, overlapping
    /// sessions on one item.
    fn pair_trace(offset_secs: u64) -> Trace {
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

    /// Checks [`cost_chunks`]' contract on one cost vector.
    fn check_cost_chunks(costs: &[u64], workers: usize) {
        let offsets = cost_chunks(costs, workers);
        let total: u64 = costs.iter().sum();
        let case = format!("{} states, {workers} workers", costs.len());
        if total == 0 {
            assert!(offsets.is_empty(), "{case}: zero cost must not fan out");
            return;
        }
        assert_eq!(offsets.first(), Some(&0), "{case}");
        assert_eq!(offsets.last(), Some(&costs.len()), "{case}");
        assert!(
            offsets.windows(2).all(|w| w[0] < w[1]),
            "{case}: offsets must ascend"
        );
        let max_chunks = workers as u64 * CHUNKS_PER_WORKER;
        assert!(
            offsets.len() as u64 - 1 <= max_chunks,
            "{case}: too many chunks"
        );
        let target = total.div_ceil(max_chunks);
        for w in offsets.windows(2) {
            let chunk = &costs[w[0]..w[1]];
            let heaviest = *chunk.iter().max().expect("chunks are non-empty");
            assert!(
                chunk.iter().sum::<u64>() <= target + heaviest,
                "{case}: chunk {w:?} overshoots the target {target}"
            );
        }
    }

    #[test]
    fn cost_chunks_cover_every_state_within_the_bound() {
        // Zipf-shaped costs with a quiescent tail, the shape a daily push
        // sees; flat, sparse, single and empty vectors; and a
        // pseudo-random mix with many zero-cost states.
        let zipf: Vec<u64> = (1..=400u64).map(|rank| 90_000 / rank).collect();
        let mut quiet_tail = zipf.clone();
        quiet_tail.extend([0; 300]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mixed: Vec<u64> = (0..777)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 3 == 0 {
                    0
                } else {
                    x % 1_000
                }
            })
            .collect();
        let cases = [
            Vec::new(),
            vec![0; 9],
            vec![7],
            vec![0, 0, 5, 0, 0],
            vec![1; 1_000],
            zipf,
            quiet_tail,
            mixed,
        ];
        for costs in &cases {
            for workers in [1, 2, 3, 8, 64] {
                check_cost_chunks(costs, workers);
            }
        }
    }

    #[test]
    fn cost_chunks_give_head_swarms_chunks_of_their_own() {
        // Two head swarms above the 2-worker target (1/16 of the total)
        // each close a chunk alone, ahead of the tail.
        let mut costs = vec![5_000, 2_000];
        costs.extend([10; 300]);
        // (16 chunks of equal count would have put both heads and 17 tail
        // swarms in the first one: 72 % of the work on one thread.)
        let offsets = cost_chunks(&costs, 2);
        assert_eq!(offsets[..3], [0, 1, 2]);
        check_cost_chunks(&costs, 2);
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

    /// Checks a run's machine index against a walk over every machine: the
    /// index lists each machine once under its key, the live list is
    /// exactly the machines holding active or carried sessions, and the
    /// touched list matches the flags and holds every machine with
    /// unspilled days or a quiescent machine's built matcher.
    fn check_machine_index(run: &SegmentedRun) {
        assert_eq!(run.index.len(), run.states.len());
        for (key, &slot) in &run.index {
            assert_eq!(run.states[slot as usize].key, *key);
        }
        let live: Vec<u32> = (0..)
            .zip(&run.states)
            .filter(|(_, state)| !state.swarm.is_quiescent())
            .map(|(slot, _)| slot)
            .collect();
        assert_eq!(run.live, live, "live list at {}", run.watermark);
        let mut listed = vec![false; run.states.len()];
        for &slot in &run.touched {
            assert!(!listed[slot as usize], "slot {slot} touched twice");
            listed[slot as usize] = true;
        }
        for (state, listed) in run.states.iter().zip(listed) {
            assert_eq!(state.touched, listed);
            let warm =
                state.swarm.is_quiescent() && matches!(state.swarm.matcher, MatcherSlot::Live(_));
            assert!(listed || (state.swarm.daily.is_empty() && !warm));
        }
    }

    /// Machines that fall quiescent mid-day stay warm until the next push
    /// that seals a day, which freezes every one of them: after each seal
    /// of a 15-minute schedule no quiescent machine holds a built matcher.
    #[test]
    fn day_seals_freeze_every_quiescent_machine() {
        let store = SessionStore::from_trace(&tiny_trace());
        for threads in [1, 2] {
            let sim = Simulator::new(SimConfig {
                threads,
                ..Default::default()
            });
            let mut run = sim.begin(store.horizon_secs(), store.population_len());
            let (mut seals, mut warm) = (0, 0);
            for (batch, watermark) in batch_schedule(&store, 900) {
                let spilled = run.spilled_days;
                run.push_batch(&batch, watermark);
                check_machine_index(&run);
                let quiescent_warm = run
                    .states
                    .iter()
                    .filter(|s| {
                        s.swarm.is_quiescent() && matches!(s.swarm.matcher, MatcherSlot::Live(_))
                    })
                    .count();
                if run.spilled_days > spilled {
                    seals += 1;
                    assert_eq!(quiescent_warm, 0, "warm quiescent machines at {watermark}");
                } else {
                    warm += quiescent_warm;
                }
            }
            assert_eq!(seals, store.horizon_secs().div_ceil(SECS_PER_DAY));
            assert!(warm > 0, "no machine stayed warm between seals");
            assert_eq!(run.finish(), sim.simulate(&store));
        }
    }

    #[test]
    #[should_panic(expected = "batch sessions must start in [previous watermark, watermark)")]
    fn push_batch_rejects_sessions_past_the_watermark() {
        let trace = pair_trace(100);
        let store = SessionStore::from_trace(&trace);
        let sim = Simulator::new(SimConfig::default());
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        // The second session starts at 100 s, past this watermark.
        run.push_batch(&store, 50);
    }

    #[test]
    #[should_panic(expected = "batch user id 7 is outside the population of 2 users")]
    fn push_batch_rejects_users_outside_the_population() {
        let mut records = pair_trace(0).sessions().to_vec();
        records[1].user = UserId(7);
        let store = SessionStore::from_records(&records, 86_400, 2);
        let _ = Simulator::new(SimConfig::default()).simulate(&store);
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
            (preloaded.total.preload_bytes as f64 / preloaded.total.demand_bytes as f64 - 0.4)
                .abs()
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
    fn soa_active_set_matches_row_reference_on_generated_trace() {
        // The columnar window loop against the retained row-based oracle on
        // a real generated trace, across matchers and the config knobs that
        // feed the active set (preload, participation, cache).
        let trace = tiny_trace();
        let store = SessionStore::from_trace(&trace);
        let configs = [
            SimConfig::default(),
            SimConfig {
                matcher: MatcherKind::Random,
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
                cooperation_rate: 0.5,
                ..Default::default()
            },
        ];
        for cfg in configs {
            let sim = Simulator::new(cfg);
            assert_eq!(sim.simulate(&store), sim.run_store_rows(&store));
        }
    }

    mod soa_properties {
        use super::*;
        use consume_local_topology::IspTopology;
        use proptest::prelude::*;

        /// Random session records over a tiny world: 40 users across 2
        /// ISPs / 8 exchanges, 6 items, a 2-day horizon, devices drawn from
        /// the real mix. Small enough that swarms overlap heavily, large
        /// enough to exercise admit/retire churn and the idle-gap jump.
        /// Starts run 2 h past the horizon, so both paths meet sessions
        /// they must leave out.
        fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
            let record = (
                0u32..40,                 // user
                0u32..6,                  // content
                0u64..2 * 86_400 + 7_200, // start
                60u32..5_000,             // duration
                0usize..5,                // device (MIX index)
                0u8..2,                   // isp
                0u32..8,                  // exchange
            )
                .prop_map(|(user, content, start, duration, device, isp, exchange)| {
                    let topo = IspTopology::new(8, 2).unwrap();
                    SessionRecord {
                        user: UserId(user),
                        content: ContentId(content),
                        start: SimTime(start),
                        duration_secs: duration,
                        device: DeviceClass::MIX[device].0,
                        isp: IspId(isp),
                        location: topo.location_of(ExchangeId(exchange)),
                    }
                });
            proptest::collection::vec(record, 1..60)
        }

        proptest! {
            #[test]
            fn prop_soa_and_row_paths_agree(
                records in records_strategy(),
                matcher_pick in 0u8..2,
                window_secs in 5u64..600,
                participation_pct in 30u64..=100,
                cooperation_pct in 40u64..=100,
            ) {
                let store = SessionStore::from_records(&records, 2 * 86_400, 40);
                let cfg = SimConfig {
                    matcher: if matcher_pick == 1 {
                        MatcherKind::Random
                    } else {
                        MatcherKind::Hierarchical
                    },
                    window_secs,
                    participation_rate: participation_pct as f64 / 100.0,
                    cooperation_rate: cooperation_pct as f64 / 100.0,
                    ..Default::default()
                };
                let sim = Simulator::new(cfg);
                let soa = sim.simulate(&store);
                let rows = sim.run_store_rows(&store);
                prop_assert_eq!(soa, rows);
            }

            /// Replayed membership runs against the row oracle, which
            /// matches every window: long sessions on a world of 2 items
            /// and 4 exchanges give multi-peer runs that span many upload
            /// rotation cycles and cross midnight, and a random batch
            /// schedule pauses runs mid-cycle. Partial participation and
            /// unsplit swarms (mixed ISPs and bitrates) make the cycle's
            /// window ledgers differ by rotation, not only its uploads. At
            /// a random batch boundary the run is checkpointed and resumed
            /// from the snapshot, so the per-user rows the oracle keeps by
            /// itself also pin the snapshot's per-session and per-user
            /// bytes. The oracle's report does not depend on the thread
            /// count, so each cooperation rate computes it once.
            #[test]
            fn prop_replayed_runs_match_row_oracle_under_any_batch_schedule(
                records in long_sessions_strategy(),
                cuts in proptest::collection::vec(0u64..LONG_HORIZON, 0..8),
                resume_pick in 0usize..9,
                window_secs in 10u64..120,
                cooperation_pct in 50u64..100,
                participation_pct in 30u64..=100,
                matcher_pick in 0u8..2,
                split in 0u8..2,
            ) {
                let store = SessionStore::from_records(&records, LONG_HORIZON, 12);
                let mut watermarks = cuts;
                watermarks.sort_unstable();
                watermarks.push(LONG_HORIZON);
                let resume_at = resume_pick % watermarks.len();
                for cooperation_rate in [1.0, cooperation_pct as f64 / 100.0] {
                    let config = |threads| SimConfig {
                        matcher: if matcher_pick == 1 {
                            MatcherKind::Random
                        } else {
                            MatcherKind::Hierarchical
                        },
                        window_secs,
                        cooperation_rate,
                        participation_rate: participation_pct as f64 / 100.0,
                        policy: SwarmPolicy {
                            split_by_isp: split == 1,
                            split_by_bitrate: split == 1,
                        },
                        threads,
                        ..Default::default()
                    };
                    let oracle = Simulator::new(config(1)).run_store_rows(&store);
                    for threads in [1, 2] {
                        let sim = Simulator::new(config(threads));
                        let mut run = sim.begin(LONG_HORIZON, 12);
                        let mut from = 0;
                        for (i, &watermark) in watermarks.iter().enumerate() {
                            if i == resume_at {
                                let mut snapshot = Vec::new();
                                run.checkpoint(&mut snapshot).unwrap();
                                run = Simulator::resume(&mut snapshot.as_slice()).unwrap();
                            }
                            let batch: Vec<SessionRecord> = records
                                .iter()
                                .filter(|r| (from..watermark).contains(&r.start.as_secs()))
                                .copied()
                                .collect();
                            run.push_batch(
                                &SessionStore::from_records(&batch, LONG_HORIZON, 12),
                                watermark,
                            );
                            from = watermark;
                        }
                        prop_assert_eq!(&run.finish(), &oracle);
                    }
                }
            }
        }

        /// Horizon of [`long_sessions_strategy`]: 3 days, so a session
        /// starting late on day 2 still fits a whole day.
        const LONG_HORIZON: u64 = 3 * 86_400;

        /// Long sessions (1 h to 1 day) by 12 users on 2 items, across 2
        /// ISPs and 4 exchanges in 2 PoPs: swarms hold several peers for
        /// hours at a stretch.
        fn long_sessions_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
            let record = (
                0u32..12,          // user
                0u32..2,           // content
                0u64..2 * 86_400,  // start
                3_600u32..=86_400, // duration
                0usize..5,         // device (MIX index)
                0u8..2,            // isp
                0u32..4,           // exchange
            )
                .prop_map(|(user, content, start, duration, device, isp, exchange)| {
                    let topo = IspTopology::new(4, 2).unwrap();
                    SessionRecord {
                        user: UserId(user),
                        content: ContentId(content),
                        start: SimTime(start),
                        duration_secs: duration,
                        device: DeviceClass::MIX[device].0,
                        isp: IspId(isp),
                        location: topo.location_of(ExchangeId(exchange)),
                    }
                });
            proptest::collection::vec(record, 1..20)
        }
    }

    #[test]
    fn segmented_source_matches_monolithic_store() {
        let trace = tiny_trace();
        let mono = SessionStore::from_trace(&trace);
        // Window lengths that divide a day, don't divide a day, and exceed
        // a day — the segment-boundary pause/carry logic must be invisible
        // in all three regimes, across matchers and the active-set knobs.
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
    fn segmented_run_finish_drains_partial_pushes() {
        // Feeding only day 0 of a multi-day trace must still replay every
        // admitted session to completion: finish() drains the machines.
        let trace = pair_trace(0); // both sessions on day 0
        let store = SessionStore::from_trace(&trace);
        let sim = Simulator::new(SimConfig::default());
        let (day0, watermark) = &batch_schedule(&store, SECS_PER_DAY)[0];
        assert_eq!(day0.len(), store.len());
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        run.push_batch(day0, *watermark);
        assert_eq!(run.finish(), sim.simulate(&trace));
    }

    #[test]
    fn segmented_run_deterministic_across_thread_counts() {
        let store = SessionStore::from_trace(&tiny_trace());
        let run_with = |threads: usize| {
            let sim = Simulator::new(SimConfig {
                threads,
                ..Default::default()
            });
            simulate_by_day(&sim, &store)
        };
        let reference = run_with(1);
        assert_eq!(reference, run_with(2));
        assert_eq!(reference, run_with(8));
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
    fn simulate_by_day(sim: &Simulator, store: &SessionStore) -> SimReport {
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        for (batch, watermark) in batch_schedule(store, SECS_PER_DAY) {
            run.push_batch(&batch, watermark);
        }
        run.finish()
    }

    /// A snapshot taken mid-run must restore into a run that finishes
    /// byte-identically to both the donor and the uninterrupted reference,
    /// across configs that exercise every codec branch: hierarchical and
    /// random matchers, ISP/bitrate splits, edge cache + preload, and
    /// non-trivial defection rates.
    #[test]
    fn checkpoint_roundtrip_resumes_byte_identically() {
        let store = SessionStore::from_trace(&tiny_trace());
        let days = batch_schedule(&store, SECS_PER_DAY);
        let configs = [
            SimConfig::default(),
            SimConfig {
                matcher: MatcherKind::Random,
                seed: 9,
                upload: crate::config::UploadModel::AbsoluteBps(600_000),
                ..Default::default()
            },
            SimConfig {
                preload_fraction: 0.25,
                edge_cache: Some(crate::config::EdgeCache { top_items: 2 }),
                participation_rate: 0.8,
                cooperation_rate: 0.9,
                ..Default::default()
            },
        ];
        for config in configs {
            let sim = Simulator::new(config);
            let expect = sim.simulate(&store);
            let cut = days.len() / 2;
            let mut run = sim.begin(store.horizon_secs(), store.population_len());
            for (batch, watermark) in &days[..cut] {
                run.push_batch(batch, *watermark);
            }
            let mut snapshot = Vec::new();
            run.checkpoint(&mut snapshot).unwrap();
            let mut resumed = Simulator::resume(&mut snapshot.as_slice()).unwrap();
            assert_eq!(resumed.watermark(), run.watermark());
            for (batch, watermark) in &days[cut..] {
                run.push_batch(batch, *watermark);
                resumed.push_batch(batch, *watermark);
            }
            assert_eq!(resumed.finish(), expect, "resumed run diverged");
            assert_eq!(
                run.finish(),
                expect,
                "checkpoint() must not perturb the donor"
            );
        }
    }

    /// Snapshots are not day-aligned: a checkpoint cut at a mid-day
    /// watermark (live swarms, carried sessions, partially accumulated
    /// daily ledgers) must still resume byte-identically.
    #[test]
    fn checkpoint_at_mid_day_watermark_roundtrips() {
        let trace = tiny_trace();
        let store = SessionStore::from_trace(&trace);
        let sim = Simulator::new(SimConfig::default());
        let expect = sim.simulate(&store);
        // 9 000 s ticks never land on a day boundary (86 400 % 9 000 != 0).
        let schedule = crate::online::faults::batch_schedule(&store, 9_000);
        let cut = 11; // mid day 1
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        for (batch, watermark) in &schedule[..cut] {
            run.push_batch(batch, *watermark);
        }
        let mut snapshot = Vec::new();
        run.checkpoint(&mut snapshot).unwrap();
        drop(run); // the crash
        let mut resumed = Simulator::resume(&mut snapshot.as_slice()).unwrap();
        assert_eq!(resumed.watermark(), schedule[cut - 1].1);
        for (batch, watermark) in &schedule[cut..] {
            resumed.push_batch(batch, *watermark);
        }
        assert_eq!(resumed.finish(), expect);
    }

    /// The snapshot carries the full engine configuration: restoring on a
    /// host with a different default thread count must not change results,
    /// and the restored run keeps the donor's matcher and seed.
    #[test]
    fn snapshot_carries_the_configuration() {
        let store = SessionStore::from_trace(&tiny_trace());
        let days = batch_schedule(&store, SECS_PER_DAY);
        let config = SimConfig {
            matcher: MatcherKind::Random,
            seed: 77,
            threads: 2,
            ..Default::default()
        };
        let sim = Simulator::new(config);
        let expect = sim.simulate(&store);
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        for (batch, watermark) in &days[..3] {
            run.push_batch(batch, *watermark);
        }
        let mut snapshot = Vec::new();
        run.checkpoint(&mut snapshot).unwrap();
        let mut resumed = Simulator::resume(&mut snapshot.as_slice()).unwrap();
        for (batch, watermark) in &days[3..] {
            resumed.push_batch(batch, *watermark);
        }
        assert_eq!(resumed.finish(), expect);
    }
}
