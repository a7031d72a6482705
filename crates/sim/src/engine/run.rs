//! The run: [`SegmentedRun`] keeps one [`SwarmSim`] per swarm and
//! advances those a batch touches in cost-cut chunks across threads, seals
//! and spills the days the watermark passes, and ends through one more
//! push.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use consume_local_swarm::SwarmKey;
use consume_local_trace::SessionStore;

use super::machine::SwarmSim;
use super::{
    add_user_bytes, align_up, before_horizon, fold_cells, group_by_swarm, sealed_days,
    sort_key_warnings, spill_days, DayCell, DayClose, Simulator,
};
use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::ledger::ByteLedger;
use crate::par::parallel_map_slices;
use crate::report::{SimReport, UserTraffic};
use crate::source::SessionSource;

/// Chunks per worker in [`cost_chunks`]: slack for work stealing to even
/// out a misestimated cost. A [`parallel_map_slices`] steal costs one lock
/// per *chunk*, so chunking per state would pay one lock per swarm per
/// batch — hundreds of millions at full scale.
pub(super) const CHUNKS_PER_WORKER: u64 = 8;

/// Contiguous chunk offsets fanning a list of per-swarm machines out over
/// `workers` threads, cut by each machine's deterministic cost
/// ([`SwarmSim::cost`]) instead of by count.
///
/// The swarm key leads with [`ContentId`](consume_local_trace::ContentId),
/// which is the popularity rank. A push's work list is in slot order, and a
/// batch creates its new machines in key order, so the head swarms —
/// created by the first batches — sit near the front: chunks of equal
/// *count* would hand the first one most of the work. Here a chunk closes
/// as soon as its cost reaches the target `total / (workers × 8)`, rounded
/// up. A head swarm at or above the target therefore gets a chunk of its
/// own, and [`parallel_map_slices`] steals chunks in index order, so the
/// head swarms start first.
///
/// The offsets are ascending and cover `0..costs.len()` in at most
/// `workers × 8` chunks, each costing at most the target plus its heaviest
/// state; zero-cost states ride in whichever chunk holds them. When every
/// cost is zero there are no chunks, so nothing fans out. Chunking decides
/// only which thread advances a machine, never what it computes.
pub(super) fn cost_chunks(costs: &[u64], workers: usize) -> Vec<usize> {
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
pub(crate) struct FrozenDay {
    pub(crate) day: u32,
    pub(crate) demand_bytes: u64,
    pub(crate) active_windows: u64,
    pub(crate) peer_windows: u64,
}

impl FrozenDay {
    /// The day's effective capacity, bit-identical to
    /// [`effective_capacity`](super::effective_capacity) of the full ledger
    /// it was frozen from.
    pub(super) fn capacity(&self) -> f64 {
        if self.active_windows == 0 {
            return 0.0;
        }
        let l_bar = self.peer_windows as f64 / self.active_windows as f64;
        consume_local_analytics::capacity_from_active_mean(l_bar)
    }
}

/// One swarm's persistent entry in a [`SegmentedRun`].
#[derive(Debug)]
pub(crate) struct SwarmState {
    pub(crate) key: SwarmKey,
    /// Sessions grouped into this swarm so far (the monolithic report's
    /// per-swarm session count, accumulated per segment).
    pub(crate) sessions: u64,
    /// Sealed days spilled out of the machine's `daily` list, day-ordered
    /// (see [`SegmentedRun::seal_days`]).
    pub(crate) frozen: Vec<FrozenDay>,
    /// Whether the machine's slot is listed in [`SegmentedRun`]'s
    /// `touched` list (derived state: a snapshot does not carry it).
    pub(crate) touched: bool,
    pub(crate) swarm: SwarmSim,
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
    pub(crate) sim: Simulator,
    pub(crate) horizon_secs: u64,
    /// Persistent per-swarm machines, in slot (creation) order.
    pub(crate) states: Vec<SwarmState>,
    /// Every machine's slot, by key.
    pub(crate) index: BTreeMap<SwarmKey, u32>,
    /// Slots of the machines holding active or carried sessions, ascending.
    pub(crate) live: Vec<u32>,
    /// Slots of the machines advanced since the last day seal or still
    /// holding unspilled `daily` entries, unordered; each has its
    /// `touched` flag set. Every quiescent machine outside this list is
    /// frozen.
    pub(crate) touched: Vec<u32>,
    /// Per-user totals of every session that has left its swarm's active
    /// set, one per user of the population, indexed by user id; sessions
    /// still active hold their bytes in their machine's
    /// [`ActiveSet`](super::machine::ActiveSet) columns.
    pub(crate) users: Vec<UserTraffic>,
    /// The time every pushed session so far starts strictly before, and no
    /// future session may start before (monotone).
    pub(crate) watermark: u64,
    /// Days already emitted by [`SegmentedRun::drain_closed_days`].
    pub(crate) closed_days: u64,
    /// Days whose per-swarm ledgers have been spilled: between pushes,
    /// exactly the days the watermark has sealed ([`sealed_days`]). Every
    /// machine's `daily` list holds only days at or past this boundary.
    pub(crate) spilled_days: u64,
    /// The spilled days' accumulated day × ISP cells, `(day, isp)`-sorted
    /// and grouped — byte-identical to the prefix of the final report's
    /// `daily` list covering those days.
    pub(crate) spilled_cells: Vec<DayCell>,
    /// Element-wise sort-key maxima folded across every pushed batch (see
    /// [`SessionStore::sort_key_maxima`]).
    pub(crate) max_start_secs: u64,
    pub(crate) max_user: u32,
    pub(crate) max_content: u32,
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
}
