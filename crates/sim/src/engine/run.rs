//! The run: [`SegmentedRun`] keeps one [`SwarmSim`] per swarm and
//! advances those a batch touches in cost-cut chunks across threads, where
//! each machine also spills the days the watermark seals, and ends through
//! one more push.

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
use crate::report::{SimReport, SwarmDay, UserTraffic};
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

/// A push's work list: the `visit` slots (the live machines, plus the
/// touched ones when the push seals a day) and the batch's
/// `(slot, sessions)` pairs, both ascending and distinct, merged into one
/// ascending list of distinct slots, each with its batch sessions (none for
/// a visited machine the batch does not reach).
fn merge_work<'b>(visit: &[u32], batch: &[(u32, &'b [u32])]) -> Vec<(u32, &'b [u32])> {
    let mut work = Vec::with_capacity(visit.len() + batch.len());
    let mut visit = visit.iter().copied().peekable();
    for &(slot, sessions) in batch {
        while let Some(v) = visit.next_if(|&v| v < slot) {
            work.push((v, &[][..]));
        }
        visit.next_if_eq(&slot);
        work.push((slot, sessions));
    }
    work.extend(visit.map(|v| (v, &[][..])));
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

/// One swarm's persistent entry in a [`SegmentedRun`].
#[derive(Debug)]
pub(crate) struct SwarmState {
    pub(crate) key: SwarmKey,
    /// Sessions grouped into this swarm so far (the monolithic report's
    /// per-swarm session count, accumulated per segment).
    pub(crate) sessions: u64,
    /// Sealed days spilled out of the machine's `daily` list, day-ordered:
    /// the report's points, already in their final form. The other ledger
    /// classes live on in the run-level day × ISP cells.
    pub(crate) frozen: Vec<SwarmDay>,
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
/// - the **live** machines, those holding active sessions: with the
///   batch's machines, they are all a push advances;
/// - the **touched** machines, those advanced since the last day seal or
///   still holding unspilled days: a push that seals a day visits them too,
///   to spill and freeze them.
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
/// (active sessions, accumulators and the growing report) — the
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
    /// Slots of the machines holding active sessions, ascending.
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
    /// its batch and active sessions. Head swarms thus get chunks of their
    /// own, and a batch that brings no work and finds no live machine
    /// spawns no thread.
    ///
    /// A machine pauses at the first window boundary at or past the
    /// watermark, and admits there the batch's sessions its windows have
    /// not reached: they all start below the watermark, so that window
    /// would admit them. Between pushes, then, a machine keeps no session
    /// outside its active set.
    ///
    /// A push that seals a day also visits the touched machines, and each
    /// machine spills its sealed days and, if quiescent, freezes inside the
    /// same parallel pass:
    ///
    /// - **Spill.** Each sealed `(day, ledger)` entry becomes the report's
    ///   [`SwarmDay`] point and the swarm's share of its day × ISP cell;
    ///   the chunks' cells then fold into the run-level cells. A day is
    ///   sealed once the watermark passes its end — machines with pending
    ///   work always advance to the watermark and later sessions start at
    ///   or after it, so sealed entries can never grow again (the
    ///   invariant [`SegmentedRun::drain_closed_days`] already relies on).
    /// - **Freeze.** Every quiescent machine is compacted to its matcher's
    ///   checkpoint word, so after a day seal no quiescent machine holds a
    ///   built matcher. A touched quiescent machine the batch brings
    ///   nothing to is not advanced, so a dormant one is never thawed just
    ///   to be frozen again.
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
        //    slot order, each with its batch sessions. A push that seals a
        //    day adds the touched machines, which hold every unspilled day
        //    and every warm quiescent matcher; every other machine is
        //    frozen and spilled.
        let sealed = sealed_days(watermark, self.horizon_secs);
        let seals = sealed > self.spilled_days;
        let work = if seals {
            let mut visit: Vec<u32> = self.live.iter().chain(&self.touched).copied().collect();
            visit.sort_unstable();
            visit.dedup();
            merge_work(&visit, &batch_work)
        } else {
            merge_work(&self.live, &batch_work)
        };

        // 4. Advance the machines with work (batch sessions, or live ones)
        //    in parallel over disjoint cost-balanced chunks (slot-ordered:
        //    the final state of every machine is independent of which
        //    thread ran it), and on a sealing push spill and freeze each
        //    one. Each chunk lists the bytes of the sessions its machines
        //    retired and the day × ISP cells they spilled; the lists fold
        //    into the run once the pass is over.
        let sim = &self.sim;
        let horizon = self.horizon_secs;
        let mut machines = gather_machines(&mut self.states, &work);
        let costs: Vec<u64> = machines
            .iter()
            .map(|(state, sessions)| state.swarm.cost(sessions.len()))
            .collect();
        let offsets = cost_chunks(&costs, sim.config.threads);
        let chunks =
            parallel_map_slices(&mut machines, &offsets, sim.config.threads, |_, chunk| {
                let (mut retired, mut cells) = (Vec::new(), Vec::new());
                for (state, sessions) in chunk {
                    let swarm = &mut state.swarm;
                    if !sessions.is_empty() || !swarm.is_quiescent() {
                        swarm.advance(sim, batch, sessions, limit, horizon, &mut retired);
                    }
                    if seals {
                        let (isp, frozen) = (state.key.isp, &mut state.frozen);
                        spill_days(&mut swarm.daily, sealed, isp, frozen, &mut cells);
                        if swarm.is_quiescent() {
                            swarm.freeze();
                        }
                    }
                }
                (retired, cells)
            });
        drop(machines);
        let mut spilled = Vec::new();
        for (retired, cells) in chunks {
            add_user_bytes(&mut self.users, &retired);
            spilled.extend(cells);
        }
        if seals {
            fold_cells(&mut self.spilled_cells, spilled);
            self.spilled_days = sealed;
            self.touched.clear();
        }

        // 5. Re-list the live machines (every one was on the work list, so
        //    the list stays ascending) and the touched ones. After a seal a
        //    machine stays touched only while it holds an unspilled day; if
        //    it is live, its next advance lists it again.
        self.live.clear();
        for &(slot, _) in &work {
            let state = &mut self.states[slot as usize];
            if !state.swarm.is_quiescent() {
                self.live.push(slot);
            }
            let touched = !seals || !state.swarm.daily.is_empty();
            if touched && (seals || !state.touched) {
                self.touched.push(slot);
            }
            state.touched = touched;
        }
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
                let daily = std::mem::take(&mut state.frozen);
                let out = state.swarm.take_output(daily, &mut retired);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::machine::MatcherSlot;
    use crate::engine::tests::{pair_trace, simulate_by_day, tiny_trace};
    use crate::online::faults::batch_schedule;
    use consume_local_trace::time::SECS_PER_DAY;
    use consume_local_trace::UserId;

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

    /// Checks a run's machine index against a walk over every machine: the
    /// index lists each machine once under its key, the live list is
    /// exactly the machines holding active sessions, and the
    /// touched list matches the flags and holds every machine with
    /// unspilled days or a quiescent machine's built matcher. Checks the
    /// spill boundary too: every open day lies at or past it, and every
    /// spilled point and cell before it, each swarm's points in day order.
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
            let open = &state.swarm.daily;
            assert!(open
                .iter()
                .all(|&(day, _)| u64::from(day) >= run.spilled_days));
            let spilled: Vec<u32> = state.frozen.iter().map(|d| d.day).collect();
            assert!(spilled.windows(2).all(|w| w[0] < w[1]), "{spilled:?}");
            assert!(spilled.iter().all(|&day| u64::from(day) < run.spilled_days));
        }
        let cells = &run.spilled_cells;
        assert!(cells
            .iter()
            .all(|&(day, _, _)| u64::from(day) < run.spilled_days));
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

    /// A restore brings every quiescent machine back dormant, some still
    /// holding the open day. The push that seals that day spills them
    /// without advancing them: a machine that came back dormant and that
    /// the batch brings no session to is still dormant afterwards and
    /// holds no open day.
    #[test]
    fn a_day_seal_spills_restored_dormant_machines_in_place() {
        let store = SessionStore::from_trace(&tiny_trace());
        let sim = Simulator::new(SimConfig::default());
        let mut donor = sim.begin(store.horizon_secs(), store.population_len());
        // 11 ticks of 9 000 s end mid day 1.
        for (batch, watermark) in &batch_schedule(&store, 9_000)[..11] {
            donor.push_batch(batch, *watermark);
        }
        let mut snapshot = Vec::new();
        donor.checkpoint(&mut snapshot).unwrap();
        let mut run = Simulator::resume(&mut snapshot.as_slice()).unwrap();
        let before: Vec<(bool, bool, u64)> = run
            .states
            .iter()
            .map(|s| {
                let dormant = matches!(s.swarm.matcher, MatcherSlot::Dormant { .. });
                (dormant, !s.swarm.daily.is_empty(), s.sessions)
            })
            .collect();

        // One batch up to the end of day 1 seals it.
        let day_end = 2 * SECS_PER_DAY;
        let (from, to) = (
            store.first_at_or_after(run.watermark()),
            store.first_at_or_after(day_end),
        );
        let records: Vec<_> = (from..to).map(|i| store.record(i)).collect();
        let horizon = store.horizon_secs();
        let batch = SessionStore::from_records(&records, horizon, store.population_len());
        run.push_batch(&batch, day_end);
        assert_eq!(run.spilled_days, 2);
        check_machine_index(&run);

        let mut spilled_in_place = 0;
        for (state, &(dormant, open, sessions)) in run.states.iter().zip(&before) {
            if dormant && state.sessions == sessions {
                assert!(matches!(state.swarm.matcher, MatcherSlot::Dormant { .. }));
                assert!(state.swarm.daily.is_empty());
                spilled_in_place += usize::from(open);
            }
        }
        assert!(spilled_in_place > 0, "no dormant machine held the open day");
    }

    /// A watermark that cuts a session's first window off admits it at the
    /// pause: sessions at 0 s and 95 s pushed as one batch to watermark
    /// 100 leave the machine live at boundary 100, with the second session
    /// active and nothing watched yet. The run then checkpoints, resumes
    /// and finishes as `simulate` does.
    #[test]
    fn a_pause_admits_the_sessions_its_windows_have_not_reached() {
        let store = SessionStore::from_trace(&pair_trace(95));
        let sim = Simulator::new(SimConfig::default());
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        run.push_batch(&store, 100);
        assert_eq!(run.live, [0]);
        let swarm = &run.states[0].swarm;
        assert!(matches!(swarm.matcher, MatcherSlot::Live(_)));
        assert_eq!(swarm.t.as_secs(), 100);
        assert_eq!(swarm.active.users, [0, 1]);
        assert_eq!(swarm.active.watched[1], 0);
        let mut snapshot = Vec::new();
        run.checkpoint(&mut snapshot).unwrap();
        let resumed = Simulator::resume(&mut snapshot.as_slice()).unwrap();
        assert_eq!(resumed.finish(), sim.simulate(&store));
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
}
