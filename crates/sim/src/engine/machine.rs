//! The per-swarm window-loop machine: [`SwarmSim`] with its columnar
//! [`ActiveSet`] and its matcher slot. It advances one sub-swarm's Δτ
//! windows, replays membership runs in closed form and books each window's
//! ledger.

use consume_local_swarm::matching::MatchOutcome;
use consume_local_swarm::{Matcher, Peer, SwarmKey};
use consume_local_trace::{SessionStore, SimTime};

use super::{
    align_up, defects, participates, swarm_seed, Simulator, SwarmOutput, UserBytes,
    DEFECT_STREAM_TAG, RECV_DEFECT_STREAM_TAG,
};
use crate::ledger::ByteLedger;
use crate::report::{Degradation, SwarmDay};

/// The columnar active set of one sub-swarm: parallel per-session columns in
/// arrival order, with the `peers`/`needs`/`budgets` columns shaped exactly
/// as [`Matcher::match_window_into`] consumes them. Pushes append to every
/// column; retiring compacts all columns in lockstep (order-preserving, like
/// `Vec::retain`) and hands each retired session's [`UserBytes`] out, and
/// `min_end` lets a window skip the retire scan when no active session can
/// have ended yet.
#[derive(Debug, PartialEq)]
pub(crate) struct ActiveSet {
    /// Session end times in seconds.
    pub(crate) ends: Vec<u64>,
    /// Each session's user id.
    pub(crate) users: Vec<u32>,
    /// Bytes each session has watched so far (preloaded bytes included).
    pub(crate) watched: Vec<u64>,
    /// Upload bytes each session has been credited so far.
    pub(crate) uploaded: Vec<u64>,
    /// Each session's stream bitrate in bits per second.
    pub(crate) bitrates: Vec<u32>,
    /// Matcher input: peer identities.
    pub(crate) peers: Vec<Peer>,
    /// Full per-window demand `β·Δτ/8` in bytes, preload included.
    pub(crate) full_demands: Vec<u64>,
    /// In-swarm per-window demand (full demand minus the preloaded part).
    pub(crate) demands: Vec<u64>,
    /// Per-window bytes served by predictive preloading.
    pub(crate) preloads: Vec<u64>,
    /// Matcher input: peer-receivable caps `min(demand, q·Δτ/8)`.
    pub(crate) needs: Vec<u64>,
    /// Matcher input: per-window upload budgets (0 for non-participants).
    pub(crate) budgets: Vec<u64>,
    /// Smallest entry of `ends` (`u64::MAX` when empty): windows with
    /// `t < min_end` cannot retire anything and skip the scan.
    pub(crate) min_end: u64,
}

impl Default for ActiveSet {
    fn default() -> Self {
        Self {
            ends: Vec::new(),
            users: Vec::new(),
            watched: Vec::new(),
            uploaded: Vec::new(),
            bitrates: Vec::new(),
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
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends session `p` with the bytes it has watched and been credited
    /// so far: the one derivation of a session's window quantities, for a
    /// batch's session and a restored one alike. They are fixed for the
    /// whole session (bitrate and Δτ do not change), so they are computed
    /// once here instead of once per window. A preloaded fraction of every
    /// session's bytes bypasses the swarm (§VI preloading extension; 0 by
    /// default).
    pub(crate) fn push(&mut self, sim: &Simulator, p: PendingSession, watched: u64, uploaded: u64) {
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
        self.ends.push(p.end);
        self.users.push(p.user);
        self.watched.push(watched);
        self.uploaded.push(uploaded);
        self.bitrates.push(p.bitrate_bps);
        self.peers.push(p.peer);
        self.full_demands.push(full_demand);
        self.demands.push(demand);
        self.preloads.push(preload);
        self.needs.push(demand.min(nominal_budget));
        self.budgets.push(budget);
        self.min_end = self.min_end.min(p.end);
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
                    self.bitrates[w] = self.bitrates[r];
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
        self.bitrates.truncate(w);
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

/// A session on its way into the active set, from a batch row or a
/// snapshot record: what [`ActiveSet::push`] derives its window quantities
/// from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSession {
    pub(crate) end: u64,
    pub(crate) user: u32,
    pub(crate) bitrate_bps: u32,
    pub(crate) peer: Peer,
}

/// The matcher slot of a [`SwarmSim`]: a live machine owns its built
/// matcher; a dormant (compacted) machine keeps only the matcher's
/// checkpoint word — exactly what [`crate::checkpoint`] persists — and
/// rebuilds the matcher from it on reactivation.
pub(crate) enum MatcherSlot {
    Live(Box<dyn Matcher + Send>),
    Dormant { word: u64 },
}

impl MatcherSlot {
    /// The live matcher. Callers must have thawed the machine first.
    pub(crate) fn live_mut(&mut self) -> &mut (dyn Matcher + Send) {
        match self {
            MatcherSlot::Live(m) => m.as_mut(),
            MatcherSlot::Dormant { .. } => unreachable!("dormant machine advanced without thaw"),
        }
    }

    /// The matcher's checkpoint word, live or dormant.
    pub(crate) fn word(&self) -> u64 {
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
/// [`SwarmSim::advance`] call; [`SegmentedRun`](super::SegmentedRun)
/// drives the same machine one batch at a time. A pause admits the batch's
/// unreached sessions exactly as the next call's first window would, and
/// a resume changes neither the active set, the matcher state, the cached
/// membership totals nor the window boundary, so the two schedules produce
/// byte-identical outputs (pinned by `tests/segmented.rs`).
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
pub(crate) struct SwarmSim {
    pub(crate) matcher: MatcherSlot,
    /// The matcher's key-derived seed (`swarm_seed` of the run seed and the
    /// swarm key), kept so a dormant machine can rebuild its matcher
    /// without knowing its key.
    matcher_seed: u64,
    pub(crate) active: ActiveSet,
    /// The next window boundary to process (always a multiple of Δτ).
    pub(crate) t: SimTime,
    pub(crate) ledger: ByteLedger,
    pub(crate) daily: Vec<(u32, ByteLedger)>,
    pub(crate) upload_ratio: f64,
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
    pub(crate) degradation: Degradation,
}

impl SwarmSim {
    /// Creates an empty machine for swarm `key` with a fresh matcher, its
    /// next window boundary at `t` and the report's upload ratio: the one
    /// place the key-derived seeds, the edge-cache bit and the scratch
    /// buffers are set, for a new swarm and for a restored one alike.
    pub(crate) fn new(sim: &Simulator, key: &SwarmKey, t: u64, upload_ratio: f64) -> Self {
        let matcher_seed = swarm_seed(sim.config.seed, key);
        Self {
            matcher: MatcherSlot::Live(sim.config.matcher.build(matcher_seed)),
            matcher_seed,
            active: ActiveSet::default(),
            t: SimTime(t),
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

    /// Admits one session into the active set with no bytes yet, skipping
    /// a session that ends by the current boundary.
    fn admit(&mut self, sim: &Simulator, p: PendingSession) {
        if p.end > self.t.as_secs() {
            self.active.push(sim, p, 0, 0);
        }
    }

    /// Runs the window loop over `indices` (a start-ordered index subset of
    /// `store` — one segment's sessions for this swarm, or the whole
    /// store), processing every window boundary strictly below `limit` that
    /// the supplied sessions cover, and pausing at `limit`. The sessions
    /// the pause leaves unreached all start below `limit`, so the next
    /// call's first window, at the same boundary, would admit them all:
    /// the pause admits them instead. Pass `limit = u64::MAX` for a single
    /// full-horizon pass. Sessions that leave the active set append their
    /// bytes to `retired`.
    ///
    /// The first window of each membership run — after an admission or a
    /// retirement, and the first window of every call, since a batch
    /// boundary pauses a run — sizes the run up to the next membership
    /// event or `limit` and, when the run draws no coins (one peer, or
    /// `cooperation_rate >= 1.0`), hands it to [`SwarmSim::start_run`] for
    /// replay. Every other window is matched one by one.
    pub(super) fn advance(
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
            end: starts_col[i] + u64::from(durations_col[i]),
            user: users_col[i],
            bitrate_bps: devices_col[i].bitrate_bps(),
            peer: Peer {
                isp: isps_col[i],
                location: locations_col[i],
            },
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
                // exiting).
                return;
            }
            if t >= limit {
                // Window `t` belongs to the next call, whose first window
                // would admit every session the cursor still holds (each
                // starts below `limit`): admit them here, in start order,
                // while the batch's columns are at hand.
                let len_before_admit = self.active.len();
                cursor.admit_until(u64::MAX, |i| self.admit(sim, pending_of(i)));
                self.sums_stale |= self.active.len() != len_before_admit;
                return;
            }
            self.sums_stale |= self.active.retire_ended(t, retired);
            let len_before_admit = self.active.len();
            cursor.admit_until(t, |i| self.admit(sim, pending_of(i)));
            self.sums_stale |= self.active.len() != len_before_admit;
            let next_start = cursor.next_start_secs();
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
    /// to the horizon and spilled, with its spilled `daily` points: the
    /// sessions still active (those running past the horizon) append their
    /// bytes to `retired`. Taking `&mut self` lets
    /// [`SegmentedRun::finish_days`](super::SegmentedRun::finish_days) walk
    /// its machines in key order through the slot index.
    pub(super) fn take_output(
        &mut self,
        daily: Vec<SwarmDay>,
        retired: &mut Vec<UserBytes>,
    ) -> SwarmOutput {
        debug_assert!(self.daily.is_empty(), "the final push spills every day");
        self.active.retire_ended(u64::MAX, retired);
        SwarmOutput {
            ledger: std::mem::take(&mut self.ledger),
            daily,
            upload_ratio: self.upload_ratio,
            degradation: std::mem::take(&mut self.degradation),
        }
    }

    /// Whether the machine holds no active session: nothing to advance
    /// until a batch brings it one.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.active.is_empty()
    }

    /// What [`cost_chunks`](super::run::cost_chunks) charges for advancing
    /// the machine over a batch that brings it `new_sessions` sessions: one
    /// for the visit plus every session it admits or holds active.
    pub(super) fn cost(&self, new_sessions: usize) -> u64 {
        (1 + new_sessions + self.active.len()) as u64
    }

    /// Compacts a quiescent machine to its dormant form: window-loop
    /// scratch released, matcher reduced to its checkpoint word and the
    /// daily list trimmed to size. Everything discarded is derived state a
    /// checkpoint restore already recomputes or the next admission regrows,
    /// so dormancy cannot affect results — only the resident footprint.
    /// Hundreds of thousands of machines persist across a full-scale run
    /// but only a day's worth are ever mid-session, so this is the
    /// per-swarm RSS lever. A dormant machine is left as it is.
    pub(super) fn freeze(&mut self) {
        debug_assert!(self.is_quiescent());
        let MatcherSlot::Live(m) = &self.matcher else {
            return;
        };
        self.matcher = MatcherSlot::Dormant {
            word: m.checkpoint_word(),
        };
        self.active = ActiveSet::default();
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

impl std::fmt::Debug for SwarmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmSim")
            .field("t", &self.t)
            .field("active", &self.active.len())
            .finish_non_exhaustive()
    }
}
