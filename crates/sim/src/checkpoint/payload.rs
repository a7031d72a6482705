//! The snapshot payload: the field-by-field layout of a run's resumable
//! state inside the envelope of its parent module, written by
//! [`SegmentedRun::checkpoint`] and read back by [`Simulator::resume`].
//!
//! Every `put_*` below has its exactly-inverse `take_*`; the envelope
//! (magic, version, digest) lives in [`crate::checkpoint`]. Bumping
//! [`SNAPSHOT_VERSION`](super::SNAPSHOT_VERSION) is required for any layout
//! change here.
//!
//! Each sequence element's smallest encoded size is named beside its
//! `put_*`, and bounds the element count by the payload bytes left
//! ([`SnapshotReader::take_len_of`]) before anything is reserved for it.

use std::io::{Read, Write};

use consume_local_swarm::{MatcherKind, Peer, SwarmKey, SwarmPolicy};
use consume_local_topology::{ExchangeId, IspId, PopId, UserLocation};
use consume_local_trace::{device::BitrateClass, ContentId};

use super::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::{EdgeCache, SimConfig, UploadModel};
use crate::engine::machine::{ActiveSet, MatcherSlot, PendingSession, SwarmSim};
use crate::engine::run::SwarmState;
use crate::engine::{sealed_days, DayCell, SegmentedRun, Simulator};
use crate::ledger::ByteLedger;
use crate::report::{Degradation, SwarmDay, UserTraffic};

impl SegmentedRun {
    /// Serialises the run's complete resumable state as one versioned
    /// snapshot (see [`crate::checkpoint`] for the envelope): configuration
    /// and horizon, the per-user totals (one row per user, in user id
    /// order), run-level counters and every swarm machine — one record per
    /// active session (its inputs and its bytes so far), matcher state
    /// word and accumulated ledgers. [`Simulator::resume`] inverts it; the
    /// restored run continues byte-identically.
    ///
    /// Call at a batch boundary (between [`SegmentedRun::push_batch`]
    /// calls) — mid-batch there is no coherent state to capture.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`CheckpointError::Io`].
    pub fn checkpoint(&self, out: &mut impl Write) -> Result<(), CheckpointError> {
        let mut w = SnapshotWriter::new();
        put_config(&mut w, self.sim.config());
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
        for cell in &self.spilled_cells {
            put_cell(&mut w, cell);
        }
        w.put_u64(self.max_start_secs);
        w.put_u32(self.max_user);
        w.put_u32(self.max_content);
        w.put_len(self.states.len());
        for &slot in self.index.values() {
            put_state(&mut w, &self.states[slot as usize]);
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
    /// Derived state the snapshot omits — each active session's window
    /// quantities, matcher scratch, cached membership sums, the edge-cache
    /// membership bit — is recomputed here; none of it affects outcomes
    /// (pinned by `tests/recovery.rs`). A machine with no active session
    /// comes back dormant, as the donor left it.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]: envelope violations from the reader,
    /// [`CheckpointError::Corrupt`] for structurally invalid payloads
    /// (unknown tags, out-of-order keys, more closed days than spilled
    /// ones, a sequence with more elements than the payload holds, user ids
    /// outside the population, a frozen day's capacity that is not a
    /// finite non-negative number, an invalid configuration).
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
        let cells = r.take_len_of(CELL_BYTES, "spilled cell count")?;
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
        let n = r.take_len_of(SWARM_BYTES, "swarm count")?;
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
            let frozen_len = r.take_len_of(FROZEN_DAY_BYTES, "frozen day count")?;
            let mut frozen = Vec::with_capacity(frozen_len);
            let mut prev_day: Option<u32> = None;
            for _ in 0..frozen_len {
                let day = r.take_u32("frozen day index")?;
                if u64::from(day) >= spilled_days || prev_day.is_some_and(|p| p >= day) {
                    return Err(CheckpointError::Corrupt("frozen days out of order"));
                }
                prev_day = Some(day);
                let demand_bytes = r.take_u64("frozen day demand")?;
                // The encoder writes `effective_capacity`: finite, never
                // negative, never -0.0.
                let capacity = r.take_f64("frozen day capacity")?;
                if !capacity.is_finite() || capacity.is_sign_negative() {
                    return Err(CheckpointError::Corrupt("frozen day capacity out of range"));
                }
                frozen.push(SwarmDay {
                    day,
                    capacity,
                    demand_bytes,
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
    // A count past `usize` saturates; the restore's validation rejects it.
    let threads = usize::try_from(r.take_u64("threads")?).unwrap_or(usize::MAX);
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
        threads,
        preload_fraction,
        edge_cache,
        participation_rate,
        cooperation_rate,
    })
}

/// The smallest encoded spilled cell: day 4, ISP flag 1, ledger 72.
const CELL_BYTES: u64 = 77;

fn put_cell(w: &mut SnapshotWriter, (day, isp, ledger): &DayCell) {
    w.put_u32(*day);
    match isp {
        Some(isp) => {
            w.put_bool(true);
            w.put_u8(isp.0);
        }
        None => w.put_bool(false),
    }
    put_ledger(w, ledger);
}

/// The smallest encoded swarm: key 6, session and frozen-day counts 16,
/// and a machine with no day or session 160.
const SWARM_BYTES: u64 = 6 + 16 + 160;

fn put_state(w: &mut SnapshotWriter, state: &SwarmState) {
    put_key(w, &state.key);
    w.put_u64(state.sessions);
    w.put_len(state.frozen.len());
    for day in &state.frozen {
        put_frozen_day(w, day);
    }
    put_swarm(w, &state.swarm);
}

/// An encoded frozen day: day 4, demand bytes 8, capacity bits 8.
const FROZEN_DAY_BYTES: u64 = 20;

fn put_frozen_day(w: &mut SnapshotWriter, day: &SwarmDay) {
    w.put_u32(day.day);
    w.put_u64(day.demand_bytes);
    w.put_f64(day.capacity);
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
    for daily in &s.daily {
        put_daily(w, daily);
    }
    w.put_len(s.active.len());
    for k in 0..s.active.len() {
        put_active(w, &s.active, k);
    }
}

/// An encoded daily ledger: day 4, ledger 72.
const DAILY_BYTES: u64 = 76;

fn put_daily(w: &mut SnapshotWriter, (day, ledger): &(u32, ByteLedger)) {
    w.put_u32(*day);
    put_ledger(w, ledger);
}

/// An encoded active session: end 8, user 4, watched bytes 8, uploaded
/// bytes 8, bitrate 4, peer 9. Its window quantities are not written: the
/// restore derives them as admission does.
const ACTIVE_BYTES: u64 = 41;

fn put_active(w: &mut SnapshotWriter, active: &ActiveSet, k: usize) {
    w.put_u64(active.ends[k]);
    w.put_u32(active.users[k]);
    w.put_u64(active.watched[k]);
    w.put_u64(active.uploaded[k]);
    w.put_u32(active.bitrates[k]);
    put_peer(w, &active.peers[k]);
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

    let daily_len = r.take_len_of(DAILY_BYTES, "daily ledgers")?;
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

    let active_len = r.take_len_of(ACTIVE_BYTES, "active set")?;
    let mut active = ActiveSet::default();
    for _ in 0..active_len {
        let end = r.take_u64("active end")?;
        let user = take_user(r, population_len)?;
        let watched = r.take_u64("active watched bytes")?;
        let uploaded = r.take_u64("active uploaded bytes")?;
        let bitrate_bps = r.take_u32("active bitrate")?;
        let peer = take_peer(r)?;
        // No skip at the boundary: a session that ends by it retires with
        // its bytes at the next window, as it would have in the donor.
        let session = PendingSession {
            end,
            user,
            bitrate_bps,
            peer,
        };
        active.push(sim, session, watched, uploaded);
    }

    let mut swarm = SwarmSim::new(sim, key, t, upload_ratio);
    swarm.active = active;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfigError, MAX_THREADS};
    use crate::engine::tests::tiny_trace;
    use crate::online::faults::batch_schedule;
    use consume_local_trace::time::SECS_PER_DAY;
    use consume_local_trace::{SessionStore, TraceConfig, TraceGenerator};

    fn snapshot_of(run: &SegmentedRun) -> Vec<u8> {
        let mut bytes = Vec::new();
        run.checkpoint(&mut bytes).unwrap();
        bytes
    }

    /// Every thread count `validate` accepts restores from its own
    /// snapshot, and one past the bound is rejected up front. Only empty
    /// runs are built and nothing is pushed, so no worker thread starts.
    #[test]
    fn every_valid_thread_count_restores_from_its_snapshot() {
        for threads in [MAX_THREADS, MAX_THREADS + 1] {
            let config = SimConfig {
                threads,
                ..SimConfig::default()
            };
            if threads > MAX_THREADS {
                assert_eq!(
                    config.validate(),
                    Err(SimConfigError::TooManyThreads(threads))
                );
                continue;
            }
            let run = Simulator::new(config.clone()).begin(86_400, 3);
            let restored = Simulator::resume(&mut snapshot_of(&run).as_slice()).unwrap();
            assert_eq!(restored.sim.config(), &config);
        }
    }

    /// A write of payload fields with the codec.
    type Put<'a> = &'a dyn Fn(&mut SnapshotWriter);

    /// The smallest swarm key: content only.
    const BARE_KEY: SwarmKey = SwarmKey {
        content: ContentId(0),
        isp: None,
        bitrate: None,
    };

    /// The smallest element of each sequence kind, written with the codec,
    /// takes exactly its named size.
    #[test]
    fn smallest_elements_take_their_named_sizes() {
        let sim = Simulator::new(SimConfig::default());
        let state = SwarmState {
            key: BARE_KEY,
            sessions: 0,
            frozen: Vec::new(),
            touched: false,
            swarm: SwarmSim::new(&sim, &BARE_KEY, 0, 1.0),
        };
        let day = SwarmDay {
            day: 0,
            capacity: 0.0,
            demand_bytes: 0,
        };
        let mut active = ActiveSet::default();
        let session = PendingSession {
            end: 0,
            user: 0,
            bitrate_bps: 0,
            peer: Peer {
                isp: IspId(0),
                location: UserLocation::from_raw_parts(ExchangeId(0), PopId(0)),
            },
        };
        active.push(&sim, session, 0, 0);
        let ledger = ByteLedger::new();
        let cases: [(u64, Put); 5] = [
            (CELL_BYTES, &|w| put_cell(w, &(0, None, ledger))),
            (SWARM_BYTES, &|w| put_state(w, &state)),
            (FROZEN_DAY_BYTES, &|w| put_frozen_day(w, &day)),
            (DAILY_BYTES, &|w| put_daily(w, &(0, ledger))),
            (ACTIVE_BYTES, &|w| put_active(w, &active, 0)),
        ];
        for (size, put) in cases {
            let mut w = SnapshotWriter::new();
            put(&mut w);
            assert_eq!(w.payload_len() as u64, size);
        }
    }

    /// Each structural rejection of the decoder, by its exact message. A
    /// case either forges a payload with the codec's own writers or
    /// tampers with the private state of a run restored from a mid-day
    /// snapshot (spilled and frozen days, open daily ledgers) before it
    /// checkpoints again.
    #[test]
    fn decoder_rejects_each_structural_violation_by_name() {
        let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 11)
            .generate()
            .unwrap();
        let store = SessionStore::from_trace(&trace);
        let sim = Simulator::new(SimConfig::default());
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        // 11 ticks of 9 000 s end mid day 1: day 0 is spilled.
        for (batch, watermark) in &batch_schedule(&store, 9_000)[..11] {
            run.push_batch(batch, *watermark);
        }
        let pristine = snapshot_of(&run);
        let tampered = |edit: &dyn Fn(&mut SegmentedRun)| {
            let mut run = Simulator::resume(&mut pristine.as_slice()).unwrap();
            edit(&mut run);
            snapshot_of(&run)
        };
        let forged = |write: Put| {
            let mut w = SnapshotWriter::new();
            write(&mut w);
            let mut bytes = Vec::new();
            w.finish(&mut bytes).unwrap();
            bytes
        };
        // The config's leading fields: window length, then the ratio upload
        // model, then the two policy flags.
        let config_head = |w: &mut SnapshotWriter| {
            w.put_u64(10);
            w.put_u8(0);
            w.put_f64(1.0);
        };
        // The payload up to each sequence count, one step per count: a run
        // with a one-day horizon, no users and nothing spilled, then one
        // swarm with the smallest key and a machine of 18 zero words
        // (matcher word, window boundary, upload ratio, ledger and
        // degradation), with no day.
        let steps: [Put; 5] = [
            &|w| {
                put_config(w, &SimConfig::default());
                // Horizon, population, watermark, closed and spilled days.
                [86_400, 0, 0, 0, 0].into_iter().for_each(|v| w.put_u64(v));
            },
            &|w| {
                w.put_len(0);
                w.put_u64(0);
                w.put_u32(0);
                w.put_u32(0);
            },
            &|w| {
                w.put_len(1);
                put_key(w, &BARE_KEY);
                w.put_u64(0);
            },
            &|w| {
                w.put_len(0);
                (0..18).for_each(|_| w.put_u64(0));
            },
            &|w| w.put_len(0),
        ];
        // The `at`-th count claims one element of `size` bytes more than
        // the 400 bytes left after it hold, though no more than one per
        // byte left.
        let overclaimed = |at: usize, size: u64| {
            forged(&|w| {
                steps[..=at].iter().for_each(|step| step(w));
                w.put_u64(400 / size + 1);
                (0..400).for_each(|_| w.put_u8(0));
            })
        };
        let cases = [
            (
                "invalid configuration",
                forged(&|w| {
                    let config = SimConfig {
                        threads: MAX_THREADS + 1,
                        ..SimConfig::default()
                    };
                    put_config(w, &config);
                }),
            ),
            (
                "unknown upload model tag",
                forged(&|w| {
                    w.put_u64(10);
                    w.put_u8(2);
                }),
            ),
            (
                "bool byte out of range",
                forged(&|w| {
                    config_head(w);
                    w.put_u8(2);
                }),
            ),
            (
                "unknown matcher tag",
                forged(&|w| {
                    config_head(w);
                    w.put_bool(true);
                    w.put_bool(true);
                    w.put_u8(2);
                }),
            ),
            (
                "spilled cell past boundary",
                tampered(&|run| {
                    let day = run.spilled_days as u32;
                    run.spilled_cells.push((day, None, ByteLedger::new()));
                }),
            ),
            (
                "spilled cells out of order",
                tampered(&|run| run.spilled_cells.reverse()),
            ),
            (
                "swarm keys out of order",
                tampered(&|run| run.states[1].key = run.states[0].key),
            ),
            (
                "frozen days out of order",
                tampered(&|run| {
                    let state = run.states.iter_mut().find(|s| !s.frozen.is_empty());
                    let frozen = &mut state.expect("a swarm with a spilled day").frozen;
                    frozen.push(frozen[0]);
                }),
            ),
            (
                "frozen day capacity out of range",
                tampered(&|run| {
                    let state = run.states.iter_mut().find(|s| !s.frozen.is_empty());
                    state.expect("a swarm with a spilled day").frozen[0].capacity = f64::NAN;
                }),
            ),
            (
                "frozen day capacity out of range",
                tampered(&|run| {
                    let state = run.states.iter_mut().find(|s| !s.frozen.is_empty());
                    state.expect("a swarm with a spilled day").frozen[0].capacity = -1.0;
                }),
            ),
            (
                "daily ledgers out of order",
                tampered(&|run| {
                    let state = run.states.iter_mut().find(|s| !s.swarm.daily.is_empty());
                    let daily = &mut state.expect("a swarm with an open day").swarm.daily;
                    daily.push(daily[0]);
                }),
            ),
            ("sequence length out of bounds", overclaimed(0, CELL_BYTES)),
            ("sequence length out of bounds", overclaimed(1, SWARM_BYTES)),
            (
                "sequence length out of bounds",
                overclaimed(2, FROZEN_DAY_BYTES),
            ),
            ("sequence length out of bounds", overclaimed(3, DAILY_BYTES)),
            (
                "sequence length out of bounds",
                overclaimed(4, ACTIVE_BYTES),
            ),
        ];
        assert!(Simulator::resume(&mut pristine.as_slice()).is_ok());
        for (message, bytes) in cases {
            match Simulator::resume(&mut bytes.as_slice()) {
                Err(CheckpointError::Corrupt(found)) => assert_eq!(found, message),
                Err(e) => panic!("{message}: failed as {e}"),
                Ok(_) => panic!("{message}: the snapshot restored"),
            }
        }
    }

    /// A snapshot taken mid-run must restore into a run that finishes
    /// byte-identically to both the donor and the uninterrupted reference,
    /// across configs that exercise every codec branch: hierarchical and
    /// random matchers, ISP/bitrate splits, edge cache + preload, and
    /// non-trivial defection rates. Each run holds active sessions at the
    /// cut, and the restore derives their window quantities under preload,
    /// partial participation and the absolute upload model: the resumed
    /// run's active columns equal the donor's, machine by machine.
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
            let active: usize = run.states.iter().map(|s| s.swarm.active.len()).sum();
            assert!(active > 0, "no active session at the cut");
            let mut snapshot = Vec::new();
            run.checkpoint(&mut snapshot).unwrap();
            let mut resumed = Simulator::resume(&mut snapshot.as_slice()).unwrap();
            assert_eq!(resumed.watermark(), run.watermark());
            for (key, &slot) in &run.index {
                let restored = &resumed.states[resumed.index[key] as usize].swarm;
                assert_eq!(restored.active, run.states[slot as usize].swarm.active);
            }
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
    /// watermark (live swarms with active sessions, partially accumulated
    /// daily ledgers) must still resume byte-identically.
    #[test]
    fn checkpoint_at_mid_day_watermark_roundtrips() {
        let trace = tiny_trace();
        let store = SessionStore::from_trace(&trace);
        let sim = Simulator::new(SimConfig::default());
        let expect = sim.simulate(&store);
        // 9 000 s ticks never land on a day boundary (86 400 % 9 000 != 0).
        let schedule = crate::online::faults::batch_schedule(&store, 9_000);
        let cut = 18; // day 1 at 21:00
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        for (batch, watermark) in &schedule[..cut] {
            run.push_batch(batch, *watermark);
        }
        assert!(!run.live.is_empty(), "no live machine at the cut");
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
