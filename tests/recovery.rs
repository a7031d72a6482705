//! Crash-recovery integration suite: a run killed at *any* batch boundary
//! and resumed from its last crash-safe snapshot must finish with a
//! `SimReport` byte-identical to the uninterrupted run — at 1, 2 and 8
//! worker threads, at day-aligned and mid-day watermarks, and for random
//! traces under random engine configurations. Snapshots that were
//! corrupted, truncated, or written by a future format version must be
//! rejected with typed errors, never mis-restored.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use consume_local::prelude::*;
use consume_local::sim::checkpoint::{self, CheckpointError};
use consume_local::sim::online::faults::{batch_schedule, crash_and_recover, CrashPlan};
use consume_local::trace::{SessionRecord, SimTime, UserId};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const DAY: u64 = 86_400;

static SCRATCH_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// A collision-free scratch checkpoint path (tests run concurrently; the
/// name mixes the pid with a process-wide ordinal, never wall-clock time).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("consume-local-test-recovery");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{name}-{}-{}.ckpt",
        std::process::id(),
        SCRATCH_ORDINAL.fetch_add(1, Ordering::Relaxed)
    ))
}

fn clean(path: &Path) {
    for suffix in ["", ".tmp", ".prev"] {
        let mut os = path.as_os_str().to_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(os));
    }
}

/// The first `days` days of a scaled London trace: small enough that the
/// kill-at-every-boundary sweeps stay fast, busy enough that swarms span
/// the checkpoint cuts.
fn short_store(scale: f64, seed: u64, days: u64) -> SessionStore {
    let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(scale).unwrap(), seed)
        .generate()
        .unwrap();
    let horizon = days * DAY;
    let records: Vec<_> = trace
        .sessions()
        .iter()
        .copied()
        .filter(|r| r.start.as_secs() < horizon)
        .collect();
    SessionStore::from_records(&records, horizon, trace.population().len())
}

fn simulator(threads: usize) -> Simulator {
    Simulator::new(SimConfig {
        threads,
        ..Default::default()
    })
}

#[test]
fn kill_at_every_day_close_recovers_byte_identically() {
    let store = short_store(0.0003, 23, 3);
    assert!(!store.is_empty());
    for &threads in &THREAD_COUNTS {
        let sim = simulator(threads);
        let expect = sim.simulate(&store);
        let batches = batch_schedule(&store, DAY).len() as u64;
        for crash_after in 0..=batches {
            let path = scratch("day-close");
            let plan = CrashPlan {
                crash_after_batches: crash_after,
                tick_secs: DAY,
                policy: CheckpointPolicy::every_day_closes(1, &path),
            };
            let outcome = crash_and_recover(&sim, &store, &plan).unwrap();
            assert_eq!(
                outcome.report, expect,
                "crash after batch {crash_after} at {threads} threads"
            );
            assert!(outcome.resumed_from <= crash_after * DAY);
            clean(&path);
        }
    }
}

#[test]
fn kill_at_every_mid_day_watermark_recovers_byte_identically() {
    // 9 000 s ticks never divide the day, so every checkpoint lands
    // mid-day: live swarms, sessions admitted at the cut's pause and
    // partially accumulated daily ledgers all cross the cut.
    let tick = 9_000;
    let store = short_store(0.0002, 41, 2);
    assert!(!store.is_empty());
    for &threads in &THREAD_COUNTS {
        let sim = simulator(threads);
        let expect = sim.simulate(&store);
        let batches = batch_schedule(&store, tick).len() as u64;
        for crash_after in 0..=batches {
            let path = scratch("mid-day");
            let plan = CrashPlan {
                crash_after_batches: crash_after,
                tick_secs: tick,
                policy: CheckpointPolicy::every_watermarks(1, &path),
            };
            let outcome = crash_and_recover(&sim, &store, &plan).unwrap();
            assert_eq!(
                outcome.report, expect,
                "crash after batch {crash_after} at {threads} threads"
            );
            clean(&path);
        }
    }
}

#[test]
fn sparse_checkpoint_cadences_still_recover_exactly() {
    // With a checkpoint only every 3 watermarks the crash loses up to two
    // batches of progress; recovery must re-feed them, not skip them.
    let store = short_store(0.0003, 59, 3);
    let sim = simulator(2);
    let expect = sim.simulate(&store);
    for crash_after in [1, 4, 7] {
        let path = scratch("sparse");
        let plan = CrashPlan {
            crash_after_batches: crash_after,
            tick_secs: DAY / 2,
            policy: CheckpointPolicy::every_watermarks(3, &path),
        };
        let outcome = crash_and_recover(&sim, &store, &plan).unwrap();
        assert_eq!(outcome.report, expect, "crash after batch {crash_after}");
        let kept = (crash_after / 3) * 3 * (DAY / 2);
        assert_eq!(outcome.resumed_from, kept);
        clean(&path);
    }
}

/// A snapshot is a function of the sessions, the watermark and the
/// configuration alone: the short month checkpointed at its mid-month
/// watermark is one byte string whether the run got there in one push or in
/// daily, hourly or 15-minute batches. The thread count is part of the
/// configuration a snapshot carries, so each count has its own string,
/// pinned here by its FNV digest.
#[test]
fn snapshot_bytes_do_not_depend_on_the_batch_schedule() {
    const WATERMARK: u64 = 15 * DAY;
    const PINNED: [u64; 3] = [
        0xd5fc_3e69_ed66_e227,
        0x35e9_a215_a7f5_bc54,
        0x4ff0_e020_5148_bf3f,
    ];
    let store = short_store(0.0003, 23, 30);
    for (&threads, pinned) in THREAD_COUNTS.iter().zip(PINNED) {
        let sim = simulator(threads);
        for tick in [WATERMARK, DAY, 3_600, 900] {
            let mut run = sim.begin(store.horizon_secs(), store.population_len());
            for (batch, watermark) in batch_schedule(&store, tick) {
                if watermark > WATERMARK {
                    break;
                }
                run.push_batch(&batch, watermark);
            }
            assert_eq!(run.watermark(), WATERMARK);
            let mut snapshot = Vec::new();
            run.checkpoint(&mut snapshot).unwrap();
            assert_eq!(
                checkpoint::fnv1a(&snapshot),
                pinned,
                "{threads} threads, {tick} s batches"
            );
        }
    }
}

/// Builds a run mid-flight and snapshots it to `path`, returning its
/// watermark.
fn write_mid_run_snapshot(sim: &Simulator, store: &SessionStore, path: &Path) -> u64 {
    let schedule = batch_schedule(store, DAY);
    let mut run = sim.begin(store.horizon_secs(), store.population_len());
    for (batch, watermark) in &schedule[..2] {
        run.push_batch(batch, *watermark);
    }
    checkpoint::write_snapshot_file(&run, path).unwrap();
    run.watermark()
}

/// Where a snapshot's per-user rows start: right after the horizon and the
/// population length, which follow the configuration.
fn population_rows(snapshot: &[u8], horizon: u64, population: usize) -> usize {
    let header: Vec<u8> = [horizon, population as u64]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let payload = &snapshot[20..snapshot.len() - 8];
    20 + payload
        .windows(header.len())
        .position(|w| w == header)
        .expect("the horizon and population are in the payload")
        + header.len()
}

/// `snapshot` re-sealed with its population length set to `claim`: a
/// smaller population also drops the rows past it, a larger one claims
/// rows the payload does not have. The payload length and digest are
/// recomputed, so only the engine's own checks can reject it.
fn with_population(snapshot: &[u8], horizon: u64, population: usize, claim: u64) -> Vec<u8> {
    let rows = population_rows(snapshot, horizon, population);
    let mut bytes = snapshot.to_vec();
    bytes[rows - 8..rows].copy_from_slice(&claim.to_le_bytes());
    if claim < population as u64 {
        bytes.drain(rows + 16 * claim as usize..rows + 16 * population);
    }
    let payload = 20..bytes.len() - 8;
    bytes[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let digest = checkpoint::fnv1a(&bytes[payload.clone()]);
    bytes[payload.end..].copy_from_slice(&digest.to_le_bytes());
    bytes
}

#[test]
fn corrupted_snapshots_are_rejected_with_typed_errors() {
    let store = short_store(0.0002, 7, 3);
    let sim = simulator(1);
    let path = scratch("tamper");
    clean(&path);
    write_mid_run_snapshot(&sim, &store, &path);
    let pristine = std::fs::read(&path).unwrap();

    // Version bump: the envelope is rejected before anything is decoded.
    let mut bytes = pristine.clone();
    bytes[8] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        checkpoint::resume_latest(&path),
        Err(CheckpointError::UnsupportedVersion {
            supported: checkpoint::SNAPSHOT_VERSION,
            ..
        })
    ));

    // Bad magic.
    let mut bytes = pristine.clone();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        checkpoint::resume_latest(&path),
        Err(CheckpointError::BadMagic { .. })
    ));

    // A single flipped payload bit trips the FNV digest.
    let mut bytes = pristine.clone();
    let mid = 20 + (pristine.len() - 28) / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        checkpoint::resume_latest(&path),
        Err(CheckpointError::DigestMismatch { .. })
    ));

    // Truncation anywhere — inside the envelope, the payload, or the
    // digest trailer — is caught as such.
    for cut in [4, 10, pristine.len() / 2, pristine.len() - 3] {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            matches!(
                checkpoint::resume_latest(&path),
                Err(CheckpointError::Truncated { .. })
            ),
            "truncation at {cut} of {} must be typed",
            pristine.len()
        );
    }

    // A spilled-day count that disagrees with the watermark is corrupt
    // even under a valid digest, and so is a closed-day count above the
    // spilled days: its resume would never emit the days it skipped. The
    // payload holds the watermark, closed days and spilled days as
    // consecutive u64s (2 days sealed, none drained); claim 3 spilled
    // (offset 16) or 3 closed (offset 8) days and re-seal the digest.
    let payload = 20..pristine.len() - 8;
    let header: Vec<u8> = [2 * DAY, 0, 2]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = pristine[payload.clone()]
        .windows(header.len())
        .position(|w| w == header)
        .expect("the run header is in the payload");
    for offset in [16, 8] {
        let mut bytes = pristine.clone();
        bytes[payload.start + at + offset] = 3;
        let digest = checkpoint::fnv1a(&bytes[payload.clone()]);
        bytes[payload.end..].copy_from_slice(&digest.to_le_bytes());
        assert!(
            matches!(
                Simulator::resume(&mut bytes.as_slice()),
                Err(CheckpointError::Corrupt(_))
            ),
            "forged header field at offset {offset}"
        );
    }

    // So is a population too small for the user ids the snapshot holds:
    // every restored active session must index the per-user totals.
    // Shrink the population to one user, far below the largest user id.
    let horizon = store.horizon_secs();
    let population = store.population_len();
    let bytes = with_population(&pristine, horizon, population, 1);
    assert!(matches!(
        Simulator::resume(&mut bytes.as_slice()),
        Err(CheckpointError::Corrupt("user id outside the population"))
    ));

    // Re-sealed with its own population the snapshot is unchanged, so the
    // helper alone corrupts nothing. A population with more 16-byte rows
    // than the payload has bytes left is rejected before the restore
    // allocates anything for it.
    let same = with_population(&pristine, horizon, population, population as u64);
    assert_eq!(same, pristine);
    let left = (pristine.len() - 8 - population_rows(&pristine, horizon, population)) as u64;
    for claim in [left / 16 + 1, 1 << 32, u64::MAX] {
        let bytes = with_population(&pristine, horizon, population, claim);
        assert!(
            matches!(
                Simulator::resume(&mut bytes.as_slice()),
                Err(CheckpointError::Corrupt("sequence length out of bounds"))
            ),
            "population claim {claim}"
        );
    }

    // The pristine bytes still restore (the guards above weren't spurious).
    std::fs::write(&path, &pristine).unwrap();
    let run = checkpoint::resume_latest(&path).unwrap();
    assert_eq!(run.watermark(), 2 * DAY);
    clean(&path);
}

/// The restore checks the user of every restored session on its own: one
/// swarm holds a session active since the start and one the cut's pause
/// admitted (it starts in the cut's last window, so no window has reached
/// it yet), and whichever of the two has the large user id must make a
/// shrunk population corrupt.
#[test]
fn active_and_carried_user_ids_are_each_checked() {
    let template = short_store(0.0002, 7, 3).to_records()[0];
    let horizon = 3 * DAY;
    let population = 8;
    let session = |user: u32, start: u64, duration_secs: u32| SessionRecord {
        user: UserId(user),
        start: SimTime(start),
        duration_secs,
        ..template
    };
    for (active_user, carried_user) in [(5, 0), (0, 5)] {
        let records = [
            session(active_user, 0, 2 * DAY as u32),
            session(carried_user, DAY - 1, 600),
        ];
        let store = SessionStore::from_records(&records, horizon, population);
        let (batch, watermark) = &batch_schedule(&store, DAY)[0];
        let mut run = simulator(1).begin(horizon, population);
        run.push_batch(batch, *watermark);
        let mut snapshot = Vec::new();
        run.checkpoint(&mut snapshot).unwrap();

        let bytes = with_population(&snapshot, horizon, population, 5);
        assert!(
            matches!(
                Simulator::resume(&mut bytes.as_slice()),
                Err(CheckpointError::Corrupt("user id outside the population"))
            ),
            "active user {active_user}, carried user {carried_user}"
        );
        // One more user and the ids fit: the bound is exact.
        let bytes = with_population(&snapshot, horizon, population, 6);
        assert!(Simulator::resume(&mut bytes.as_slice()).is_ok());
    }
}

#[test]
fn resume_latest_falls_back_to_the_previous_snapshot() {
    let store = short_store(0.0002, 13, 3);
    let sim = simulator(1);
    let path = scratch("fallback");
    clean(&path);
    // Two checkpoints: the atomic-write protocol keeps the first as
    // `<path>.prev` when the second lands.
    let schedule = batch_schedule(&store, DAY);
    let mut run = sim.begin(store.horizon_secs(), store.population_len());
    run.push_batch(&schedule[0].0, schedule[0].1);
    checkpoint::write_snapshot_file(&run, &path).unwrap();
    run.push_batch(&schedule[1].0, schedule[1].1);
    checkpoint::write_snapshot_file(&run, &path).unwrap();

    // Corrupt the current snapshot: resume falls back to the previous one.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let resumed = checkpoint::resume_latest(&path).unwrap();
    assert_eq!(resumed.watermark(), DAY, "the .prev snapshot wins");

    // With both gone the primary (current-file) error is reported.
    clean(&path);
    match checkpoint::resume_latest(&path) {
        Err(CheckpointError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
}

fn record(
    (start, user, content, duration, device, isp, exchange): (u64, u32, u32, u32, usize, u8, u32),
) -> consume_local::trace::SessionRecord {
    use consume_local::topology::{ExchangeId, IspId, PopId, UserLocation};
    use consume_local::trace::device::DeviceClass;
    use consume_local::trace::{ContentId, SessionRecord, SimTime, UserId};
    SessionRecord {
        user: UserId(user),
        content: ContentId(content),
        start: SimTime(start),
        duration_secs: duration,
        device: DeviceClass::MIX[device].0,
        isp: IspId(isp),
        location: UserLocation::from_raw_parts(ExchangeId(exchange), PopId(exchange / 4)),
    }
}

const PROP_HORIZON: u64 = 4 * DAY;
const PROP_USERS: usize = 64;

fn records_strategy() -> impl Strategy<Value = Vec<consume_local::trace::SessionRecord>> {
    use consume_local::trace::device::DeviceClass;
    proptest::collection::vec(
        (
            0..PROP_HORIZON,
            0..PROP_USERS as u32,
            0u32..12,
            60u32..14_400,
            0usize..DeviceClass::MIX.len(),
            0u8..5,
            0u32..16,
        )
            .prop_map(record),
        0..120,
    )
}

fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (0u64..1_000_000, 0u8..2, 0usize..3, 0usize..2, 0usize..2).prop_map(
        |(seed, random, threads, participation, cooperation)| SimConfig {
            seed,
            matcher: if random == 1 {
                MatcherKind::Random
            } else {
                MatcherKind::Hierarchical
            },
            threads: [1, 2, 8][threads],
            participation_rate: [1.0, 0.9][participation],
            cooperation_rate: [1.0, 0.85][cooperation],
            ..Default::default()
        },
    )
}

proptest! {
    /// For random traces × random configs × a random cut point, a snapshot
    /// taken mid-run restores into a run that finishes byte-identically —
    /// and taking it never perturbs the donor.
    #[test]
    fn snapshot_roundtrip_is_exact_for_random_runs(
        records in records_strategy(),
        config in config_strategy(),
        tick in (0usize..3).prop_map(|i| [9_000u64, 43_200, 86_400][i]),
        cut_fraction in 0.0f64..1.0,
    ) {
        let store = SessionStore::from_records(&records, PROP_HORIZON, PROP_USERS);
        let sim = Simulator::new(config);
        let expect = sim.simulate(&store);
        let schedule = batch_schedule(&store, tick);
        let cut = ((schedule.len() as f64) * cut_fraction) as usize;

        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        for (batch, watermark) in &schedule[..cut] {
            run.push_batch(batch, *watermark);
        }
        let mut snapshot = Vec::new();
        run.checkpoint(&mut snapshot).unwrap();
        let mut resumed = Simulator::resume(&mut snapshot.as_slice()).unwrap();
        prop_assert_eq!(resumed.watermark(), run.watermark());

        for (batch, watermark) in &schedule[cut..] {
            run.push_batch(batch, *watermark);
            resumed.push_batch(batch, *watermark);
        }
        prop_assert_eq!(resumed.finish(), expect.clone());
        prop_assert_eq!(run.finish(), expect);
    }
}
