//! Deterministic crash-recovery harness for the online engine.
//!
//! [`crash_and_recover`] scripts the full disaster: a consumer ingests the
//! watermarked batch stream while checkpointing per a
//! [`CheckpointPolicy`], is killed at a chosen batch ordinal (its
//! in-memory state dropped on the floor), and a successor process resumes
//! from the newest readable snapshot and re-feeds **only the
//! post-checkpoint events** through the real online replay driver
//! ([`resume_replay`]). Because every step is deterministic — the batch
//! schedule is a pure function of the store and tick, checkpoints happen
//! at batch boundaries, and the engine is batch-schedule-independent — the
//! recovered report must be byte-identical to the uninterrupted run, for
//! *any* crash point and *any* cadence. `tests/recovery.rs` sweeps the
//! kill point over every batch boundary at 1/2/8 threads.
//!
//! The harness kills deterministically (its loop stops at the planned
//! ordinal; no signal is sent): what is being tested is the recovery
//! contract — snapshot completeness, watermark-aligned re-feeding,
//! derived-state recomputation — not the operating system's process
//! semantics.

use std::io;

use consume_local_trace::SessionStore;

use crate::checkpoint::{self, CheckpointError, CheckpointPolicy, Checkpointer};
use crate::engine::Simulator;
use crate::online::{resume_replay, ReplayConfig};
use crate::report::SimReport;

/// One scripted disaster: how the doomed consumer runs and when it dies.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Watermarked batches the consumer survives; the crash lands at this
    /// batch ordinal (0 = killed before the first batch, i.e. recovery
    /// starts from scratch).
    pub crash_after_batches: u64,
    /// Simulated seconds per watermark batch (the online tick).
    pub tick_secs: u64,
    /// Where and how often the doomed consumer checkpoints.
    pub policy: CheckpointPolicy,
}

/// What [`crash_and_recover`] observed across the crash and resurrection.
#[derive(Debug)]
pub struct CrashOutcome {
    /// The recovered run's final report — byte-identical to the
    /// uninterrupted run of the same sessions when the recovery contract
    /// holds.
    pub report: SimReport,
    /// The watermark recovery resumed from: the newest snapshot's, or 0
    /// when the crash beat the first checkpoint (recovery from scratch).
    pub resumed_from: u64,
    /// Snapshots the doomed consumer managed to write before dying.
    pub checkpoints_written: u64,
    /// Events the successor re-fed (exactly those starting at or after
    /// `resumed_from`).
    pub refed_events: u64,
}

/// Cuts a store into the exact watermarked batches the online replay
/// producer would emit at `tick_secs`: batch `i` holds the sessions
/// starting in `[i·tick, (i+1)·tick)`, watermarked at `(i+1)·tick`, with
/// the final watermark the first tick at or past the horizon (so every day
/// closes through the same cadence). Sessions starting at or past that
/// final watermark are not scheduled; the engine leaves them out of a run
/// anyway (see [`crate::source`]). A pure function of `(store, tick)` —
/// the crash harness replays prefixes of it deterministically.
///
/// # Panics
///
/// Panics if `tick_secs` is 0.
pub fn batch_schedule(store: &SessionStore, tick_secs: u64) -> Vec<(SessionStore, u64)> {
    assert!(tick_secs > 0, "tick_secs must be positive");
    let horizon = store.horizon_secs();
    let records = store.to_records();
    let mut out = Vec::new();
    let mut from = 0usize;
    let mut watermark = tick_secs;
    loop {
        let upto = from + records[from..].partition_point(|r| r.start.as_secs() < watermark);
        out.push((
            SessionStore::from_records(&records[from..upto], horizon, store.population_len()),
            watermark,
        ));
        from = upto;
        if watermark >= horizon {
            break;
        }
        watermark += tick_secs;
    }
    out
}

/// Runs the scripted disaster of `plan` over `store` and returns the
/// recovered outcome (see the [module docs](self)).
///
/// Phase 1 — the doomed consumer: feeds the [`batch_schedule`] batch by
/// batch into a fresh run through the serving step of
/// [`Simulator::simulate_days_checkpointed`] (push, drain the closed days,
/// checkpoint per the plan's policy), and is killed (state dropped) at the
/// planned ordinal. Phase 2 — the successor: resumes from the newest
/// readable snapshot ([`checkpoint::resume_latest`]) — or from scratch
/// when no snapshot was ever written — and finishes the run through
/// [`resume_replay`], re-feeding only the events at or after the
/// snapshot's watermark.
///
/// # Errors
///
/// Propagates checkpoint-write failures from the doomed phase and any
/// snapshot corruption the successor finds (a *missing* snapshot is not an
/// error — that is the recover-from-scratch path).
pub fn crash_and_recover(
    sim: &Simulator,
    store: &SessionStore,
    plan: &CrashPlan,
) -> Result<CrashOutcome, CheckpointError> {
    let schedule = batch_schedule(store, plan.tick_secs);
    let mut checkpointer = Checkpointer::new(plan.policy.clone());
    {
        let mut run = sim.begin(store.horizon_secs(), store.population_len());
        for ((batch, watermark), _) in schedule.iter().zip(0..plan.crash_after_batches) {
            run.push_checkpointed(batch, *watermark, &mut checkpointer, |_| {})?;
        }
        // The crash: `run` is dropped here — everything accumulated since
        // the last snapshot is lost, exactly like a killed process.
    }

    let (run, resumed_from) = match checkpoint::resume_latest(&plan.policy.path) {
        Ok(run) => {
            let watermark = run.watermark();
            (run, watermark)
        }
        Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            (sim.begin(store.horizon_secs(), store.population_len()), 0)
        }
        Err(e) => return Err(e),
    };
    let config = ReplayConfig {
        tick_secs: plan.tick_secs,
        resume_from: resumed_from,
        ..ReplayConfig::default()
    };
    let (report, stats) = resume_replay(run, store, &config);
    Ok(CrashOutcome {
        report,
        resumed_from,
        checkpoints_written: checkpointer.checkpoints_written(),
        refed_events: stats.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use consume_local_trace::time::SECS_PER_DAY;
    use consume_local_trace::{TraceConfig, TraceGenerator};

    fn store() -> SessionStore {
        let trace = TraceGenerator::new(TraceConfig::london_sep2013().scaled(0.0003).unwrap(), 5)
            .generate()
            .unwrap();
        SessionStore::from_trace(&trace)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("consume-local-test-faults");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ckpt", std::process::id()))
    }

    fn clean(path: &std::path::Path) {
        for suffix in ["", ".tmp", ".prev"] {
            let mut os = path.as_os_str().to_os_string();
            os.push(suffix);
            let _ = std::fs::remove_file(std::path::PathBuf::from(os));
        }
    }

    #[test]
    fn batch_schedule_matches_the_replay_producer_shape() {
        let store = store();
        let tick = 21_600;
        let schedule = batch_schedule(&store, tick);
        // The last watermark is the first tick at or past the horizon.
        assert_eq!(
            schedule.last().unwrap().1,
            store.horizon_secs().div_ceil(tick) * tick
        );
        assert_eq!(schedule.len() as u64, store.horizon_secs().div_ceil(tick));
        // Nothing lost, nothing reordered, every batch inside its window.
        let total: usize = schedule.iter().map(|(b, _)| b.len()).sum();
        assert_eq!(total, store.len());
        for (i, (batch, watermark)) in schedule.iter().enumerate() {
            assert_eq!(*watermark, (i as u64 + 1) * tick);
            for r in batch.to_records() {
                let start = r.start.as_secs();
                assert!(start < *watermark && *watermark - start <= tick);
            }
        }
    }

    #[test]
    fn recovery_mid_run_is_byte_identical_and_refeeds_only_the_tail() {
        let store = store();
        let sim = Simulator::new(SimConfig {
            seed: 11,
            ..Default::default()
        });
        let clean_report = sim.simulate(&store);
        let path = scratch("mid-run");
        clean(&path);
        let day = SECS_PER_DAY;
        let plan = CrashPlan {
            crash_after_batches: 9, // dies during day 3 (6h ticks)
            tick_secs: day / 4,
            policy: CheckpointPolicy::every_day_closes(1, &path),
        };
        let outcome = crash_and_recover(&sim, &store, &plan).unwrap();
        assert_eq!(outcome.report, clean_report);
        assert_eq!(outcome.checkpoints_written, 2, "days 0 and 1 sealed");
        assert_eq!(outcome.resumed_from, 2 * day);
        let tail = store
            .to_records()
            .iter()
            .filter(|r| r.start.as_secs() >= outcome.resumed_from)
            .count() as u64;
        assert_eq!(outcome.refed_events, tail);
        assert!(tail < store.len() as u64, "the head must not be re-fed");
        clean(&path);
    }

    #[test]
    fn crash_before_first_checkpoint_recovers_from_scratch() {
        let store = store();
        let sim = Simulator::new(SimConfig::default());
        let path = scratch("from-scratch");
        clean(&path);
        let plan = CrashPlan {
            crash_after_batches: 0,
            tick_secs: SECS_PER_DAY,
            policy: CheckpointPolicy::every_day_closes(1, &path),
        };
        let outcome = crash_and_recover(&sim, &store, &plan).unwrap();
        assert_eq!(outcome.report, sim.simulate(&store));
        assert_eq!(outcome.resumed_from, 0);
        assert_eq!(outcome.checkpoints_written, 0);
        assert_eq!(outcome.refed_events, store.len() as u64);
        clean(&path);
    }
}
