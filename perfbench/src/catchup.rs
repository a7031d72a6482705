//! `catchup_medium`: crash recovery, run as a closed loop.
//!
//! Set-up runs each `medium` month to the day-10 watermark and writes its
//! snapshot. A timed pass restores one with `checkpoint::read_snapshot_file`,
//! then replays the remaining 20 days the way `online::resume_replay` does
//! at `ReplaySpeed::MaxThroughput` with hourly ticks: only channel
//! backpressure paces it. Engine threads: `nproc − 1` (the producer takes
//! the last core). A batch's lag is its `push_batch` plus day close, from
//! the handover to the engine.
//!
//! Why: it reads the checkpoint layer where `serve_medium` writes it, and
//! it drives `online` at saturation instead of at 29 % load. A change that
//! buys serving latency with lower throughput or a slower restore shows up
//! here.
//!
//! Reference: the one-shot `simulate(&store)` of the whole month.

use std::path::{Path, PathBuf};

use consume_local_sim::checkpoint::{read_snapshot_file, write_snapshot_file};
use consume_local_sim::online::{self, ReplayConfig};
use consume_local_sim::par::parallel_join;
use consume_local_sim::{SessionSource, SimReport, Simulator};
use consume_local_trace::time::SECS_PER_DAY;
use consume_local_trace::{ScalePreset, SessionStore};

use crate::clock::{process_cpu_s, reset_peak_rss, Tick};
use crate::common::{
    end_to_end, generator, median, month_seed, month_store, nproc, report_digest, simulator,
    timed_setup, Args, Outcome, Tally,
};
use crate::feed::{lag_ms, produce, sealing_ms, tick_plan, Pace, Stamped, TickPlan};
use crate::layers::Layers;
use crate::spans::{merge, Span, Timed, Totals, Tracer};

/// The crash point: the snapshot holds every session before day 10.
const RESUME_SECS: u64 = 10 * SECS_PER_DAY;
/// Set-up repetitions in an end-to-end run (their median is `setup_s`).
const SETUP_REPS: usize = 3;
/// Months an end-to-end run cycles through, one pass each per cycle:
/// medium months differ enough in swarm shape that one seed's month is a
/// noisy sample of the workload.
const MONTHS: usize = 6;
/// Untraced and traced passes, alternating, in a traced run.
const TRACED_PAIRS: usize = 3;

/// One generated month, its reference and its crash snapshot.
struct Month {
    store: SessionStore,
    reference: SimReport,
    snap: PathBuf,
    /// Watermark ticks after the crash point.
    plan: Vec<TickPlan>,
    /// Sessions re-fed after the crash point.
    tail: u64,
}

/// Runs the workload.
pub fn run(args: &Args, out_dir: &Path) -> Outcome {
    let threads = nproc();
    let sim = simulator(threads.saturating_sub(1));
    let replay = ReplayConfig {
        resume_from: RESUME_SECS,
        ..ReplayConfig::default()
    };
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let (reps, months) = if args.trace {
        (1, 1)
    } else {
        (SETUP_REPS, MONTHS)
    };
    let (setup_s, months) = timed_setup(reps, || {
        (0..months)
            .map(|i| {
                let gen = generator(ScalePreset::Medium, month_seed(args.seed, i), threads);
                let store = month_store(&gen);
                let reference = simulator(threads).simulate(&store);
                let snap = out_dir.join(format!("catchup_medium.{i}.snap"));
                let written = write_crash_snapshot(&sim, &store, &snap);
                let plan = tick_plan(&store, RESUME_SECS, replay.tick_secs);
                let tail = (store.len() - store.first_at_or_after(RESUME_SECS)) as u64;
                (
                    Month {
                        store,
                        reference,
                        snap,
                        plan,
                        tail,
                    },
                    written,
                )
            })
            .collect::<Vec<(Month, bool)>>()
    });
    let months: Vec<Month> = months
        .into_iter()
        .map(|(month, written)| {
            tally.op(written);
            tally.op(month.reference.check_conservation().is_ok());
            month
        })
        .collect();
    out.digest = report_digest(&months[0].reference);
    out.fact("months", months.len());
    out.fact(
        "sessions_replayed",
        months.iter().map(|m| m.tail).sum::<u64>(),
    );
    out.fact("ticks", months[0].plan.len());
    out.fact("engine_threads", sim.config().threads);
    reset_peak_rss();

    if args.trace {
        let month = &months[0];
        let (mut untraced_s, mut traced_s, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        let mut sealing = 0.0;
        let origin = Tick::now();
        for _ in 0..TRACED_PAIRS {
            untraced_s.push(untraced_pass(month, replay.capacity, &mut tally, &mut vec![]).0);
            let wall0 = Tick::now();
            let (pass_spans, producer_failed, report) = traced_pass(month, replay.capacity, origin);
            traced_s.push(wall0.elapsed_s());
            match report {
                Some(report) => {
                    tally.op(true);
                    tally.add(month.tail + month.plan.len() as u64, producer_failed);
                    tally.check_report(&report, &month.reference);
                }
                None => tally.op(false),
            }
            let t = Totals::new(&pass_spans);
            let gaps: Vec<&Span> = t.named("online.gap").collect();
            let sends: Vec<&Span> = t.named("online.send").collect();
            sealing += sealing_ms(&gaps, &sends);
            spans = merge(spans, pass_spans);
        }
        let passes = traced_s.len();
        let per = 1.0 / passes as f64;
        let t = Totals::new(&spans);
        let mut layers = Layers::new(&month.reference);
        layers.engine(&spans, passes, month.tail);
        layers.checkpoint_restore_ms = t.ms("checkpoint.restore") * per;
        layers.online_consumer_gap_ms = sealing * per;
        layers.online_send_blocked_ms = t.ms("online.send") * per;
        layers.online_watermarks = month.plan.len() as f64;
        layers.online_events = month.tail as f64;
        layers.tracing_wall_ms = median(&traced_s) * 1e3;
        layers.tracing_overhead_pct = (median(&traced_s) / median(&untraced_s) - 1.0) * 100.0;
        let accounted = layers.checkpoint_restore_ms
            + t.ms("online.gap") * per
            + layers.engine_push_ms
            + layers.engine_drain_ms
            + layers.engine_finish_ms;
        layers.tracing_accounted_pct = accounted / layers.tracing_wall_ms * 100.0;
        layers.emit(&mut out);
        out.spans = spans;
    } else {
        // Whole cycles over the months, so every month weighs the same.
        let (mut rates, mut cpus, mut stamps) = (Vec::new(), Vec::new(), Vec::new());
        let start = Tick::now();
        while rates.is_empty() || start.elapsed_s() < args.seconds {
            let (mut wall_s, mut cpu_s, mut sessions) = (0.0, 0.0, 0);
            for month in &months {
                let (w, c) = untraced_pass(month, replay.capacity, &mut tally, &mut stamps);
                wall_s += w;
                cpu_s += c;
                sessions += month.tail;
            }
            rates.push(sessions as f64 / wall_s);
            cpus.push(cpu_s / months.len() as f64);
        }
        out.fact("cycles", rates.len());
        let lags = lag_ms(&stamps, Pace::Saturate);
        end_to_end(
            &mut out,
            median(&rates),
            median(&lags),
            median(&cpus),
            setup_s,
        );
    }
    tally.finish(&mut out);
    out
}

/// One untraced pass: `read_snapshot_file`, then the arrangement
/// `online::resume_replay` builds (a producer of hourly ticks that only
/// channel backpressure paces, and `simulate_remaining_days` on the
/// restored run), assembled from its public parts so that each batch's
/// handover and completion land in `stamps`. Returns wall and CPU seconds.
fn untraced_pass(
    month: &Month,
    capacity: usize,
    tally: &mut Tally,
    stamps: &mut Vec<(Tick, Tick)>,
) -> (f64, f64) {
    let (wall0, cpu0) = (Tick::now(), process_cpu_s());
    let restored = read_snapshot_file(&month.snap);
    tally.op(restored.is_ok());
    if let Ok(run) = restored {
        let store = &month.store;
        let (sender, source) =
            online::channel(store.horizon_secs(), store.population_len(), capacity);
        let (producer, report) = parallel_join(
            || produce(sender, store, &month.plan, Pace::Saturate, None),
            || {
                run.simulate_remaining_days(
                    Stamped {
                        inner: source,
                        stamps,
                    },
                    |_| {},
                )
            },
        );
        tally.add(month.tail + month.plan.len() as u64, producer.failed);
        tally.check_report(&report, &month.reference);
    }
    (wall0.elapsed_s(), process_cpu_s() - cpu0)
}

/// One traced pass: `read_snapshot_file`, then the resume driven through
/// public calls: a saturating producer on `online::channel`, and
/// `push_batch` / `drain_closed_days` / `finish_days` on the restored run.
/// Returns the spans, the producer's failed sends and the report (`None`
/// if the restore failed).
fn traced_pass(
    month: &Month,
    capacity: usize,
    origin: Tick,
) -> (Vec<Span>, u64, Option<SimReport>) {
    let tracer = Tracer::new(origin, 0);
    let pass = tracer.open("catchup.pass");
    let restored = tracer.span("checkpoint.restore", || read_snapshot_file(&month.snap));
    let Ok(mut run) = restored else {
        tracer.close(pass);
        return (tracer.into_spans(), 0, None);
    };
    let store = &month.store;
    let (sender, source) = online::channel(store.horizon_secs(), store.population_len(), capacity);
    let (producer, report) = parallel_join(
        || produce(sender, store, &month.plan, Pace::Saturate, Some(origin)),
        || {
            let source = Timed {
                inner: source,
                tracer: &tracer,
                name: "online.gap",
            };
            source.for_each_batch(&mut |batch, watermark| {
                tracer.span("engine.push", || run.push_batch(batch, watermark));
                tracer.span("engine.drain", || run.drain_closed_days(|_| {}));
            });
            tracer.span("engine.finish", || run.finish_days(|_| {}))
        },
    );
    tracer.close(pass);
    (
        merge(tracer.into_spans(), producer.spans),
        producer.failed,
        Some(report),
    )
}

/// Runs the month's first ten days, closes them, and writes the run's
/// snapshot to `path`: the state a crashed serving process left behind.
fn write_crash_snapshot(sim: &Simulator, store: &SessionStore, path: &Path) -> bool {
    let cut = store.first_at_or_after(RESUME_SECS);
    let head = SessionStore::from_records(
        &store.to_records()[..cut],
        store.horizon_secs(),
        store.population_len(),
    );
    let mut run = sim.begin(store.horizon_secs(), store.population_len());
    run.push_batch(&head, RESUME_SECS);
    run.drain_closed_days(|_| {});
    write_snapshot_file(&run, path).is_ok()
}
