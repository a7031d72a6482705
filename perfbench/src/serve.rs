//! `serve_medium`: the live-service shape, run as an open loop.
//!
//! One producer thread offers the `medium` month through
//! `online::channel` (capacity 1024) on a fixed schedule: one 900 s
//! watermark every 1.67 ms, so the 30 days go out over 4.8 s of wall time.
//! Each tick's sessions are sent just before its watermark. The consumer is
//! `Simulator::simulate_days_checkpointed` with `nproc − 1` engine threads
//! and a snapshot to local disk at every day close.
//!
//! Why: 2 880 small batches make the per-batch engine cost and the
//! day-close snapshot stalls dominate, not the window loop. A watermark's
//! lag runs from its scheduled due time to the return of the consumer's
//! handling of the batch it sealed (push, day close, any snapshot).
//!
//! The end-to-end run reports the median lag. The 99th percentile is a
//! per-layer metric: it lands on the evening peaks, where the engine runs
//! near saturation and the day-close snapshot queues the ticks behind it,
//! so it swings with the host's speed (15 ms and 31 ms on two consecutive
//! passes of one month on a 2-core VM) further than any bound could allow.
//!
//! Reference: the one-shot `simulate(&store)` of the same month.

use std::path::Path;

use consume_local_sim::checkpoint::read_snapshot_file;
use consume_local_sim::online::{self, OnlineSource};
use consume_local_sim::par::parallel_join;
use consume_local_sim::{
    CheckpointError, CheckpointPolicy, Checkpointer, SessionSource, SimReport, Simulator,
};
use consume_local_trace::{ScalePreset, SessionStore};

use crate::clock::{process_cpu_s, reset_peak_rss, Tick};
use crate::common::{
    end_to_end, generator, median, month_seed, month_store, nproc, percentile, report_digest,
    simulator, timed_setup, Args, Outcome, Tally,
};
use crate::feed::{lag_ms, produce, sealing_ms, tick_plan, Pace, ProducerLog, Stamped, TickPlan};
use crate::layers::Layers;
use crate::spans::{merge, Span, Timed, Totals, Tracer};

/// Simulated seconds per watermark.
const TICK_SECS: u64 = 900;
/// Wall seconds over which one pass offers the month.
const PASS_WALL_S: f64 = 4.8;
/// Channel capacity in envelopes.
const CAPACITY: usize = 1024;
/// Wall seconds between a pass's start and its schedule's time zero, so
/// both threads are running before the first tick is due.
const LEAD_S: f64 = 0.005;
/// Set-up repetitions in an end-to-end run (their median is `setup_s`).
const SETUP_REPS: usize = 3;

/// What one pass measured.
struct Pass {
    report: Result<SimReport, CheckpointError>,
    producer: ProducerLog,
    /// Lag per watermark, ms.
    lag_ms: Vec<f64>,
    /// Snapshots written.
    checkpoints: u64,
    cpu_s: f64,
    /// Wall seconds from the start of the schedule to the report.
    wall_s: f64,
    /// Consumer spans (traced passes only).
    spans: Vec<Span>,
    /// Snapshot bytes (traced passes only).
    bytes: u64,
}

/// One generated month and what it is checked against.
struct Month {
    store: SessionStore,
    reference: SimReport,
    plan: Vec<TickPlan>,
}

/// Runs the workload.
pub fn run(args: &Args, out_dir: &Path) -> Outcome {
    let threads = nproc();
    let sim = simulator(threads.saturating_sub(1));
    let ckpt_path = out_dir.join("serve_medium.snap");
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    // An end-to-end run serves a different month in each pass, as many
    // passes as fit `--seconds`: medium months differ enough in swarm shape
    // that one seed's month is a noisy sample of the workload.
    let (reps, months) = if args.trace {
        (1, 1)
    } else {
        let passes = (args.seconds / PASS_WALL_S).round().max(1.0);
        (SETUP_REPS, passes as usize)
    };
    let (setup_s, months) = timed_setup(reps, || {
        (0..months)
            .map(|i| {
                let gen = generator(ScalePreset::Medium, month_seed(args.seed, i), threads);
                let store = month_store(&gen);
                let reference = simulator(threads).simulate(&store);
                let plan = tick_plan(&store, 0, TICK_SECS);
                Month {
                    store,
                    reference,
                    plan,
                }
            })
            .collect::<Vec<Month>>()
    });
    for month in &months {
        tally.op(month.reference.check_conservation().is_ok());
    }
    out.digest = report_digest(&months[0].reference);
    out.fact("months", months.len());
    out.fact(
        "sessions",
        months.iter().map(|m| m.store.len()).sum::<usize>(),
    );
    out.fact("ticks", months[0].plan.len());
    out.fact("engine_threads", sim.config().threads);
    reset_peak_rss();

    let check = |pass: &Pass, month: &Month, tally: &mut Tally| {
        tally.add(
            pass.producer.sent + pass.producer.watermarks,
            pass.producer.failed,
        );
        let days = month
            .reference
            .daily
            .last()
            .map_or(0, |c| u64::from(c.day) + 1);
        tally.add(days, days.saturating_sub(pass.checkpoints));
        match &pass.report {
            Ok(report) => tally.check_report(report, &month.reference),
            Err(_) => tally.op(false),
        }
    };

    if args.trace {
        let month = &months[0];
        let untraced = run_pass(&sim, month, &ckpt_path, false);
        check(&untraced, month, &mut tally);
        let traced = run_pass(&sim, month, &ckpt_path, true);
        check(&traced, month, &mut tally);
        // Read the last day's snapshot back: a serving run's durability
        // is only as good as its newest snapshot's restore.
        let restore = Tick::now();
        tally.op(read_snapshot_file(&ckpt_path).is_ok());
        let restore_ms = Tick::now().ms_since(restore);

        let spans = merge(traced.spans, traced.producer.spans);
        let t = Totals::new(&spans);
        let mut layers = Layers::new(&month.reference);
        layers.engine(&spans, 1, month.store.len() as u64);
        layers.checkpoint_writes(&spans, 1, traced.bytes);
        layers.checkpoint_restore_ms = restore_ms;
        let gaps: Vec<&Span> = t.named("online.gap").collect();
        let sends: Vec<&Span> = t.named("online.send").collect();
        layers.online_consumer_gap_ms = sealing_ms(&gaps, &sends);
        layers.online_send_blocked_ms = t.ms("online.send");
        layers.online_watermarks = traced.producer.watermarks as f64;
        layers.online_events = traced.producer.sent as f64;
        layers.load_late_p99_ms = percentile(&traced.producer.late_ms, 0.99);
        layers.lag_p99_ms = percentile(&untraced.lag_ms, 0.99);
        // The schedule fixes an open loop's wall time, so the trace's cost
        // shows as CPU.
        layers.tracing_overhead_pct = (traced.cpu_s / untraced.cpu_s - 1.0) * 100.0;
        layers.tracing_wall_ms = t.ms("serve.consume");
        let accounted = t.ms("online.gap")
            + layers.engine_push_ms
            + layers.engine_drain_ms
            + layers.checkpoint_write_ms
            + layers.checkpoint_encode_ms
            + layers.engine_finish_ms;
        layers.tracing_accounted_pct = accounted / layers.tracing_wall_ms * 100.0;
        layers.emit(&mut out);
        out.spans = spans;
    } else {
        let (mut lags, mut cpus, mut rates, mut late) = (vec![], vec![], vec![], vec![]);
        for month in &months {
            let pass = run_pass(&sim, month, &ckpt_path, false);
            check(&pass, month, &mut tally);
            lags.extend_from_slice(&pass.lag_ms);
            late.extend_from_slice(&pass.producer.late_ms);
            cpus.push(pass.cpu_s);
            rates.push(month.store.len() as f64 / pass.wall_s);
        }
        out.fact("lag_samples", lags.len());
        out.fact("late_p99_ms", percentile(&late, 0.99));
        let lag_p50 = percentile(&lags, 0.50);
        end_to_end(&mut out, median(&rates), lag_p50, median(&cpus), setup_s);
    }
    tally.finish(&mut out);
    out
}

/// Offers the month once on the fixed schedule and serves it.
fn run_pass(sim: &Simulator, month: &Month, ckpt_path: &Path, traced: bool) -> Pass {
    let (store, plan) = (&month.store, &month.plan[..]);
    let (sender, source) = online::channel(store.horizon_secs(), store.population_len(), CAPACITY);
    let origin = Tick::now();
    let pace = Pace::Schedule {
        start: origin.plus_secs(LEAD_S),
        period_s: PASS_WALL_S / plan.len() as f64,
    };
    let mut checkpointer = Checkpointer::new(CheckpointPolicy::every_day_closes(1, ckpt_path));
    let mut stamps = Vec::with_capacity(plan.len());
    let cpu0 = process_cpu_s();
    let (producer, (report, spans, bytes)) = parallel_join(
        || produce(sender, store, plan, pace, traced.then_some(origin)),
        || {
            if traced {
                consume_traced(sim, source, &mut checkpointer, &mut stamps, origin)
            } else {
                let source = Stamped {
                    inner: source,
                    stamps: &mut stamps,
                };
                let report = sim.simulate_days_checkpointed(source, &mut checkpointer, |_| {});
                (report, Vec::new(), 0)
            }
        },
    );
    let cpu_s = process_cpu_s() - cpu0;
    let wall_s = origin.elapsed_s();
    let lag_ms = lag_ms(&stamps, pace);
    Pass {
        report,
        producer,
        lag_ms,
        checkpoints: checkpointer.checkpoints_written(),
        cpu_s,
        wall_s,
        spans,
        bytes,
    }
}

/// The per-batch steps of `simulate_days_checkpointed`, driven through its
/// public calls and timed: `push_batch`, `drain_closed_days`,
/// `Checkpointer::note_day_close` (which writes the snapshot), then an
/// extra in-memory `SegmentedRun::checkpoint` that times the encode alone,
/// and finally `finish_days`. Returns the report, the spans and the
/// snapshot size in bytes.
fn consume_traced(
    sim: &Simulator,
    source: OnlineSource,
    checkpointer: &mut Checkpointer,
    stamps: &mut Vec<(Tick, Tick)>,
    origin: Tick,
) -> (Result<SimReport, CheckpointError>, Vec<Span>, u64) {
    let tracer = Tracer::new(origin, 0);
    let mut failure = None;
    let mut bytes = 0u64;
    let consume = tracer.open("serve.consume");
    let source = Timed {
        inner: source,
        tracer: &tracer,
        name: "online.gap",
    };
    let mut run = sim.begin(source.horizon_secs(), source.population_len());
    source.for_each_batch(&mut |batch, watermark| {
        let start = Tick::now();
        tracer.span("engine.push", || run.push_batch(batch, watermark));
        let mut closed = 0;
        tracer.span("engine.drain", || run.drain_closed_days(|_| closed += 1));
        if let Err(e) = checkpointer.note_watermark(&run) {
            failure = Some(e);
        }
        for _ in 0..closed {
            match tracer.span("checkpoint.write", || checkpointer.note_day_close(&run)) {
                Ok(true) => {
                    let mut encoded = Vec::new();
                    let result = tracer.span("checkpoint.encode", || run.checkpoint(&mut encoded));
                    if let Err(e) = result {
                        failure = Some(e);
                    }
                    bytes = encoded.len() as u64;
                }
                Ok(false) => {}
                Err(e) => failure = Some(e),
            }
        }
        stamps.push((start, Tick::now()));
    });
    let report = tracer.span("engine.finish", || run.finish_days(|_| {}));
    tracer.close(consume);
    let report = match failure {
        Some(e) => Err(e),
        None => Ok(report),
    };
    (report, tracer.into_spans(), bytes)
}
