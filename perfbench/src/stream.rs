//! `stream_large`: generate and simulate the `large` month in one
//! bounded-memory pass, `Simulator::simulate(&mut generator.segments()?)`.
//!
//! Why: it is the researcher's path to every figure, and the per-swarm
//! window loop inside `push_batch` does most of its work. It never touches
//! `online` or `checkpoint`, so it is the no-change control for changes to
//! either. A closed, single job: `nproc` engine threads and `nproc`
//! generator workers, alternating day by day.
//!
//! The researcher waits on the whole month, so a pass is this workload's
//! batch and its lag is the pass's wall time.
//!
//! Reference: the one-shot simulation of the monolithic store
//! (`TraceGenerator::generate` → `SessionStore::from_trace` →
//! `simulate(&store)`), computed in set-up.

use consume_local_sim::{SessionSource, SimReport, Simulator};
use consume_local_trace::{ScalePreset, TraceGenerator};

use crate::clock::{process_cpu_s, reset_peak_rss, Tick};
use crate::common::{
    end_to_end, generator, median, month_store, nproc, report_digest, report_sessions, simulator,
    timed_setup, Args, Outcome, Tally,
};
use crate::layers::Layers;
use crate::spans::{Span, Timed, Totals, Tracer};

/// Set-up repetitions in an end-to-end run (their median is `setup_s`).
const SETUP_REPS: usize = 3;

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let threads = nproc();
    let gen = generator(ScalePreset::Large, args.seed, threads);
    let sim = simulator(threads);
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, reference) = timed_setup(reps, || sim.simulate(&month_store(&gen)));
    tally.op(reference.check_conservation().is_ok());
    out.digest = report_digest(&reference);
    let sessions = report_sessions(&reference);
    out.fact("sessions", sessions);
    out.fact("engine_threads", threads);
    reset_peak_rss();

    if args.trace {
        let untraced = Tick::now();
        tally.check_report(&untraced_pass(&gen, &sim), &reference);
        let untraced_s = untraced.elapsed_s();

        let (spans, wall_s, report) = traced_pass(&gen, &sim);
        tally.check_report(&report, &reference);
        let (spans_1, _, report_1) =
            traced_pass(&generator(ScalePreset::Large, args.seed, 1), &simulator(1));
        tally.check_report(&report_1, &reference);

        let t = Totals::new(&spans);
        let mut layers = Layers::new(&reference);
        layers.trace_world_ms = t.ms("trace.world");
        layers.trace_segment_ms = t.ms("trace.segment");
        layers.engine(&spans, 1, sessions);
        layers.engine_speedup = Totals::new(&spans_1).ms("engine.push") / layers.engine_push_ms;
        layers.tracing_wall_ms = wall_s * 1e3;
        layers.tracing_overhead_pct = (wall_s / untraced_s - 1.0) * 100.0;
        let accounted = layers.trace_world_ms
            + layers.trace_segment_ms
            + layers.engine_push_ms
            + layers.engine_finish_ms;
        layers.tracing_accounted_pct = accounted / layers.tracing_wall_ms * 100.0;
        layers.emit(&mut out);
        out.spans = spans;
    } else {
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        let start = Tick::now();
        while walls.is_empty() || start.elapsed_s() < args.seconds {
            let (wall0, cpu0) = (Tick::now(), process_cpu_s());
            let report = untraced_pass(&gen, &sim);
            walls.push(wall0.elapsed_s());
            cpus.push(process_cpu_s() - cpu0);
            tally.check_report(&report, &reference);
        }
        out.fact("passes", walls.len());
        let wall_s = median(&walls);
        end_to_end(
            &mut out,
            sessions as f64 / wall_s,
            wall_s * 1e3,
            median(&cpus),
            setup_s,
        );
    }
    tally.finish(&mut out);
    out
}

/// One pass through the library's own entry point.
fn untraced_pass(gen: &TraceGenerator, sim: &Simulator) -> SimReport {
    sim.simulate(&mut gen.segments().expect("preset configs are valid"))
}

/// One pass driven through the public incremental calls, each timed:
/// `segments` (world build), `next_segment` (through [`Timed`]),
/// `push_batch` and `finish`. Returns the spans, the pass wall time in
/// seconds and the report.
fn traced_pass(gen: &TraceGenerator, sim: &Simulator) -> (Vec<Span>, f64, SimReport) {
    let tracer = Tracer::new(Tick::now(), 0);
    let start = Tick::now();
    let report = tracer.span("stream.pass", || {
        let mut stream = tracer
            .span("trace.world", || gen.segments())
            .expect("preset configs are valid");
        let source = Timed {
            inner: &mut stream,
            tracer: &tracer,
            name: "trace.segment",
        };
        let mut run = sim.begin(source.horizon_secs(), source.population_len());
        source.for_each_batch(&mut |batch, watermark| {
            tracer.span("engine.push", || run.push_batch(batch, watermark));
        });
        tracer.span("engine.finish", || run.finish())
    });
    let wall_s = start.elapsed_s();
    (tracer.into_spans(), wall_s, report)
}
