//! Shared pieces of the workloads: inputs, the reference check, the result
//! record and small statistics.

use consume_local_sim::checkpoint::fnv1a;
use consume_local_sim::{SimConfig, SimReport, Simulator};
use consume_local_trace::{ScalePreset, SessionStore, TraceConfig, TraceGenerator};

use crate::clock::{peak_rss_mb, Tick};
use crate::spans::Span;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated month.
    pub seed: u64,
    /// How long the measured section runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every report matched its reference and conserved bytes.
    pub correct: bool,
    /// Operations attempted: session sends, watermarks, snapshot writes and
    /// reads, report checks (the workload's own mix).
    pub attempted: u64,
    /// Operations of `attempted` that failed. A report that differs from
    /// its reference fails the whole run.
    pub failed: u64,
    /// The result metrics.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the reference report.
    pub digest: u64,
    /// Spans of the traced run (empty otherwise).
    pub spans: Vec<Span>,
    /// Workload facts for the run record (`key`, value).
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        self.metrics.push(Metric {
            name,
            value: value + 0.0,
            unit,
        });
    }

    /// Adds a fact for the run record.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }
}

/// Appends the end-to-end metrics, in `BENCHMARK.json` order; the peak RSS
/// is read here, at the end of the timed section.
pub fn end_to_end(
    out: &mut Outcome,
    sessions_per_s: f64,
    lag_p50_ms: f64,
    cpu_s: f64,
    setup_s: f64,
) {
    out.metric("sessions_per_s", sessions_per_s, "1/s");
    out.metric("lag_p50_ms", lag_p50_ms, "ms");
    out.metric("cpu_s", cpu_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    out.metric("setup_s", setup_s, "s");
}

/// Counts checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// A report differed from its reference or broke conservation.
    pub wrong_report: bool,
}

impl Tally {
    /// Counts `n` operations, `failed` of which failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one operation that succeeded when `ok`.
    pub fn op(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Checks `report` against `reference` and for byte conservation.
    pub fn check_report(&mut self, report: &SimReport, reference: &SimReport) {
        let ok = report == reference && report.check_conservation().is_ok();
        if !ok {
            self.wrong_report = true;
        }
        self.op(ok);
    }

    /// Moves the tally into `out`. A wrong report fails every operation.
    pub fn finish(self, out: &mut Outcome) {
        out.attempted = self.attempted.max(1);
        out.failed = if self.wrong_report {
            out.attempted
        } else {
            self.failed
        };
        out.correct = !self.wrong_report && self.failed == 0;
    }
}

/// Threads this machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper's simulator at `threads` engine threads.
pub fn simulator(threads: usize) -> Simulator {
    Simulator::new(SimConfig {
        threads: threads.max(1),
        ..SimConfig::default()
    })
}

/// The generator of one month at `preset` scale.
pub fn generator(preset: ScalePreset, seed: u64, workers: usize) -> TraceGenerator {
    TraceGenerator::new(preset.apply(TraceConfig::london_sep2013()), seed).workers(workers)
}

/// The seed of month `i` of a run seeded with `seed`; month 0 is `seed`
/// itself.
pub fn month_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

/// Generates the whole month as one columnar store.
pub fn month_store(generator: &TraceGenerator) -> SessionStore {
    let trace = generator.generate().expect("preset configs are valid");
    SessionStore::from_trace(&trace)
}

/// FNV-1a digest of a report's full `Debug` rendering: equal digests on two
/// commits mean equal reports.
pub fn report_digest(report: &SimReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Runs `setup` `reps` times, timing each; returns the median seconds and
/// the last result.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take()); // free the previous result before building the next
        let start = Tick::now();
        last = Some(setup());
        secs.push(start.elapsed_s());
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 for none).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Total sessions behind a report.
pub fn report_sessions(report: &SimReport) -> u64 {
    report.swarms.iter().map(|s| s.sessions).sum()
}
