//! The per-layer metrics of a traced run. Every workload prints every
//! metric; a layer the workload does not drive reads 0.

use consume_local_sim::SimReport;

use crate::common::{percentile, Outcome};
use crate::spans::{Span, Totals};

/// Per-layer values, named as in `BENCHMARK.json`'s `per_layer` list.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub trace_world_ms: f64,
    pub trace_segment_ms: f64,
    pub engine_push_ms: f64,
    pub engine_push_calls: f64,
    pub engine_sessions_per_batch: f64,
    pub engine_push_cpu_s: f64,
    pub engine_parallelism: f64,
    pub engine_push_p99_ms: f64,
    pub engine_drain_ms: f64,
    pub engine_finish_ms: f64,
    pub online_consumer_gap_ms: f64,
    pub online_send_blocked_ms: f64,
    pub checkpoint_write_ms: f64,
    pub checkpoint_encode_ms: f64,
    pub checkpoint_persist_ms: f64,
    pub checkpoint_bytes: f64,
    pub checkpoint_count: f64,
    pub checkpoint_restore_ms: f64,
    pub engine_swarms: f64,
    pub engine_windows: f64,
    pub engine_peers_per_window: f64,
    pub online_watermarks: f64,
    pub online_events: f64,
    pub load_late_p99_ms: f64,
    pub lag_p99_ms: f64,
    pub engine_speedup: f64,
    pub tracing_overhead_pct: f64,
    pub tracing_wall_ms: f64,
    pub tracing_accounted_pct: f64,
}

impl Layers {
    /// Starts from the deterministic engine counts of `reference`.
    pub fn new(reference: &SimReport) -> Self {
        let total = &reference.total;
        Self {
            engine_swarms: reference.swarms.len() as f64,
            engine_windows: total.active_windows as f64,
            engine_peers_per_window: total.peer_windows as f64 / total.active_windows.max(1) as f64,
            ..Self::default()
        }
    }

    /// Fills the engine layer from `engine.push` / `engine.drain` /
    /// `engine.finish` spans, averaged over `passes` traced passes, for
    /// `sessions` sessions pushed per pass.
    pub fn engine(&mut self, spans: &[Span], passes: usize, sessions: u64) {
        let t = Totals::new(spans);
        let per = 1.0 / passes.max(1) as f64;
        let push_ms = t.ms("engine.push") * per;
        let push_cpu_s = t.cpu_s("engine.push") * per;
        let calls = t.count("engine.push") as f64 * per;
        let call_ms: Vec<f64> = t.named("engine.push").map(Span::ms).collect();
        self.engine_push_ms = push_ms;
        self.engine_push_calls = calls;
        self.engine_sessions_per_batch = sessions as f64 / calls.max(1.0);
        self.engine_push_cpu_s = push_cpu_s;
        self.engine_parallelism = push_cpu_s / (push_ms / 1e3).max(1e-9);
        self.engine_push_p99_ms = percentile(&call_ms, 0.99);
        self.engine_drain_ms = t.ms("engine.drain") * per;
        self.engine_finish_ms = t.ms("engine.finish") * per;
    }

    /// Fills the checkpoint-write layer from `checkpoint.write` /
    /// `checkpoint.encode` spans, averaged over `passes`.
    pub fn checkpoint_writes(&mut self, spans: &[Span], passes: usize, bytes: u64) {
        let t = Totals::new(spans);
        let per = 1.0 / passes.max(1) as f64;
        self.checkpoint_write_ms = t.ms("checkpoint.write") * per;
        self.checkpoint_encode_ms = t.ms("checkpoint.encode") * per;
        self.checkpoint_persist_ms = self.checkpoint_write_ms - self.checkpoint_encode_ms;
        self.checkpoint_count = t.count("checkpoint.write") as f64 * per;
        self.checkpoint_bytes = bytes as f64;
    }

    /// Appends every per-layer metric to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        let rows: [(&'static str, f64, &'static str); 29] = [
            ("trace.world_ms", self.trace_world_ms, "ms"),
            ("trace.segment_ms", self.trace_segment_ms, "ms"),
            ("engine.push_ms", self.engine_push_ms, "ms"),
            ("engine.push_calls", self.engine_push_calls, "count"),
            (
                "engine.sessions_per_batch",
                self.engine_sessions_per_batch,
                "count",
            ),
            ("engine.push_cpu_s", self.engine_push_cpu_s, "s"),
            ("engine.parallelism", self.engine_parallelism, "ratio"),
            ("engine.push_p99_ms", self.engine_push_p99_ms, "ms"),
            ("engine.drain_ms", self.engine_drain_ms, "ms"),
            ("engine.finish_ms", self.engine_finish_ms, "ms"),
            ("online.consumer_gap_ms", self.online_consumer_gap_ms, "ms"),
            ("online.send_blocked_ms", self.online_send_blocked_ms, "ms"),
            ("checkpoint.write_ms", self.checkpoint_write_ms, "ms"),
            ("checkpoint.encode_ms", self.checkpoint_encode_ms, "ms"),
            ("checkpoint.persist_ms", self.checkpoint_persist_ms, "ms"),
            ("checkpoint.bytes", self.checkpoint_bytes, "bytes"),
            ("checkpoint.count", self.checkpoint_count, "count"),
            ("checkpoint.restore_ms", self.checkpoint_restore_ms, "ms"),
            ("engine.swarms", self.engine_swarms, "count"),
            ("engine.windows", self.engine_windows, "count"),
            (
                "engine.peers_per_window",
                self.engine_peers_per_window,
                "ratio",
            ),
            ("online.watermarks", self.online_watermarks, "count"),
            ("online.events", self.online_events, "count"),
            ("load.late_p99_ms", self.load_late_p99_ms, "ms"),
            ("lag_p99_ms", self.lag_p99_ms, "ms"),
            ("engine.speedup", self.engine_speedup, "ratio"),
            ("tracing.overhead_pct", self.tracing_overhead_pct, "%"),
            ("tracing.wall_ms", self.tracing_wall_ms, "ms"),
            ("tracing.accounted_pct", self.tracing_accounted_pct, "%"),
        ];
        for (name, value, unit) in rows {
            out.metric(name, value, unit);
        }
    }
}
