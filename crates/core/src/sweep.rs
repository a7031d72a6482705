//! Declarative scenario sweeps: parameter grids over the paper's evaluation
//! axes, fanned out across worker threads, with machine-readable results.
//!
//! The paper's claims are sweeps — savings vs. swarm capacity, ablations of
//! matcher locality and swarm policy, sensitivity to the window Δτ — but a
//! hand-rolled [`Experiment`](crate::experiment::Experiment) per point does
//! not scale to grids and leaves no record for perf tracking. This module
//! makes the grid itself the unit of work:
//!
//! 1. [`SweepGrid`] declares the axes (workload scale preset × ISP topology
//!    × matcher × swarm policy × Δτ × upload ratio);
//! 2. [`SweepRunner`] expands the grid into [`Scenario`]s, generates each
//!    distinct trace **once** (in parallel, see
//!    [`SweepConfig::trace_workers`]), columnarises it **once** into a
//!    shared [`SessionStore`], and fans scenarios out across threads with
//!    the same slot-ordered work stealing the sim engine uses — results are
//!    deterministic for any worker count;
//! 3. [`SweepReport`] carries one [`ScenarioOutcome`] per grid point and
//!    renders to JSON (schema `consume-local/sweep-v1`);
//!    [`SweepReport::to_json_deterministic`] omits wall-times so identical
//!    sweeps render byte-identical documents.
//!
//! # Example
//!
//! ```
//! use consume_local::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SweepConfig { grid: SweepGrid::ci_quick(), seed: 7, ..Default::default() };
//! let report = SweepRunner::new(config)?.run();
//! assert!(!report.outcomes.is_empty());
//! let json = report.to_json().render();
//! assert!(json.starts_with(r#"{"schema":"consume-local/sweep-v1""#));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
// lint:allow(no-wall-clock) wall_ms telemetry only; `to_json_deterministic()`
// omits every wall-time field, so no clock value reaches a gated output.
use std::time::Instant;

use consume_local_analytics::sweep::{ScenarioSample, SweepSummary};
use consume_local_energy::EnergyParams;
use consume_local_sim::par::parallel_map;
use consume_local_sim::{SimConfig, SimConfigError, Simulator, UploadModel};
use consume_local_swarm::{MatcherKind, SwarmPolicy};
use consume_local_topology::IspRegistry;
use consume_local_trace::{
    ChurnConfig, ScalePreset, SessionStore, TraceConfig, TraceError, TraceGenerator,
};

use crate::export::json::JsonValue;

/// Which ISP registry populates the synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyPreset {
    /// The five-ISP London registry (Table III market shares).
    LondonTop5,
    /// One ISP with the Table III tree: every peer shares a provider.
    SingleIsp,
}

impl TopologyPreset {
    /// Builds the registry for this preset.
    pub fn registry(self) -> IspRegistry {
        match self {
            TopologyPreset::LondonTop5 => IspRegistry::london_top5(),
            TopologyPreset::SingleIsp => IspRegistry::single_table3(),
        }
    }

    /// A stable lower-case name for scenario ids.
    pub fn name(self) -> &'static str {
        match self {
            TopologyPreset::LondonTop5 => "london5",
            TopologyPreset::SingleIsp => "single-isp",
        }
    }
}

impl fmt::Display for TopologyPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The declared parameter grid: the cartesian product of its axes is the
/// scenario list. Every axis must be non-empty.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Workload scales (each generates one trace per topology).
    pub presets: Vec<ScalePreset>,
    /// ISP topologies (each generates one trace per preset).
    pub topologies: Vec<TopologyPreset>,
    /// Matching strategies.
    pub matchers: Vec<MatcherKind>,
    /// Sub-swarm partitioning policies.
    pub policies: Vec<SwarmPolicy>,
    /// Window lengths Δτ in seconds.
    pub window_secs: Vec<u64>,
    /// Upload ratios `q/β`.
    pub upload_ratios: Vec<f64>,
    /// Churn departure rates (per online hour), each expanded through
    /// [`ChurnConfig::degradation_axis`]. `[0.0]` keeps churn off.
    pub churn_rates: Vec<f64>,
    /// Cooperation probabilities (peers silently defect with probability
    /// `1 - c` per window). `[1.0]` keeps defection off.
    pub cooperation: Vec<f64>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self::paper_point()
    }
}

impl SweepGrid {
    /// The paper's single evaluation point at smoke scale.
    pub fn paper_point() -> Self {
        Self {
            presets: vec![ScalePreset::Smoke],
            topologies: vec![TopologyPreset::LondonTop5],
            matchers: vec![MatcherKind::Hierarchical],
            policies: vec![SwarmPolicy::paper_default()],
            window_secs: vec![10],
            upload_ratios: vec![1.0],
            churn_rates: vec![0.0],
            cooperation: vec![1.0],
        }
    }

    /// A reduced-sample grid for CI: smoke scale, both matchers, the two
    /// headline policies and two window lengths (8 scenarios).
    pub fn ci_quick() -> Self {
        Self {
            presets: vec![ScalePreset::Smoke],
            topologies: vec![TopologyPreset::LondonTop5],
            matchers: vec![MatcherKind::Hierarchical, MatcherKind::Random],
            policies: vec![SwarmPolicy::paper_default(), SwarmPolicy::content_only()],
            window_secs: vec![10, 30],
            upload_ratios: vec![1.0],
            churn_rates: vec![0.0],
            cooperation: vec![1.0],
        }
    }

    /// The robustness grid: one paper-point scenario swept across churn
    /// departure rates and cooperation probabilities, for the
    /// `churn_degradation` example's savings/offload degradation curves.
    pub fn churn_degradation(preset: ScalePreset) -> Self {
        Self {
            presets: vec![preset],
            topologies: vec![TopologyPreset::LondonTop5],
            matchers: vec![MatcherKind::Hierarchical],
            policies: vec![SwarmPolicy::paper_default()],
            window_secs: vec![10],
            upload_ratios: vec![1.0],
            churn_rates: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            cooperation: vec![1.0, 0.8],
        }
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.presets.len()
            * self.topologies.len()
            * self.matchers.len()
            * self.policies.len()
            * self.window_secs.len()
            * self.upload_ratios.len()
            * self.churn_rates.len()
            * self.cooperation.len()
    }

    /// Whether any axis is empty (the grid expands to no scenarios).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into scenarios, in axis-nesting order (presets
    /// outermost, upload ratios innermost).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &preset in &self.presets {
            for &topology in &self.topologies {
                for &matcher in &self.matchers {
                    for &policy in &self.policies {
                        for &window_secs in &self.window_secs {
                            for &upload_ratio in &self.upload_ratios {
                                for &churn_rate in &self.churn_rates {
                                    for &cooperation in &self.cooperation {
                                        out.push(Scenario {
                                            preset,
                                            topology,
                                            matcher,
                                            policy,
                                            window_secs,
                                            upload_ratio,
                                            churn_rate,
                                            cooperation,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One grid point: a fully specified simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Workload scale preset.
    pub preset: ScalePreset,
    /// ISP topology preset.
    pub topology: TopologyPreset,
    /// Matching strategy.
    pub matcher: MatcherKind,
    /// Sub-swarm partitioning policy.
    pub policy: SwarmPolicy,
    /// Window length Δτ in seconds.
    pub window_secs: u64,
    /// Upload ratio `q/β`.
    pub upload_ratio: f64,
    /// Churn departure rate (per online hour); `0.0` keeps churn off.
    pub churn_rate: f64,
    /// Cooperation probability; `1.0` keeps defection off.
    pub cooperation: f64,
}

impl Scenario {
    /// A stable, human-readable scenario id, e.g.
    /// `smoke/london5/hierarchical/isp+bitrate/dt10/q1`. The churn and
    /// cooperation axes only appear when they deviate from their inert
    /// defaults (`/churn{r}`, `/coop{c}`), so ids from pre-churn sweeps
    /// are unchanged.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}/{}/{}/{}/dt{}/q{}",
            self.preset,
            self.topology,
            matcher_name(self.matcher),
            policy_name(self.policy),
            self.window_secs,
            self.upload_ratio
        );
        if self.churn_rate > 0.0 {
            id.push_str(&format!("/churn{}", self.churn_rate));
        }
        if self.cooperation < 1.0 {
            id.push_str(&format!("/coop{}", self.cooperation));
        }
        id
    }

    /// The simulator configuration for this scenario. `sim_threads` is the
    /// per-simulation worker count (1 when the sweep itself is parallel);
    /// `seed` feeds matcher randomness.
    pub fn sim_config(&self, seed: u64, sim_threads: usize) -> SimConfig {
        SimConfig {
            window_secs: self.window_secs,
            upload: UploadModel::Ratio(self.upload_ratio),
            policy: self.policy,
            matcher: self.matcher,
            seed,
            threads: sim_threads,
            cooperation_rate: self.cooperation,
            ..SimConfig::default()
        }
    }

    /// The trace configuration this scenario replays, including the churn
    /// axis (via [`ChurnConfig::degradation_axis`]).
    pub fn trace_config(&self) -> TraceConfig {
        let mut base = TraceConfig::london_sep2013();
        base.registry = self.topology.registry();
        base.churn = ChurnConfig::degradation_axis(self.churn_rate);
        self.preset.apply(base)
    }

    /// The key identifying the trace this scenario replays: scenarios
    /// sharing it replay the same generated sessions. Churn fragments the
    /// trace, so the churn rate is part of the key (bit-exact).
    fn trace_key(&self) -> (ScalePreset, TopologyPreset, u64) {
        (self.preset, self.topology, self.churn_rate.to_bits())
    }
}

/// A matcher's stable lower-case name.
fn matcher_name(m: MatcherKind) -> &'static str {
    match m {
        MatcherKind::Hierarchical => "hierarchical",
        MatcherKind::Random => "random",
    }
}

/// A policy's stable lower-case name.
fn policy_name(p: SwarmPolicy) -> &'static str {
    match (p.split_by_isp, p.split_by_bitrate) {
        (true, true) => "isp+bitrate",
        (false, true) => "bitrate",
        (true, false) => "isp",
        (false, false) => "content",
    }
}

/// Sweep execution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The parameter grid.
    pub grid: SweepGrid,
    /// Master seed: feeds trace generation and matcher randomness.
    pub seed: u64,
    /// Worker threads fanning scenarios out.
    pub workers: usize,
    /// Threads inside each scenario's simulator (default 1: the sweep
    /// parallelises across scenarios, not within them).
    pub sim_threads: usize,
    /// Worker threads inside each trace generation (`None`: same as
    /// `workers`). Distinct traces are generated one after another, each
    /// fanning its per-item synthesis across this many threads — the
    /// generated bytes are identical for any value.
    pub trace_workers: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            grid: SweepGrid::default(),
            seed: 42,
            workers: SimConfig::default_threads(),
            sim_threads: 1,
            trace_workers: None,
        }
    }
}

/// Error from sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The grid expands to zero scenarios.
    EmptyGrid,
    /// `workers` or `sim_threads` was zero.
    ZeroWorkers,
    /// A scenario's simulator configuration is invalid (e.g. a zero window
    /// or non-positive upload ratio on an axis).
    Sim {
        /// The offending scenario's id.
        scenario: String,
        /// The violated constraint.
        source: SimConfigError,
    },
    /// A scenario's trace configuration is invalid (e.g. a negative churn
    /// rate on the churn axis).
    Trace {
        /// The offending scenario's id.
        scenario: String,
        /// The violated constraint.
        source: TraceError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyGrid => write!(f, "sweep grid has an empty axis"),
            SweepError::ZeroWorkers => write!(f, "workers and sim_threads must be at least 1"),
            SweepError::Sim { scenario, source } => {
                write!(f, "scenario `{scenario}`: {source}")
            }
            SweepError::Trace { scenario, source } => {
                write!(f, "scenario `{scenario}`: {source}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sim { source, .. } => Some(source),
            SweepError::Trace { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One scenario's reduced result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// Population size of the generated trace.
    pub users: u64,
    /// Sessions replayed.
    pub sessions: u64,
    /// Sub-swarms simulated.
    pub swarms: u64,
    /// Total demand in bytes.
    pub demand_bytes: u64,
    /// CDN-served bytes.
    pub server_bytes: u64,
    /// Edge-cache-served bytes.
    pub cache_bytes: u64,
    /// Preloaded bytes.
    pub preload_bytes: u64,
    /// Peer-to-peer bytes by topology layer.
    pub peer_bytes_by_layer: [u64; 3],
    /// Share of demand served by peers.
    pub offload_share: f64,
    /// Savings under the Valancius parameters (`None` without demand).
    pub savings_valancius: Option<f64>,
    /// Savings under the Baliga parameters (`None` without demand).
    pub savings_baliga: Option<f64>,
    /// Wall-clock simulation time in milliseconds (excludes trace
    /// generation, which is shared across scenarios).
    ///
    /// Measured while up to [`SweepConfig::workers`] scenarios run
    /// concurrently, so this is a *throughput-context* number: comparable
    /// across runs with the same worker count (which the timing JSON
    /// records), not a contention-free kernel time. For that, run the
    /// benchmark in `perfbench/`: its traced run reports the engine's own
    /// push time as the `engine.push_ms` layer.
    pub wall_ms: f64,
}

impl ScenarioOutcome {
    /// `axes` flags which robustness axes the sweep actually used
    /// (`(churn, cooperation)`): the corresponding fields are only emitted
    /// then, so documents from churn-free sweeps are byte-identical to
    /// pre-churn output.
    fn to_json(&self, with_timings: bool, axes: (bool, bool)) -> JsonValue {
        let savings = |s: Option<f64>| s.map_or(JsonValue::Null, JsonValue::Num);
        let mut obj = JsonValue::object()
            .field("id", self.scenario.id())
            .field("preset", self.scenario.preset.name())
            .field("topology", self.scenario.topology.name())
            .field("matcher", matcher_name(self.scenario.matcher))
            .field("policy", policy_name(self.scenario.policy))
            .field("window_secs", self.scenario.window_secs)
            .field("upload_ratio", self.scenario.upload_ratio);
        if axes.0 {
            obj = obj.field("churn_rate", self.scenario.churn_rate);
        }
        if axes.1 {
            obj = obj.field("cooperation", self.scenario.cooperation);
        }
        obj = obj
            .field("users", self.users)
            .field("sessions", self.sessions)
            .field("swarms", self.swarms)
            .field("demand_bytes", self.demand_bytes)
            .field("server_bytes", self.server_bytes)
            .field("cache_bytes", self.cache_bytes)
            .field("preload_bytes", self.preload_bytes)
            .field(
                "peer_bytes_by_layer",
                self.peer_bytes_by_layer
                    .iter()
                    .map(|&b| JsonValue::Int(b))
                    .collect::<Vec<_>>(),
            )
            .field("offload_share", self.offload_share)
            .field(
                "savings",
                JsonValue::object()
                    .field("valancius", savings(self.savings_valancius))
                    .field("baliga", savings(self.savings_baliga)),
            );
        if with_timings {
            obj = obj.field("wall_ms", self.wall_ms);
        }
        obj
    }
}

/// Timings of one shared trace build: generation plus columnarisation into
/// the [`SessionStore`] every scenario of that `(preset, topology)` replays.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuild {
    /// Workload scale preset of the trace.
    pub preset: ScalePreset,
    /// ISP topology preset of the trace.
    pub topology: TopologyPreset,
    /// Sessions generated.
    pub sessions: u64,
    /// Users in the generated population.
    pub users: u64,
    /// Wall-clock trace generation time in milliseconds (at
    /// [`SweepConfig::trace_workers`] threads).
    pub generate_ms: f64,
    /// Wall-clock [`SessionStore`] build time in milliseconds.
    pub columnarize_ms: f64,
}

/// The full result of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The master seed the sweep ran with.
    pub seed: u64,
    /// Worker threads the sweep fanned out across (the concurrency context
    /// of every `wall_ms`; recorded in the timing JSON).
    pub workers: usize,
    /// Worker threads each trace generation fanned out across.
    pub trace_workers: usize,
    /// One build record per distinct `(preset, topology)` trace, in first-
    /// use order.
    pub trace_builds: Vec<TraceBuild>,
    /// One outcome per scenario, in grid expansion order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl SweepReport {
    /// Cross-scenario summary statistics over the scenarios that recorded
    /// demand. A zero-demand scenario has no savings measurement (its JSON
    /// renders `null`), so it is *excluded* rather than counted as 0 %.
    /// `None` when no scenario measured anything.
    pub fn summary(&self) -> Option<SweepSummary> {
        SweepSummary::of(&self.measured().0)
    }

    /// The measured (with-demand) samples plus, for each, the index of its
    /// outcome — the mapping that turns summary extrema indices back into
    /// scenarios.
    fn measured(&self) -> (Vec<ScenarioSample>, Vec<usize>) {
        let mut samples = Vec::with_capacity(self.outcomes.len());
        let mut indices = Vec::with_capacity(self.outcomes.len());
        for (i, o) in self.outcomes.iter().enumerate() {
            if let Some(savings) = o.savings_valancius {
                samples.push(ScenarioSample {
                    savings,
                    offload: o.offload_share,
                    wall_ms: o.wall_ms,
                });
                indices.push(i);
            }
        }
        (samples, indices)
    }

    /// Renders the report as a `consume-local/sweep-v1` JSON document,
    /// wall-times included.
    pub fn to_json(&self) -> JsonValue {
        self.json_impl(true)
    }

    /// Renders the report without any wall-clock measurement, so two runs of
    /// the same sweep produce byte-identical documents (the determinism
    /// suite pins this).
    pub fn to_json_deterministic(&self) -> JsonValue {
        self.json_impl(false)
    }

    /// Total wall-clock per phase: generate / columnarize (once per shared
    /// trace) and simulate (summed over scenarios, concurrency context
    /// [`SweepReport::workers`]).
    pub fn phase_wall_ms(&self) -> (f64, f64, f64) {
        let generate = self.trace_builds.iter().map(|b| b.generate_ms).sum();
        let columnarize = self.trace_builds.iter().map(|b| b.columnarize_ms).sum();
        let simulate = self.outcomes.iter().map(|o| o.wall_ms).sum();
        (generate, columnarize, simulate)
    }

    fn json_impl(&self, with_timings: bool) -> JsonValue {
        let mut doc = JsonValue::object()
            .field("schema", "consume-local/sweep-v1")
            .field("seed", self.seed)
            .field("scenarios", self.outcomes.len());
        if with_timings {
            let (generate, columnarize, simulate) = self.phase_wall_ms();
            doc = doc
                .field("workers", self.workers)
                .field("trace_workers", self.trace_workers)
                .field(
                    "phase_wall_ms",
                    JsonValue::object()
                        .field("generate", generate)
                        .field("columnarize", columnarize)
                        .field("simulate", simulate),
                )
                .field(
                    "trace_builds",
                    self.trace_builds
                        .iter()
                        .map(|b| {
                            JsonValue::object()
                                .field("preset", b.preset.name())
                                .field("topology", b.topology.name())
                                .field("sessions", b.sessions)
                                .field("users", b.users)
                                .field("generate_ms", b.generate_ms)
                                .field("columnarize_ms", b.columnarize_ms)
                        })
                        .collect::<Vec<_>>(),
                );
        }
        let (samples, measured_indices) = self.measured();
        if let Some(summary) = SweepSummary::of(&samples) {
            let mut s = JsonValue::object()
                .field("measured_scenarios", summary.scenarios)
                .field("savings", summary_json(&summary.savings))
                .field("offload", summary_json(&summary.offload))
                .field(
                    "best_savings_id",
                    self.outcomes[measured_indices[summary.best_savings_index]]
                        .scenario
                        .id(),
                )
                .field(
                    "worst_savings_id",
                    self.outcomes[measured_indices[summary.worst_savings_index]]
                        .scenario
                        .id(),
                );
            if with_timings {
                s = s
                    .field("wall_ms", summary_json(&summary.wall_ms))
                    .field("total_wall_ms", summary.total_wall_ms);
            }
            doc = doc.field("summary", s);
        }
        let axes = (
            self.outcomes.iter().any(|o| o.scenario.churn_rate > 0.0),
            self.outcomes.iter().any(|o| o.scenario.cooperation < 1.0),
        );
        doc.field(
            "results",
            self.outcomes
                .iter()
                .map(|o| o.to_json(with_timings, axes))
                .collect::<Vec<_>>(),
        )
    }
}

fn summary_json(s: &consume_local_stats::Summary) -> JsonValue {
    JsonValue::object()
        .field("mean", s.mean)
        .field("min", s.min)
        .field("median", s.median)
        .field("max", s.max)
}

/// The sweep runner: validated configuration, ready to execute.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    config: SweepConfig,
    scenarios: Vec<Scenario>,
}

impl SweepRunner {
    /// Validates the grid (non-empty axes, every scenario's sim config
    /// constructible) and prepares the runner.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for an empty grid, zero worker counts, or an
    /// axis value the simulator rejects.
    pub fn new(config: SweepConfig) -> Result<Self, SweepError> {
        if config.grid.is_empty() {
            return Err(SweepError::EmptyGrid);
        }
        if config.workers == 0 || config.sim_threads == 0 || config.trace_workers == Some(0) {
            return Err(SweepError::ZeroWorkers);
        }
        let scenarios = config.grid.scenarios();
        for s in &scenarios {
            s.sim_config(config.seed, config.sim_threads)
                .validate()
                .map_err(|source| SweepError::Sim {
                    scenario: s.id(),
                    source,
                })?;
            s.trace_config()
                .validate()
                .map_err(|source| SweepError::Trace {
                    scenario: s.id(),
                    source,
                })?;
        }
        Ok(Self { config, scenarios })
    }

    /// The expanded scenario list, in execution (grid) order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Runs every scenario and returns the report.
    ///
    /// Distinct `(preset, topology)` traces are generated **and
    /// columnarised once**: each generation fans its per-item synthesis
    /// across [`SweepConfig::trace_workers`] threads, the resulting
    /// [`SessionStore`] is shared (`Arc`) by every scenario replaying that
    /// trace, and scenarios then fan out across `workers` threads with
    /// slot-ordered work stealing — the report is identical for any worker
    /// count on either axis.
    pub fn run(&self) -> SweepReport {
        // 1. One trace per distinct (preset, topology), generated once and
        //    columnarised once, with per-phase wall times recorded. Distinct
        //    traces build concurrently across `workers` threads AND each
        //    generation fans its per-item synthesis across `trace_workers`
        //    threads — single-trace grids get the inner parallelism,
        //    many-trace grids the outer. Like every scenario `wall_ms`, the
        //    recorded build times are throughput-context measurements.
        let mut trace_keys: Vec<(ScalePreset, TopologyPreset, u64)> = Vec::new();
        for s in &self.scenarios {
            if !trace_keys.contains(&s.trace_key()) {
                trace_keys.push(s.trace_key());
            }
        }
        let seed = self.config.seed;
        let trace_workers = self.config.trace_workers.unwrap_or(self.config.workers);
        let built: Vec<(TraceBuild, Arc<SessionStore>)> =
            parallel_map(trace_keys.len(), self.config.workers, |i| {
                let key = trace_keys[i];
                let (preset, topology, _) = key;
                let scenario = self
                    .scenarios
                    .iter()
                    .find(|s| s.trace_key() == key)
                    .expect("key came from the scenario list");
                // lint:allow(no-wall-clock) wall-time telemetry, omitted from deterministic JSON
                let start = Instant::now();
                let trace = TraceGenerator::new(scenario.trace_config(), seed)
                    .workers(trace_workers)
                    .generate()
                    .expect("preset trace configs are valid");
                let generate_ms = start.elapsed().as_secs_f64() * 1e3;
                // lint:allow(no-wall-clock) trace-generation telemetry, omitted from deterministic JSON
                let start = Instant::now();
                let store = Arc::new(SessionStore::from_trace(&trace));
                let columnarize_ms = start.elapsed().as_secs_f64() * 1e3;
                let build = TraceBuild {
                    preset,
                    topology,
                    sessions: store.len() as u64,
                    users: store.population_len() as u64,
                    generate_ms,
                    columnarize_ms,
                };
                (build, store)
            });
        let (trace_builds, stores): (Vec<TraceBuild>, Vec<Arc<SessionStore>>) =
            built.into_iter().unzip();

        // 2. Simulate every scenario against its shared columnar store.
        let outcomes = parallel_map(self.scenarios.len(), self.config.workers, |i| {
            let scenario = self.scenarios[i];
            let key = scenario.trace_key();
            let store_idx = trace_keys
                .iter()
                .position(|&k| k == key)
                .expect("trace generated per key");
            let store = &stores[store_idx];
            let sim =
                Simulator::try_new(scenario.sim_config(self.config.seed, self.config.sim_threads))
                    .expect("validated in SweepRunner::new");
            // lint:allow(no-wall-clock) scenario wall-time telemetry, omitted from deterministic JSON
            let start = Instant::now();
            let report = sim.simulate(store.as_ref());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            ScenarioOutcome {
                scenario,
                users: store.population_len() as u64,
                sessions: store.len() as u64,
                swarms: report.swarms.len() as u64,
                demand_bytes: report.total.demand_bytes,
                server_bytes: report.total.server_bytes,
                cache_bytes: report.total.cache_bytes,
                preload_bytes: report.total.preload_bytes,
                peer_bytes_by_layer: report.total.peer_bytes_by_layer,
                offload_share: report.total.offload_share(),
                savings_valancius: report.total_savings(&EnergyParams::valancius()),
                savings_baliga: report.total_savings(&EnergyParams::baliga()),
                wall_ms,
            }
        });

        SweepReport {
            seed,
            workers: self.config.workers,
            trace_workers,
            trace_builds,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(workers: usize) -> SweepConfig {
        SweepConfig {
            grid: SweepGrid::ci_quick(),
            seed: 11,
            workers,
            sim_threads: 1,
            trace_workers: None,
        }
    }

    #[test]
    fn grid_expansion_counts() {
        let grid = SweepGrid::ci_quick();
        assert_eq!(grid.len(), 8);
        assert_eq!(grid.scenarios().len(), 8);
        assert!(!grid.is_empty());
        let mut empty = grid;
        empty.matchers.clear();
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_grid_rejected() {
        let mut config = quick_config(2);
        config.grid.policies.clear();
        assert_eq!(SweepRunner::new(config).unwrap_err(), SweepError::EmptyGrid);
        let mut config = quick_config(2);
        config.workers = 0;
        assert_eq!(
            SweepRunner::new(config).unwrap_err(),
            SweepError::ZeroWorkers
        );
    }

    #[test]
    fn invalid_axis_value_is_typed() {
        let mut config = quick_config(2);
        config.grid.upload_ratios = vec![0.0];
        let err = SweepRunner::new(config).unwrap_err();
        match err {
            SweepError::Sim {
                ref scenario,
                source: SimConfigError::BadUploadRatio(r),
            } => {
                assert_eq!(r, 0.0);
                assert!(scenario.contains("smoke/london5"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("upload ratio"));
    }

    #[test]
    fn runs_and_orders_outcomes_by_grid() {
        let runner = SweepRunner::new(quick_config(4)).unwrap();
        let report = runner.run();
        assert_eq!(report.outcomes.len(), 8);
        for (scenario, outcome) in runner.scenarios().iter().zip(&report.outcomes) {
            assert_eq!(*scenario, outcome.scenario);
            assert!(outcome.demand_bytes > 0);
            assert_eq!(
                outcome.demand_bytes,
                outcome.server_bytes
                    + outcome.cache_bytes
                    + outcome.preload_bytes
                    + outcome.peer_bytes_by_layer.iter().sum::<u64>()
            );
        }
        // The content-only policy merges swarms, so it offloads at least as
        // much as the paper policy under the same matcher and window.
        let by_id = |needle: &str| {
            report
                .outcomes
                .iter()
                .find(|o| o.scenario.id().contains(needle))
                .expect("scenario present")
        };
        let paper = by_id("hierarchical/isp+bitrate/dt10");
        let merged = by_id("hierarchical/content/dt10");
        assert!(merged.offload_share >= paper.offload_share);
        let summary = report.summary().unwrap();
        assert_eq!(summary.scenarios, 8);
    }

    #[test]
    fn json_contains_every_scenario_and_schema() {
        let report = SweepRunner::new(quick_config(4)).unwrap().run();
        let json = report.to_json().render();
        assert!(json.starts_with(r#"{"schema":"consume-local/sweep-v1","seed":11"#));
        for outcome in &report.outcomes {
            assert!(json.contains(&outcome.scenario.id()));
        }
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"workers\":4"));
        let det = report.to_json_deterministic().render();
        assert!(!det.contains("wall_ms"));
        assert!(!det.contains("workers"));
    }

    #[test]
    fn trace_builds_and_phase_timings_surface_in_json() {
        let mut config = quick_config(2);
        config.trace_workers = Some(2);
        let report = SweepRunner::new(config).unwrap().run();
        // One shared build for the single (preset, topology) of ci_quick.
        assert_eq!(report.trace_builds.len(), 1);
        let build = &report.trace_builds[0];
        assert_eq!(build.preset, ScalePreset::Smoke);
        assert_eq!(build.sessions, report.outcomes[0].sessions);
        assert_eq!(build.users, report.outcomes[0].users);
        assert!(build.generate_ms >= 0.0 && build.columnarize_ms >= 0.0);
        let (generate, columnarize, simulate) = report.phase_wall_ms();
        assert_eq!(generate, build.generate_ms);
        assert_eq!(columnarize, build.columnarize_ms);
        assert!(simulate > 0.0);
        let json = report.to_json().render();
        assert!(json.contains("\"phase_wall_ms\":{\"generate\":"));
        assert!(json.contains("\"trace_builds\":[{\"preset\":\"smoke\""));
        assert!(json.contains("\"trace_workers\":2"));
        let det = report.to_json_deterministic().render();
        assert!(!det.contains("phase_wall_ms"));
        assert!(!det.contains("trace_builds"));
        assert!(!det.contains("trace_workers"));
    }

    #[test]
    fn zero_trace_workers_rejected() {
        let mut config = quick_config(2);
        config.trace_workers = Some(0);
        assert_eq!(
            SweepRunner::new(config).unwrap_err(),
            SweepError::ZeroWorkers
        );
    }

    /// A minimal grid exercising both robustness axes: one scenario shape
    /// across churn off/on and full/partial cooperation (4 scenarios,
    /// 2 distinct traces).
    fn robustness_config() -> SweepConfig {
        let mut grid = SweepGrid::paper_point();
        grid.churn_rates = vec![0.0, 2.0];
        grid.cooperation = vec![1.0, 0.7];
        SweepConfig {
            grid,
            seed: 11,
            workers: 2,
            sim_threads: 1,
            trace_workers: None,
        }
    }

    #[test]
    fn churn_axis_expands_ids_and_dedups_traces_by_rate() {
        let runner = SweepRunner::new(robustness_config()).unwrap();
        let ids: Vec<String> = runner.scenarios().iter().map(|s| s.id()).collect();
        assert_eq!(runner.scenarios().len(), 4);
        // Inert axis values leave the id untouched; active ones suffix it.
        assert!(ids[0].ends_with("/dt10/q1"), "{}", ids[0]);
        assert!(ids[1].ends_with("/q1/coop0.7"), "{}", ids[1]);
        assert!(ids[2].ends_with("/q1/churn2"), "{}", ids[2]);
        assert!(ids[3].ends_with("/q1/churn2/coop0.7"), "{}", ids[3]);
        let report = runner.run();
        // Two distinct traces: churn-off and churn-2, each shared by both
        // cooperation levels.
        assert_eq!(report.trace_builds.len(), 2);
        // Churn fragments sessions: the churned trace has more records.
        assert!(report.trace_builds[1].sessions > report.trace_builds[0].sessions);
        // Degradation is monotone on both axes for this point: churn and
        // defection each lose offload.
        let offload = |i: usize| report.outcomes[i].offload_share;
        assert!(offload(1) < offload(0), "defection must lose offload");
        assert!(offload(2) < offload(0), "churn must lose offload");
        // JSON carries the axis fields exactly when the axis is in use.
        let json = report.to_json_deterministic().render();
        assert!(json.contains("\"churn_rate\":2"));
        assert!(json.contains("\"cooperation\":0.7"));
        let plain = SweepRunner::new(quick_config(2)).unwrap().run();
        let plain_json = plain.to_json_deterministic().render();
        assert!(!plain_json.contains("churn_rate"));
        assert!(!plain_json.contains("\"cooperation\""));
    }

    #[test]
    fn invalid_churn_axis_value_is_typed() {
        let mut config = robustness_config();
        config.grid.churn_rates = vec![-1.0];
        let err = SweepRunner::new(config).unwrap_err();
        assert!(
            matches!(err, SweepError::Trace { .. }),
            "unexpected error {err:?}"
        );
        assert!(err.to_string().contains("churn"));
        use std::error::Error;
        assert!(err.source().is_some());

        let mut config = robustness_config();
        config.grid.cooperation = vec![0.0];
        let err = SweepRunner::new(config).unwrap_err();
        assert!(
            matches!(
                err,
                SweepError::Sim {
                    source: SimConfigError::Churn(_),
                    ..
                }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn summary_excludes_unmeasured_scenarios() {
        let mut report = SweepRunner::new(quick_config(4)).unwrap().run();
        let full = report.summary().unwrap();
        assert_eq!(full.scenarios, report.outcomes.len());
        // Blank one scenario out as if its trace had produced no demand:
        // the summary must shrink, not count it as a measured 0 % savings.
        let lowest_id = report.outcomes[full.worst_savings_index].scenario.id();
        report.outcomes[full.worst_savings_index].savings_valancius = None;
        report.outcomes[full.worst_savings_index].demand_bytes = 0;
        let reduced = report.summary().unwrap();
        assert_eq!(reduced.scenarios, report.outcomes.len() - 1);
        assert!(reduced.savings.min > 0.0, "no phantom 0% sample");
        let json = report.to_json().render();
        assert!(json.contains(&format!("\"measured_scenarios\":{}", reduced.scenarios)));
        let worst = &report.outcomes[report.measured().1[reduced.worst_savings_index]];
        assert_ne!(
            worst.scenario.id(),
            lowest_id,
            "extrema re-derived over measured set"
        );
        assert!(worst.savings_valancius.is_some());
    }
}
