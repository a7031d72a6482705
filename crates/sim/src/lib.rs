//! The trace-driven hybrid-CDN simulator (Section IV of the paper).
//!
//! The engine replays a session trace in fixed windows of `Δτ` (10 s in the
//! paper): for every window of every sub-swarm it counts the online peers,
//! lets the managed matcher assign peer uploads closest-first, and accounts
//! every byte as either CDN-served or peer-served at a specific topology
//! layer. Energy is *not* fixed at simulation time: the engine records byte
//! ledgers, and any [`EnergyParams`](consume_local_energy::EnergyParams) set
//! can be evaluated against them afterwards — one simulation run prices both
//! the Valancius and Baliga models.
//!
//! * [`config`] — simulation parameters (window, upload model, policy,
//!   matcher);
//! * [`ledger`] — byte ledgers and their energy/savings evaluation;
//! * [`source`] — the [`SessionSource`] abstraction: watermarked,
//!   start-ordered session batches, implemented by every feeding mode
//!   (whole trace, shared columnar store, a streaming per-day generator,
//!   or the live online channel);
//! * [`engine`] — the discrete time-step engine, sequential or parallel
//!   (thread-sharded across sub-swarms, deterministic regardless of
//!   thread count). [`Simulator::simulate`] is the single entry point: it
//!   consumes any [`SessionSource`] and produces the same byte-identical
//!   [`SimReport`] whether the sessions arrived as one monolithic batch,
//!   day segments, or a live stream (a session straddling a batch boundary
//!   stays in the active set of its swarm's resumable window loop in
//!   [`SegmentedRun`]);
//! * [`online`] — the live ingest front-end: a bounded backpressured
//!   channel of arriving sessions, watermark-driven day closes, the
//!   [`replay`](online::replay) driver that feeds an existing store
//!   through the channel, and the [`online::faults`] deterministic
//!   crash-recovery harness;
//! * [`shard`] — swarm-sharded runs: disjoint shards (e.g. the metro
//!   presets' per-city streams) simulated one at a time and folded through
//!   the commutative [`merge_shard_reports`], byte-identical to the
//!   unsharded run while only one shard's engine state is resident;
//! * [`checkpoint`] — crash-safe snapshots: the versioned binary format,
//!   checkpoint cadence policies and the atomic write/rename protocol
//!   behind [`SegmentedRun::checkpoint`] / [`Simulator::resume`];
//! * [`report`] — per-swarm, per-day×ISP, per-user and total results,
//!   including theory-vs-simulation comparison points (Fig. 2 dots) and
//!   structured [`SimWarning`]s.
//!
//! # Example
//!
//! ```
//! use consume_local_sim::{SimConfig, Simulator};
//! use consume_local_trace::{TraceConfig, TraceGenerator};
//! use consume_local_energy::EnergyParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = TraceGenerator::new(
//!     TraceConfig::london_sep2013().scaled(0.0005)?, 7).generate()?;
//! let report = Simulator::new(SimConfig::default()).simulate(&trace);
//! let savings = report.total_savings(&EnergyParams::valancius()).unwrap();
//! assert!(savings > 0.0 && savings < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod ledger;
pub mod online;
pub mod par;
pub mod report;
pub mod shard;
pub mod source;

pub use checkpoint::{CheckpointCadence, CheckpointError, CheckpointPolicy, Checkpointer};
pub use config::{EdgeCache, SimConfig, SimConfigError, UploadModel};
pub use engine::{DayClose, SegmentedRun, Simulator};
pub use ledger::ByteLedger;
pub use online::{OnlineError, OnlineSender, OnlineSource, ReplayConfig, ReplayStats};
pub use report::{
    DailyIspCell, Degradation, SimReport, SimWarning, SwarmDay, SwarmReport, UserTraffic,
};
pub use shard::{merge_shard_reports, ShardError};
pub use source::SessionSource;
