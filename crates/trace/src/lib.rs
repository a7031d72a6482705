//! Synthetic catch-up-TV workload generation for the `consume-local`
//! reproduction.
//!
//! The paper's empirical section replays a **proprietary BBC iPlayer trace**
//! (Table I: 3.3 M monthly London users behind 1.5 M IP addresses, 23.5 M
//! sessions in September 2013). That trace is not public, so this crate
//! generates a **statistically matched synthetic workload** instead. The
//! paper's results depend on the trace through per-item concurrency (swarm
//! capacity `c`), its diurnal shape and where viewers sit in the ISP
//! trees, so a generator that matches Table I's marginals and those
//! distributions reproduces the figures' shapes; only the absolute
//! head-swarm sizes shrink with scale (see [`TraceConfig::catalogue_size`]).
//! Every distributional knob the evaluation depends on is explicit in
//! [`TraceConfig`]:
//!
//! * a Zipf-popularity **content catalogue** with genre-typical durations and
//!   broadcast-date view decay ([`content`]);
//! * a **population** of households (≈ 2.2 users per IP, as in Table I)
//!   placed on the ISP trees of the five-ISP London registry, with
//!   Pareto-skewed per-user activity and a per-user *mainstreamness* taste
//!   parameter so that some users genuinely prefer niche content (the users
//!   who stay carbon-negative in Fig. 6) ([`population`]);
//! * **device classes** with the bitrate mix the paper reports (1.5 Mb/s
//!   most common) ([`device`]);
//! * a **diurnal/weekly arrival profile** with the evening prime-time peak
//!   ([`arrival`]);
//! * the [`generator`] that combines them into a time-sorted stream of
//!   [`SessionRecord`]s, deterministically from a seed — and, via
//!   [`TraceGenerator::workers`](generator::TraceGenerator::workers), fans
//!   per-item synthesis across threads with byte-identical output;
//! * a columnar [`store`] ([`SessionStore`]) the simulation engine replays
//!   instead of row records, shared across sweep scenarios — and, for
//!   full-scale runs,
//!   [`TraceGenerator::segments`](generator::TraceGenerator::segments),
//!   which **streams** a trace as one [`SessionStore`] per day
//!   (persistent per-item RNG streams keep the emission byte-identical to
//!   monolithic generation) so peak memory holds a single day;
//! * the [`metro`] composition layer: several city-scale workloads with
//!   disjoint per-city id ranges, streamed day-by-day as one union
//!   ([`MetroTrace::stream`](metro::MetroTrace::stream)) or as per-city
//!   shards for the swarm-sharded engine mode;
//! * [`stats`] to regenerate Table I from any generated trace, and [`io`]
//!   for a simple CSV round-trip format.
//!
//! # Example
//!
//! ```
//! use consume_local_trace::{TraceConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), consume_local_trace::TraceError> {
//! // A 1/1000-scale September-2013 London trace.
//! let config = TraceConfig::london_sep2013().scaled(0.001)?;
//! let trace = TraceGenerator::new(config, 42).generate()?;
//! assert!(trace.sessions().len() > 10_000);
//! // Sessions come out sorted by start time.
//! assert!(trace.sessions().windows(2).all(|w| w[0].start <= w[1].start));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod churn;
pub mod content;
pub mod device;
pub mod generator;
pub mod io;
pub mod live;
pub mod metro;
pub mod popularity;
pub mod population;
pub mod session;
pub mod stats;
pub mod store;
pub mod time;

pub use churn::{ChurnConfig, ChurnConfigError, FlashCrowd};
pub use content::{Catalogue, ContentId, ContentItem};
pub use generator::{
    merge_session_batches, ScalePreset, SegmentStream, Trace, TraceConfig, TraceError,
    TraceGenerator,
};
pub use metro::{MetroConfig, MetroStream, MetroTrace};
pub use popularity::Popularity;
pub use population::{Population, UserId};
pub use session::SessionRecord;
pub use stats::{Table1, TraceStats};
pub use store::{SessionStore, StoreCursor};
pub use time::SimTime;
