//! Statistical substrate for the `consume-local` workspace.
//!
//! The workspace deliberately keeps its dependency footprint small, so the
//! random-variate machinery that a crate like `rand_distr` would normally
//! provide is implemented (and property-tested) here:
//!
//! * [`dist`] — seeded samplers for the distributions the workload generator
//!   and the M/M/∞ swarm model need: [`dist::Poisson`], [`dist::Exponential`],
//!   [`dist::Zipf`], [`dist::LogNormal`], [`dist::Pareto`] and a Walker-alias
//!   [`dist::Categorical`].
//! * [`edf`] — empirical distribution functions (CDF/CCDF/quantiles), used to
//!   reproduce the distribution figures of the paper (Figs. 3 and 6).
//! * [`summary`] — batch summary statistics (mean, spread, quartiles).
//! * [`grid`] — linear and logarithmic sweep grids for parameter sweeps.
//! * [`rng`] — a deterministic seed-derivation helper so that independent
//!   simulation components get independent, reproducible RNG streams.
//! * [`par`] — the slot-ordered `parallel_map` every parallel layer of the
//!   workspace (trace generation, the sim engine, sweeps) fans out with.
//!
//! # Example
//!
//! ```
//! use consume_local_stats::dist::{Distribution, Poisson};
//! use consume_local_stats::rng::SeedDerive;
//!
//! # fn main() -> Result<(), consume_local_stats::dist::DistError> {
//! let mut rng = SeedDerive::new(42).stream("example");
//! let poisson = Poisson::new(3.0)?;
//! let draw = poisson.sample(&mut rng);
//! assert!(draw < 1000.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod edf;
pub mod grid;
pub mod par;
pub mod rng;
pub mod summary;

pub use dist::{DistError, Distribution};
pub use edf::Edf;
pub use rng::SeedDerive;
pub use summary::Summary;
