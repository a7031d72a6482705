//! The closed-form energy-savings model of *Consume Local* (Section III of
//! the paper) and its carbon-credit extension (Section V).
//!
//! The model answers: *if a traditional CDN is enhanced with peer assistance,
//! what fraction of delivery energy is saved, as a function of how many users
//! concurrently consume each content item?*
//!
//! The building blocks, each its own module:
//!
//! * [`mminf`] — content swarms as M/M/∞ queues: swarm **capacity**
//!   `c = u·r` (Little's law), the probability `p = 1 − e^(−c)` that a swarm
//!   is non-empty, and exact Poisson expectations.
//! * [`offload`] — the fraction `G` of traffic offloadable to peers (Eq. 3):
//!   `G = (q/β)·(c + e^(−c) − 1)/c`.
//! * [`localisation`] — the expected per-window peer-traffic units localised
//!   within each ISP layer, `f(p, c)` (Eq. 11, corrected for a typesetting
//!   defect in the printed form; see the module's erratum note), and the
//!   expected per-bit P2P network intensity `γ_p2p(c)`.
//! * [`savings`] — the master equation for end-to-end savings `S(c)`
//!   (Eq. 12) with its gross/penalty decomposition and asymptote.
//! * [`credits`] — the carbon-credit transfer `CCT` (Eq. 13), the
//!   carbon-neutral offload point `G*` and the Fig. 5 curve family.
//! * [`planning`] — inverse queries for network planning ("what capacity do
//!   I need for X % savings?"), the use case the paper motivates for the
//!   closed form.
//! * [`numeric`] — brute-force Poisson-summation reference implementations,
//!   used by the property tests and available for cross-checking.
//! * [`sweep`] — cross-scenario summarization (distribution summaries,
//!   extrema, degradation curves) for the core crate's scenario sweep
//!   runner.
//!
//! # Example: the paper's headline numbers
//!
//! ```
//! use consume_local_analytics::savings::SavingsModel;
//! use consume_local_energy::EnergyParams;
//! use consume_local_topology::IspTopology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = IspTopology::london_table3()?;
//! let model = SavingsModel::new(EnergyParams::valancius(), &topo, 1.0)?;
//! // A popular item's swarm (capacity ~100) saves close to half the energy:
//! let s = model.savings(100.0);
//! assert!(s > 0.45 && s < 0.50, "got {s}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod credits;
pub mod localisation;
pub mod mminf;
pub mod numeric;
pub mod offload;
pub mod planning;
pub mod savings;
pub mod sweep;

pub use credits::CreditModel;
pub use mminf::{capacity_from_active_mean, SwarmCapacity};
pub use savings::{ModelError, SavingsBreakdown, SavingsModel};
pub use sweep::{DegradationCurve, DegradationPoint, ScenarioSample, SweepSummary};
