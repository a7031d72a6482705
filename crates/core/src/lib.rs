//! **consume-local**: carbon-aware peer-assisted content delivery — a
//! complete reproduction of *"Consume Local: Towards Carbon Free Content
//! Delivery"* (Raman, Karamshuk, Sastry, Secker, Chandaria — IEEE ICDCS
//! 2018).
//!
//! The paper shows that a CDN which lets nearby viewers stream from each
//! other ("consume local") cuts the end-to-end carbon footprint of online
//! video by 24–48 %, and that transferring the CDN's saved server energy to
//! uploading users as *carbon credits* makes most users' streaming carbon
//! free. This crate ties the workspace together:
//!
//! | module | contents |
//! |---|---|
//! | [`energy`] | per-bit energy models (Valancius / Baliga, Table IV) |
//! | [`topology`] | ISP metro trees and localisation probabilities (Table III) |
//! | [`analytics`] | the closed-form model: offload `G`, savings `S(c)` (Eq. 12), credits (Eq. 13) |
//! | [`trace`] | synthetic iPlayer-scale workload generation (Table I) |
//! | [`swarm`] | managed swarms: policies and closest-first matching |
//! | [`sim`] | the Δτ-window trace-driven simulator |
//! | [`carbon`] | per-user carbon statements and population reports |
//! | [`experiment`] | one-call orchestration: trace → simulation → reports |
//! | [`sweep`] | declarative parameter-grid sweeps fanned across threads |
//! | [`figures`] | regeneration of every table and figure in the paper |
//! | [`ascii`] | terminal rendering of series and tables |
//! | [`export`] | CSV/JSON export of figure and sweep data |
//!
//! # Quickstart
//!
//! ```
//! use consume_local::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let exp = Experiment::builder()
//!     .scale(0.0005)       // 1/2000 of London's September 2013
//!     .seed(42)
//!     .build()?;
//! let savings = exp.report().total_savings(&EnergyParams::valancius()).unwrap();
//! println!("system-wide energy savings: {:.1}%", savings * 100.0);
//! assert!(savings > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ascii;
pub mod error;
pub mod experiment;
pub mod export;
pub mod figures;
pub mod sweep;

pub use error::Error;

/// The closed-form analytical model (re-export of `consume-local-analytics`).
pub mod analytics {
    pub use consume_local_analytics::*;
}

/// Carbon-credit accounting (re-export of `consume-local-carbon`).
pub mod carbon {
    pub use consume_local_carbon::*;
}

/// Per-bit energy models (re-export of `consume-local-energy`).
pub mod energy {
    pub use consume_local_energy::*;
}

/// The trace-driven simulator (re-export of `consume-local-sim`).
pub mod sim {
    pub use consume_local_sim::*;
}

/// Statistical utilities (re-export of `consume-local-stats`).
pub mod stats {
    pub use consume_local_stats::*;
}

/// Managed swarm substrate (re-export of `consume-local-swarm`).
pub mod swarm {
    pub use consume_local_swarm::*;
}

/// ISP topology model (re-export of `consume-local-topology`).
pub mod topology {
    pub use consume_local_topology::*;
}

/// Workload generation (re-export of `consume-local-trace`).
pub mod trace {
    pub use consume_local_trace::*;
}

/// The most commonly used types in one import.
pub mod prelude {
    pub use crate::analytics::{CreditModel, SavingsModel, SwarmCapacity};
    pub use crate::carbon::{CarbonStatement, CarbonStatus, CreditReport, GridIntensity};
    pub use crate::energy::{CostModel, EnergyParams, ModelKind};
    pub use crate::error::Error;
    pub use crate::experiment::{Experiment, ExperimentBuilder, ExperimentError};
    pub use crate::sim::{
        CheckpointCadence, CheckpointError, CheckpointPolicy, Checkpointer, DayClose, Degradation,
        SessionSource, SimConfig, SimReport, SimWarning, Simulator, UploadModel,
    };
    pub use crate::swarm::{MatcherKind, SwarmPolicy};
    pub use crate::sweep::{SweepConfig, SweepGrid, SweepReport, SweepRunner};
    pub use crate::topology::{IspId, IspRegistry, IspTopology, Layer};
    pub use crate::trace::{
        ChurnConfig, FlashCrowd, ScalePreset, SessionStore, Trace, TraceConfig, TraceGenerator,
    };
}
