//! Simulation configuration.

use std::fmt;

use consume_local_swarm::{MatcherKind, SwarmPolicy};
use consume_local_trace::ChurnConfigError;

/// A violated [`SimConfig`] constraint, reported as a typed error so callers
/// (the experiment builder, the sweep runner) can propagate it without
/// stringly-typed plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimConfigError {
    /// `window_secs` was zero.
    ZeroWindow,
    /// The upload ratio was non-positive or non-finite.
    BadUploadRatio(f64),
    /// The absolute upload bandwidth was zero.
    ZeroUploadBandwidth,
    /// `threads` was zero.
    ZeroThreads,
    /// `threads` exceeded 4 096, the most a snapshot restores.
    TooManyThreads(usize),
    /// `preload_fraction` was outside `[0, 1)`.
    BadPreloadFraction(f64),
    /// `edge_cache.top_items` was zero.
    ZeroCacheItems,
    /// `participation_rate` was outside `(0, 1]`.
    BadParticipationRate(f64),
    /// A churn / fault-injection bound was violated (the simulator's
    /// `cooperation_rate` shares the churn layer's typed validation).
    Churn(ChurnConfigError),
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::ZeroWindow => write!(f, "window_secs must be positive"),
            SimConfigError::BadUploadRatio(r) => {
                write!(f, "upload ratio must be positive, got {r}")
            }
            SimConfigError::ZeroUploadBandwidth => {
                write!(f, "absolute upload bandwidth must be positive")
            }
            SimConfigError::ZeroThreads => write!(f, "threads must be at least 1"),
            SimConfigError::TooManyThreads(n) => {
                write!(f, "threads must be at most {MAX_THREADS}, got {n}")
            }
            SimConfigError::BadPreloadFraction(p) => {
                write!(f, "preload_fraction must be in [0, 1), got {p}")
            }
            SimConfigError::ZeroCacheItems => {
                write!(f, "edge_cache.top_items must be positive")
            }
            SimConfigError::BadParticipationRate(r) => {
                write!(f, "participation_rate must be in (0, 1], got {r}")
            }
            SimConfigError::Churn(e) => write!(f, "churn: {e}"),
        }
    }
}

impl std::error::Error for SimConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimConfigError::Churn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChurnConfigError> for SimConfigError {
    fn from(e: ChurnConfigError) -> Self {
        SimConfigError::Churn(e)
    }
}

/// The most worker threads a [`SimConfig`] may ask for. A snapshot carries
/// its run's configuration and a restore validates it, so a run that
/// validates always resumes from its own snapshot.
pub(crate) const MAX_THREADS: usize = 4096;

/// How much upload bandwidth each peer contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UploadModel {
    /// Upload is a fixed ratio of the peer's own streaming bitrate
    /// (`q = ratio·β`), the paper's `q/β` sweep parameter.
    Ratio(f64),
    /// Upload is an absolute bandwidth in bits per second, identical for all
    /// peers (e.g. the UK 2017 average uplink of ≈ 4.3 Mb/s the paper
    /// cites).
    AbsoluteBps(u32),
}

impl UploadModel {
    /// The per-window upload budget in bytes for a peer streaming at
    /// `bitrate_bps`, over a window of `window_secs`.
    pub fn budget_bytes(&self, bitrate_bps: u32, window_secs: u64) -> u64 {
        match *self {
            UploadModel::Ratio(r) => {
                let q_bps = (f64::from(bitrate_bps) * r.max(0.0)).round();
                (q_bps * window_secs as f64 / 8.0) as u64
            }
            UploadModel::AbsoluteBps(q) => u64::from(q) * window_secs / 8,
        }
    }

    /// The effective `q/β` ratio for a swarm streaming at `bitrate_bps`
    /// (used to parameterise the matching theory curve).
    pub fn ratio_for(&self, bitrate_bps: u32) -> f64 {
        match *self {
            UploadModel::Ratio(r) => r.max(0.0),
            UploadModel::AbsoluteBps(q) => f64::from(q) / f64::from(bitrate_bps.max(1)),
        }
    }
}

impl Default for UploadModel {
    fn default() -> Self {
        UploadModel::Ratio(1.0)
    }
}

/// Configuration of the §VI edge-caching extension: the `top_items` most
/// popular catalogue items are replicated in nano-caches at every exchange
/// point; their non-peer traffic is served from the cache instead of the
/// CDN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCache {
    /// How many head items each exchange point caches.
    pub top_items: u32,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Window length Δτ in seconds (paper: 10 s).
    pub window_secs: u64,
    /// Peer upload capability.
    pub upload: UploadModel,
    /// Sub-swarm partitioning policy.
    pub policy: SwarmPolicy,
    /// The matching strategy.
    pub matcher: MatcherKind,
    /// Seed for matcher randomness (only used by the random matcher).
    pub seed: u64,
    /// Number of worker threads, from 1 (sequential) to 4 096; results are
    /// identical at any count.
    pub threads: usize,
    /// §VI predictive preloading: the fraction of every session's bytes
    /// prefetched from the CDN ahead of playback, in `[0, 1)`. Preloaded
    /// bytes bypass the swarm entirely (they are neither peer-downloadable
    /// nor peer-uploadable). 0 disables the extension (paper behaviour).
    pub preload_fraction: f64,
    /// §VI edge caching, when enabled.
    pub edge_cache: Option<EdgeCache>,
    /// Share of users who contribute upload capacity, in `(0, 1]`.
    ///
    /// The paper's conclusion cites Akamai NetSession, where "as little as
    /// 30 % of its users participate by contributing upload capacity" — the
    /// very gap the carbon-credit incentive is designed to close.
    /// Non-participants still watch (and may still *receive* from peers);
    /// they simply never upload. Membership is a deterministic hash of the
    /// user id, so it is stable across runs and configurations.
    pub participation_rate: f64,
    /// Probability that a matched uploader actually delivers its window's
    /// bytes, in `(0, 1]`. `1.0` (the default) disables fault injection.
    ///
    /// Below 1.0, peers *silently defect*: the matching still happens, but
    /// a defecting uploader's transfers fail for that window and the
    /// receivers fall back to the CDN (or edge cache). Defections are a
    /// deterministic hash of `(swarm, user, window)` — a dedicated indexed
    /// stream independent of thread schedule — and the lost volume is
    /// surfaced in `SimReport::degradation`.
    pub cooperation_rate: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            window_secs: 10,
            upload: UploadModel::default(),
            policy: SwarmPolicy::paper_default(),
            matcher: MatcherKind::Hierarchical,
            seed: 0,
            threads: num_threads_default(),
            preload_fraction: 0.0,
            edge_cache: None,
            participation_rate: 1.0,
            cooperation_rate: 1.0,
        }
    }
}

impl SimConfig {
    /// The paper's configuration with a specific `q/β` ratio.
    pub fn with_ratio(ratio: f64) -> Self {
        Self {
            upload: UploadModel::Ratio(ratio),
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`SimConfigError`].
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.window_secs == 0 {
            return Err(SimConfigError::ZeroWindow);
        }
        match self.upload {
            UploadModel::Ratio(r) if !r.is_finite() || r <= 0.0 => {
                return Err(SimConfigError::BadUploadRatio(r));
            }
            UploadModel::AbsoluteBps(0) => {
                return Err(SimConfigError::ZeroUploadBandwidth);
            }
            _ => {}
        }
        if self.threads == 0 {
            return Err(SimConfigError::ZeroThreads);
        }
        if self.threads > MAX_THREADS {
            return Err(SimConfigError::TooManyThreads(self.threads));
        }
        if !(0.0..1.0).contains(&self.preload_fraction) {
            return Err(SimConfigError::BadPreloadFraction(self.preload_fraction));
        }
        if let Some(cache) = self.edge_cache {
            if cache.top_items == 0 {
                return Err(SimConfigError::ZeroCacheItems);
            }
        }
        if !self.participation_rate.is_finite()
            || self.participation_rate <= 0.0
            || self.participation_rate > 1.0
        {
            return Err(SimConfigError::BadParticipationRate(
                self.participation_rate,
            ));
        }
        if !self.cooperation_rate.is_finite()
            || self.cooperation_rate <= 0.0
            || self.cooperation_rate > 1.0
        {
            return Err(SimConfigError::Churn(
                ChurnConfigError::BadCooperationProbability(self.cooperation_rate),
            ));
        }
        Ok(())
    }

    /// The workspace's default worker-thread count: available parallelism
    /// capped at 16 (also the sweep runner's default fan-out width).
    pub fn default_threads() -> usize {
        num_threads_default()
    }
}

fn num_threads_default() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_budget() {
        // 1.5 Mb/s × ratio 0.6 over 10 s = 1 125 000 bytes.
        let m = UploadModel::Ratio(0.6);
        assert_eq!(m.budget_bytes(1_500_000, 10), 1_125_000);
        assert!((m.ratio_for(1_500_000) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn absolute_budget() {
        let m = UploadModel::AbsoluteBps(4_300_000);
        assert_eq!(m.budget_bytes(1_500_000, 10), 4_300_000 * 10 / 8);
        assert!((m.ratio_for(1_500_000) - 4.3 / 1.5).abs() < 1e-9);
        // Ratio guards against zero bitrate.
        assert!(m.ratio_for(0).is_finite());
    }

    #[test]
    fn negative_ratio_clamps_to_zero_budget() {
        let m = UploadModel::Ratio(-1.0);
        assert_eq!(m.budget_bytes(1_500_000, 10), 0);
        assert_eq!(m.ratio_for(9), 0.0);
    }

    #[test]
    fn default_is_paper_config() {
        let c = SimConfig::default();
        assert_eq!(c.window_secs, 10);
        assert_eq!(c.upload, UploadModel::Ratio(1.0));
        assert_eq!(c.policy, SwarmPolicy::paper_default());
        assert!(c.threads >= 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let c = SimConfig {
            window_secs: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            upload: UploadModel::Ratio(0.0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            upload: UploadModel::AbsoluteBps(0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            threads: MAX_THREADS + 1,
            ..Default::default()
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err.to_string(), "threads must be at most 4096, got 4097");
        let c = SimConfig {
            preload_fraction: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            edge_cache: Some(EdgeCache { top_items: 0 }),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            participation_rate: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            participation_rate: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let c = SimConfig {
                cooperation_rate: bad,
                ..Default::default()
            };
            let err = c.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    SimConfigError::Churn(ChurnConfigError::BadCooperationProbability(_))
                ),
                "cooperation_rate {bad} should fail with a churn error, got {err}"
            );
            assert!(err.to_string().starts_with("churn: "));
        }
    }

    #[test]
    fn with_ratio_sets_upload() {
        let c = SimConfig::with_ratio(0.4);
        assert_eq!(c.upload, UploadModel::Ratio(0.4));
    }
}
