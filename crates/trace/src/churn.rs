//! Deterministic churn & fault injection for synthesized sessions.
//!
//! The paper's trace model assumes a viewer who starts a programme stays
//! online for its whole duration. Real set-top peers leave mid-session
//! (power, network, app switches), sometimes come back after a delay, and
//! whole swarms see flash-crowd arrival spikes. [`ChurnConfig`] injects all
//! three while preserving the workspace's determinism contract: every draw
//! comes from the *per-item* RNG stream immediately after the session it
//! fragments, so monolithic generation, segmented generation at any worker
//! count, and the online replay path all see byte-identical traces.
//!
//! The availability model is a renewal process in integer seconds:
//!
//! * online spells are exponential with mean `3600 / departure_rate_per_hour`
//!   seconds (a per-hour hazard, like EcNode's lifecycle simulator);
//! * after a mid-session departure the viewer rejoins with probability
//!   [`rejoin_probability`](ChurnConfig::rejoin_probability) after an
//!   exponential gap with mean
//!   [`mean_rejoin_delay_secs`](ChurnConfig::mean_rejoin_delay_secs);
//! * each spell and gap is rounded up to at least one second, which makes
//!   the process terminate and keeps the emitted intervals disjoint.
//!
//! With `ChurnConfig::default()` the layer is inert: no RNG draws happen and
//! the generated trace is byte-identical to a build without the layer.

use std::fmt;

use rand::Rng;

/// An arrival spike pinned to one simulated day: the per-item Poisson rate
/// for `day` is multiplied by `multiplier` (e.g. 3.0 for a 3× flash crowd).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Day index (0-based) the spike applies to.
    pub day: u32,
    /// Arrival-rate multiplier for that day; must be finite and positive.
    pub multiplier: f64,
}

/// Churn & fault-injection parameters for the trace generator.
///
/// The default is fully disabled (zero departure hazard, no flash crowds)
/// and draws nothing from the RNG streams, so traces generated with the
/// default are byte-identical to pre-churn output.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Mid-session departure hazard, in expected departures per online
    /// hour. `0.0` disables fragmentation; must be finite and ≥ 0.
    pub departure_rate_per_hour: f64,
    /// Probability that a departed viewer rejoins the same session after a
    /// delay instead of abandoning it. Must be within `[0, 1]`.
    pub rejoin_probability: f64,
    /// Mean of the exponential rejoin delay, in seconds. Must be finite
    /// and ≥ 0 (delays are rounded up to at least one second).
    pub mean_rejoin_delay_secs: f64,
    /// Flash-crowd arrival spikes, at most one effective multiplier per
    /// day (multiple entries for one day multiply together).
    pub flash_crowds: Vec<FlashCrowd>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            departure_rate_per_hour: 0.0,
            rejoin_probability: 0.0,
            mean_rejoin_delay_secs: 600.0,
            flash_crowds: Vec::new(),
        }
    }
}

impl ChurnConfig {
    /// The canonical churn point for degradation sweeps: `rate` departures
    /// per online hour, 60% rejoin probability, 10-minute mean rejoin
    /// delay, no flash crowds. `rate == 0.0` yields a disabled config.
    pub fn degradation_axis(rate: f64) -> Self {
        Self {
            departure_rate_per_hour: rate,
            rejoin_probability: if rate > 0.0 { 0.6 } else { 0.0 },
            mean_rejoin_delay_secs: 600.0,
            flash_crowds: Vec::new(),
        }
    }

    /// Whether any part of the layer is active (fragmentation or flash
    /// crowds). Inactive configs draw nothing from the RNG streams.
    pub fn enabled(&self) -> bool {
        self.departure_rate_per_hour > 0.0 || !self.flash_crowds.is_empty()
    }

    /// Whether sessions are fragmented into availability intervals.
    pub fn fragments(&self) -> bool {
        self.departure_rate_per_hour > 0.0
    }

    /// The arrival-rate multiplier for `day` (product of all matching
    /// flash crowds; `1.0` when none match).
    pub fn flash_multiplier(&self, day: u32) -> f64 {
        self.flash_crowds
            .iter()
            .filter(|f| f.day == day)
            .map(|f| f.multiplier)
            .product()
    }

    /// Validates every field, returning the first violation.
    pub fn validate(&self) -> Result<(), ChurnConfigError> {
        let r = self.departure_rate_per_hour;
        if !r.is_finite() || r < 0.0 {
            return Err(ChurnConfigError::BadDepartureRate(r));
        }
        let p = self.rejoin_probability;
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(ChurnConfigError::BadRejoinProbability(p));
        }
        let d = self.mean_rejoin_delay_secs;
        if !d.is_finite() || d < 0.0 {
            return Err(ChurnConfigError::BadRejoinDelay(d));
        }
        for f in &self.flash_crowds {
            if !f.multiplier.is_finite() || f.multiplier <= 0.0 {
                return Err(ChurnConfigError::BadFlashMultiplier(f.multiplier));
            }
        }
        Ok(())
    }

    /// Fragments a session of `duration_secs` into disjoint availability
    /// intervals `(offset_secs, length_secs)`, ordered by offset, with the
    /// union contained in `[0, duration_secs)`.
    ///
    /// With fragmentation disabled this returns the whole session as one
    /// interval *without touching the RNG*; otherwise the number of draws
    /// depends only on the RNG stream and this config, never on worker
    /// count or segmentation, which is what keeps churned traces
    /// byte-identical across generation paths.
    pub fn availability_intervals<R: Rng + ?Sized>(
        &self,
        duration_secs: u32,
        rng: &mut R,
    ) -> Vec<(u32, u32)> {
        if !self.fragments() {
            return vec![(0, duration_secs)];
        }
        let mean_online_secs = 3600.0 / self.departure_rate_per_hour;
        let duration = u64::from(duration_secs);
        let mut out = Vec::new();
        let mut t = 0u64;
        while t < duration {
            let online = exp_secs(rng, mean_online_secs);
            let end = (t + online).min(duration);
            out.push((t as u32, (end - t) as u32));
            if end >= duration {
                break;
            }
            // Departed mid-session: one coin decides abandonment, drawn
            // even at probability 0/1 so the draw count is config-shaped.
            let coin: f64 = rng.gen();
            if coin >= self.rejoin_probability {
                break;
            }
            t = end + exp_secs(rng, self.mean_rejoin_delay_secs);
        }
        out
    }
}

/// One exponential draw with the given mean, rounded up to a whole second
/// and at least 1 s (so availability renewals always make progress).
fn exp_secs<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]; ln of it is finite or -inf only at u == 1.0,
    // which `gen` never returns.
    let secs = -(1.0 - u).ln() * mean;
    if secs.is_finite() {
        (secs.ceil() as u64).max(1)
    } else {
        u64::MAX / 4
    }
}

/// A [`ChurnConfig`] field violated its bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnConfigError {
    /// `departure_rate_per_hour` was negative or non-finite.
    BadDepartureRate(f64),
    /// `rejoin_probability` was outside `[0, 1]` or non-finite.
    BadRejoinProbability(f64),
    /// `mean_rejoin_delay_secs` was negative or non-finite.
    BadRejoinDelay(f64),
    /// A flash-crowd multiplier was non-positive or non-finite.
    BadFlashMultiplier(f64),
    /// A cooperation probability (simulator side) was outside `(0, 1]` or
    /// non-finite.
    BadCooperationProbability(f64),
}

impl fmt::Display for ChurnConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadDepartureRate(v) => {
                write!(
                    f,
                    "departure_rate_per_hour must be finite and >= 0, got {v}"
                )
            }
            Self::BadRejoinProbability(v) => {
                write!(f, "rejoin_probability must be within [0, 1], got {v}")
            }
            Self::BadRejoinDelay(v) => {
                write!(f, "mean_rejoin_delay_secs must be finite and >= 0, got {v}")
            }
            Self::BadFlashMultiplier(v) => {
                write!(f, "flash-crowd multiplier must be finite and > 0, got {v}")
            }
            Self::BadCooperationProbability(v) => {
                write!(f, "cooperation probability must be within (0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for ChurnConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_is_disabled_and_draws_nothing() {
        let config = ChurnConfig::default();
        assert!(!config.enabled());
        assert!(!config.fragments());
        assert_eq!(config.flash_multiplier(3), 1.0);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(config.availability_intervals(1800, &mut a), vec![(0, 1800)]);
        // The RNG must be untouched: both streams still agree.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn degradation_axis_zero_is_default_shape() {
        let zero = ChurnConfig::degradation_axis(0.0);
        assert!(!zero.enabled());
        assert!(zero.validate().is_ok());
        let hot = ChurnConfig::degradation_axis(2.0);
        assert!(hot.fragments());
        assert_eq!(hot.rejoin_probability, 0.6);
        assert!(hot.validate().is_ok());
    }

    #[test]
    fn validation_rejects_out_of_range_fields() {
        let bad = |c: ChurnConfig| c.validate().unwrap_err();
        assert!(matches!(
            bad(ChurnConfig {
                departure_rate_per_hour: -1.0,
                ..Default::default()
            }),
            ChurnConfigError::BadDepartureRate(_)
        ));
        assert!(matches!(
            bad(ChurnConfig {
                rejoin_probability: 1.5,
                ..Default::default()
            }),
            ChurnConfigError::BadRejoinProbability(_)
        ));
        assert!(matches!(
            bad(ChurnConfig {
                mean_rejoin_delay_secs: f64::NAN,
                ..Default::default()
            }),
            ChurnConfigError::BadRejoinDelay(_)
        ));
        assert!(matches!(
            bad(ChurnConfig {
                flash_crowds: vec![FlashCrowd {
                    day: 0,
                    multiplier: 0.0
                }],
                ..Default::default()
            }),
            ChurnConfigError::BadFlashMultiplier(_)
        ));
        assert!(ChurnConfigError::BadCooperationProbability(0.0)
            .to_string()
            .contains("(0, 1]"));
    }

    #[test]
    fn flash_multipliers_compose_per_day() {
        let config = ChurnConfig {
            flash_crowds: vec![
                FlashCrowd {
                    day: 2,
                    multiplier: 3.0,
                },
                FlashCrowd {
                    day: 2,
                    multiplier: 2.0,
                },
                FlashCrowd {
                    day: 5,
                    multiplier: 1.5,
                },
            ],
            ..Default::default()
        };
        assert!(config.enabled());
        assert!(!config.fragments());
        assert_eq!(config.flash_multiplier(2), 6.0);
        assert_eq!(config.flash_multiplier(5), 1.5);
        assert_eq!(config.flash_multiplier(0), 1.0);
    }

    fn assert_intervals_cover(duration: u32, intervals: &[(u32, u32)]) {
        let mut prev_end = 0u64;
        for (i, &(off, len)) in intervals.iter().enumerate() {
            assert!(len > 0, "interval {i} is empty");
            if i > 0 {
                assert!(u64::from(off) >= prev_end, "interval {i} overlaps");
            }
            prev_end = u64::from(off) + u64::from(len);
            assert!(
                prev_end <= u64::from(duration),
                "interval {i} exceeds the session"
            );
        }
    }

    #[test]
    fn fragmentation_is_disjoint_in_order_and_bounded() {
        let config = ChurnConfig {
            departure_rate_per_hour: 4.0,
            rejoin_probability: 0.7,
            mean_rejoin_delay_secs: 120.0,
            flash_crowds: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(42);
        for duration in [60u32, 1800, 7200] {
            for _ in 0..50 {
                let intervals = config.availability_intervals(duration, &mut rng);
                assert!(!intervals.is_empty());
                assert_eq!(intervals[0].0, 0, "first interval starts at t=0");
                assert_intervals_cover(duration, &intervals);
            }
        }
    }

    #[test]
    fn fragmentation_is_deterministic_per_stream() {
        let config = ChurnConfig::degradation_axis(3.0);
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..32)
                .map(|_| config.availability_intervals(3600, &mut rng))
                .collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..32)
                .map(|_| config.availability_intervals(3600, &mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Coverage conservation: fragments are a disjoint, ordered
            // subset of the original session, for any valid config.
            #[test]
            fn prop_fragments_conserve_coverage(
                rate_tenths in 1u64..=100,
                rejoin_pct in 0u64..=100,
                delay_secs in 1u64..=3_600,
                duration in 1u32..=14_400,
                seed in 0u64..200,
            ) {
                let config = ChurnConfig {
                    departure_rate_per_hour: rate_tenths as f64 / 10.0,
                    rejoin_probability: rejoin_pct as f64 / 100.0,
                    mean_rejoin_delay_secs: delay_secs as f64,
                    flash_crowds: Vec::new(),
                };
                prop_assert!(config.validate().is_ok());
                let mut rng = StdRng::seed_from_u64(seed);
                let intervals = config.availability_intervals(duration, &mut rng);
                // The viewer is online when the session starts.
                prop_assert!(!intervals.is_empty());
                prop_assert_eq!(intervals[0].0, 0);
                // Disjoint, in order, union within [0, duration): the
                // fragments never claim time the session did not have.
                let mut prev_end = 0u64;
                let mut covered = 0u64;
                for (i, &(off, len)) in intervals.iter().enumerate() {
                    prop_assert!(len > 0, "interval {} empty", i);
                    prop_assert!(u64::from(off) >= prev_end, "interval {} overlaps", i);
                    prev_end = u64::from(off) + u64::from(len);
                    covered += u64::from(len);
                    prop_assert!(prev_end <= u64::from(duration));
                }
                prop_assert!(covered <= u64::from(duration));
                // Same stream, same config: byte-identical fragmentation.
                let mut again = StdRng::seed_from_u64(seed);
                prop_assert_eq!(
                    intervals,
                    config.availability_intervals(duration, &mut again)
                );
            }
        }
    }

    #[test]
    fn no_rejoin_means_single_truncated_interval() {
        let config = ChurnConfig {
            departure_rate_per_hour: 60.0,
            rejoin_probability: 0.0,
            mean_rejoin_delay_secs: 600.0,
            flash_crowds: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let intervals = config.availability_intervals(3600, &mut rng);
            assert_eq!(intervals.len(), 1, "no rejoin: exactly one interval");
            assert_eq!(intervals[0].0, 0);
            assert!(intervals[0].1 <= 3600);
        }
    }
}
