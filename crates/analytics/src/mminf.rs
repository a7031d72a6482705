//! Content swarms as M/M/∞ queues.
//!
//! Following Menasche et al. (and Section III-B of the paper), a content
//! swarm is an M/M/∞ queue: viewers arrive in a Poisson stream of rate `r`,
//! watch for an average duration `u`, and are "served" instantly by the
//! swarm. By Little's law the average number of concurrent viewers — the
//! **swarm capacity** — is `c = u·r`, and the stationary number of viewers is
//! Poisson-distributed with mean `c`.

use std::fmt;

/// The capacity `c` of a content swarm: the long-run average number of
/// concurrent viewers.
///
/// # Example
///
/// ```
/// use consume_local_analytics::SwarmCapacity;
///
/// // 1800-second shows starting every 60 seconds on average:
/// let c = SwarmCapacity::from_rate_and_duration(1.0 / 60.0, 1800.0).unwrap();
/// assert!((c.value() - 30.0).abs() < 1e-12);
/// assert!(c.probability_online() > 0.999_999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SwarmCapacity(f64);

/// Error constructing a [`SwarmCapacity`] from invalid inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityError {
    what: &'static str,
    value: f64,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid swarm capacity input: {} = {}",
            self.what, self.value
        )
    }
}

impl std::error::Error for CapacityError {}

impl SwarmCapacity {
    /// Wraps a capacity value directly (`c ≥ 0`, finite).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] for negative or non-finite values.
    pub fn new(c: f64) -> Result<Self, CapacityError> {
        if c.is_finite() && c >= 0.0 {
            Ok(Self(c))
        } else {
            Err(CapacityError {
                what: "c",
                value: c,
            })
        }
    }

    /// Little's law: `c = u·r` from an arrival rate `r` (viewers per second)
    /// and mean session duration `u` (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] when either input is negative or
    /// non-finite.
    pub fn from_rate_and_duration(rate: f64, mean_duration: f64) -> Result<Self, CapacityError> {
        if !rate.is_finite() || rate < 0.0 {
            return Err(CapacityError {
                what: "rate",
                value: rate,
            });
        }
        if !mean_duration.is_finite() || mean_duration < 0.0 {
            return Err(CapacityError {
                what: "mean_duration",
                value: mean_duration,
            });
        }
        Self::new(rate * mean_duration)
    }

    /// Capacity measured empirically from a trace: total watch-time of all
    /// sessions divided by the observation horizon.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] for a non-positive or non-finite horizon or
    /// a negative/non-finite watch-time total.
    pub fn from_watch_time(
        total_watch_seconds: f64,
        horizon_seconds: f64,
    ) -> Result<Self, CapacityError> {
        if !horizon_seconds.is_finite() || horizon_seconds <= 0.0 {
            return Err(CapacityError {
                what: "horizon_seconds",
                value: horizon_seconds,
            });
        }
        if !total_watch_seconds.is_finite() || total_watch_seconds < 0.0 {
            return Err(CapacityError {
                what: "total_watch_seconds",
                value: total_watch_seconds,
            });
        }
        Self::new(total_watch_seconds / horizon_seconds)
    }

    /// The raw capacity value `c`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// `p = 1 − e^(−c)`: the stationary probability that at least one viewer
    /// is online (an M/M/∞ result the paper uses for the "fresh copy" term).
    pub fn probability_online(self) -> f64 {
        -(-self.0).exp_m1()
    }

    /// `P(L = k)` for the stationary Poisson viewer count.
    pub fn viewer_count_pmf(self, k: u64) -> f64 {
        if self.0 == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        consume_local_stats::dist::Poisson::new(self.0)
            .expect("capacity validated positive")
            .pmf(k)
    }

    /// `E[max(L − 1, 0)] = c − 1 + e^(−c)`: the expected number of
    /// peer-upload "slots" per window — the quantity the paper calls
    /// `c − p`.
    ///
    /// Evaluated as `c + expm1(−c)` which is accurate down to `c → 0`
    /// (where it behaves as `c²/2`).
    pub fn expected_upload_slots(self) -> f64 {
        self.0 + (-self.0).exp_m1()
    }
}

impl fmt::Display for SwarmCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c={}", self.0)
    }
}

/// Recovers the M/M/∞ capacity `c` from the mean occupancy measured **while
/// the swarm is non-empty**, `L̄ = c / (1 − e^(−c))`.
///
/// Real traces are non-stationary (prime-time peaks, broadcast decay), so a
/// swarm's month-averaged occupancy understates the concurrency viewers
/// actually experience. Matching simulation dots against the stationary
/// theory curve (Fig. 2) is fair in the *while-active* metric; this inverts
/// it back to the `c` axis the curves are drawn on. For a truly stationary
/// M/M/∞ swarm the transform is exact.
///
/// Returns 0 for `l_bar ≤ 1` (the while-active mean can never be below 1).
pub fn capacity_from_active_mean(l_bar: f64) -> f64 {
    if !l_bar.is_finite() || l_bar <= 1.0 {
        return 0.0;
    }
    // c / (1 − e^(−c)) is monotone increasing from 1 (c→0) to ∞; for
    // c ≳ 30 it equals c to machine precision.
    if l_bar > 30.0 {
        return l_bar;
    }
    let f = |c: f64| c / -(-c).exp_m1();
    let (mut lo, mut hi) = (1e-12f64, 60.0f64);
    // A step that leaves `(lo, hi)` unchanged leaves it unchanged for every
    // later step too, so stopping there returns the bits of all 100 steps.
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        let end = if f(mid) < l_bar { &mut lo } else { &mut hi };
        if *end == mid {
            break;
        }
        *end = mid;
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn littles_law() {
        let c = SwarmCapacity::from_rate_and_duration(0.5, 10.0).unwrap();
        assert_eq!(c.value(), 5.0);
    }

    #[test]
    fn from_watch_time() {
        // 100 sessions of 1800 s over a 30-day month.
        let c = SwarmCapacity::from_watch_time(100.0 * 1800.0, 30.0 * 86_400.0).unwrap();
        assert!((c.value() - 0.069_44).abs() < 1e-4);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(SwarmCapacity::new(-1.0).is_err());
        assert!(SwarmCapacity::new(f64::NAN).is_err());
        assert!(SwarmCapacity::from_rate_and_duration(-0.1, 1.0).is_err());
        assert!(SwarmCapacity::from_rate_and_duration(0.1, f64::INFINITY).is_err());
        assert!(SwarmCapacity::from_watch_time(10.0, 0.0).is_err());
        let err = SwarmCapacity::from_watch_time(-1.0, 10.0).unwrap_err();
        assert!(err.to_string().contains("total_watch_seconds"));
    }

    #[test]
    fn probability_online_limits() {
        assert_eq!(SwarmCapacity::new(0.0).unwrap().probability_online(), 0.0);
        let large = SwarmCapacity::new(100.0).unwrap().probability_online();
        assert!(large > 0.999_999_999);
        let small = SwarmCapacity::new(1e-9).unwrap().probability_online();
        assert!(
            (small - 1e-9).abs() < 1e-15,
            "p ≈ c for small c, got {small}"
        );
    }

    #[test]
    fn upload_slots_identity() {
        for c in [0.0, 1e-8, 0.1, 1.0, 5.0, 50.0] {
            let cap = SwarmCapacity::new(c).unwrap();
            let direct = c - cap.probability_online();
            assert!((cap.expected_upload_slots() - direct).abs() < 1e-12);
            assert!(cap.expected_upload_slots() >= 0.0);
        }
    }

    #[test]
    fn upload_slots_small_c_series() {
        let c = 1e-6;
        let slots = SwarmCapacity::new(c).unwrap().expected_upload_slots();
        assert!((slots - c * c / 2.0).abs() < 1e-18, "got {slots}");
    }

    #[test]
    fn pmf_sums_to_one_and_handles_zero() {
        let cap = SwarmCapacity::new(3.7).unwrap();
        let total: f64 = (0..100).map(|k| cap.viewer_count_pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let zero = SwarmCapacity::new(0.0).unwrap();
        assert_eq!(zero.viewer_count_pmf(0), 1.0);
        assert_eq!(zero.viewer_count_pmf(3), 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(SwarmCapacity::new(2.5).unwrap().to_string(), "c=2.5");
    }

    #[test]
    fn active_mean_inversion_round_trips() {
        for c in [0.01f64, 0.3, 1.594, 5.0, 12.0, 25.0, 80.0] {
            let l_bar = c / -(-c).exp_m1();
            let back = capacity_from_active_mean(l_bar);
            assert!(
                (back - c).abs() < 1e-6 * c.max(1.0),
                "c={c}: l_bar={l_bar} back={back}"
            );
        }
    }

    /// The bisection's early stop returns the bits of all 100 steps: values
    /// within 1e-9 of 1, values near 30 and random values in (1, 30].
    #[test]
    fn active_mean_inversion_stops_at_its_fixed_point() {
        fn hundred_steps(l_bar: f64) -> f64 {
            let f = |c: f64| c / -(-c).exp_m1();
            let (mut lo, mut hi) = (1e-12f64, 60.0f64);
            for _ in 0..100 {
                let mid = 0.5 * (lo + hi);
                if f(mid) < l_bar {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }
        let mut values: Vec<f64> = (1..=100).map(|k| 1.0 + k as f64 * 1e-11).collect();
        values.extend((0..100).map(|k| 30.0 - k as f64 * 1e-3));
        values.extend([1.0 + f64::EPSILON, 29.999_999_999, 30.0]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        values.extend((0..10_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            30.0 - 29.0 * (x >> 11) as f64 / (1u64 << 53) as f64
        }));
        for l_bar in values {
            assert!(l_bar > 1.0 && l_bar <= 30.0, "{l_bar}");
            assert_eq!(
                capacity_from_active_mean(l_bar).to_bits(),
                hundred_steps(l_bar).to_bits(),
                "l_bar = {l_bar}"
            );
        }
    }

    #[test]
    fn active_mean_edge_cases() {
        assert_eq!(capacity_from_active_mean(1.0), 0.0);
        assert_eq!(capacity_from_active_mean(0.5), 0.0);
        assert_eq!(capacity_from_active_mean(f64::NAN), 0.0);
        // A pair of fully overlapped viewers: L̄ = 2 ⇒ c ≈ 1.594.
        let c = capacity_from_active_mean(2.0);
        assert!((c - 1.5936).abs() < 1e-3, "got {c}");
        // Large means are pass-through.
        assert_eq!(capacity_from_active_mean(100.0), 100.0);
    }
}
