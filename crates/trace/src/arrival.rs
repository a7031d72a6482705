//! Session arrival processes: diurnal shape, weekly shape and broadcast-age
//! decay.
//!
//! Session starts for one content item form a non-homogeneous Poisson
//! process. Its rate factorises into the item's total volume × a per-day
//! weight (catch-up decay after broadcast) × an hour-of-day weight (evening
//! prime time, with a weekend boost).

/// Relative viewing intensity per hour of day. The default profile has the
/// catch-up-TV prime-time hump between 19:00 and 23:00.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    weights: [f64; 24],
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        Self::evening_peak()
    }
}

impl DiurnalProfile {
    /// The default evening-peak profile (normalised to sum to 1).
    pub fn evening_peak() -> Self {
        let raw: [f64; 24] = [
            0.55, 0.30, 0.15, 0.08, 0.05, 0.06, 0.12, 0.30, 0.50, 0.60, 0.65, 0.75, // 0-11
            0.90, 0.85, 0.80, 0.85, 1.00, 1.30, 1.80, 2.60, 3.00, 2.80, 1.90, 1.00, // 12-23
        ];
        Self::from_weights(raw).expect("static profile is valid")
    }

    /// A flat profile (uniform across hours) — used by ablations to isolate
    /// the effect of demand concentration.
    pub fn flat() -> Self {
        Self::from_weights([1.0; 24]).expect("static profile is valid")
    }

    /// Builds a profile from 24 non-negative hourly weights (normalised).
    ///
    /// Returns `None` if any weight is negative/non-finite or all are zero.
    pub fn from_weights(raw: [f64; 24]) -> Option<Self> {
        if raw.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = raw.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut weights = raw;
        for w in &mut weights {
            *w /= total;
        }
        Some(Self { weights })
    }

    /// The normalised weight of hour `h` (0–23).
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn weight(&self, hour: u32) -> f64 {
        self.weights[hour as usize]
    }

    /// All 24 normalised weights.
    pub fn weights(&self) -> &[f64; 24] {
        &self.weights
    }

    /// The peak viewing hour.
    pub fn peak_hour(&self) -> u32 {
        self.weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights are finite"))
            .map(|(h, _)| h as u32)
            .expect("24 weights")
    }
}

/// Weekend multiplier applied on top of the diurnal profile (catch-up viewing
/// rises at weekends).
pub const WEEKEND_BOOST: f64 = 1.25;

/// Per-day view weight of an item across the traced month, given its
/// broadcast day: catch-up viewing decays exponentially after broadcast with
/// a 6-day half-life on top of a small evergreen floor; days before broadcast
/// get zero. Back-catalogue items (negative broadcast day) decay from before
/// the window, so they look nearly flat.
///
/// Weights are normalised over the `days` traced days; returns `None` when
/// `days == 0` or the item airs after the window's end.
pub fn age_decay_weights(broadcast_day: i32, days: u32) -> Option<Vec<f64>> {
    if days == 0 || broadcast_day >= days as i32 {
        return None;
    }
    const HALF_LIFE_DAYS: f64 = 6.0;
    const EVERGREEN_FLOOR: f64 = 0.04;
    let lambda = std::f64::consts::LN_2 / HALF_LIFE_DAYS;
    let mut weights = Vec::with_capacity(days as usize);
    for d in 0..days as i32 {
        let age = d - broadcast_day;
        let w = if age < 0 {
            0.0
        } else {
            (-lambda * f64::from(age)).exp() + EVERGREEN_FLOOR
        };
        weights.push(w);
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    for w in &mut weights {
        *w /= total;
    }
    Some(weights)
}

/// Normalised per-day view shares: day weights × weekend boost, rescaled to
/// sum to 1 over the window.
///
/// This is the day-level factor of [`window_share`] — hour-of-day weights
/// factor out of the non-homogeneous Poisson rate, so
/// `window_share(w, profile, d, h) == boosted_day_shares(w)[d] * profile.weight(h)`.
/// The generator precomputes this once per item instead of re-summing the
/// boost-weighted normaliser for every `(day, hour)` window.
///
/// Returns an empty vector when the weights sum to zero.
pub fn boosted_day_shares(day_weights: &[f64]) -> Vec<f64> {
    let mut shares: Vec<f64> = day_weights
        .iter()
        .enumerate()
        .map(|(d, w)| {
            let boost = if crate::time::SimTime::from_day_hour(d as u32, 0).is_weekend() {
                WEEKEND_BOOST
            } else {
                1.0
            };
            w * boost
        })
        .collect();
    let total: f64 = shares.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    for s in &mut shares {
        *s /= total;
    }
    shares
}

/// Combines day weights, the diurnal profile and the weekend boost into the
/// expected share of an item's monthly views falling in `(day, hour)`.
///
/// The combined shares over the whole window sum to 1.
pub fn window_share(day_weights: &[f64], profile: &DiurnalProfile, day: u32, hour: u32) -> f64 {
    let base: f64 = day_weights
        .iter()
        .enumerate()
        .map(|(d, w)| {
            let boost = if crate::time::SimTime::from_day_hour(d as u32, 0).is_weekend() {
                WEEKEND_BOOST
            } else {
                1.0
            };
            w * boost
        })
        .sum();
    let day_w = day_weights.get(day as usize).copied().unwrap_or(0.0);
    let boost = if crate::time::SimTime::from_day_hour(day, 0).is_weekend() {
        WEEKEND_BOOST
    } else {
        1.0
    };
    (day_w * boost / base) * profile.weight(hour)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_peaks_in_evening() {
        let p = DiurnalProfile::default();
        let peak = p.peak_hour();
        assert!((19..=22).contains(&peak), "peak at {peak}");
        let total: f64 = p.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Night trough well below the evening peak.
        assert!(p.weight(4) * 10.0 < p.weight(20));
    }

    #[test]
    fn profile_validation() {
        assert!(DiurnalProfile::from_weights([0.0; 24]).is_none());
        let mut bad = [1.0; 24];
        bad[3] = -0.1;
        assert!(DiurnalProfile::from_weights(bad).is_none());
        bad[3] = f64::NAN;
        assert!(DiurnalProfile::from_weights(bad).is_none());
    }

    #[test]
    fn flat_profile_is_uniform() {
        let p = DiurnalProfile::flat();
        for h in 0..24 {
            assert!((p.weight(h) - 1.0 / 24.0).abs() < 1e-12);
        }
    }

    #[test]
    fn decay_weights_normalise_and_decay() {
        let w = age_decay_weights(5, 30).unwrap();
        assert_eq!(w.len(), 30);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Zero before broadcast, maximum at broadcast day, decaying after.
        assert_eq!(w[4], 0.0);
        assert!(w[5] > w[6]);
        assert!(w[6] > w[12]);
        // Evergreen floor keeps late days non-zero.
        assert!(w[29] > 0.0);
    }

    #[test]
    fn back_catalogue_is_flat_ish() {
        let w = age_decay_weights(-200, 30).unwrap();
        let (min, max) = w.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        assert!(
            max / min < 1.5,
            "old items should be nearly flat: {min}..{max}"
        );
    }

    #[test]
    fn decay_rejects_degenerate() {
        assert!(age_decay_weights(0, 0).is_none());
        assert!(age_decay_weights(30, 30).is_none());
        assert!(age_decay_weights(31, 30).is_none());
        // Broadcast on the last day is fine.
        assert!(age_decay_weights(29, 30).is_some());
    }

    #[test]
    fn window_shares_sum_to_one() {
        let day_w = age_decay_weights(3, 30).unwrap();
        let profile = DiurnalProfile::default();
        let mut total = 0.0;
        for d in 0..30 {
            for h in 0..24 {
                total += window_share(&day_w, &profile, d, h);
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn boosted_day_shares_factorise_window_share() {
        let day_w = age_decay_weights(4, 30).unwrap();
        let profile = DiurnalProfile::default();
        let shares = boosted_day_shares(&day_w);
        assert_eq!(shares.len(), 30);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for d in 0..30 {
            for h in [0, 9, 20] {
                let expected = window_share(&day_w, &profile, d, h);
                let got = shares[d as usize] * profile.weight(h);
                assert!(
                    (got - expected).abs() < 1e-15,
                    "day {d} hour {h}: {got} vs {expected}"
                );
            }
        }
        assert!(boosted_day_shares(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn weekend_hours_outweigh_weekdays() {
        let day_w = age_decay_weights(-100, 28).unwrap(); // flat item, 4 whole weeks
        let profile = DiurnalProfile::flat();
        // Day 0 is a Sunday, day 2 a Tuesday; same hour.
        let sunday = window_share(&day_w, &profile, 0, 20);
        let tuesday = window_share(&day_w, &profile, 2, 20);
        assert!(sunday > tuesday);
        assert!((sunday / tuesday - WEEKEND_BOOST).abs() < 0.02);
    }
}
