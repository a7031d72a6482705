//! Grid carbon intensity: converting energy into CO₂.
//!
//! The paper works in energy and treats carbon as proportional ("we only
//! require the calculated energy to be roughly proportional to the actual
//! energy consumed"). This module makes the conversion explicit so carbon
//! statements can be written in grams of CO₂: a [`GridIntensity`] maps
//! joules to grams, optionally with an hour-of-day profile — the UK grid is
//! measurably cleaner overnight, which matters for scheduling-style
//! extensions (preloading at night consumes *greener* energy even though it
//! forgoes peer sharing).

use consume_local_energy::Energy;

/// Grams of CO₂ emitted per kWh drawn from the grid, with an optional
/// hour-of-day profile.
///
/// # Example
///
/// ```
/// use consume_local_carbon::GridIntensity;
/// use consume_local_energy::Energy;
///
/// let grid = GridIntensity::uk_2013();
/// let one_kwh = Energy::from_joules(3.6e6);
/// assert!((grid.grams_for(one_kwh) - 500.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridIntensity {
    /// Mean intensity in gCO₂/kWh.
    mean_g_per_kwh: f64,
    /// Multiplicative hour-of-day factors (mean 1), or `None` for a flat
    /// profile.
    hourly_factors: Option<[f64; 24]>,
}

impl GridIntensity {
    /// The approximate 2013 UK grid average: 500 gCO₂/kWh (coal still in
    /// the mix), flat across the day.
    pub fn uk_2013() -> Self {
        Self {
            mean_g_per_kwh: 500.0,
            hourly_factors: None,
        }
    }

    /// The 2013 UK grid with a diurnal swing: overnight wind/nuclear share
    /// pushes intensity ≈15 % below the mean, the evening peak ≈10 % above.
    pub fn uk_2013_diurnal() -> Self {
        let raw: [f64; 24] = [
            0.86, 0.85, 0.85, 0.85, 0.86, 0.88, 0.93, 0.99, 1.03, 1.04, 1.04, 1.04, // 0-11
            1.03, 1.03, 1.02, 1.03, 1.05, 1.08, 1.10, 1.10, 1.08, 1.04, 0.97, 0.90, // 12-23
        ];
        Self::with_profile(500.0, raw).expect("static profile is valid")
    }

    /// A flat intensity at `g_per_kwh`.
    ///
    /// Returns `None` for a non-finite or negative value.
    pub fn flat(g_per_kwh: f64) -> Option<Self> {
        if !g_per_kwh.is_finite() || g_per_kwh < 0.0 {
            return None;
        }
        Some(Self {
            mean_g_per_kwh: g_per_kwh,
            hourly_factors: None,
        })
    }

    /// A diurnal intensity: `mean_g_per_kwh` scaled by 24 positive hourly
    /// factors (normalised so their mean is exactly 1).
    ///
    /// Returns `None` for non-positive/non-finite inputs.
    pub fn with_profile(mean_g_per_kwh: f64, factors: [f64; 24]) -> Option<Self> {
        if !mean_g_per_kwh.is_finite() || mean_g_per_kwh < 0.0 {
            return None;
        }
        if factors.iter().any(|f| !f.is_finite() || *f <= 0.0) {
            return None;
        }
        let mean: f64 = factors.iter().sum::<f64>() / 24.0;
        let mut normalised = factors;
        for f in &mut normalised {
            *f /= mean;
        }
        Some(Self {
            mean_g_per_kwh,
            hourly_factors: Some(normalised),
        })
    }

    /// The day-mean intensity in gCO₂/kWh.
    pub fn mean_g_per_kwh(&self) -> f64 {
        self.mean_g_per_kwh
    }

    /// Grams of CO₂ for `energy` drawn at the day-average intensity.
    pub fn grams_for(&self, energy: Energy) -> f64 {
        energy.as_kwh() * self.mean_g_per_kwh
    }

    /// Grams of CO₂ for `energy` drawn during hour `hour` (0–23).
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn grams_at_hour(&self, energy: Energy, hour: u32) -> f64 {
        assert!(hour < 24, "hour must be < 24, got {hour}");
        let factor = self.hourly_factors.map(|f| f[hour as usize]).unwrap_or(1.0);
        energy.as_kwh() * self.mean_g_per_kwh * factor
    }

    /// The cleanest hour of the day (ties resolve to the earliest hour).
    pub fn cleanest_hour(&self) -> u32 {
        match self.hourly_factors {
            None => 0,
            Some(f) => {
                let mut best = (0u32, f64::INFINITY);
                for (h, &x) in f.iter().enumerate() {
                    if x < best.1 {
                        best = (h as u32, x);
                    }
                }
                best.0
            }
        }
    }

    /// The carbon advantage of shifting `energy` from `from_hour` to
    /// `to_hour`: positive grams saved when the destination is cleaner.
    /// The night-preloading question in one call.
    pub fn shift_saving(&self, energy: Energy, from_hour: u32, to_hour: u32) -> f64 {
        self.grams_at_hour(energy, from_hour) - self.grams_at_hour(energy, to_hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_conversion() {
        let g = GridIntensity::uk_2013();
        assert_eq!(g.mean_g_per_kwh(), 500.0);
        // 7.2 MJ = 2 kWh → 1000 g.
        let e = Energy::from_joules(7.2e6);
        assert!((g.grams_for(e) - 1000.0).abs() < 1e-9);
        // Flat profile: every hour identical.
        assert_eq!(g.grams_at_hour(e, 3), g.grams_at_hour(e, 20));
        assert_eq!(g.cleanest_hour(), 0);
    }

    #[test]
    fn diurnal_profile_normalised_and_ordered() {
        let g = GridIntensity::uk_2013_diurnal();
        let e = Energy::from_joules(3.6e6); // 1 kWh
                                            // The 24-hour mean must equal the flat mean.
        let daily_mean: f64 = (0..24).map(|h| g.grams_at_hour(e, h)).sum::<f64>() / 24.0;
        assert!((daily_mean - 500.0).abs() < 1e-9);
        // Night is cleaner than the evening peak.
        assert!(g.grams_at_hour(e, 3) < g.grams_at_hour(e, 19));
        let cleanest = g.cleanest_hour();
        assert!((0..6).contains(&cleanest), "cleanest hour {cleanest}");
    }

    #[test]
    fn shift_saving_sign() {
        let g = GridIntensity::uk_2013_diurnal();
        let e = Energy::from_joules(3.6e6);
        // Shifting load from the evening peak to the night saves carbon.
        assert!(g.shift_saving(e, 19, 3) > 0.0);
        assert!(g.shift_saving(e, 3, 19) < 0.0);
        assert_eq!(g.shift_saving(e, 10, 10), 0.0);
    }

    #[test]
    fn validation() {
        assert!(GridIntensity::flat(-1.0).is_none());
        assert!(GridIntensity::flat(f64::NAN).is_none());
        assert!(GridIntensity::with_profile(500.0, [0.0; 24]).is_none());
        let mut bad = [1.0; 24];
        bad[5] = f64::INFINITY;
        assert!(GridIntensity::with_profile(500.0, bad).is_none());
        assert!(GridIntensity::with_profile(500.0, [2.0; 24]).is_some());
    }

    #[test]
    #[should_panic(expected = "hour must be < 24")]
    fn rejects_bad_hour() {
        let _ = GridIntensity::uk_2013().grams_at_hour(Energy::ZERO, 24);
    }

    #[test]
    fn statement_in_grams() {
        // A user watching 50 GB/month with full reciprocity under Baliga:
        // footprint and credit in grams are proportional to the energies.
        use crate::CarbonStatement;
        use consume_local_energy::EnergyParams;
        let st =
            CarbonStatement::new(50_000_000_000, 50_000_000_000, &EnergyParams::baliga()).unwrap();
        let grid = GridIntensity::uk_2013();
        let foot_g = grid.grams_for(st.footprint);
        let credit_g = grid.grams_for(st.credit);
        assert!(foot_g > 0.0);
        // CCT in grams equals CCT in energy (intensity cancels).
        let cct_g = (credit_g - foot_g) / foot_g;
        assert!((cct_g - st.cct).abs() < 1e-9);
    }
}
