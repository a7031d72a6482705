//! Empirical distribution functions.
//!
//! The paper's Figs. 3 and 6 are empirical CCDF/CDF plots over per-swarm and
//! per-user quantities. [`Edf`] holds a sorted sample and evaluates CDF, CCDF
//! and quantiles, and can render evenly or logarithmically spaced plotting
//! series.

use crate::grid;

/// An empirical distribution over a set of `f64` samples.
///
/// Construction sorts the (finite) samples once; evaluation is `O(log n)`.
///
/// # Example
///
/// ```
/// use consume_local_stats::Edf;
///
/// let edf = Edf::from_samples([1.0, 2.0, 2.0, 10.0]);
/// assert_eq!(edf.cdf(0.5), 0.0);
/// assert_eq!(edf.cdf(2.0), 0.75);
/// assert_eq!(edf.ccdf(2.0), 0.25);
/// assert_eq!(edf.quantile(0.5), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Edf {
    sorted: Vec<f64>,
}

impl Edf {
    /// Builds an EDF from any collection of samples.
    ///
    /// Non-finite samples (NaN, ±∞) are dropped; an all-non-finite or empty
    /// input yields an empty EDF for which every query returns the neutral
    /// value documented on the respective method.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite filtered"));
        Self { sorted }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the EDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `P(X <= x)`. Returns 0 for an empty EDF.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `P(X > x)`. Returns 0 for an empty EDF.
    pub fn ccdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        1.0 - self.cdf(x)
    }

    /// The `q`-th quantile (nearest-rank), `q ∈ [0, 1]`.
    ///
    /// Returns `None` for an empty EDF or an out-of-range `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// The median, if any samples exist.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Sample mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Fraction of samples strictly greater than `x` — alias of [`Edf::ccdf`]
    /// for readability at call sites such as "share of carbon-positive users".
    pub fn fraction_above(&self, x: f64) -> f64 {
        self.ccdf(x)
    }

    /// The staircase points `(x_i, CDF(x_i))` for each distinct sample.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        self.distinct_points(|i, n| (i + 1) as f64 / n as f64)
    }

    /// The staircase points `(x_i, CCDF(x_i))` for each distinct sample.
    pub fn ccdf_points(&self) -> Vec<(f64, f64)> {
        self.distinct_points(|i, n| 1.0 - (i + 1) as f64 / n as f64)
    }

    fn distinct_points(&self, f: impl Fn(usize, usize) -> f64) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < n {
            let x = self.sorted[i];
            let mut j = i;
            while j + 1 < n && self.sorted[j + 1] == x {
                j += 1;
            }
            out.push((x, f(j, n)));
            i = j + 1;
        }
        out
    }

    /// CCDF evaluated on a log-spaced grid, as used for the log-x CCDF plots
    /// of Fig. 3. Empty if the EDF is empty or `lo`/`hi` are invalid.
    pub fn ccdf_log_series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        grid::log_spaced(lo, hi, points)
            .into_iter()
            .map(|x| (x, self.ccdf(x)))
            .collect()
    }

    /// CDF evaluated on a linearly spaced grid (Fig. 6 style).
    pub fn cdf_linear_series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        grid::lin_spaced(lo, hi, points)
            .into_iter()
            .map(|x| (x, self.cdf(x)))
            .collect()
    }
}

impl FromIterator<f64> for Edf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_samples(iter)
    }
}

impl Extend<f64> for Edf {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.sorted
            .extend(iter.into_iter().filter(|x| x.is_finite()));
        self.sorted
            .sort_by(|a, b| a.partial_cmp(b).expect("non-finite filtered"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_edf_is_neutral() {
        let e = Edf::from_samples(std::iter::empty());
        assert!(e.is_empty());
        assert_eq!(e.cdf(1.0), 0.0);
        assert_eq!(e.ccdf(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.mean(), None);
        assert!(e.cdf_points().is_empty());
    }

    #[test]
    fn drops_non_finite() {
        let e = Edf::from_samples([1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn cdf_and_ccdf_are_complementary() {
        let e = Edf::from_samples([5.0, 1.0, 3.0, 3.0, 9.0]);
        for x in [-1.0, 1.0, 2.0, 3.0, 8.9, 9.0, 10.0] {
            assert!((e.cdf(x) + e.ccdf(x) - 1.0).abs() < 1e-12);
        }
        assert_eq!(e.cdf(9.0), 1.0);
        assert_eq!(e.cdf(-1.0), 0.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = Edf::from_samples([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), Some(10.0));
        assert_eq!(e.quantile(0.25), Some(10.0));
        assert_eq!(e.quantile(0.26), Some(20.0));
        assert_eq!(e.quantile(0.5), Some(20.0));
        assert_eq!(e.quantile(1.0), Some(40.0));
        assert_eq!(e.quantile(1.5), None);
        assert_eq!(e.median(), Some(20.0));
    }

    #[test]
    fn staircase_points_deduplicate() {
        let e = Edf::from_samples([2.0, 2.0, 2.0, 7.0]);
        assert_eq!(e.cdf_points(), vec![(2.0, 0.75), (7.0, 1.0)]);
        assert_eq!(e.ccdf_points(), vec![(2.0, 0.25), (7.0, 0.0)]);
    }

    #[test]
    fn cdf_is_monotone_on_series() {
        let e = Edf::from_samples((0..100).map(|i| ((i * 37) % 100) as f64));
        let series = e.cdf_linear_series(-10.0, 110.0, 64);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn ccdf_log_series_is_monotone_decreasing() {
        let e = Edf::from_samples((1..=1000).map(|i| i as f64));
        let series = e.ccdf_log_series(0.1, 2000.0, 50);
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }

    #[test]
    fn extend_and_collect() {
        let mut e: Edf = [3.0, 1.0].into_iter().collect();
        e.extend([2.0, f64::NAN]);
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn fraction_above_matches_ccdf() {
        let e = Edf::from_samples([-1.0, 0.0, 0.5, 1.0]);
        assert_eq!(e.fraction_above(0.0), e.ccdf(0.0));
        assert_eq!(e.fraction_above(0.0), 0.5);
    }
}
