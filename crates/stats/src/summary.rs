//! Batch summary statistics.

use std::fmt;

/// A batch summary of a sample: count, mean, std-dev, extrema and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of finite samples summarised.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile (nearest rank).
    pub p25: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Third quartile (nearest rank).
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises a sample; returns `None` when no finite samples exist.
    pub fn of<I: IntoIterator<Item = f64>>(samples: I) -> Option<Summary> {
        let mut xs: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("filtered"));
        let n = xs.len();
        // One Welford pass over the sorted sample: mean and squared spread.
        let (mut mean, mut m2) = (0.0, 0.0);
        for (k, &x) in (1u64..).zip(&xs) {
            let delta = x - mean;
            mean += delta / k as f64;
            m2 += delta * (x - mean);
        }
        let variance = if n < 2 { 0.0 } else { m2 / (n - 1) as f64 };
        let q = |p: f64| xs[(((p * n as f64).ceil() as usize).clamp(1, n)) - 1];
        Some(Summary {
            count: n,
            mean,
            std_dev: variance.sqrt(),
            min: xs[0],
            p25: q(0.25),
            median: q(0.5),
            p75: q(0.75),
            max: xs[n - 1],
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p25={:.4} med={:.4} p75={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.p25,
            self.median,
            self.p75,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_batch() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 31 % 97) as f64) / 7.0).collect();
        let s = Summary::of(xs.iter().copied()).unwrap();
        // The one-pass moments against a two-pass reference.
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let variance = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean - mean).abs() < 1e-9);
        assert!((s.std_dev - variance.sqrt()).abs() < 1e-9);
        assert_eq!(s.min, xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(s.max, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(Summary::of(std::iter::empty()), None);
        let one = Summary::of([5.0]).unwrap();
        assert_eq!(one.count, 1);
        assert_eq!(one.median, 5.0);
        assert_eq!(one.std_dev, 0.0);
    }

    #[test]
    fn ignores_non_finite() {
        let sum = Summary::of([f64::NAN, 2.0, f64::INFINITY]).unwrap();
        assert_eq!(sum.count, 1);
        assert_eq!(sum.mean, 2.0);
    }

    #[test]
    fn display_contains_fields() {
        let s = Summary::of([1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = s.to_string();
        assert!(out.contains("n=4"));
        assert!(out.contains("med="));
    }
}
