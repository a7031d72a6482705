//! Batch and streaming summary statistics.

use std::fmt;

/// A one-pass (Welford) accumulator for mean/variance plus min/max.
///
/// Used by the simulation engine to aggregate per-window quantities without
/// retaining every sample.
///
/// # Example
///
/// ```
/// use consume_local_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert!((s.variance() - 1.0).abs() < 1e-12); // sample variance
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample. Non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let tf = total as f64;
        self.m2 += other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / tf;
        self.mean += delta * other.count as f64 / tf;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of accumulated samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum sample (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

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
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        let q = |p: f64| xs[(((p * n as f64).ceil() as usize).clamp(1, n)) - 1];
        Some(Summary {
            count: n,
            mean: acc.mean(),
            std_dev: acc.std_dev(),
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
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        let s = Summary::of(xs.iter().copied()).unwrap();
        assert!((o.mean() - s.mean).abs() < 1e-9);
        assert!((o.std_dev() - s.std_dev).abs() < 1e-9);
        assert_eq!(o.min().unwrap(), s.min);
        assert_eq!(o.max().unwrap(), s.max);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt().sin()).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..333] {
            a.push(x);
        }
        for &x in &xs[333..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(4.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn empty_and_singleton() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(Summary::of(std::iter::empty()), None);
        let one = Summary::of([5.0]).unwrap();
        assert_eq!(one.count, 1);
        assert_eq!(one.median, 5.0);
        assert_eq!(one.std_dev, 0.0);
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
        s.push(1.0);
        s.push(f64::INFINITY);
        assert_eq!(s.count(), 1);
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
