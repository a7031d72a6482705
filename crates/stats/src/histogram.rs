//! Linear- and log-bucketed histograms.
//!
//! Used by the trace generator's sanity reports and by the examples to render
//! terminal-friendly views of capacity and savings distributions.

/// Bucketing strategy for a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Buckets {
    /// `count` equal-width buckets over `[lo, hi)`.
    Linear {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
        /// Number of buckets.
        count: usize,
    },
    /// `count` equal-ratio buckets over `[lo, hi)`; requires `0 < lo < hi`.
    Logarithmic {
        /// Lower bound (inclusive, > 0).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
        /// Number of buckets.
        count: usize,
    },
}

/// Error from [`Histogram::new`] on an invalid bucketing spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketError;

impl std::fmt::Display for BucketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid histogram buckets: need finite bounds, lo < hi (lo > 0 for log), count > 0"
        )
    }
}

impl std::error::Error for BucketError {}

/// A fixed-bucket histogram with explicit underflow/overflow counters.
///
/// # Example
///
/// ```
/// use consume_local_stats::histogram::{Buckets, Histogram};
///
/// # fn main() -> Result<(), consume_local_stats::histogram::BucketError> {
/// let mut h = Histogram::new(Buckets::Linear { lo: 0.0, hi: 10.0, count: 5 })?;
/// h.record(3.0);
/// h.record(-1.0); // underflow
/// assert_eq!(h.bucket_count(1), 1);
/// assert_eq!(h.underflow(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Buckets,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket layout.
    ///
    /// # Errors
    ///
    /// Returns [`BucketError`] if bounds are non-finite, out of order, zero
    /// buckets are requested, or a log layout has a non-positive lower bound.
    pub fn new(buckets: Buckets) -> Result<Self, BucketError> {
        let ok = match buckets {
            Buckets::Linear { lo, hi, count } => {
                lo.is_finite() && hi.is_finite() && lo < hi && count > 0
            }
            Buckets::Logarithmic { lo, hi, count } => {
                lo.is_finite() && hi.is_finite() && lo > 0.0 && lo < hi && count > 0
            }
        };
        if !ok {
            return Err(BucketError);
        }
        let n = match buckets {
            Buckets::Linear { count, .. } | Buckets::Logarithmic { count, .. } => count,
        };
        Ok(Self {
            buckets,
            counts: vec![0; n],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Records one sample. Non-finite samples are counted as overflow.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        match self.bucket_index(x) {
            BucketSlot::Under => self.underflow += 1,
            BucketSlot::Over => self.overflow += 1,
            BucketSlot::At(i) => self.counts[i] += 1,
        }
    }

    /// Records many samples.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.record(x);
        }
    }

    fn bucket_index(&self, x: f64) -> BucketSlot {
        if !x.is_finite() {
            return BucketSlot::Over;
        }
        match self.buckets {
            Buckets::Linear { lo, hi, count } => {
                if x < lo {
                    BucketSlot::Under
                } else if x >= hi {
                    BucketSlot::Over
                } else {
                    let f = (x - lo) / (hi - lo);
                    BucketSlot::At(((f * count as f64) as usize).min(count - 1))
                }
            }
            Buckets::Logarithmic { lo, hi, count } => {
                if x < lo {
                    BucketSlot::Under
                } else if x >= hi {
                    BucketSlot::Over
                } else {
                    let f = (x / lo).ln() / (hi / lo).ln();
                    BucketSlot::At(((f * count as f64) as usize).min(count - 1))
                }
            }
        }
    }

    /// The `(lo, hi)` bounds of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bucket index out of range");
        match self.buckets {
            Buckets::Linear { lo, hi, count } => {
                let w = (hi - lo) / count as f64;
                (lo + w * i as f64, lo + w * (i + 1) as f64)
            }
            Buckets::Logarithmic { lo, hi, count } => {
                let r = (hi / lo).powf(1.0 / count as f64);
                (lo * r.powi(i as i32), lo * r.powi(i as i32 + 1))
            }
        }
    }

    /// Count in bucket `i` (0 when out of range).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no buckets exist (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Samples below the lowest bucket.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the highest bucket bound (plus non-finite ones).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterator over `(bucket_lo, bucket_hi, count)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.counts.len()).map(|i| {
            let (lo, hi) = self.bucket_bounds(i);
            (lo, hi, self.counts[i])
        })
    }
}

enum BucketSlot {
    Under,
    At(usize),
    Over,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bucketing() {
        let mut h = Histogram::new(Buckets::Linear {
            lo: 0.0,
            hi: 10.0,
            count: 10,
        })
        .unwrap();
        h.record_all([0.0, 0.999, 5.0, 9.999, 10.0, -0.1]);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(5), 1);
        assert_eq!(h.bucket_count(9), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn log_bucketing_covers_decades() {
        let mut h = Histogram::new(Buckets::Logarithmic {
            lo: 0.001,
            hi: 1000.0,
            count: 6,
        })
        .unwrap();
        // Decade midpoints land in consecutive buckets.
        h.record_all([0.003, 0.03, 0.3, 3.0, 30.0, 300.0]);
        for i in 0..6 {
            assert_eq!(h.bucket_count(i), 1, "bucket {i}");
        }
        let (lo, hi) = h.bucket_bounds(0);
        assert!((lo - 0.001).abs() < 1e-12);
        assert!((hi - 0.01).abs() < 1e-6);
    }

    #[test]
    fn counts_conserved() {
        let mut h = Histogram::new(Buckets::Linear {
            lo: -1.0,
            hi: 1.0,
            count: 4,
        })
        .unwrap();
        h.record_all((0..1000).map(|i| (i as f64 / 100.0).sin()));
        let in_buckets: u64 = (0..h.len()).map(|i| h.bucket_count(i)).sum();
        assert_eq!(in_buckets + h.underflow() + h.overflow(), h.total());
    }

    #[test]
    fn rejects_bad_layouts() {
        assert!(Histogram::new(Buckets::Linear {
            lo: 1.0,
            hi: 1.0,
            count: 4
        })
        .is_err());
        assert!(Histogram::new(Buckets::Linear {
            lo: 0.0,
            hi: 1.0,
            count: 0
        })
        .is_err());
        assert!(Histogram::new(Buckets::Logarithmic {
            lo: 0.0,
            hi: 1.0,
            count: 2
        })
        .is_err());
        assert!(Histogram::new(Buckets::Logarithmic {
            lo: f64::NAN,
            hi: 1.0,
            count: 2
        })
        .is_err());
    }

    #[test]
    fn non_finite_goes_to_overflow() {
        let mut h = Histogram::new(Buckets::Linear {
            lo: 0.0,
            hi: 1.0,
            count: 2,
        })
        .unwrap();
        h.record(f64::NAN);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn rows_iterate_in_order() {
        let h = Histogram::new(Buckets::Linear {
            lo: 0.0,
            hi: 4.0,
            count: 4,
        })
        .unwrap();
        let rows: Vec<_> = h.rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 0.0);
        assert_eq!(rows[3].1, 4.0);
    }
}
