//! Content popularity models.
//!
//! Catch-up TV demand is *not* a single power law: the current week's
//! programmes all draw substantial audiences (a flat head), while the back
//! catalogue decays steeply. A single Zipf with the paper's observed head
//! share (top item ≈ 0.43 % of 23.5 M monthly sessions) would spread far too
//! much traffic across the tail to reproduce the paper's aggregate savings
//! (Fig. 4: ≈30 % for the biggest ISP needs most traffic in swarms of
//! capacity ≳ 2). The default model is therefore a **broken power law**:
//!
//! ```text
//! w(k) ∝ k^(−s_head)                          for k ≤ K (the break rank)
//! w(k) ∝ K^(−s_head) · (k/K)^(−s_tail)        for k > K
//! ```
//!
//! with defaults `s_head = 0.4`, `s_tail = 1.1` and `K = 1.25 %` of the
//! catalogue — calibrated so that at full London scale the top item gets
//! ≈147 K monthly views ("Bad Education" ≳ 100 K), rank ≈430 gets ≈10 K
//! ("Question Time"), rank ≈3500 gets ≈1 K ("What's to Eat"), and the head
//! carries enough traffic for the paper's aggregate savings bands.

/// A content popularity model: how monthly sessions distribute over ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Single power law `w(k) ∝ k^(−s)`.
    Zipf {
        /// The exponent `s > 0`.
        exponent: f64,
    },
    /// Broken power law: flat head, steep tail (see module docs).
    BrokenZipf {
        /// Head exponent (`> 0`, typically < 1).
        head_exponent: f64,
        /// Tail exponent (`> 0`, typically > 1).
        tail_exponent: f64,
        /// Break rank as a fraction of the catalogue size, in `(0, 1]`.
        break_fraction: f64,
    },
}

impl Popularity {
    /// The calibrated catch-up-TV default (see module docs).
    pub fn catchup_tv() -> Self {
        Popularity::BrokenZipf {
            head_exponent: 0.4,
            tail_exponent: 1.1,
            break_fraction: 0.0125,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let pos = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "popularity parameter `{name}` must be positive, got {v}"
                ))
            }
        };
        match *self {
            Popularity::Zipf { exponent } => pos("exponent", exponent),
            Popularity::BrokenZipf {
                head_exponent,
                tail_exponent,
                break_fraction,
            } => {
                pos("head_exponent", head_exponent)?;
                pos("tail_exponent", tail_exponent)?;
                pos("break_fraction", break_fraction)?;
                if break_fraction > 1.0 {
                    return Err(format!(
                        "popularity `break_fraction` must be ≤ 1, got {break_fraction}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The *unnormalised* weight of 0-based rank `k` in a catalogue of
    /// `n` items.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the parameters are invalid; call
    /// [`Popularity::validate`] first.
    pub fn weight(&self, k: u32, n: u32) -> f64 {
        debug_assert!(self.validate().is_ok());
        let rank = f64::from(k) + 1.0;
        match *self {
            Popularity::Zipf { exponent } => rank.powf(-exponent),
            Popularity::BrokenZipf {
                head_exponent,
                tail_exponent,
                break_fraction,
            } => {
                let break_rank = (f64::from(n) * break_fraction).max(1.0);
                if rank <= break_rank {
                    rank.powf(-head_exponent)
                } else {
                    break_rank.powf(-head_exponent) * (rank / break_rank).powf(-tail_exponent)
                }
            }
        }
    }

    /// The normalised weights for a catalogue of `n` items (sums to 1).
    /// Empty when `n == 0` or parameters are invalid.
    pub fn weights(&self, n: u32) -> Vec<f64> {
        if n == 0 || self.validate().is_err() {
            return Vec::new();
        }
        let mut w: Vec<f64> = (0..n).map(|k| self.weight(k, n)).collect();
        let total: f64 = w.iter().sum();
        for x in &mut w {
            *x /= total;
        }
        w
    }
}

impl Default for Popularity {
    fn default() -> Self {
        Self::catchup_tv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Popularity::Zipf { exponent: 0.5 }.validate().is_ok());
        assert!(Popularity::Zipf { exponent: 0.0 }.validate().is_err());
        assert!(Popularity::catchup_tv().validate().is_ok());
        let bad = Popularity::BrokenZipf {
            head_exponent: 0.4,
            tail_exponent: 1.1,
            break_fraction: 1.5,
        };
        assert!(bad.validate().is_err());
        let bad = Popularity::BrokenZipf {
            head_exponent: f64::NAN,
            tail_exponent: 1.1,
            break_fraction: 0.01,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn weights_normalised_and_monotone() {
        for model in [Popularity::Zipf { exponent: 0.7 }, Popularity::catchup_tv()] {
            let w = model.weights(10_000);
            assert_eq!(w.len(), 10_000);
            let total: f64 = w.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            for pair in w.windows(2) {
                assert!(pair[0] >= pair[1] - 1e-15, "weights decay with rank");
            }
        }
    }

    #[test]
    fn broken_zipf_is_continuous_at_break() {
        let model = Popularity::catchup_tv();
        let n = 24_000u32;
        let break_rank = (f64::from(n) * 0.0125) as u32; // rank 300
        let before = model.weight(break_rank - 1, n);
        let at = model.weight(break_rank, n);
        // Adjacent ranks across the break differ smoothly (< 2%).
        assert!((before / at - 1.0).abs() < 0.02, "{before} vs {at}");
    }

    #[test]
    fn full_scale_calibration_matches_paper_exemplars() {
        // At full London scale (24 000 items, 23.5 M sessions):
        let model = Popularity::catchup_tv();
        let w = model.weights(24_000);
        let sessions = 23.5e6;
        let views = |k: usize| w[k] * sessions;
        // Top item ≳ 100 K ("Bad Education").
        assert!(views(0) > 100_000.0, "top item {}", views(0));
        assert!(views(0) < 250_000.0, "top item {}", views(0));
        // Some rank lands near 10 K ("Question Time") within the first ~1 K.
        let medium = (0..1_500)
            .find(|&k| views(k) < 10_500.0)
            .expect("medium rank");
        assert!(views(medium) > 7_000.0, "rank {medium}: {}", views(medium));
        // Some deeper rank lands near 1 K ("What's to Eat").
        let unpop = (0..10_000)
            .find(|&k| views(k) < 1_050.0)
            .expect("unpopular rank");
        assert!(views(unpop) > 700.0, "rank {unpop}: {}", views(unpop));
        // The head (top 2 %) carries a large share of all traffic — the
        // property a single Zipf(0.55) lacks and Figs. 4/6 need.
        let head_share: f64 = w[..480].iter().sum();
        assert!(head_share > 0.35, "head share {head_share}");
    }

    #[test]
    fn tail_steeper_than_head() {
        let model = Popularity::catchup_tv();
        let n = 10_000;
        let w = model.weights(n);
        let ratio_head = w[10] / w[20]; // (11/21)^-0.4
        let ratio_tail = w[5_000] / w[9_999];
        let expected_head = (11.0f64 / 21.0).powf(-0.4);
        assert!((ratio_head / expected_head - 1.0).abs() < 1e-9);
        let expected_tail = (5_001.0f64 / 10_000.0).powf(-1.1);
        assert!((ratio_tail / expected_tail - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(Popularity::catchup_tv().weights(0).is_empty());
        let one = Popularity::catchup_tv().weights(1);
        assert_eq!(one, vec![1.0]);
    }
}
