//! Descriptive statistics: mean, median, quantiles, variance, and the
//! squared coefficient of variation (C²) that the paper uses as its primary
//! variability measure (Section 3 of Schroeder & Gibson, DSN 2006).

use crate::error::StatsError;

/// A compact summary of an empirical sample, mirroring the statistics the
/// paper reports per distribution: mean, median, standard deviation and C².
///
/// Built with [`Summary::from_sample`].
///
/// ```
/// use hpcfail_stats::descriptive::Summary;
/// let s = Summary::from_sample(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.median, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample median (average of middle two for even n).
    pub median: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std_dev: f64,
    /// Squared coefficient of variation: variance / mean².
    pub c2: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Number of observations.
    pub count: usize,
}

impl Summary {
    /// Compute the summary of a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] for an empty slice and
    /// [`StatsError::NonFinite`] if any observation is NaN or infinite.
    pub fn from_sample(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        let mean = mean(data);
        let var = variance(data);
        let c2 = if mean != 0.0 {
            var / (mean * mean)
        } else {
            f64::NAN
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in data {
            min = min.min(x);
            max = max.max(x);
        }
        Ok(Summary {
            mean,
            median: median(data),
            std_dev: var.sqrt(),
            c2,
            min,
            max,
            count: data.len(),
        })
    }
}

/// Arithmetic mean of a sample. Returns NaN for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample variance (n−1 denominator), computed with Welford's
/// online algorithm for numerical stability. Returns 0 for n = 1, NaN for
/// an empty slice.
pub(crate) fn variance(data: &[f64]) -> f64 {
    match data.len() {
        0 => f64::NAN,
        1 => 0.0,
        n => {
            let mut m = 0.0f64;
            let mut m2 = 0.0f64;
            for (i, &x) in data.iter().enumerate() {
                let delta = x - m;
                m += delta / (i as f64 + 1.0);
                m2 += delta * (x - m);
            }
            m2 / (n as f64 - 1.0)
        }
    }
}

/// Squared coefficient of variation: `variance / mean²`.
///
/// The paper's headline variability metric: an exponential distribution has
/// C² = 1; the LANL repair times show C² up to ~300.
pub fn squared_cv(data: &[f64]) -> f64 {
    let m = mean(data);
    if m == 0.0 || m.is_nan() {
        f64::NAN
    } else {
        variance(data) / (m * m)
    }
}

/// Sample median. For even-length samples, the mean of the two central
/// order statistics. Returns NaN for an empty slice.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// Empirical quantile using linear interpolation between order statistics
/// (type-7 in Hyndman–Fan terminology — the R default).
///
/// `q` outside [0, 1] yields NaN; an empty slice yields NaN. The two
/// order statistics are found by selection in O(n), not by a sort, and
/// are bit-identical to the sorted sample's under [`f64::total_cmp`].
pub(crate) fn quantile(data: &[f64], q: f64) -> f64 {
    if data.is_empty() || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    if data.len() == 1 {
        return data[0];
    }
    let (lo, frac) = type7_rank(data.len(), q);
    let mut x = data.to_vec();
    let (_, &mut at_lo, right) = x.select_nth_unstable_by(lo, f64::total_cmp);
    // Everything right of `lo` orders at or above it, so the next order
    // statistic is the least of that part (none when `lo` is the last).
    let at_hi = right.iter().copied().min_by(f64::total_cmp);
    at_lo * (1.0 - frac) + at_hi.unwrap_or(at_lo) * frac
}

/// Like `quantile` but assumes the input is already sorted ascending,
/// so repeated queries cost O(1) each.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let (lo, frac) = type7_rank(sorted.len(), q);
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Type-7 position of quantile `q` in a sample of `n ≥ 2`: the rank of
/// the lower order statistic to interpolate from and the upper one's
/// weight.
fn type7_rank(n: usize, q: f64) -> (usize, f64) {
    let h = (n as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    (lo, h - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        // Sample variance with n-1 = 7: sum sq dev = 32 → 32/7
        assert!((variance(&data) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_edge_cases() {
        assert!(variance(&[]).is_nan());
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn variance_is_shift_invariant_numerically() {
        // Welford should survive a large offset that naive sum-of-squares
        // would lose to cancellation.
        let base = [1.0, 2.0, 3.0, 4.0, 5.0];
        let shifted: Vec<f64> = base.iter().map(|x| x + 1e9).collect();
        assert!((variance(&base) - variance(&shifted)).abs() < 1e-4);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolation() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.0), 10.0);
        assert_eq!(quantile(&data, 1.0), 40.0);
        // type-7: h = 3*0.25 = 0.75 → 10 + 0.75*(20-10) = 17.5
        assert!((quantile(&data, 0.25) - 17.5).abs() < 1e-12);
        assert!(quantile(&data, -0.1).is_nan());
        assert!(quantile(&data, 1.1).is_nan());
    }

    #[test]
    fn quantile_sorted_matches_unsorted() {
        let data = [5.0, 1.0, 9.0, 3.0, 7.0];
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        for &q in &[0.0, 0.1, 0.37, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&data, q), quantile_sorted(&sorted, q));
        }
    }

    #[test]
    fn selection_quantile_is_bit_identical_to_the_sort() {
        // Reference: a full sort, then the same type-7 interpolation.
        fn by_sort(data: &[f64], q: f64) -> f64 {
            let mut x = data.to_vec();
            x.sort_unstable_by(f64::total_cmp);
            let n = x.len();
            if n == 1 {
                return x[0];
            }
            let h = (n as f64 - 1.0) * q;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = h - lo as f64;
            x[lo] * (1.0 - frac) + x[hi] * frac
        }
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1.5,
            1.5,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=257 {
            for round in 0..4 {
                let data: Vec<f64> = (0..n)
                    .map(|_| {
                        let r = draw();
                        match (round, r % 4) {
                            // Round 0 is all finite; later rounds mix in
                            // the specials and heavy duplication.
                            (0, _) => (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                            (_, 0) => specials[(r >> 8) as usize % specials.len()],
                            (_, 1) => ((r >> 8) % 5) as f64,
                            _ => (r >> 11) as f64 / (1u64 << 40) as f64,
                        }
                    })
                    .collect();
                for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                    assert_eq!(
                        quantile(&data, q).to_bits(),
                        by_sort(&data, q).to_bits(),
                        "n {n} round {round} q {q}"
                    );
                }
            }
        }
        // An infinite upper neighbour with zero weight still makes NaN.
        assert!(quantile(&[f64::INFINITY, 1.0], 0.0).is_nan());
        assert_eq!(quantile(&[f64::INFINITY], 0.5), f64::INFINITY);
        // −0 · 1 + 0 · 0 is +0: the sum, not the order statistic, decides.
        assert_eq!(median(&[0.0, -0.0, -0.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn squared_cv_exponential_like() {
        // For a sample that *is* roughly exponential, C² ≈ 1.
        // Use the deterministic inverse-CDF grid of an exponential.
        let sample: Vec<f64> = (1..1000)
            .map(|i| -((1.0 - i as f64 / 1000.0).ln()))
            .collect();
        let c2 = squared_cv(&sample);
        assert!((c2 - 1.0).abs() < 0.1, "c2 = {c2}");
    }

    #[test]
    fn squared_cv_zero_mean_is_nan() {
        assert!(squared_cv(&[-1.0, 1.0]).is_nan());
    }

    #[test]
    fn summary_fields_consistent() {
        let data = [1.0, 2.0, 3.0, 4.0, 100.0];
        let s = Summary::from_sample(&data).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert!((s.c2 - s.std_dev * s.std_dev / (s.mean * s.mean)).abs() < 1e-12);
        // Heavy outlier → mean far above median, like LANL repair times.
        assert!(s.mean > 4.0 * s.median);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert!(matches!(
            Summary::from_sample(&[]),
            Err(StatsError::EmptySample)
        ));
        assert!(matches!(
            Summary::from_sample(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        ));
        assert!(matches!(
            Summary::from_sample(&[f64::INFINITY]),
            Err(StatsError::NonFinite)
        ));
    }
}
