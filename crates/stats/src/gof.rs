//! Goodness-of-fit measures. The paper evaluates fits "by visual
//! inspection and the negative log-likelihood test"; we add the
//! Kolmogorov–Smirnov distance as a quantitative stand-in for visual
//! CDF inspection.

use crate::dist::Continuous;

/// The two-sided Kolmogorov–Smirnov statistic
/// `D = sup_x |F̂(x) − F(x)|` between the empirical CDF of an ascending
/// slice of sample values and a fitted continuous distribution. Callers
/// pass a shared sorted view such as
/// [`crate::prepared::PreparedSample::sorted`] or
/// [`crate::ecdf::Ecdf::sorted_values`].
///
/// Evaluated exactly at the sample points (where the supremum of a step
/// function vs a continuous CDF must occur), checking both the
/// left-limit and right-value of each step.
///
/// The supremum is located by branch-and-bound instead of a full scan:
/// because `F` is non-decreasing, every candidate deviation at an index
/// strictly between `i` and `j` is bounded by
/// `max(j/n − F(x_i), F(x_j) − (i+1)/n)`, so whole runs of sample points
/// whose bound cannot beat the running maximum are skipped without
/// evaluating the model CDF. Intervals are refined breadth-first so the
/// running maximum tightens quickly. Each surviving point contributes the
/// same two candidate terms as a plain scan and `f64::max` is
/// order-insensitive, so the result is identical to the exhaustive loop —
/// only the number of CDF evaluations changes (typically a few hundred
/// instead of `n`). A CDF that returns NaN defeats every bound test, which
/// degrades gracefully to the exhaustive scan (NaN candidates are ignored
/// by `f64::max`, as before).
pub fn ks_statistic_sorted(sorted: &[f64], dist: &dyn Continuous) -> f64 {
    let len = sorted.len();
    let n = len as f64;
    // Candidate deviation at sorted index i with model CDF value f:
    // `upper` is step top vs model, `lower` is model vs step bottom.
    let candidate = |i: usize, f: f64| {
        let upper = (i as f64 + 1.0) / n - f;
        let lower = f - i as f64 / n;
        upper.abs().max(lower.abs())
    };
    let mut d = 0.0f64;
    if len == 0 {
        return d;
    }
    let f_first = dist.cdf(sorted[0]);
    d = d.max(candidate(0, f_first));
    if len == 1 {
        return d;
    }
    let last = len - 1;
    let f_last = dist.cdf(sorted[last]);
    d = d.max(candidate(last, f_last));
    // Breadth-first interval refinement: evaluate the midpoint, then keep
    // only the halves whose interior bound still exceeds the running max.
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((0usize, last, f_first, f_last));
    while let Some((i, j, fi, fj)) = queue.pop_front() {
        if j - i < 2 {
            continue;
        }
        let bound = (j as f64 / n - fi).max(fj - (i as f64 + 1.0) / n);
        if bound <= d {
            continue;
        }
        let m = i + (j - i) / 2;
        let fm = dist.cdf(sorted[m]);
        d = d.max(candidate(m, fm));
        queue.push_back((i, m, fi, fm));
        queue.push_back((m, j, fm, fj));
    }
    d
}

/// Approximate p-value for the KS statistic via the asymptotic
/// Kolmogorov distribution `Q(λ) = 2 Σ (−1)^{k−1} e^{−2k²λ²}` with the
/// standard small-sample correction.
///
/// A small p-value means the data are unlikely under the fitted model.
/// (The paper does not report p-values — with tens of thousands of
/// observations every standard family is formally rejected — but they are
/// useful for the smaller per-node samples.)
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    if n == 0 || !d.is_finite() || d <= 0.0 {
        return 1.0;
    }
    if d >= 1.0 {
        return 0.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    if lambda < 0.2 {
        // The Kolmogorov CDF is < 5e-8 here; the alternating series
        // converges too slowly to be useful, and p = 1 to 7 digits.
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Result of a chi-squared test (see [`chi_squared_uniform`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    /// The chi-squared statistic `Σ (observed − expected)² / expected`.
    pub statistic: f64,
    /// Degrees of freedom (`bins − 1`).
    pub df: usize,
    /// Upper-tail p-value `P(χ²_df > statistic)`.
    pub p_value: f64,
}

/// Pearson chi-squared test of uniformity on `[0, 1)` with equal-width
/// bins. Used by the seed-stream regression tests to verify that derived
/// RNG streams look uniform (a structural failure of the stream splitter
/// would bunch outputs and reject here).
///
/// # Errors
///
/// [`crate::StatsError::EmptySample`] for empty input;
/// [`crate::StatsError::InvalidParameter`] for fewer than 2 bins or a
/// sample too small for the expected bin count to reach 5 (the usual
/// validity rule of thumb); [`crate::StatsError::OutOfSupport`] if any
/// sample falls outside `[0, 1)`.
pub fn chi_squared_uniform(samples: &[f64], bins: usize) -> Result<ChiSquared, crate::StatsError> {
    use crate::StatsError;
    if samples.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if bins < 2 {
        return Err(StatsError::InvalidParameter {
            name: "bins",
            value: bins as f64,
        });
    }
    let expected = samples.len() as f64 / bins as f64;
    if expected < 5.0 {
        return Err(StatsError::InvalidParameter {
            name: "samples per bin",
            value: expected,
        });
    }
    let mut observed = vec![0u64; bins];
    for &u in samples {
        if !(0.0..1.0).contains(&u) {
            return Err(StatsError::OutOfSupport {
                distribution: "uniform[0,1)",
            });
        }
        let b = ((u * bins as f64) as usize).min(bins - 1);
        observed[b] += 1;
    }
    let statistic: f64 = observed
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum();
    let df = bins - 1;
    // χ²_df upper tail = Q(df/2, x/2).
    let p_value = crate::special::regularized_gamma_q(df as f64 / 2.0, statistic / 2.0);
    Ok(ChiSquared {
        statistic,
        df,
        p_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_n, Continuous, Exponential, Weibull};
    use crate::ecdf::Ecdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ks_zero_for_perfect_grid() {
        // A sample placed exactly at the quantile mid-grid of the model has
        // a tiny KS distance.
        let d = Exponential::new(1.0).unwrap();
        let n = 1000;
        let sample: Vec<f64> = (0..n)
            .map(|i| d.quantile((i as f64 + 0.5) / n as f64))
            .collect();
        let ecdf = Ecdf::new(&sample).unwrap();
        let ks = ks_statistic_sorted(ecdf.sorted_values(), &d);
        assert!(ks < 1.0 / n as f64 + 1e-9, "ks = {ks}");
    }

    /// The exhaustive reference scan the branch-and-bound search must match.
    fn ks_exhaustive(sorted: &[f64], dist: &dyn Continuous) -> f64 {
        let n = sorted.len() as f64;
        let mut d = 0.0f64;
        for (i, &x) in sorted.iter().enumerate() {
            let f = dist.cdf(x);
            let upper = (i as f64 + 1.0) / n - f;
            let lower = f - i as f64 / n;
            d = d.max(upper.abs()).max(lower.abs());
        }
        d
    }

    /// Checks the branch-and-bound KS against the exhaustive scan, bit
    /// for bit, for every `(seed, n)` case over all six families.
    fn assert_ks_matches_exhaustive(cases: &[(u64, usize)]) {
        use crate::dist::{Gamma, LogNormal, Normal, Pareto};
        let truth = Weibull::new(0.75, 86_400.0).unwrap();
        for &(seed, n) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut data = sample_n(&truth, n, &mut rng);
            data.sort_unstable_by(f64::total_cmp);
            let models: Vec<Box<dyn Continuous>> = vec![
                Box::new(truth),
                Box::new(Exponential::from_mean(truth.mean()).unwrap()),
                Box::new(Gamma::new(0.8, 100_000.0).unwrap()),
                Box::new(LogNormal::new(10.0, 1.5).unwrap()),
                Box::new(Normal::new(100_000.0, 250_000.0).unwrap()),
                Box::new(Pareto::new(60.0, 0.9).unwrap()),
            ];
            for model in &models {
                let pruned = ks_statistic_sorted(&data, model.as_ref());
                let full = ks_exhaustive(&data, model.as_ref());
                assert_eq!(
                    pruned.to_bits(),
                    full.to_bits(),
                    "{} seed {seed} n {n}: pruned {pruned} != exhaustive {full}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn pruned_ks_matches_exhaustive_scan_bitwise() {
        assert_ks_matches_exhaustive(&[(1, 3), (2, 10), (7, 1_000), (42, 20_000)]);
    }

    #[test]
    fn batch_ks_matches_exhaustive_scan_bitwise_for_all_six_families() {
        // Edge sizes: a single point, an empty sample, and a length just
        // past a power of two so the bisection meets an uneven split.
        assert_ks_matches_exhaustive(&[(1, 1), (11, 2_049)]);
        let truth = Weibull::new(0.75, 86_400.0).unwrap();
        assert_eq!(ks_statistic_sorted(&[], &truth), 0.0);
    }

    #[test]
    fn ks_detects_wrong_model() {
        let truth = Weibull::new(0.5, 100.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let data = sample_n(&truth, 5_000, &mut rng);
        let ecdf = Ecdf::new(&data).unwrap();
        let right = ks_statistic_sorted(ecdf.sorted_values(), &truth);
        let wrong = Exponential::from_mean(truth.mean()).unwrap();
        let wrong_ks = ks_statistic_sorted(ecdf.sorted_values(), &wrong);
        assert!(wrong_ks > 5.0 * right, "right {right} wrong {wrong_ks}");
    }

    #[test]
    fn p_value_behaviour() {
        // Large D on a big sample → p ≈ 0; small D → p ≈ 1.
        assert!(ks_p_value(0.3, 10_000) < 1e-10);
        assert!(ks_p_value(0.001, 100) > 0.99);
        assert_eq!(ks_p_value(0.0, 100), 1.0);
        assert_eq!(ks_p_value(1.5, 100), 0.0);
        assert_eq!(ks_p_value(0.5, 0), 1.0);
    }

    #[test]
    fn p_value_calibration_point() {
        // Classic critical value: D = 1.36/√n gives p ≈ 0.05.
        let n = 400;
        let d = 1.36 / (n as f64).sqrt();
        let p = ks_p_value(d, n);
        assert!((p - 0.05).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn chi_squared_accepts_uniform_rejects_skew() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(9);
        let uniform: Vec<f64> = (0..20_000).map(|_| rng.random::<f64>()).collect();
        let ok = chi_squared_uniform(&uniform, 64).unwrap();
        assert!(ok.p_value > 0.001, "uniform rejected: {ok:?}");
        let skewed: Vec<f64> = uniform.iter().map(|u| u * u).collect();
        let bad = chi_squared_uniform(&skewed, 64).unwrap();
        assert!(bad.p_value < 1e-6, "skew accepted: {bad:?}");
        assert!(chi_squared_uniform(&[], 10).is_err());
        assert!(chi_squared_uniform(&uniform, 1).is_err());
        assert!(chi_squared_uniform(&[0.1; 6], 2).is_err()); // < 5 per bin
        assert!(chi_squared_uniform(&[2.0; 100], 4).is_err()); // support
    }
}
