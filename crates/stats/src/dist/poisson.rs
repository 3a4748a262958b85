//! The Poisson distribution — the paper's null model for failures per node
//! (Fig. 3(b)): "if the failure rate at all nodes followed a Poisson
//! process with the same mean … the distribution of failures across nodes
//! would be expected to match a Poisson distribution. Instead we find that
//! the Poisson distribution is a poor fit."

use super::Discrete;
use crate::error::StatsError;
use crate::special::{ln_factorial, regularized_gamma_q};
use rand::{Rng, RngExt};

/// Poisson distribution with rate `λ > 0`.
///
/// ```
/// use hpcfail_stats::dist::{Poisson, Discrete};
/// let d = Poisson::new(3.0)?;
/// assert!((d.mean() - 3.0).abs() < 1e-12);
/// assert!((d.variance() - 3.0).abs() < 1e-12); // equidispersion
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create a Poisson distribution with rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `lambda` is not finite and
    /// positive.
    pub fn new(lambda: f64) -> Result<Self, StatsError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "lambda",
                value: lambda,
            });
        }
        Ok(Poisson { lambda })
    }

    /// Maximum-likelihood fit: `λ̂ = mean(data)`.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] for empty input;
    /// [`StatsError::InvalidParameter`] when the mean is zero (all counts
    /// zero).
    pub fn fit_mle(data: &[u64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let mean = data.iter().map(|&k| k as f64).sum::<f64>() / data.len() as f64;
        Poisson::new(mean)
    }

    /// The index of dispersion `variance/mean` of a sample — equals 1 for
    /// a true Poisson sample; the paper's per-node failure counts are far
    /// overdispersed (> 1), which is why Poisson loses in Fig. 3(b).
    pub fn dispersion_index(data: &[u64]) -> f64 {
        if data.is_empty() {
            return f64::NAN;
        }
        let as_f: Vec<f64> = data.iter().map(|&k| k as f64).collect();
        let m = crate::descriptive::mean(&as_f);
        if m == 0.0 {
            f64::NAN
        } else {
            crate::descriptive::variance(&as_f) / m
        }
    }
}

impl Discrete for Poisson {
    fn name(&self) -> &'static str {
        "poisson"
    }

    fn ln_pmf(&self, k: u64) -> f64 {
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    fn cdf(&self, k: u64) -> f64 {
        // P(X ≤ k) = Q(k+1, λ) (regularized upper incomplete gamma).
        regularized_gamma_q(k as f64 + 1.0, self.lambda)
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }

    fn sample(&self, rng: &mut dyn Rng) -> u64 {
        sample_poisson(self.lambda, rng)
    }
}

/// Sample a Poisson variate. Knuth's multiplication method for small `λ`;
/// for large `λ` the infinite divisibility `Poi(λ) = Poi(λ/2) + Poi(λ/2)`
/// keeps the per-call work bounded without an approximation.
fn sample_poisson(lambda: f64, rng: &mut dyn Rng) -> u64 {
    if lambda > 30.0 {
        return sample_poisson(lambda / 2.0, rng) + sample_poisson(lambda / 2.0, rng);
    }
    let limit = (-lambda).exp();
    let mut product: f64 = rng.random();
    let mut count = 0u64;
    while product > limit {
        product *= rng.random::<f64>();
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-1.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn pmf_known_values() {
        let d = Poisson::new(2.0).unwrap();
        // P(X = 0) = e^{-2}
        assert!((d.pmf(0) - (-2.0f64).exp()).abs() < 1e-12);
        // P(X = 2) = 2² e^{-2} / 2! = 2 e^{-2}
        assert!((d.pmf(2) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = Poisson::new(7.3).unwrap();
        let total: f64 = (0..100).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cdf_matches_pmf_sum() {
        let d = Poisson::new(4.5).unwrap();
        let mut acc = 0.0;
        for k in 0..20u64 {
            acc += d.pmf(k);
            assert!((d.cdf(k) - acc).abs() < 1e-10, "k = {k}");
        }
    }

    #[test]
    fn sampler_small_lambda() {
        let d = Poisson::new(1.7).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.7).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn sampler_large_lambda_split() {
        let d = Poisson::new(250.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 5_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 250.0).abs() < 3.0, "mean {mean}");
        let disp = Poisson::dispersion_index(&samples);
        assert!((disp - 1.0).abs() < 0.15, "dispersion {disp}");
    }

    #[test]
    fn mle_recovers_lambda() {
        let d = Poisson::new(62.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        let fit = Poisson::fit_mle(&data).unwrap();
        assert!((fit.lambda - 62.0).abs() < 1.0, "lambda {}", fit.lambda);
    }

    #[test]
    fn mle_rejects_bad_input() {
        assert!(Poisson::fit_mle(&[]).is_err());
        assert!(Poisson::fit_mle(&[0, 0, 0]).is_err());
    }

    #[test]
    fn overdispersion_detection() {
        // Counts from heterogeneous rates (the paper's situation) are
        // overdispersed.
        let heterogeneous = [5u64, 8, 12, 3, 250, 310, 290, 7, 4, 9];
        assert!(Poisson::dispersion_index(&heterogeneous) > 10.0);
        // A constant sample has zero dispersion.
        assert!((Poisson::dispersion_index(&[4, 4, 4, 4])).abs() < 1e-12);
    }

    #[test]
    fn nll_prefers_true_lambda() {
        let truth = Poisson::new(10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(20);
        let data: Vec<u64> = (0..2_000).map(|_| truth.sample(&mut rng)).collect();
        let bad = Poisson::new(30.0).unwrap();
        assert!(truth.nll(&data) < bad.nll(&data));
    }
}
