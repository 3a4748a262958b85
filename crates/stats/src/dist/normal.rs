//! The normal distribution — used by the paper (with the lognormal) to fit
//! the distribution of failure counts across nodes (Fig. 3(b)).

use super::{unit_open, Continuous};
use crate::error::StatsError;
use crate::special::{inverse_standard_normal_cdf, standard_normal_cdf};
use rand::Rng;

/// Normal (Gaussian) distribution with mean `μ` and standard deviation `σ`.
///
/// ```
/// use hpcfail_stats::dist::{Normal, Continuous};
/// let d = Normal::new(0.0, 1.0)?;
/// assert!((d.cdf(1.96) - 0.975).abs() < 1e-3);
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a normal distribution with the given mean and `σ > 0`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `mean` is not finite or
    /// `std_dev` is not finite and positive.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
            });
        }
        if !std_dev.is_finite() || std_dev <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// Maximum-likelihood fit: sample mean and (n-denominator) standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] / [`StatsError::NonFinite`] on invalid
    /// input; [`StatsError::DegenerateSample`] when variance is zero.
    pub(crate) fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        Self::from_mean_and_values(data, mean)
    }

    /// Maximum-likelihood fit off a [`crate::prepared::PreparedSample`]:
    /// reads the cached `Σx` for the mean and takes one allocation-free
    /// centered pass over the cached values for the variance, keeping
    /// the result bit-identical to `Normal::fit_mle`.
    ///
    /// # Errors
    ///
    /// Same conditions as `Normal::fit_mle`.
    pub fn fit_prepared(sample: &crate::prepared::PreparedSample) -> Result<Self, StatsError> {
        Self::from_mean_and_values(sample.values(), sample.mean())
    }

    /// Shared MLE core: `σ̂² = Σ(x − μ̂)² / n` with the `n` denominator.
    fn from_mean_and_values(data: &[f64], mean: f64) -> Result<Self, StatsError> {
        let n = data.len() as f64;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        if var <= 0.0 {
            return Err(StatsError::DegenerateSample);
        }
        Normal::new(mean, var.sqrt())
    }
}

impl Continuous for Normal {
    fn name(&self) -> &'static str {
        "normal"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        -self.std_dev.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln() - 0.5 * z * z
    }

    fn cdf(&self, x: f64) -> f64 {
        standard_normal_cdf((x - self.mean) / self.std_dev)
    }

    fn survival(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        0.5 * crate::special::erfc(z / std::f64::consts::SQRT_2)
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        self.mean + self.std_dev * inverse_standard_normal_cdf(p)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.mean + self.std_dev * inverse_standard_normal_cdf(unit_open(rng))
    }

    fn nll(&self, data: &[f64]) -> f64 {
        // Hoist the loop-invariant `ln σ` and normalising constant; the
        // per-term operation order matches `ln_pdf`, so the sum is
        // bit-identical to the default implementation.
        let ln_sigma = self.std_dev.ln();
        let half_ln_two_pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        -data
            .iter()
            .map(|&x| {
                let z = (x - self.mean) / self.std_dev;
                -ln_sigma - half_ln_two_pi - 0.5 * z * z
            })
            .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -2.0).is_err());
    }

    #[test]
    fn standard_normal_known_values() {
        let d = Normal::new(0.0, 1.0).unwrap();
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((d.pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-12);
        assert!((d.quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-8);
    }

    #[test]
    fn location_scale_transform() {
        let d = Normal::new(100.0, 15.0).unwrap();
        let s = Normal::new(0.0, 1.0).unwrap();
        for &x in &[70.0, 100.0, 130.0] {
            assert!((d.cdf(x) - s.cdf((x - 100.0) / 15.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_round_trip() {
        let d = Normal::new(-3.0, 2.5).unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = Normal::new(62.0, 18.0).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = Normal::fit_mle(&data).unwrap();
        assert!((fit.mean() - 62.0).abs() < 0.5);
        assert!((fit.std_dev - 18.0).abs() < 0.5);
    }

    #[test]
    fn mle_rejects_bad_input() {
        assert!(Normal::fit_mle(&[]).is_err());
        assert!(Normal::fit_mle(&[1.0, f64::INFINITY]).is_err());
        assert!(matches!(
            Normal::fit_mle(&[2.0, 2.0]),
            Err(StatsError::DegenerateSample)
        ));
    }

    #[test]
    fn increasing_hazard() {
        // The normal has an increasing hazard — opposite of what the paper
        // finds for TBF, which is why it's only used for count data.
        let d = Normal::new(0.0, 1.0).unwrap();
        assert!(d.hazard(1.0) > d.hazard(0.0));
        assert!(d.hazard(2.0) > d.hazard(1.0));
    }
}
