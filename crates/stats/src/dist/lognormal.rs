//! The lognormal distribution — the paper's best-fitting model for repair
//! times (Fig. 7(a)) and for early-production time between failures
//! (Fig. 6(a)).

use super::{unit_open, Continuous};
use crate::error::StatsError;
use crate::special::{inverse_standard_normal_cdf, standard_normal_cdf};
use rand::Rng;

/// Lognormal distribution: `ln X ~ Normal(μ, σ²)`.
///
/// The convenient calibration facts used throughout this workspace:
/// median = `e^μ` and mean = `e^{μ + σ²/2}`, so a target (median, mean)
/// pair from the paper's Table 2 determines (μ, σ) exactly — see
/// [`LogNormal::from_median_mean`].
///
/// ```
/// use hpcfail_stats::dist::{LogNormal, Continuous};
/// // Table 2: hardware repairs have median 64 min, mean 342 min.
/// let d = LogNormal::from_median_mean(64.0, 342.0)?;
/// assert!((d.quantile(0.5) - 64.0).abs() < 1e-6);
/// assert!((d.mean() - 342.0).abs() < 1e-6);
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a lognormal distribution with log-mean `μ` and log-standard
    /// deviation `σ > 0`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `μ` is not finite or `σ` is not
    /// finite and positive.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Construct the unique lognormal with the given median and mean
    /// (`mean > median > 0`): `μ = ln median`, `σ = √(2 ln(mean/median))`.
    ///
    /// This is how the synthetic-trace generator consumes Table 2 of the
    /// paper directly.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] unless `0 < median < mean`.
    pub fn from_median_mean(median: f64, mean: f64) -> Result<Self, StatsError> {
        if !median.is_finite() || median <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "median",
                value: median,
            });
        }
        if !mean.is_finite() || mean <= median {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
            });
        }
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal::new(mu, sigma)
    }

    /// Median of the distribution, `e^μ`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Maximum-likelihood fit: `μ̂ = mean(ln x)`, `σ̂² = var_n(ln x)`
    /// (MLE uses the `n` denominator).
    ///
    /// # Errors
    ///
    /// Requires strictly positive finite data; returns
    /// [`StatsError::DegenerateSample`] when all observations are equal.
    pub(crate) fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        super::check_positive(data, "lognormal")?;
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        let sum_log = logs.iter().sum::<f64>();
        Self::from_logs(&logs, sum_log)
    }

    /// Maximum-likelihood fit off a [`crate::prepared::PreparedSample`]:
    /// reads the cached `Σln x` and takes one allocation-free pass over
    /// the cached `ln x` vector for the centered variance. (The
    /// sufficient-statistic form `Σ(ln x)² − n·μ²` would be O(1) but
    /// reorders the floating-point sum; the centered pass keeps the
    /// result bit-identical to `LogNormal::fit_mle`.)
    ///
    /// # Errors
    ///
    /// Same conditions as `LogNormal::fit_mle`.
    pub fn fit_prepared(sample: &crate::prepared::PreparedSample) -> Result<Self, StatsError> {
        sample.check_positive("lognormal")?;
        let logs = sample.logs().expect("positive sample caches logs");
        let sum_log = sample.sum_log().expect("positive sample caches Σln x");
        Self::from_logs(logs, sum_log)
    }

    /// Shared MLE core: `μ̂ = Σln x / n`, `σ̂² = Σ(ln x − μ̂)² / n`.
    fn from_logs(logs: &[f64], sum_log: f64) -> Result<Self, StatsError> {
        let n = logs.len() as f64;
        let mu = sum_log / n;
        let var = logs.iter().map(|l| (l - mu) * (l - mu)).sum::<f64>() / n;
        if var <= 0.0 {
            return Err(StatsError::DegenerateSample);
        }
        LogNormal::new(mu, var.sqrt())
    }
}

impl Continuous for LogNormal {
    fn name(&self) -> &'static str {
        "lognormal"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln() - 0.5 * z * z
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            standard_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            // Φ(−z) computed via erfc keeps precision in the far tail.
            let z = (x.ln() - self.mu) / self.sigma;
            0.5 * crate::special::erfc(z / std::f64::consts::SQRT_2)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        (self.mu + self.sigma * inverse_standard_normal_cdf(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn c2(&self) -> f64 {
        // e^{σ²} − 1, independent of μ.
        (self.sigma * self.sigma).exp_m1()
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let z = inverse_standard_normal_cdf(unit_open(rng));
        (self.mu + self.sigma * z).exp()
    }

    fn nll(&self, data: &[f64]) -> f64 {
        // ln σ and the normalising constant are loop-invariant; hoisting
        // them keeps the per-term operation order of `ln_pdf` intact, so
        // the sum is bit-identical to the default implementation.
        let ln_sigma = self.sigma.ln();
        let half_ln_two_pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        -data
            .iter()
            .map(|&x| {
                if x <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                let z = (x.ln() - self.mu) / self.sigma;
                -x.ln() - ln_sigma - half_ln_two_pi - 0.5 * z * z
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
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn from_median_mean_table2_hardware() {
        // Table 2: hardware repairs, median 64 min, mean 342 min.
        let d = LogNormal::from_median_mean(64.0, 342.0).unwrap();
        assert!((d.median() - 64.0).abs() < 1e-9);
        assert!((d.mean() - 342.0).abs() < 1e-9);
        assert!((d.quantile(0.5) - 64.0).abs() < 1e-6);
    }

    #[test]
    fn from_median_mean_rejects_bad_order() {
        assert!(LogNormal::from_median_mean(100.0, 50.0).is_err());
        assert!(LogNormal::from_median_mean(0.0, 50.0).is_err());
        assert!(LogNormal::from_median_mean(50.0, 50.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_cdf_numerically() {
        let d = LogNormal::new(1.0, 0.8).unwrap();
        // Trapezoid integration of pdf from 0 to x should match cdf.
        let x_max = 8.0;
        let steps = 20_000;
        let dx = x_max / steps as f64;
        let mut acc = 0.0;
        for i in 0..steps {
            let a = i as f64 * dx;
            let b = a + dx;
            acc += 0.5 * (d.pdf(a.max(1e-12)) + d.pdf(b)) * dx;
        }
        assert!((acc - d.cdf(x_max)).abs() < 1e-3);
    }

    #[test]
    fn quantile_round_trip() {
        let d = LogNormal::new(4.0, 1.8).unwrap();
        for &p in &[0.001, 0.05, 0.5, 0.95, 0.999] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn c2_depends_only_on_sigma() {
        let a = LogNormal::new(0.0, 1.5).unwrap();
        let b = LogNormal::new(10.0, 1.5).unwrap();
        assert!((a.c2() - b.c2()).abs() < 1e-12);
        assert!((a.c2() - (1.5f64 * 1.5).exp_m1()).abs() < 1e-12);
    }

    #[test]
    fn heavy_tail_mean_far_above_median() {
        // Matches the paper's observation that software-repair mean (369)
        // is ~10× the median (33).
        let d = LogNormal::from_median_mean(33.0, 369.0).unwrap();
        assert!(d.mean() / d.median() > 10.0);
        assert!(d.sigma > 2.0);
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = LogNormal::new(4.2, 1.8).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = LogNormal::fit_mle(&data).unwrap();
        assert!((fit.mu - 4.2).abs() < 0.05, "mu {}", fit.mu);
        assert!((fit.sigma - 1.8).abs() < 0.05, "sigma {}", fit.sigma);
    }

    #[test]
    fn mle_rejects_bad_input() {
        assert!(LogNormal::fit_mle(&[]).is_err());
        assert!(LogNormal::fit_mle(&[1.0, 0.0]).is_err());
        assert!(matches!(
            LogNormal::fit_mle(&[5.0, 5.0]),
            Err(StatsError::DegenerateSample)
        ));
    }

    #[test]
    fn hazard_rises_then_falls() {
        // The lognormal hazard is non-monotone: 0 at the origin, peaks,
        // then decreases — one reason it can fit high-variability data
        // that neither exponential nor Weibull capture.
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let h_small = d.hazard(0.05);
        let h_mid = d.hazard(1.0);
        let h_large = d.hazard(50.0);
        assert!(h_small < h_mid);
        assert!(h_large < h_mid);
    }

    #[test]
    fn sampler_matches_median() {
        let d = LogNormal::from_median_mean(54.0, 355.0).unwrap(); // Table 2 "All"
        let mut rng = StdRng::seed_from_u64(10);
        let mut data = sample_n(&d, 50_000, &mut rng);
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = crate::descriptive::quantile_sorted(&data, 0.5);
        assert!((med - 54.0).abs() / 54.0 < 0.05, "median {med}");
    }
}
