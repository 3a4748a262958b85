//! Probability distributions used in the paper's analysis.
//!
//! Section 3 of Schroeder & Gibson considers four candidate distributions
//! for time-between-failures and repair times — exponential, Weibull, gamma
//! and lognormal — plus the normal and Poisson for per-node failure counts
//! (Fig. 3(b)) and the Pareto which the paper's footnote 1 considered and
//! rejected. All of them live here, each with density, CDF, quantile,
//! hazard rate, sampling and maximum-likelihood fitting.

mod exponential;
mod gamma;
mod lognormal;
mod negative_binomial;
mod normal;
mod pareto;
mod poisson;
mod weibull;

pub use exponential::Exponential;
pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use negative_binomial::NegativeBinomial;
pub use normal::Normal;
pub use pareto::Pareto;
pub use poisson::Poisson;
pub use weibull::Weibull;

use crate::prepared::PreparedSample;
use rand::{Rng, RngExt};

/// A continuous univariate probability distribution.
///
/// The trait is object-safe so fit reports can hold heterogeneous
/// candidates as `Box<dyn Continuous>`; a `&dyn Continuous` upcasts to
/// `&dyn Any`, so a caller can read a candidate's parameters off its
/// concrete type (the fitted Weibull's shape, say) instead of refitting.
pub trait Continuous: std::any::Any + std::fmt::Debug + Send + Sync {
    /// Short lowercase name used in reports ("weibull", "lognormal", …).
    fn name(&self) -> &'static str;

    /// Natural log of the probability density at `x`.
    /// Returns `-∞` outside the support.
    fn ln_pdf(&self, x: f64) -> f64;

    /// Probability density at `x`; zero outside the support.
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF). `p` outside `[0, 1]` yields NaN.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance.
    fn variance(&self) -> f64;

    /// Survival function `P(X > x)`.
    fn survival(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// Hazard rate `h(x) = pdf(x) / survival(x)`.
    ///
    /// The paper's key qualitative finding for TBF is a *decreasing* hazard
    /// (Weibull shape 0.7–0.8): a long time since the last failure makes an
    /// imminent failure *less* likely.
    fn hazard(&self, x: f64) -> f64 {
        let s = self.survival(x);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.pdf(x) / s
        }
    }

    /// Squared coefficient of variation of the distribution.
    fn c2(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            f64::NAN
        } else {
            self.variance() / (m * m)
        }
    }

    /// Draw one sample.
    fn sample(&self, rng: &mut dyn Rng) -> f64;

    /// Negative log-likelihood of a data set under this distribution —
    /// the paper's goodness-of-fit criterion (lower is better).
    fn nll(&self, data: &[f64]) -> f64 {
        -data.iter().map(|&x| self.ln_pdf(x)).sum::<f64>()
    }

    /// [`Continuous::nll`] of a prepared sample's values, bit for bit. A
    /// family whose density reads `x` only through `ln x` (gamma,
    /// lognormal) reads the sample's cached logs instead of taking
    /// them again.
    fn nll_prepared(&self, sample: &PreparedSample) -> f64 {
        self.nll(sample.values())
    }
}

/// A discrete distribution over non-negative integers (used for the
/// Poisson fit of per-node failure counts, Fig. 3(b)).
pub trait Discrete: std::fmt::Debug + Send + Sync {
    /// Short lowercase name used in reports.
    fn name(&self) -> &'static str;
    /// Natural log of the probability mass at `k`.
    fn ln_pmf(&self, k: u64) -> f64;
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }
    /// `P(X ≤ k)`.
    fn cdf(&self, k: u64) -> f64;
    /// Distribution mean.
    fn mean(&self) -> f64;
    /// Distribution variance.
    fn variance(&self) -> f64;
    /// Draw one sample.
    fn sample(&self, rng: &mut dyn Rng) -> u64;
    /// Negative log-likelihood of integer count data.
    fn nll(&self, data: &[u64]) -> f64 {
        -data.iter().map(|&k| self.ln_pmf(k)).sum::<f64>()
    }
}

/// Draw `n` samples from a continuous distribution into a `Vec`.
pub fn sample_n<D: Continuous + ?Sized, R: Rng + ?Sized>(
    dist: &D,
    n: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut rng = rng;
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

/// A uniform draw from the open interval (0, 1) — never exactly 0 or 1, so
/// inverse-CDF sampling can never produce ±∞.
pub(crate) fn unit_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Validate that all observations are finite and strictly positive —
/// the shared precondition of the positive-support MLE fitters.
pub(crate) fn check_positive(
    data: &[f64],
    distribution: &'static str,
) -> Result<(), crate::error::StatsError> {
    use crate::error::StatsError;
    if data.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    if data.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::OutOfSupport { distribution });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_open_stays_in_open_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = unit_open(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn check_positive_rejects_bad_samples() {
        use crate::error::StatsError;
        assert!(matches!(
            check_positive(&[], "weibull"),
            Err(StatsError::EmptySample)
        ));
        assert!(matches!(
            check_positive(&[1.0, f64::NAN], "weibull"),
            Err(StatsError::NonFinite)
        ));
        assert!(matches!(
            check_positive(&[1.0, 0.0], "weibull"),
            Err(StatsError::OutOfSupport { .. })
        ));
        assert!(check_positive(&[0.5, 2.0], "weibull").is_ok());
    }

    #[test]
    fn trait_objects_are_usable() {
        let dists: Vec<Box<dyn Continuous>> = vec![
            Box::new(Exponential::new(1.0).unwrap()),
            Box::new(Weibull::new(0.7, 100.0).unwrap()),
            Box::new(LogNormal::new(0.0, 1.0).unwrap()),
            Box::new(Gamma::new(2.0, 3.0).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for d in &dists {
            let x = d.sample(&mut rng);
            assert!(x.is_finite() && x > 0.0, "{}: {x}", d.name());
            assert!(d.cdf(x) > 0.0 && d.cdf(x) < 1.0);
            assert!(!d.name().is_empty());
        }
    }

    #[test]
    fn sample_n_length_and_reproducibility() {
        let d = Exponential::new(0.5).unwrap();
        let a = sample_n(&d, 100, &mut StdRng::seed_from_u64(9));
        let b = sample_n(&d, 100, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.len(), 100);
        assert_eq!(a, b, "same seed must give same samples");
    }
}
