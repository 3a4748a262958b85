//! The gamma distribution — per the paper, fits time-between-failures as
//! well as the Weibull ("both distributions create an equally good visual
//! fit and the same negative log-likelihood").

use super::{unit_open, Continuous};
use crate::error::StatsError;
use crate::prepared::PreparedSample;
use crate::special::{digamma, ln_gamma, regularized_gamma_p, trigamma};
use rand::{Rng, RngExt};

/// Gamma distribution with shape `k` and scale `θ`.
///
/// Density: `f(x) = x^{k−1} e^{−x/θ} / (Γ(k) θᵏ)` for `x > 0`.
///
/// ```
/// use hpcfail_stats::dist::{Gamma, Continuous};
/// let d = Gamma::new(2.0, 3.0)?;
/// assert!((d.mean() - 6.0).abs() < 1e-12);
/// assert!((d.variance() - 18.0).abs() < 1e-12);
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create a gamma distribution with shape `k > 0` and scale `θ > 0`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if either parameter is not finite
    /// and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
            });
        }
        Ok(Gamma { shape, scale })
    }

    /// Maximum-likelihood fit.
    ///
    /// Solves `ln k − ψ(k) = ln(mean) − mean(ln x)` by Newton iteration on
    /// `k` (using [`digamma`]/[`trigamma`]), initialized with the standard
    /// closed-form approximation; then `θ̂ = mean / k̂`.
    ///
    /// # Errors
    ///
    /// Requires strictly positive finite data; returns
    /// [`StatsError::DegenerateSample`] when all observations are equal and
    /// [`StatsError::NoConvergence`] if Newton fails.
    pub(crate) fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        super::check_positive(data, "gamma")?;
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let mean_log = data.iter().map(|x| x.ln()).sum::<f64>() / n;
        Self::solve_from_moments(mean, mean_log)
    }

    /// Maximum-likelihood fit off a [`crate::prepared::PreparedSample`]:
    /// an O(1) read of the cached `Σx` and `Σln x` followed by the same
    /// Newton iteration — no pass over the data at all. Bit-identical to
    /// [`Gamma::fit_mle`] on the same data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gamma::fit_mle`].
    pub(crate) fn fit_prepared(
        sample: &crate::prepared::PreparedSample,
    ) -> Result<Self, StatsError> {
        sample.check_positive("gamma")?;
        let mean = sample.mean();
        let mean_log = sample.mean_log().expect("positive sample caches Σln x");
        Self::solve_from_moments(mean, mean_log)
    }

    /// Newton iteration for the shape given the two sufficient moments.
    fn solve_from_moments(mean: f64, mean_log: f64) -> Result<Self, StatsError> {
        let s = mean.ln() - mean_log;
        if s <= 0.0 {
            // By Jensen's inequality s > 0 unless all points are equal.
            return Err(StatsError::DegenerateSample);
        }
        // Minka's initialization.
        let mut k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
        let mut converged = false;
        for _ in 0..100 {
            let f = k.ln() - digamma(k) - s;
            let df = 1.0 / k - trigamma(k);
            let step = f / df;
            let next = k - step;
            let next = if next.is_finite() && next > 0.0 {
                next
            } else {
                k / 2.0
            };
            if ((next - k) / k).abs() < 1e-13 {
                k = next;
                converged = true;
                break;
            }
            k = next;
        }
        if !converged {
            return Err(StatsError::NoConvergence {
                what: "gamma shape mle",
                iterations: 100,
            });
        }
        Gamma::new(k, mean / k)
    }
}

impl Continuous for Gamma {
    fn name(&self) -> &'static str {
        "gamma"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return f64::NEG_INFINITY;
        }
        if x == 0.0 {
            return match self.shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Less) => f64::INFINITY,
                Some(std::cmp::Ordering::Equal) => -self.scale.ln(),
                _ => f64::NEG_INFINITY,
            };
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - ln_gamma(self.shape)
            - self.shape * self.scale.ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            regularized_gamma_p(self.shape, x / self.scale)
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            crate::special::regularized_gamma_q(self.shape, x / self.scale)
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
        // Wilson–Hilferty initial guess, then safeguarded Newton on the CDF.
        let k = self.shape;
        let z = crate::special::inverse_standard_normal_cdf(p);
        let c = 1.0 - 1.0 / (9.0 * k) + z / (3.0 * k.sqrt());
        let mut x = (k * c * c * c).max(1e-12) * self.scale;
        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        for _ in 0..100 {
            let f = self.cdf(x) - p;
            if f.abs() < 1e-13 {
                break;
            }
            if f > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            let d = self.pdf(x);
            let newton = x - f / d;
            x = if d > 0.0 && newton.is_finite() && newton > lo && newton < hi {
                newton
            } else if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                x * 2.0
            };
        }
        x
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        // Marsaglia–Tsang squeeze method; for k < 1 boost via
        // Gamma(k) = Gamma(k+1) · U^{1/k}.
        let k = self.shape;
        if k < 1.0 {
            let boosted = Gamma {
                shape: k + 1.0,
                scale: self.scale,
            };
            let u = unit_open(rng);
            return boosted.sample(rng) * u.powf(1.0 / k);
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // Standard normal via inverse CDF on an open-interval uniform.
            let z = crate::special::inverse_standard_normal_cdf(unit_open(rng));
            let t = 1.0 + c * z;
            if t <= 0.0 {
                continue;
            }
            let v = t * t * t;
            let u: f64 = rng.random();
            if u < 1.0 - 0.0331 * z * z * z * z || u.ln() < 0.5 * z * z + d * (1.0 - v + v.ln()) {
                return d * v * self.scale;
            }
        }
    }

    fn nll(&self, data: &[f64]) -> f64 {
        self.nll_of(data.iter().map(|&x| (x, x.ln())))
    }

    fn nll_prepared(&self, sample: &PreparedSample) -> f64 {
        match sample.logs() {
            Some(logs) => self.nll_of(sample.values().iter().copied().zip(logs.iter().copied())),
            None => self.nll(sample.values()),
        }
    }
}

impl Gamma {
    /// `-Σ ln_pdf(x)` over `(x, ln x)` pairs. Hoisted loop-invariant
    /// constants — notably `ln Γ(k)`, a Lanczos evaluation the default
    /// implementation repeats per observation. Each term keeps the
    /// default operation order, so the sum is bit-identical to
    /// `-Σ ln_pdf(x)`.
    fn nll_of(&self, terms: impl Iterator<Item = (f64, f64)>) -> f64 {
        let ln_gamma_shape = ln_gamma(self.shape);
        let shape_ln_scale = self.shape * self.scale.ln();
        let shape_m1 = self.shape - 1.0;
        -terms
            .map(|(x, ln_x)| {
                if x > 0.0 {
                    shape_m1 * ln_x - x / self.scale - ln_gamma_shape - shape_ln_scale
                } else {
                    self.ln_pdf(x)
                }
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
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, -1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let g = Gamma::new(1.0, 4.0).unwrap();
        let e = crate::dist::Exponential::from_mean(4.0).unwrap();
        for &x in &[0.1, 1.0, 4.0, 20.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-12, "x = {x}");
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn cdf_known_values() {
        // Gamma(2, 1): CDF(x) = 1 − e^{-x}(1 + x)
        let g = Gamma::new(2.0, 1.0).unwrap();
        for &x in &[0.5f64, 1.0, 3.0] {
            let expected = 1.0 - (-x).exp() * (1.0 + x);
            assert!((g.cdf(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_round_trip() {
        for &(k, theta) in &[(0.5, 2.0), (1.0, 1.0), (3.7, 100.0), (40.0, 0.5)] {
            let g = Gamma::new(k, theta).unwrap();
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = g.quantile(p);
                assert!(
                    (g.cdf(x) - p).abs() < 1e-9,
                    "k={k} θ={theta} p={p}: x={x} cdf={}",
                    g.cdf(x)
                );
            }
        }
    }

    #[test]
    fn quantile_boundaries() {
        let g = Gamma::new(2.0, 1.0).unwrap();
        assert_eq!(g.quantile(0.0), 0.0);
        assert_eq!(g.quantile(1.0), f64::INFINITY);
        assert!(g.quantile(-0.5).is_nan());
    }

    #[test]
    fn hazard_decreasing_for_small_shape() {
        let g = Gamma::new(0.7, 1000.0).unwrap();
        assert!(g.hazard(100.0) > g.hazard(1000.0));
        let g2 = Gamma::new(3.0, 1000.0).unwrap();
        assert!(g2.hazard(100.0) < g2.hazard(5000.0));
    }

    #[test]
    fn sampler_matches_moments() {
        for &(k, theta) in &[(0.5, 10.0), (1.0, 1.0), (4.2, 3.0)] {
            let g = Gamma::new(k, theta).unwrap();
            let mut rng = StdRng::seed_from_u64(77);
            let data = sample_n(&g, 50_000, &mut rng);
            let m = crate::descriptive::mean(&data);
            let v = crate::descriptive::variance(&data);
            assert!(
                (m - g.mean()).abs() / g.mean() < 0.05,
                "mean {m} vs {}",
                g.mean()
            );
            assert!(
                (v - g.variance()).abs() / g.variance() < 0.15,
                "var {v} vs {}",
                g.variance()
            );
        }
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = Gamma::new(0.8, 7200.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = Gamma::fit_mle(&data).unwrap();
        assert!((fit.shape - 0.8).abs() < 0.05, "shape {}", fit.shape);
        assert!(
            (fit.scale - 7200.0).abs() / 7200.0 < 0.1,
            "scale {}",
            fit.scale
        );
    }

    #[test]
    fn mle_large_shape() {
        let truth = Gamma::new(25.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = Gamma::fit_mle(&data).unwrap();
        assert!((fit.shape - 25.0).abs() / 25.0 < 0.1, "shape {}", fit.shape);
    }

    #[test]
    fn mle_rejects_degenerate_and_invalid() {
        assert!(matches!(
            Gamma::fit_mle(&[3.0, 3.0, 3.0]),
            Err(StatsError::DegenerateSample)
        ));
        assert!(Gamma::fit_mle(&[]).is_err());
        assert!(Gamma::fit_mle(&[1.0, -2.0]).is_err());
    }

    #[test]
    fn pdf_boundaries() {
        let sub = Gamma::new(0.5, 1.0).unwrap();
        assert_eq!(sub.pdf(0.0), f64::INFINITY);
        let sup = Gamma::new(2.0, 1.0).unwrap();
        assert_eq!(sup.pdf(0.0), 0.0);
        assert_eq!(sup.pdf(-1.0), 0.0);
    }
}
