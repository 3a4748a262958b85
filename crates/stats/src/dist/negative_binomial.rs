//! The negative binomial distribution — the gamma-Poisson mixture.
//!
//! Fig. 3(b) of the paper shows per-node failure counts are overdispersed
//! relative to Poisson, and the toolkit's generator produces exactly the
//! mechanism the negative binomial models: Poisson-like counting with
//! gamma-distributed rates across nodes. It is the natural "extension"
//! candidate for the Fig. 3(b) comparison (see
//! [`crate::fit`] for the continuous families).

use super::Discrete;
use crate::error::StatsError;
use crate::special::{digamma, ln_gamma, trigamma};
use rand::Rng;

/// Negative binomial with size (dispersion) `r > 0` and success
/// probability `p ∈ (0, 1)`:
/// `P(X = k) = Γ(k+r)/(k! Γ(r)) · pʳ (1−p)ᵏ`.
///
/// Mean `r(1−p)/p`; variance `mean/p > mean` — always overdispersed.
///
/// ```
/// use hpcfail_stats::dist::{NegativeBinomial, Discrete};
/// let d = NegativeBinomial::new(2.0, 0.25)?;
/// assert!((d.mean() - 6.0).abs() < 1e-12);
/// assert!(d.variance() > d.mean()); // overdispersion
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    r: f64,
    p: f64,
}

impl NegativeBinomial {
    /// Create with size `r > 0` and probability `0 < p < 1`.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] for out-of-range parameters.
    pub fn new(r: f64, p: f64) -> Result<Self, StatsError> {
        if !r.is_finite() || r <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "r",
                value: r,
            });
        }
        if !p.is_finite() || p <= 0.0 || p >= 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "p",
                value: p,
            });
        }
        Ok(NegativeBinomial { r, p })
    }

    /// Maximum-likelihood fit: Newton iteration on `r` using the profile
    /// likelihood (for fixed `r`, `p̂ = r/(r + mean)`), initialized by the
    /// method of moments.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] for no data;
    /// [`StatsError::DegenerateSample`] when the sample is not
    /// overdispersed (variance ≤ mean — fit a Poisson instead);
    /// [`StatsError::NoConvergence`] if Newton fails.
    pub fn fit_mle(data: &[u64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let n = data.len() as f64;
        let as_f: Vec<f64> = data.iter().map(|&k| k as f64).collect();
        let mean = crate::descriptive::mean(&as_f);
        let var = crate::descriptive::variance(&as_f);
        if mean <= 0.0 || var <= mean {
            return Err(StatsError::DegenerateSample);
        }
        // Method-of-moments start.
        let mut r = (mean * mean / (var - mean)).max(1e-3);
        // Profile log-likelihood derivative in r:
        // dl/dr = Σ ψ(kᵢ + r) − n ψ(r) + n ln(r/(r + mean)).
        let dl = |r: f64| -> f64 {
            data.iter().map(|&k| digamma(k as f64 + r)).sum::<f64>() - n * digamma(r)
                + n * (r / (r + mean)).ln()
        };
        let d2l = |r: f64| -> f64 {
            data.iter().map(|&k| trigamma(k as f64 + r)).sum::<f64>() - n * trigamma(r)
                + n * mean / (r * (r + mean))
        };
        let mut converged = false;
        for _ in 0..100 {
            let g = dl(r);
            let h = d2l(r);
            if g.abs() < 1e-10 * n {
                converged = true;
                break;
            }
            let step = if h.abs() > 1e-300 {
                g / h
            } else {
                g.signum() * r / 2.0
            };
            let next = r - step;
            let next = if next.is_finite() && next > 0.0 {
                next
            } else {
                r / 2.0
            };
            if ((next - r) / r).abs() < 1e-12 {
                r = next;
                converged = true;
                break;
            }
            r = next;
        }
        if !converged {
            return Err(StatsError::NoConvergence {
                what: "negative binomial size mle",
                iterations: 100,
            });
        }
        NegativeBinomial::new(r, r / (r + mean))
    }
}

impl Discrete for NegativeBinomial {
    fn name(&self) -> &'static str {
        "negative-binomial"
    }

    fn ln_pmf(&self, k: u64) -> f64 {
        let kf = k as f64;
        ln_gamma(kf + self.r) - crate::special::ln_factorial(k) - ln_gamma(self.r)
            + self.r * self.p.ln()
            + kf * (1.0 - self.p).ln()
    }

    fn cdf(&self, k: u64) -> f64 {
        // Direct PMF sum; counts in this toolkit are small (per-node
        // failure counts in the hundreds).
        (0..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
    }

    fn mean(&self) -> f64 {
        self.r * (1.0 - self.p) / self.p
    }

    fn variance(&self) -> f64 {
        self.mean() / self.p
    }

    fn sample(&self, rng: &mut dyn Rng) -> u64 {
        // Gamma-Poisson mixture: λ ~ Gamma(r, (1−p)/p), X | λ ~ Poisson(λ).
        let gamma = super::Gamma::new(self.r, (1.0 - self.p) / self.p)
            .expect("parameters validated at construction");
        let lambda = super::Continuous::sample(&gamma, rng).max(1e-12);
        let poisson = super::Poisson::new(lambda).expect("positive rate");
        super::Discrete::sample(&poisson, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(NegativeBinomial::new(0.0, 0.5).is_err());
        assert!(NegativeBinomial::new(1.0, 0.0).is_err());
        assert!(NegativeBinomial::new(1.0, 1.0).is_err());
        assert!(NegativeBinomial::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = NegativeBinomial::new(3.0, 0.4).unwrap();
        let total: f64 = (0..200).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn geometric_special_case() {
        // r = 1 is the geometric distribution: P(X=k) = p(1-p)^k.
        let d = NegativeBinomial::new(1.0, 0.3).unwrap();
        for k in 0..10u64 {
            let expected = 0.3 * 0.7f64.powi(k as i32);
            assert!((d.pmf(k) - expected).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn cdf_monotone() {
        let d = NegativeBinomial::new(2.5, 0.2).unwrap();
        let mut last = 0.0;
        for k in 0..100u64 {
            let c = d.cdf(k);
            assert!(c >= last);
            assert!(c <= 1.0);
            last = c;
        }
        assert!(last > 0.99);
    }

    #[test]
    fn sampler_matches_moments() {
        // Mean 50, variance 400: r = mean²/(variance − mean), p = mean/variance.
        let d = NegativeBinomial::new(50.0 * 50.0 / 350.0, 50.0 / 400.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sample: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let as_f: Vec<f64> = sample.iter().map(|&k| k as f64).collect();
        let m = crate::descriptive::mean(&as_f);
        let v = crate::descriptive::variance(&as_f);
        assert!((m - 50.0).abs() / 50.0 < 0.03, "mean {m}");
        assert!((v - 400.0).abs() / 400.0 < 0.15, "var {v}");
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = NegativeBinomial::new(4.0, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<u64> = (0..10_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = NegativeBinomial::fit_mle(&data).unwrap();
        assert!((fit.r - 4.0).abs() / 4.0 < 0.15, "r {}", fit.r);
        assert!((fit.mean() - truth.mean()).abs() / truth.mean() < 0.05);
    }

    #[test]
    fn mle_rejects_underdispersed() {
        // Constant data has variance 0 ≤ mean: no NB fit.
        assert!(matches!(
            NegativeBinomial::fit_mle(&[5, 5, 5, 5]),
            Err(StatsError::DegenerateSample)
        ));
        assert!(NegativeBinomial::fit_mle(&[]).is_err());
    }

    #[test]
    fn beats_poisson_on_heterogeneous_counts() {
        // Per-node failure counts with gamma-heterogeneous rates — the
        // Fig. 3(b) situation — are explained far better by the NB.
        use crate::dist::{Continuous, Gamma, Poisson};
        let mut rng = StdRng::seed_from_u64(4);
        let rate_dist = Gamma::new(3.0, 40.0).unwrap();
        let counts: Vec<u64> = (0..500)
            .map(|_| {
                let rate: f64 = rate_dist.sample(&mut rng);
                Poisson::new(rate.max(1e-9)).unwrap().sample(&mut rng)
            })
            .collect();
        let nb = NegativeBinomial::fit_mle(&counts).unwrap();
        let pois = Poisson::fit_mle(&counts).unwrap();
        assert!(
            nb.nll(&counts) < pois.nll(&counts) - 100.0,
            "NB {} vs Poisson {}",
            nb.nll(&counts),
            pois.nll(&counts)
        );
        // And the fitted r should be near the mixing gamma's shape 3.
        assert!((nb.r - 3.0).abs() < 1.0, "r {}", nb.r);
    }
}
