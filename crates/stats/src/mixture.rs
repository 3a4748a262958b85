//! Two-component mixtures of continuous distributions.
//!
//! The synthetic trace generator needs repair times whose (mean, median)
//! match the paper's Table 2 *and* whose C² reaches the enormous reported
//! values (up to ~300). A pure lognormal pinned to (median, mean) caps C²
//! at `e^{σ²} − 1`; mixing in a rare heavy Pareto tail reproduces the
//! reported variability ordering (see DESIGN.md §4).

use crate::dist::Continuous;
use crate::error::StatsError;
use rand::{Rng, RngExt};

/// A convex mixture `w·A + (1−w)·B` of two continuous distributions.
#[derive(Debug)]
pub struct Mixture<A, B> {
    a: A,
    b: B,
    weight_a: f64,
}

impl<A: Continuous, B: Continuous> Mixture<A, B> {
    /// Create a mixture that draws from `a` with probability `weight_a`
    /// and from `b` otherwise.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] unless `0 < weight_a < 1`.
    pub fn new(a: A, b: B, weight_a: f64) -> Result<Self, StatsError> {
        if !weight_a.is_finite() || weight_a <= 0.0 || weight_a >= 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "weight_a",
                value: weight_a,
            });
        }
        Ok(Mixture { a, b, weight_a })
    }
}

impl<A: Continuous, B: Continuous> Continuous for Mixture<A, B> {
    fn name(&self) -> &'static str {
        "mixture"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    fn pdf(&self, x: f64) -> f64 {
        self.weight_a * self.a.pdf(x) + (1.0 - self.weight_a) * self.b.pdf(x)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.weight_a * self.a.cdf(x) + (1.0 - self.weight_a) * self.b.cdf(x)
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 || p == 1.0 {
            // Respect component supports at the extremes.
            return self
                .a
                .quantile(p)
                .min(self.b.quantile(p))
                .max(self.a.quantile(p).min(self.b.quantile(p)));
        }
        // Bisection on the mixture CDF (monotone).
        let mut lo = self.a.quantile(p.min(0.5)).min(self.b.quantile(p.min(0.5)));
        let mut hi = self.a.quantile(p.max(0.5)).max(self.b.quantile(p.max(0.5)));
        if !lo.is_finite() {
            lo = -1e300;
        }
        if !hi.is_finite() {
            hi = 1e300;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo).abs() <= 1e-12 * hi.abs().max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    fn mean(&self) -> f64 {
        self.weight_a * self.a.mean() + (1.0 - self.weight_a) * self.b.mean()
    }

    fn variance(&self) -> f64 {
        // Var = Σ wᵢ(σᵢ² + μᵢ²) − μ²
        let mu = self.mean();
        let ma = self.a.mean();
        let mb = self.b.mean();
        self.weight_a * (self.a.variance() + ma * ma)
            + (1.0 - self.weight_a) * (self.b.variance() + mb * mb)
            - mu * mu
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let u: f64 = rng.random();
        if u < self.weight_a {
            self.a.sample(rng)
        } else {
            self.b.sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_n, LogNormal, Pareto};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn repair_like() -> Mixture<LogNormal, Pareto> {
        // Lognormal body + rare Pareto tail, as used for Table-2 repairs.
        let body = LogNormal::from_median_mean(60.0, 250.0).unwrap();
        let tail = Pareto::new(1_000.0, 1.3).unwrap();
        Mixture::new(body, tail, 0.97).unwrap()
    }

    #[test]
    fn weight_validation() {
        let a = LogNormal::new(0.0, 1.0).unwrap();
        let b = Pareto::new(1.0, 2.0).unwrap();
        assert!(Mixture::new(a, b, 0.0).is_err());
        assert!(Mixture::new(a, b, 1.0).is_err());
        assert!(Mixture::new(a, b, f64::NAN).is_err());
    }

    #[test]
    fn cdf_is_convex_combination() {
        let m = repair_like();
        for &x in &[10.0, 60.0, 500.0, 5_000.0] {
            let expected = 0.97 * m.a.cdf(x) + 0.03 * m.b.cdf(x);
            assert!((m.cdf(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let m = repair_like();
        for &p in &[0.05, 0.25, 0.5, 0.9, 0.99] {
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-9, "p = {p}, x = {x}");
        }
    }

    #[test]
    fn mixture_inflates_c2() {
        // The point of the construction: the mixture's variability is far
        // above the lognormal body alone (compare Table 2's C² values).
        let m = repair_like();
        let body_c2 = m.a.c2();
        // Pareto α=1.3 has infinite variance → mixture variance infinite.
        assert!(m.c2() > body_c2 || m.c2().is_infinite());

        // With a finite-variance tail (α = 2.1) and a lighter body the
        // inflation is an order of magnitude.
        let finite_tail = Pareto::new(2_000.0, 2.1).unwrap();
        let body = LogNormal::from_median_mean(60.0, 120.0).unwrap();
        let m2 = Mixture::new(body, finite_tail, 0.97).unwrap();
        assert!(m2.c2() > 5.0 * body.c2(), "mixture c2 {}", m2.c2());
    }

    #[test]
    fn sample_mix_proportion() {
        let m = repair_like();
        let mut rng = StdRng::seed_from_u64(17);
        let data = sample_n(&m, 50_000, &mut rng);
        // Pareto tail only produces values ≥ 1000; the lognormal body
        // rarely does. Tail fraction should be near 3% plus body spill.
        let above = data.iter().filter(|&&x| x >= 1_000.0).count() as f64 / 50_000.0;
        assert!(above > 0.02 && above < 0.10, "tail fraction {above}");
    }

    #[test]
    fn median_stays_near_body_median() {
        // A 3% tail barely moves the median — which is exactly why the
        // generator can match Table 2's medians while inflating C².
        let m = repair_like();
        let med = m.quantile(0.5);
        assert!((med - 60.0).abs() / 60.0 < 0.1, "median {med}");
    }
}
