//! The Weibull distribution — the paper's headline model for time between
//! failures, with fitted shape parameters of 0.7 (per-node) to 0.78
//! (system-wide), i.e. a decreasing hazard rate.

use super::{unit_open, Continuous};
use crate::error::StatsError;
use crate::special::ln_gamma;
use rand::Rng;

/// Weibull distribution with shape `k` and scale `λ`.
///
/// Density: `f(x) = (k/λ)(x/λ)^{k−1} e^{−(x/λ)^k}` for `x ≥ 0`.
///
/// Shape `k < 1` gives a decreasing hazard rate (the paper's finding for
/// HPC failure interarrivals), `k = 1` reduces to the exponential, and
/// `k > 1` gives an increasing hazard.
///
/// ```
/// use hpcfail_stats::dist::{Weibull, Continuous};
/// let d = Weibull::new(0.7, 1000.0)?;
/// // Decreasing hazard: h(2000) < h(100)
/// assert!(d.hazard(2000.0) < d.hazard(100.0));
/// # Ok::<(), hpcfail_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Create a Weibull distribution with shape `k > 0` and scale `λ > 0`.
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
        Ok(Weibull { shape, scale })
    }

    /// Create a Weibull with the given shape and **mean** (rather than
    /// scale): `λ = mean / Γ(1 + 1/k)`. This is the constructor the
    /// simulators want — hold the mean time between failures fixed while
    /// varying the shape.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if either argument is not finite
    /// and positive.
    pub fn with_mean(shape: f64, mean: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
            });
        }
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
            });
        }
        Weibull::new(shape, mean / ln_gamma(1.0 + 1.0 / shape).exp())
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Whether the hazard rate is decreasing (`k < 1`) — the paper's
    /// qualitative conclusion for time between failures.
    pub fn has_decreasing_hazard(&self) -> bool {
        self.shape < 1.0
    }

    /// Maximum-likelihood fit via Newton–Raphson on the profile
    /// log-likelihood of the shape, with bisection fallback.
    ///
    /// The shape equation is
    /// `g(k) = Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ − 1/k − mean(ln xᵢ) = 0`,
    /// after which `λ̂ = (Σ xᵢᵏ / n)^{1/k}`.
    ///
    /// # Errors
    ///
    /// Requires strictly positive finite data ([`StatsError::OutOfSupport`]
    /// otherwise); returns [`StatsError::NoConvergence`] if the solver fails
    /// and [`StatsError::DegenerateSample`] when all observations are equal.
    pub fn fit_mle(data: &[f64]) -> Result<Self, StatsError> {
        super::check_positive(data, "weibull")?;
        let n = data.len() as f64;
        let first = data[0];
        if data.iter().all(|&x| x == first) {
            return Err(StatsError::DegenerateSample);
        }
        // Work on ln x for numerical stability: xᵢᵏ = e^{k ln xᵢ}, and we
        // factor out the max exponent to avoid overflow with large scales
        // (repair times in seconds reach 1e6+).
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        let mean_log = logs.iter().sum::<f64>() / n;
        let max_log = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::solve_from_logs(&logs, mean_log, max_log, n)
    }

    /// Maximum-likelihood fit off a [`crate::prepared::PreparedSample`]:
    /// borrows the cached `ln x` vector and sums instead of allocating
    /// and re-scanning. Bit-identical to [`Weibull::fit_mle`] on the
    /// same data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Weibull::fit_mle`].
    pub fn fit_prepared(sample: &crate::prepared::PreparedSample) -> Result<Self, StatsError> {
        sample.check_positive("weibull")?;
        if sample.is_degenerate() {
            return Err(StatsError::DegenerateSample);
        }
        let logs = sample.logs().expect("positive sample caches logs");
        let mean_log = sample.mean_log().expect("positive sample caches Σln x");
        let max_log = sample.max_log().expect("positive sample caches max ln x");
        Self::solve_from_logs(logs, mean_log, max_log, sample.len() as f64)
    }

    /// The shared shape-equation solver: Newton–Raphson with bisection
    /// safeguard on `g(k) = Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ − 1/k − mean(ln x)`.
    ///
    /// `max_log` must equal `logs.iter().fold(NEG_INFINITY, f64::max)`:
    /// because multiplication by `k > 0` is monotone in IEEE arithmetic,
    /// `max_i(k·lᵢ) = k·max_log` bitwise, which turns the per-evaluation
    /// O(n) max fold of the pre-kernel implementation into an O(1) read
    /// without changing a single bit of the weighted sums.
    fn solve_from_logs(
        logs: &[f64],
        mean_log: f64,
        max_log: f64,
        n: f64,
    ) -> Result<Self, StatsError> {
        let g_and_dg = |k: f64| g_and_dg(logs, mean_log, max_log, k);

        // g is increasing in k; bracket a root. Each endpoint is
        // evaluated exactly once and the value carried forward.
        let mut lo = 1e-3;
        let mut hi = 1.0;
        let mut expand = 0;
        let mut g_hi = g_and_dg(hi).0;
        while g_hi < 0.0 {
            hi *= 2.0;
            expand += 1;
            if expand > 60 {
                return Err(StatsError::NoConvergence {
                    what: "weibull shape bracket",
                    iterations: expand,
                });
            }
            g_hi = g_and_dg(hi).0;
        }
        // g(k) ≤ max ln x − 1/k − mean ln x, since the weighted mean
        // s1/s0 never exceeds max ln x. At k = 10⁻³ that bound is
        // negative whenever the spread is under 1000, and only the sign
        // of g(lo) is used, so the evaluation is skipped; a margin of 1
        // absorbs the rounding of s1/s0.
        let mut g_lo = if lo_is_below_root(mean_log, max_log) {
            -1.0
        } else {
            g_and_dg(lo).0
        };
        while g_lo > 0.0 {
            lo /= 2.0;
            expand += 1;
            if expand > 120 {
                return Err(StatsError::NoConvergence {
                    what: "weibull shape bracket",
                    iterations: expand,
                });
            }
            g_lo = g_and_dg(lo).0;
        }

        // Newton with bisection safeguard. A stop on |g| keeps that
        // evaluation's s0, which is the sum at the returned k.
        let mut k = 0.5 * (lo + hi);
        let mut converged = false;
        let mut s0_at_k = None;
        for _ in 0..200 {
            let (g, dg, s0) = g_and_dg(k);
            if g.abs() < 1e-12 {
                converged = true;
                s0_at_k = Some(s0);
                break;
            }
            if g > 0.0 {
                hi = k;
            } else {
                lo = k;
            }
            let newton = k - g / dg;
            k = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo) / k < 1e-13 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(StatsError::NoConvergence {
                what: "weibull shape mle",
                iterations: 200,
            });
        }

        // λ̂ = (Σ xᵢᵏ / n)^{1/k}, computed in log space.
        let max_term = k * max_log;
        let s0 = s0_at_k.unwrap_or_else(|| logs.iter().map(|&l| (k * l - max_term).exp()).sum());
        let ln_scale = (max_term + (s0 / n).ln()) / k;
        Weibull::new(k, ln_scale.exp())
    }
}

/// `g(k)` and `g'(k)` of `Weibull::solve_from_logs` from stable
/// weighted sums, with the sum `s0` the scale needs at the root.
#[inline]
fn g_and_dg(logs: &[f64], mean_log: f64, max_log: f64, k: f64) -> (f64, f64, f64) {
    let max_term = k * max_log;
    let mut s0 = 0.0; // Σ e^{k lᵢ - M}
    let mut s1 = 0.0; // Σ lᵢ e^{k lᵢ - M}
    let mut s2 = 0.0; // Σ lᵢ² e^{k lᵢ - M}
    for &l in logs {
        let w = (k * l - max_term).exp();
        s0 += w;
        s1 += l * w;
        s2 += l * l * w;
    }
    let ratio = s1 / s0;
    let g = ratio - 1.0 / k - mean_log;
    // d/dk [s1/s0] = s2/s0 − (s1/s0)², plus 1/k².
    let dg = s2 / s0 - ratio * ratio + 1.0 / (k * k);
    (g, dg, s0)
}

/// Whether `g(10⁻³)` is known negative without evaluating it: the log
/// spread `max ln x − mean ln x` is below 999.
fn lo_is_below_root(mean_log: f64, max_log: f64) -> bool {
    max_log - mean_log < 999.0
}

impl Continuous for Weibull {
    fn name(&self) -> &'static str {
        "weibull"
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return f64::NEG_INFINITY;
        }
        if x == 0.0 {
            // Density at 0: ∞ for k<1, k/λ for k=1, 0 for k>1.
            return match self.shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Less) => f64::INFINITY,
                Some(std::cmp::Ordering::Equal) => (self.shape / self.scale).ln(),
                _ => f64::NEG_INFINITY,
            };
        }
        let z = x / self.scale;
        self.shape.ln() - self.scale.ln() + (self.shape - 1.0) * z.ln() - z.powf(self.shape)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        // Exact tail: avoids the catastrophic cancellation of 1 − cdf(x)
        // when cdf ≈ 1.
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * ln_gamma(1.0 + 1.0 / self.shape).exp()
    }

    fn variance(&self) -> f64 {
        let g1 = ln_gamma(1.0 + 1.0 / self.shape).exp();
        let g2 = ln_gamma(1.0 + 2.0 / self.shape).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn hazard(&self, x: f64) -> f64 {
        // Closed form: h(x) = (k/λ)(x/λ)^{k−1}; avoids 0/0 in the tail.
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            return match self.shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Less) => f64::INFINITY,
                Some(std::cmp::Ordering::Equal) => 1.0 / self.scale,
                _ => 0.0,
            };
        }
        (self.shape / self.scale) * (x / self.scale).powf(self.shape - 1.0)
    }

    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let u = unit_open(rng);
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn nll(&self, data: &[f64]) -> f64 {
        // Hoisted loop-invariant parameter constants; each term keeps the
        // default implementation's operation order, so the sum is
        // bit-identical to `-Σ ln_pdf(x)`.
        let c = self.shape.ln() - self.scale.ln();
        let shape_m1 = self.shape - 1.0;
        -data
            .iter()
            .map(|&x| {
                if x > 0.0 {
                    let z = x / self.scale;
                    c + shape_m1 * z.ln() - z.powf(self.shape)
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

    /// The bracket's skipped `g(10⁻³)` is negative whenever the guard
    /// skips it, over log-uniform and lopsided samples spanning 1e-6
    /// to 1e9; a spread past 999 is evaluated.
    #[test]
    fn skipped_lower_bracket_is_always_negative() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(35);
        let mut skipped = 0;
        for case in 0..400 {
            let n = 2 + case % 50;
            let (lo, hi) = (1e-6f64.ln(), 1e9f64.ln());
            let mut data: Vec<f64> = (0..n)
                .map(|_| (lo + (hi - lo) * rng.random::<f64>()).exp())
                .collect();
            // Lopsided cases: one extreme value against a tight cluster.
            match case % 4 {
                1 => data[0] = 1e9,
                2 => data[0] = 1e-6,
                3 => {
                    data.iter_mut().for_each(|x| *x = 1e-6);
                    data[0] = 1e9;
                }
                _ => {}
            }
            let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
            let mean_log = logs.iter().sum::<f64>() / n as f64;
            let max_log = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if lo_is_below_root(mean_log, max_log) {
                skipped += 1;
                let g = g_and_dg(&logs, mean_log, max_log, 1e-3).0;
                assert!(g < 0.0, "case {case}: g(1e-3) = {g}");
            }
        }
        assert_eq!(skipped, 400);
        // A log spread past 999 is evaluated, not assumed.
        assert!(!lo_is_below_root(-350.0, 700.0));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(-0.5, 1.0).is_err());
        assert!(Weibull::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        let e = crate::dist::Exponential::from_mean(2.0).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-12);
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
        assert!((w.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn decreasing_hazard_below_shape_one() {
        let w = Weibull::new(0.7, 1000.0).unwrap();
        assert!(w.has_decreasing_hazard());
        let mut last = f64::INFINITY;
        for i in 1..20 {
            let h = w.hazard(i as f64 * 100.0);
            assert!(h < last, "hazard must decrease");
            last = h;
        }
        let w2 = Weibull::new(1.5, 1000.0).unwrap();
        assert!(!w2.has_decreasing_hazard());
        assert!(w2.hazard(2000.0) > w2.hazard(100.0));
    }

    #[test]
    fn with_mean_holds_the_mean_across_shapes() {
        for &shape in &[0.5, 0.7, 1.0, 2.5] {
            let d = Weibull::with_mean(shape, 86_400.0).unwrap();
            assert!(
                (d.mean() - 86_400.0).abs() < 1e-6,
                "shape {shape}: mean {}",
                d.mean()
            );
        }
        assert!(Weibull::with_mean(0.7, 0.0).is_err());
        assert!(Weibull::with_mean(0.0, 1.0).is_err());
    }

    #[test]
    fn quantile_round_trip() {
        let w = Weibull::new(0.78, 3600.0).unwrap();
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = w.quantile(p);
            assert!((w.cdf(x) - p).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn mean_variance_known() {
        // k = 2 (Rayleigh): mean = λ√π/2, var = λ²(1 − π/4)
        let w = Weibull::new(2.0, 3.0).unwrap();
        let pi = std::f64::consts::PI;
        assert!((w.mean() - 3.0 * pi.sqrt() / 2.0).abs() < 1e-10);
        assert!((w.variance() - 9.0 * (1.0 - pi / 4.0)).abs() < 1e-10);
    }

    #[test]
    fn c2_above_one_for_small_shape() {
        // Paper: measured TBF C² of 1.9 needs shape < 1.
        let w = Weibull::new(0.7, 1.0).unwrap();
        assert!(w.c2() > 1.5 && w.c2() < 3.0, "c2 = {}", w.c2());
        // Exponential boundary
        assert!((Weibull::new(1.0, 1.0).unwrap().c2() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mle_recovers_paper_shape() {
        // Generate with the paper's fitted parameters (shape 0.7, scale in
        // seconds) and verify we recover them.
        let truth = Weibull::new(0.7, 86_400.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = Weibull::fit_mle(&data).unwrap();
        assert!((fit.shape() - 0.7).abs() < 0.02, "shape {}", fit.shape());
        assert!(
            (fit.scale() - 86_400.0).abs() / 86_400.0 < 0.05,
            "scale {}",
            fit.scale()
        );
        assert!(fit.has_decreasing_hazard());
    }

    #[test]
    fn mle_recovers_increasing_hazard_shape() {
        let truth = Weibull::new(2.5, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let data = sample_n(&truth, 20_000, &mut rng);
        let fit = Weibull::fit_mle(&data).unwrap();
        assert!((fit.shape() - 2.5).abs() < 0.1, "shape {}", fit.shape());
    }

    #[test]
    fn mle_small_sample_still_works() {
        let data = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0];
        let fit = Weibull::fit_mle(&data).unwrap();
        assert!(fit.shape() > 0.0 && fit.scale() > 0.0);
        // MLE first-order condition: fitted NLL beats nearby perturbations.
        let nll = fit.nll(&data);
        for d in [-0.05f64, 0.05] {
            let pert = Weibull::new(fit.shape() + d, fit.scale()).unwrap();
            assert!(pert.nll(&data) >= nll - 1e-9);
        }
    }

    #[test]
    fn mle_rejects_bad_input() {
        assert!(Weibull::fit_mle(&[]).is_err());
        assert!(Weibull::fit_mle(&[0.0, 1.0]).is_err());
        assert!(Weibull::fit_mle(&[-1.0, 1.0]).is_err());
        assert!(matches!(
            Weibull::fit_mle(&[2.0, 2.0, 2.0]),
            Err(StatsError::DegenerateSample)
        ));
    }

    #[test]
    fn mle_survives_extreme_magnitudes() {
        // Seconds-scale repair data can reach 1e6; also test tiny scales.
        let truth = Weibull::new(0.8, 1e6).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let data = sample_n(&truth, 5_000, &mut rng);
        let fit = Weibull::fit_mle(&data).unwrap();
        assert!((fit.shape() - 0.8).abs() < 0.05);

        let tiny: Vec<f64> = data.iter().map(|x| x * 1e-12).collect();
        let fit2 = Weibull::fit_mle(&tiny).unwrap();
        assert!(
            (fit2.shape() - fit.shape()).abs() < 1e-6,
            "shape is scale-invariant"
        );
    }

    #[test]
    fn sample_matches_distribution_moments() {
        let w = Weibull::new(0.78, 500.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let data = sample_n(&w, 50_000, &mut rng);
        let m = crate::descriptive::mean(&data);
        assert!(
            (m - w.mean()).abs() / w.mean() < 0.05,
            "mean {m} vs {}",
            w.mean()
        );
    }

    #[test]
    fn pdf_boundary_cases() {
        let sub = Weibull::new(0.7, 1.0).unwrap();
        assert_eq!(sub.pdf(0.0), f64::INFINITY);
        let sup = Weibull::new(2.0, 1.0).unwrap();
        assert_eq!(sup.pdf(0.0), 0.0);
        assert_eq!(sup.pdf(-1.0), 0.0);
        assert_eq!(sup.cdf(-1.0), 0.0);
    }
}
