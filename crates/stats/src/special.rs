//! Special mathematical functions needed for distribution densities and
//! maximum-likelihood estimation.
//!
//! Everything here is implemented from scratch (no external math crates):
//! the Lanczos approximation for [`ln_gamma`], series/asymptotic expansions
//! for `digamma` and `trigamma`, Abramowitz–Stegun style rational
//! approximations for `erfc`, and the standard series/continued-fraction
//! pair for the regularized incomplete gamma function.
//!
//! Accuracy targets are those required by the fitting code: roughly 1e-10
//! relative error over the parameter ranges that occur when fitting failure
//! inter-arrival and repair-time data (arguments between ~1e-6 and ~1e8).

/// Coefficients for the Lanczos approximation with g = 7, n = 9.
///
/// These are the classical values from Numerical Recipes / Boost.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::special::ln_gamma;
/// // Γ(5) = 4! = 24
/// assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
/// ```
///
/// # Edge cases
///
/// Pinned by unit tests:
///
/// * `±0.0` and negative integers are poles → `NAN` (signals an invalid
///   distribution parameter rather than the `+∞` of the limit);
/// * `+∞` → `+∞` (the naïve Lanczos tail evaluates `∞ − ∞` = NaN, so the
///   guard below short-circuits it);
/// * `-∞` and `NAN` → `NAN`;
/// * positive subnormals take the reflection path and return a finite
///   value (≈ `-ln x`, about `744.4` at the smallest subnormal) — no
///   overflow, no NaN.
///
/// # Panics
///
/// Does not panic; returns `f64::NAN` for non-positive integers and
/// `f64::INFINITY`/`NAN` propagation follows IEEE semantics.
pub fn ln_gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x == f64::INFINITY {
        // lim_{x→∞} ln Γ(x) = ∞; the Lanczos tail would compute ∞ − ∞.
        return f64::INFINITY;
    }
    if x <= 0.0 && x.fract() == 0.0 {
        return f64::NAN; // pole at non-positive integers (and ±0.0)
    }
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let s = (std::f64::consts::PI * x).sin();
        if s == 0.0 {
            return f64::NAN;
        }
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Uses the recurrence `ψ(x) = ψ(x+1) - 1/x` to push the argument above 6,
/// then an asymptotic expansion in `1/x²`.
pub(crate) fn digamma(x: f64) -> f64 {
    if x.is_nan() || x <= 0.0 {
        return f64::NAN;
    }
    let mut x = x;
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n}/(2n x^{2n})
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// The trigamma function `ψ′(x) = d²/dx² ln Γ(x)` for `x > 0`.
pub(crate) fn trigamma(x: f64) -> f64 {
    if x.is_nan() || x <= 0.0 {
        return f64::NAN;
    }
    let mut x = x;
    let mut result = 0.0;
    while x < 10.0 {
        result += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result
        + inv * (1.0 + 0.5 * inv)
        + inv
            * inv2
            * (1.0 / 6.0
                - inv2
                    * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * 5.0 / 66.0))))
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Chebyshev-fit approximation (Numerical Recipes 6.2.2), accurate to
/// better than 1e-12 over the useful range.
///
/// # Edge cases
///
/// The kernel is total over the extended reals and branch-free apart
/// from the final sign select: `erfc(±0.0) = 1` (both zero signs take the non-negative
/// fold), subnormals behave as `±0.0`, `erfc(+∞) = 0` exactly (the
/// Chebyshev prefactor `t = 2/(2+|x|)` underflows to `0` and the
/// exponential underflows with it — `0 · 0`, not `0 · ∞`),
/// `erfc(-∞) = 2` exactly, and `NAN` propagates. Pinned by unit tests.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Inverse CDF (quantile) of the standard normal distribution.
///
/// Acklam's rational approximation (~1.15e-9 relative error), refined with
/// one Halley step using [`erfc`], giving near machine precision.
///
/// # Panics
///
/// Never panics; returns NaN for `p` outside `(0, 1)` boundaries other than
/// the conventional `0 → -∞` and `1 → +∞`.
pub(crate) fn inverse_standard_normal_cdf(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // Halley refinement using the complementary error function.
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Chunk width of [`inverse_standard_normal_cdf_slice`]. Eight lanes
/// keeps the fixed-size inner loops a multiple of every f64 SIMD width
/// the autovectorizer targets.
const BATCH_LANES: usize = 8;

/// Chunked in-place batch `Φ⁻¹`: replaces each `ps[i]` with
/// `inverse_standard_normal_cdf(ps[i])`, bit-identical to the scalar
/// function (it applies the exact same kernel per lane over fixed-width
/// `BATCH_LANES` chunks, bounds-check-free bodies the compiler can
/// unroll, then a tail loop; chunking only exposes independent lanes for
/// instruction-level parallelism). The synth generator builds its node
/// weights with it (DESIGN.md §13).
pub fn inverse_standard_normal_cdf_slice(ps: &mut [f64]) {
    let mut chunks = ps.chunks_exact_mut(BATCH_LANES);
    for chunk in &mut chunks {
        for p in chunk.iter_mut() {
            *p = inverse_standard_normal_cdf(*p);
        }
    }
    for p in chunks.into_remainder() {
        *p = inverse_standard_normal_cdf(*p);
    }
}

/// Standard normal CDF `Φ(x)`.
pub(crate) fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a,x)/Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction for `x ≥ a + 1`
/// (Numerical Recipes `gammp`). Needed for the gamma-distribution CDF and
/// the Poisson CDF.
///
/// # Panics
///
/// Never panics; returns NaN for `a ≤ 0` or `x < 0`.
pub(crate) fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 || a.is_nan() || x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub(crate) fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 || a.is_nan() || x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Series representation of P(a,x), converges quickly for x < a+1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - gln).exp().min(1.0)
}

/// Continued-fraction representation of Q(a,x) (modified Lentz algorithm),
/// converges quickly for x ≥ a+1.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let gln = ln_gamma(a);
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    ((a * x.ln() - x - gln).exp() * h).clamp(0.0, 1.0)
}

/// Natural log of `n!` using `ln_gamma(n + 1)`.
///
/// Exact table lookup for `n ≤ 20` so small Poisson PMFs are exact.
pub(crate) fn ln_factorial(n: u64) -> f64 {
    const EXACT: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5040.0,
        40320.0,
        362880.0,
        3628800.0,
        39916800.0,
        479001600.0,
        6227020800.0,
        87178291200.0,
        1307674368000.0,
        20922789888000.0,
        355687428096000.0,
        6402373705728000.0,
        121645100408832000.0,
        2432902008176640000.0,
    ];
    if n <= 20 {
        EXACT[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn erf(x: f64) -> f64 {
        1.0 - erfc(x)
    }

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol * expected.abs().max(1.0),
            "actual {actual} vs expected {expected} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            assert_close(ln_gamma(n as f64), fact.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        assert_close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12);
        // Γ(3/2) = √π/2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn ln_gamma_large_argument_stirling() {
        // Compare with Stirling series at x = 1000.
        let x: f64 = 1000.0;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
                - 1.0 / (360.0 * x * x * x);
        assert_close(ln_gamma(x), stirling, 1e-13);
    }

    #[test]
    fn ln_gamma_poles_are_nan() {
        assert!(ln_gamma(0.0).is_nan());
        assert!(ln_gamma(-1.0).is_nan());
        assert!(ln_gamma(-2.0).is_nan());
    }

    #[test]
    fn gamma_reflection_negative() {
        // Γ(-0.5) = -2√π, so ln|Γ(-0.5)| = ln(2√π).
        assert_close(
            ln_gamma(-0.5),
            (2.0 * std::f64::consts::PI.sqrt()).ln(),
            1e-10,
        );
    }

    #[test]
    fn digamma_known_values() {
        const EULER: f64 = 0.577_215_664_901_532_9;
        assert_close(digamma(1.0), -EULER, 1e-12);
        // ψ(2) = 1 - γ
        assert_close(digamma(2.0), 1.0 - EULER, 1e-12);
        // ψ(1/2) = -γ - 2 ln 2
        assert_close(digamma(0.5), -EULER - 2.0 * 2.0f64.ln(), 1e-12);
        // ψ(10) via recurrence from ψ(1)
        let harmonic9: f64 = (1..10).map(|k| 1.0 / k as f64).sum();
        assert_close(digamma(10.0), -EULER + harmonic9, 1e-12);
    }

    #[test]
    fn digamma_matches_numeric_derivative_of_ln_gamma() {
        for &x in &[0.3f64, 1.7, 4.2, 25.0, 300.0] {
            let h = 1e-6 * x.max(1.0);
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert_close(digamma(x), numeric, 1e-7);
        }
    }

    #[test]
    fn trigamma_known_values() {
        let pi2 = std::f64::consts::PI * std::f64::consts::PI;
        assert_close(trigamma(1.0), pi2 / 6.0, 1e-10);
        // ψ′(1/2) = π²/2
        assert_close(trigamma(0.5), pi2 / 2.0, 1e-10);
        // ψ′(2) = π²/6 − 1
        assert_close(trigamma(2.0), pi2 / 6.0 - 1.0, 1e-10);
    }

    #[test]
    fn trigamma_matches_numeric_derivative_of_digamma() {
        for &x in &[0.4f64, 1.3, 7.7, 120.0] {
            let h = 1e-5 * x.max(1.0);
            let numeric = (digamma(x + h) - digamma(x - h)) / (2.0 * h);
            assert_close(trigamma(x), numeric, 1e-6);
        }
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-15);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-9);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-9);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-9);
        assert!((erf(6.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.5] {
            assert_close(erfc(-x), 2.0 - erfc(x), 1e-12);
        }
    }

    #[test]
    fn inverse_normal_cdf_round_trip() {
        for &p in &[1e-8, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let x = inverse_standard_normal_cdf(p);
            assert_close(standard_normal_cdf(x), p, 1e-9);
        }
    }

    #[test]
    fn inverse_normal_cdf_boundaries() {
        assert_eq!(inverse_standard_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_standard_normal_cdf(1.0), f64::INFINITY);
        assert!(inverse_standard_normal_cdf(-0.1).is_nan());
        assert!(inverse_standard_normal_cdf(1.1).is_nan());
        assert_close(inverse_standard_normal_cdf(0.5), 0.0, 1e-12);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert_close(standard_normal_cdf(0.0), 0.5, 1e-12);
        assert_close(standard_normal_cdf(1.959_963_984_540_054), 0.975, 1e-9);
        assert_close(standard_normal_cdf(-1.959_963_984_540_054), 0.025, 1e-9);
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.01, 0.5, 1.0, 3.0, 10.0] {
            assert_close(regularized_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_chi_square_two_dof_quartiles() {
        // For a=2 (chi-square 4 dof scaled): P(2, x) = 1 - e^{-x}(1+x)
        for &x in &[0.3, 1.0, 2.5, 8.0] {
            assert_close(
                regularized_gamma_p(2.0, x),
                1.0 - (-x).exp() * (1.0 + x),
                1e-12,
            );
        }
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &a in &[0.3, 1.0, 2.7, 15.0, 250.0] {
            for &x in &[0.1, 1.0, a, 2.0 * a + 5.0] {
                let p = regularized_gamma_p(a, x);
                let q = regularized_gamma_q(a, x);
                assert_close(p + q, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let a = 3.3;
        let mut last = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = regularized_gamma_p(a, x);
            assert!(p >= last - 1e-14, "P(a,x) must be nondecreasing");
            last = p;
        }
        assert!(last > 0.999);
    }

    #[test]
    fn incomplete_gamma_invalid_args() {
        assert!(regularized_gamma_p(-1.0, 1.0).is_nan());
        assert!(regularized_gamma_p(1.0, -1.0).is_nan());
        assert_eq!(regularized_gamma_p(2.0, 0.0), 0.0);
        assert_eq!(regularized_gamma_q(2.0, 0.0), 1.0);
    }

    #[test]
    fn erf_erfc_edge_cases_documented() {
        // ±0.0: both signs of zero fold into the non-negative branch.
        assert_eq!(erfc(0.0), erfc(-0.0));
        assert!((erfc(0.0) - 1.0).abs() <= 1e-15);
        assert!(erf(0.0).abs() <= 1e-15);
        assert!(erf(-0.0).abs() <= 1e-15);
        // Subnormals behave as zero — finite, no NaN.
        let sub = f64::MIN_POSITIVE / 8.0;
        assert!(sub.is_subnormal());
        for &x in &[sub, -sub, f64::MIN_POSITIVE] {
            assert!(erfc(x).is_finite());
            assert!((erfc(x) - 1.0).abs() <= 1e-15, "erfc({x:e})");
            assert!(erf(x).abs() <= 1e-15, "erf({x:e})");
        }
        // ±∞ are exact: the t = 2/(2+|x|) prefactor underflows first.
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        // NaN in, NaN out — and only then.
        assert!(erfc(f64::NAN).is_nan());
        assert!(erf(f64::NAN).is_nan());
    }

    #[test]
    fn ln_gamma_edge_cases_documented() {
        // ±0.0 are poles → NaN (invalid-parameter signal, not the +∞ limit).
        assert!(ln_gamma(0.0).is_nan());
        assert!(ln_gamma(-0.0).is_nan());
        // +∞ no longer leaks ∞ − ∞ = NaN out of the Lanczos tail.
        assert_eq!(ln_gamma(f64::INFINITY), f64::INFINITY);
        assert!(ln_gamma(f64::NEG_INFINITY).is_nan());
        assert!(ln_gamma(f64::NAN).is_nan());
        // Positive subnormals reflect to a finite ≈ -ln x.
        let sub = f64::MIN_POSITIVE / 8.0;
        let v = ln_gamma(sub);
        assert!(v.is_finite() && v > 700.0, "ln_gamma({sub:e}) = {v}");
        assert_close(v, -sub.ln(), 1e-12);
    }

    #[test]
    fn slice_paths_bit_identical_to_scalar() {
        // Mixed bag spanning every edge case plus ordinary arguments, at
        // lengths that cover empty, length-1, one full chunk, and a
        // non-power-of-two remainder.
        let pool: Vec<f64> = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            1e-300,
            1e-12,
            0.02425,
            0.25,
            0.5,
            0.75,
            0.97575,
            1.0 - 1e-12,
            1.0,
            1.5,
            -0.25,
            f64::INFINITY,
            f64::NAN,
            0.9,
        ];
        for len in [0usize, 1, 7, 8, 9, 16, 17] {
            let ps: Vec<f64> = (0..len).map(|i| pool[i % pool.len()]).collect();
            let mut got = ps.clone();
            inverse_standard_normal_cdf_slice(&mut got);
            for (p, g) in ps.iter().zip(&got) {
                assert_eq!(
                    g.to_bits(),
                    inverse_standard_normal_cdf(*p).to_bits(),
                    "inverse_standard_normal_cdf({p})"
                );
            }
        }
    }

    #[test]
    fn ln_factorial_exact_small() {
        assert_close(ln_factorial(0), 0.0, 1e-15);
        assert_close(ln_factorial(5), 120.0f64.ln(), 1e-15);
        assert_close(ln_factorial(20), 2_432_902_008_176_640_000.0f64.ln(), 1e-15);
        // continuity across the table boundary
        assert_close(ln_factorial(21), ln_factorial(20) + 21.0f64.ln(), 1e-12);
    }
}
