//! Serial correlation.
//!
//! The lag-k sample autocorrelation of a series, which the time-between-
//! failure analysis uses to probe whether failures cluster in time.

use crate::error::StatsError;

/// Sample autocorrelation of a series at the given lag:
/// `r(k) = Σ (x_t − x̄)(x_{t+k} − x̄) / Σ (x_t − x̄)²`.
///
/// Used to probe serial dependence in the failure process — e.g. whether
/// a short inter-arrival gap predicts another short gap (it does, in
/// clustered failure data; it would not under a renewal process).
///
/// # Errors
///
/// [`StatsError::SampleTooSmall`] when `lag + 2 > n` or `lag == 0` is
/// requested with n < 2; [`StatsError::NonFinite`] for NaN/∞;
/// [`StatsError::DegenerateSample`] for zero variance.
pub fn autocorrelation(series: &[f64], lag: usize) -> Result<f64, StatsError> {
    if series.len() < lag + 2 {
        return Err(StatsError::SampleTooSmall {
            needed: lag + 2,
            got: series.len(),
        });
    }
    if series.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    let denom: f64 = series.iter().map(|&v| (v - mean) * (v - mean)).sum();
    if denom <= 0.0 {
        return Err(StatsError::DegenerateSample);
    }
    let numer: f64 = series
        .windows(lag + 1)
        .map(|w| (w[0] - mean) * (w[lag] - mean))
        .sum();
    Ok(numer / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocorrelation_of_iid_is_near_zero() {
        use crate::dist::{sample_n, Exponential};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = Exponential::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let series = sample_n(&d, 5_000, &mut rng);
        for lag in 1..5 {
            let r = autocorrelation(&series, lag).unwrap();
            assert!(r.abs() < 0.05, "lag {lag}: r = {r}");
        }
    }

    #[test]
    fn autocorrelation_of_ar1_is_positive() {
        // x_{t+1} = 0.8 x_t + noise → r(1) ≈ 0.8, r(2) ≈ 0.64.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let mut x = 0.0f64;
        let series: Vec<f64> = (0..20_000)
            .map(|_| {
                x = 0.8 * x + rng.random::<f64>() - 0.5;
                x
            })
            .collect();
        let r1 = autocorrelation(&series, 1).unwrap();
        let r2 = autocorrelation(&series, 2).unwrap();
        assert!((r1 - 0.8).abs() < 0.05, "r1 = {r1}");
        assert!((r2 - 0.64).abs() < 0.07, "r2 = {r2}");
        let r3 = autocorrelation(&series, 3).unwrap();
        assert!(r1 > r2 && r2 > r3, "autocorrelation decays with lag");
    }

    #[test]
    fn autocorrelation_validation() {
        assert!(autocorrelation(&[1.0, 2.0], 1).is_err()); // needs lag+2
        assert!(autocorrelation(&[1.0, 2.0, f64::NAN], 1).is_err());
        assert!(matches!(
            autocorrelation(&[3.0, 3.0, 3.0], 1),
            Err(StatsError::DegenerateSample)
        ));
    }
}
