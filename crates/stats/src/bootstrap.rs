//! Nonparametric bootstrap confidence intervals.
//!
//! Used by the extension study: is the paper's "Weibull shape 0.7–0.8,
//! hence decreasing hazard" conclusion stable under resampling?

use crate::error::StatsError;
use rand::{Rng, RngExt};

/// A two-sided percentile bootstrap confidence interval for an arbitrary
/// statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower percentile bound.
    pub lo: f64,
    /// Point estimate on the original sample.
    pub point: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level actually used, e.g. 0.95.
    pub level: f64,
}

/// Percentile bootstrap: resample `data` with replacement `replicates`
/// times, apply `statistic` to each resample, and take the empirical
/// `(1±level)/2` quantiles.
///
/// Resamples on which the statistic fails (returns `None`) are skipped; if
/// more than half fail, the whole bootstrap errors.
///
/// # Errors
///
/// [`StatsError::EmptySample`] for empty data,
/// [`StatsError::InvalidParameter`] for a level outside (0, 1) or zero
/// replicates, [`StatsError::NoConvergence`] if too many resamples fail.
pub fn bootstrap_ci<F, R>(
    data: &[f64],
    statistic: F,
    replicates: usize,
    level: f64,
    rng: &mut R,
) -> Result<ConfidenceInterval, StatsError>
where
    F: Fn(&[f64]) -> Option<f64>,
    R: Rng + ?Sized,
{
    if data.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if !(0.0..1.0).contains(&level) || level <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "level",
            value: level,
        });
    }
    if replicates == 0 {
        return Err(StatsError::InvalidParameter {
            name: "replicates",
            value: 0.0,
        });
    }
    let point = statistic(data).ok_or(StatsError::DegenerateSample)?;
    let n = data.len();
    let mut stats = Vec::with_capacity(replicates);
    let mut resample = vec![0.0f64; n];
    for _ in 0..replicates {
        for slot in resample.iter_mut() {
            *slot = data[rng.random_range(0..n)];
        }
        if let Some(s) = statistic(&resample) {
            if s.is_finite() {
                stats.push(s);
            }
        }
    }
    if stats.len() < replicates / 2 {
        return Err(StatsError::NoConvergence {
            what: "bootstrap (too many failed resamples)",
            iterations: replicates,
        });
    }
    stats.sort_unstable_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    Ok(ConfidenceInterval {
        lo: crate::descriptive::quantile_sorted(&stats, alpha),
        point,
        hi: crate::descriptive::quantile_sorted(&stats, 1.0 - alpha),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::mean;
    use crate::dist::{sample_n, Continuous, Weibull};
    use crate::prepared::PreparedSample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn input_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        let stat = |d: &[f64]| Some(mean(d));
        assert!(bootstrap_ci(&[], stat, 100, 0.95, &mut rng).is_err());
        assert!(bootstrap_ci(&[1.0], stat, 0, 0.95, &mut rng).is_err());
        assert!(bootstrap_ci(&[1.0], stat, 100, 1.5, &mut rng).is_err());
        assert!(bootstrap_ci(&[1.0], stat, 100, 0.0, &mut rng).is_err());
    }

    #[test]
    fn ci_for_mean_covers_truth() {
        let mut rng = StdRng::seed_from_u64(2);
        let truth = Weibull::new(0.7, 100.0).unwrap();
        let data = sample_n(&truth, 2_000, &mut rng);
        let ci = bootstrap_ci(&data, |d| Some(mean(d)), 500, 0.95, &mut rng).unwrap();
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!(ci.lo < ci.hi);
        // True mean should usually be inside a 95% CI from 2000 points.
        assert!(
            ci.lo <= truth.mean() && truth.mean() <= ci.hi,
            "ci [{}, {}] vs {}",
            ci.lo,
            ci.hi,
            truth.mean()
        );
    }

    #[test]
    fn ci_for_weibull_shape_excludes_one() {
        // The paper's decreasing-hazard claim: the shape CI should sit
        // strictly below 1 for shape-0.7 data.
        let mut rng = StdRng::seed_from_u64(3);
        let truth = Weibull::new(0.7, 3600.0).unwrap();
        let data = sample_n(&truth, 3_000, &mut rng);
        let ci = bootstrap_ci(
            &data,
            |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
            200,
            0.95,
            &mut rng,
        )
        .unwrap();
        assert!(
            ci.hi < 1.0,
            "shape CI [{}, {}] must exclude 1",
            ci.lo,
            ci.hi
        );
        // The point estimate and CI sit near the true shape (coverage of a
        // single 95% CI is not guaranteed, so allow estimation slack).
        assert!((ci.point - 0.7).abs() < 0.05, "point {}", ci.point);
        assert!(ci.lo < 0.75 && ci.hi > 0.65, "ci [{}, {}]", ci.lo, ci.hi);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let truth = Weibull::new(1.0, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let small = sample_n(&truth, 100, &mut rng);
        let large = sample_n(&truth, 10_000, &mut rng);
        let ci_small = bootstrap_ci(&small, |d| Some(mean(d)), 300, 0.95, &mut rng).unwrap();
        let ci_large = bootstrap_ci(&large, |d| Some(mean(d)), 300, 0.95, &mut rng).unwrap();
        assert!(ci_large.hi - ci_large.lo < ci_small.hi - ci_small.lo);
    }

    #[test]
    fn prepared_ci_supports_fit_statistics() {
        let mut rng = StdRng::seed_from_u64(22);
        let truth = Weibull::new(0.7, 3600.0).unwrap();
        let data = sample_n(&truth, 800, &mut rng);
        let slice_ci = bootstrap_ci(
            &data,
            |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
            200,
            0.95,
            &mut StdRng::seed_from_u64(99),
        )
        .unwrap();
        // A statistic that prepares each resample fits the same shapes.
        let prepared_ci = bootstrap_ci(
            &data,
            |d| {
                let sample = PreparedSample::new(d).ok()?;
                Weibull::fit_prepared(&sample).ok().map(|w| w.shape())
            },
            200,
            0.95,
            &mut StdRng::seed_from_u64(99),
        )
        .unwrap();
        assert_eq!(prepared_ci, slice_ci);
        assert!(prepared_ci.hi < 1.0, "shape CI must exclude 1");
    }

    #[test]
    fn failing_statistic_errors_out() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = vec![1.0; 50];
        // Weibull fit always fails on constant data → NoConvergence or
        // DegenerateSample depending on where it fails first.
        let result = bootstrap_ci(
            &data,
            |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
            50,
            0.9,
            &mut rng,
        );
        assert!(result.is_err());
    }
}
