//! Empirical hazard-rate estimation.
//!
//! The paper's central qualitative claim about time between failures is a
//! *decreasing* hazard rate (Weibull shape 0.7–0.8). This module estimates
//! the hazard directly from data so that claim can be checked without
//! assuming a parametric family.
//!
//! The estimate is built from a [`PreparedSample`]: its equal-probability
//! bin edges are quantiles of the sample's shared sorted view, so a caller
//! that also fits the sample (the TBF analysis does) sorts it once.

use crate::descriptive::quantile_sorted;
use crate::error::StatsError;
use crate::prepared::PreparedSample;

/// An empirical hazard estimate over interval bins:
/// `h(bin) = (# events in bin) / (Σ exposure time in bin)`,
/// where exposure counts every observation that survived into the bin.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalHazard {
    edges: Vec<f64>,
    rates: Vec<f64>,
}

impl EmpiricalHazard {
    /// Estimate the hazard from a sample of durations using `bins`
    /// equal-probability bins (so each bin has roughly the same number of
    /// events and the estimate has uniform relative precision). The edges
    /// are read off [`PreparedSample::sorted`]; the exposure sums run over
    /// the observations in their original order.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] for `bins < 2`;
    /// [`StatsError::OutOfSupport`] unless every duration is positive;
    /// [`StatsError::SampleTooSmall`] if there are fewer observations than
    /// `2 * bins`; [`StatsError::DegenerateSample`] when the quantiles
    /// leave fewer than two distinct bins (e.g. all values equal).
    pub fn from_sample(sample: &PreparedSample, bins: usize) -> Result<Self, StatsError> {
        if bins < 2 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: bins as f64,
            });
        }
        sample.check_positive("empirical hazard")?;
        let durations = sample.values();
        if durations.len() < 2 * bins {
            return Err(StatsError::SampleTooSmall {
                needed: 2 * bins,
                got: durations.len(),
            });
        }
        // Equal-probability bin edges from the empirical quantiles.
        let sorted = sample.sorted();
        let mut edges: Vec<f64> = (0..=bins)
            .map(|i| quantile_sorted(sorted, i as f64 / bins as f64))
            .collect();
        edges.dedup();
        if edges.len() < 3 {
            return Err(StatsError::DegenerateSample);
        }
        let nb = edges.len() - 1;
        let mut counts = vec![0usize; nb];
        let mut exposure = vec![0.0f64; nb];
        for &d in durations {
            for b in 0..nb {
                let lo = edges[b];
                let hi = edges[b + 1];
                // First bin is closed on the left so the sample minimum
                // (which sits exactly on edges[0]) is counted.
                if b > 0 && d <= lo {
                    break;
                }
                // Time spent at risk inside this bin.
                exposure[b] += (d.min(hi) - lo).max(0.0);
                if d <= hi {
                    counts[b] += 1;
                    break;
                }
            }
        }
        // The largest observation(s) fall exactly on the last edge; the loop
        // above credits them to the last bin via `d <= hi`.
        let rates = counts
            .iter()
            .zip(&exposure)
            .map(|(&c, &e)| if e > 0.0 { c as f64 / e } else { f64::NAN })
            .collect();
        Ok(EmpiricalHazard { edges, rates })
    }

    /// A robust summary of the hazard trend: the Spearman-style sign of
    /// the correlation between bin midpoint and estimated rate.
    ///
    /// Returns [`HazardTrend::Decreasing`] when later bins have
    /// systematically lower hazard — the paper's finding for TBF.
    pub fn trend(&self) -> HazardTrend {
        let mids: Vec<f64> = self.edges.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..mids.len() {
            for j in (i + 1)..mids.len() {
                if !self.rates[i].is_finite() || !self.rates[j].is_finite() {
                    continue;
                }
                match self.rates[j].partial_cmp(&self.rates[i]) {
                    Some(std::cmp::Ordering::Greater) => concordant += 1,
                    Some(std::cmp::Ordering::Less) => discordant += 1,
                    _ => {}
                }
            }
        }
        let total = concordant + discordant;
        if total == 0 {
            return HazardTrend::Flat;
        }
        let tau = (concordant - discordant) as f64 / total as f64;
        if tau > 0.3 {
            HazardTrend::Increasing
        } else if tau < -0.3 {
            HazardTrend::Decreasing
        } else {
            HazardTrend::Flat
        }
    }
}

/// Qualitative direction of an empirical hazard function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardTrend {
    /// Hazard decreases with time — long quiet spells predict continued
    /// quiet (paper's TBF finding).
    Decreasing,
    /// No clear monotone trend (exponential-like).
    Flat,
    /// Hazard increases with time (wear-out).
    Increasing,
}

impl std::fmt::Display for HazardTrend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HazardTrend::Decreasing => "decreasing",
            HazardTrend::Flat => "flat",
            HazardTrend::Increasing => "increasing",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_n, Weibull};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hazard(data: &[f64], bins: usize) -> Result<EmpiricalHazard, StatsError> {
        EmpiricalHazard::from_sample(&PreparedSample::new(data)?, bins)
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            hazard(&[1.0; 100], 1),
            Err(StatsError::InvalidParameter { name: "bins", .. })
        ));
        assert!(matches!(
            hazard(&[1.0, 2.0, 3.0], 5),
            Err(StatsError::SampleTooSmall { needed: 10, got: 3 })
        ));
        assert!(matches!(
            hazard(&[1.0, -1.0, 2.0, 3.0], 2),
            Err(StatsError::OutOfSupport { .. })
        ));
        assert!(matches!(
            hazard(&[2.0; 100], 5),
            Err(StatsError::DegenerateSample)
        ));
    }

    #[test]
    fn weibull_sub_one_shape_detected_as_decreasing() {
        // The paper's case: shape 0.7 → decreasing hazard.
        let truth = Weibull::new(0.7, 1000.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data = sample_n(&truth, 20_000, &mut rng);
        let h = hazard(&data, 10).unwrap();
        assert_eq!(h.trend(), HazardTrend::Decreasing);
    }

    #[test]
    fn weibull_super_one_shape_detected_as_increasing() {
        let truth = Weibull::new(3.0, 1000.0).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let data = sample_n(&truth, 20_000, &mut rng);
        let h = hazard(&data, 10).unwrap();
        assert_eq!(h.trend(), HazardTrend::Increasing);
    }

    #[test]
    fn exponential_detected_as_flat() {
        let truth = crate::dist::Exponential::new(0.001).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let data = sample_n(&truth, 50_000, &mut rng);
        let h = hazard(&data, 8).unwrap();
        assert_eq!(h.trend(), HazardTrend::Flat);
    }

    #[test]
    fn edges_bound_every_rate_bin() {
        let truth = Weibull::new(0.8, 100.0).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let data = sample_n(&truth, 5_000, &mut rng);
        let h = hazard(&data, 10).unwrap();
        assert_eq!(h.rates.len(), 10);
        assert_eq!(h.edges.len(), h.rates.len() + 1);
    }

    #[test]
    fn hazard_magnitude_matches_parametric() {
        // For an exponential with rate λ the hazard is λ in every bin.
        let lambda = 0.01;
        let truth = crate::dist::Exponential::new(lambda).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let data = sample_n(&truth, 100_000, &mut rng);
        let h = hazard(&data, 5).unwrap();
        for (i, &r) in h.rates.iter().enumerate() {
            // Last bin is noisy (few exposures); allow wide tolerance there.
            let tol = if i + 1 == h.rates.len() { 0.5 } else { 0.1 };
            assert!(
                (r - lambda).abs() / lambda < tol,
                "bin {i}: rate {r} vs {lambda}"
            );
        }
    }

    #[test]
    fn trend_display() {
        assert_eq!(HazardTrend::Decreasing.to_string(), "decreasing");
        assert_eq!(HazardTrend::Flat.to_string(), "flat");
        assert_eq!(HazardTrend::Increasing.to_string(), "increasing");
    }
}
