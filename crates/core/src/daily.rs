//! Failures-per-day analysis — how bursty is the site day over day?
//!
//! The paper's Fig. 5 shows *which* hours and weekdays fail more; this
//! module asks the complementary question the journal extension of the
//! study pursues: how dispersed are daily failure counts, and do high-
//! failure days cluster? Equidispersed, uncorrelated daily counts would
//! justify Poisson workload models; the LANL-like data is neither.

use hpcfail_records::time::DAY;
use hpcfail_records::{Timestamp, TraceIndex};
use hpcfail_stats::correlation::autocorrelation;
use hpcfail_stats::dist::{Discrete, NegativeBinomial, Poisson};

use crate::error::AnalysisError;

/// Daily failure-count series and its dispersion diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyAnalysis {
    /// Failures on each day, from the first to the last day with any
    /// record (inclusive; zero-failure days included).
    pub counts: Vec<u64>,
    /// First day covered (midnight).
    pub first_day: Timestamp,
    /// variance/mean of the daily counts (1 under Poisson).
    pub dispersion_index: f64,
    /// Lag-1 autocorrelation of daily counts (0 under independence).
    pub lag1_autocorrelation: f64,
    /// NLL of the Poisson fit to daily counts.
    pub poisson_nll: Option<f64>,
    /// NLL of the negative-binomial fit.
    pub negative_binomial_nll: Option<f64>,
}

impl DailyAnalysis {
    /// Whether the negative binomial explains daily counts better than
    /// the Poisson (the overdispersion verdict).
    pub fn negative_binomial_wins(&self) -> bool {
        match (self.negative_binomial_nll, self.poisson_nll) {
            (Some(nb), Some(p)) => nb < p,
            _ => false,
        }
    }

    /// Mean failures per day.
    pub fn mean_per_day(&self) -> f64 {
        if self.counts.is_empty() {
            f64::NAN
        } else {
            self.counts.iter().sum::<u64>() as f64 / self.counts.len() as f64
        }
    }
}

/// Bucket an indexed trace into daily failure counts and fit the count
/// models.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for traces spanning fewer than
/// 30 days.
pub fn analyze_indexed(index: &TraceIndex) -> Result<DailyAnalysis, AnalysisError> {
    let all = index.all();
    let (Some(first), Some(last)) = (all.first_start(), all.last_start()) else {
        return Err(AnalysisError::InsufficientData {
            what: "daily counts",
            needed: 30,
            got: 0,
        });
    };
    let first_day = Timestamp::from_secs(first.as_secs() / DAY * DAY);
    let days = ((last.as_secs() - first_day.as_secs()) / DAY + 1) as usize;
    if days < 30 {
        return Err(AnalysisError::InsufficientData {
            what: "daily counts",
            needed: 30,
            got: days,
        });
    }
    let mut counts = vec![0u64; days];
    for r in all.iter() {
        let idx = ((r.start().as_secs() - first_day.as_secs()) / DAY) as usize;
        if let Some(c) = counts.get_mut(idx) {
            *c += 1;
        }
    }
    let as_f: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let dispersion_index = Poisson::dispersion_index(&counts);
    let lag1_autocorrelation = autocorrelation(&as_f, 1).unwrap_or(f64::NAN);
    let poisson_nll = Poisson::fit_mle(&counts).ok().map(|d| d.nll(&counts));
    let negative_binomial_nll = NegativeBinomial::fit_mle(&counts)
        .ok()
        .map(|d| d.nll(&counts));
    Ok(DailyAnalysis {
        counts,
        first_day,
        dispersion_index,
        lag1_autocorrelation,
        poisson_nll,
        negative_binomial_nll,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{DetailedCause, FailureRecord, FailureTrace, NodeId, SystemId, Workload};

    fn analyze_trace(trace: &FailureTrace) -> Result<DailyAnalysis, AnalysisError> {
        analyze_indexed(&trace.index())
    }

    #[test]
    fn insufficient_data_rejected() {
        assert!(matches!(
            analyze_trace(&FailureTrace::new()),
            Err(AnalysisError::InsufficientData { .. })
        ));
        // A trace spanning a single day is also rejected.
        let rec = FailureRecord::new(
            SystemId::new(1),
            NodeId::new(0),
            Timestamp::from_secs(100),
            Timestamp::from_secs(200),
            Workload::Compute,
            DetailedCause::Memory,
        )
        .unwrap();
        assert!(analyze_trace(&FailureTrace::from_records(vec![rec])).is_err());
    }

    #[test]
    fn counting_covers_every_day() {
        // One failure per day for 40 days, then a 10-day quiet stretch,
        // then one more.
        let mut records = Vec::new();
        for d in 0..40u64 {
            records.push(
                FailureRecord::new(
                    SystemId::new(1),
                    NodeId::new(0),
                    Timestamp::from_secs(d * DAY + 3_600),
                    Timestamp::from_secs(d * DAY + 7_200),
                    Workload::Compute,
                    DetailedCause::Memory,
                )
                .unwrap(),
            );
        }
        records.push(
            FailureRecord::new(
                SystemId::new(1),
                NodeId::new(0),
                Timestamp::from_secs(50 * DAY),
                Timestamp::from_secs(50 * DAY + 60),
                Workload::Compute,
                DetailedCause::Memory,
            )
            .unwrap(),
        );
        let a = analyze_trace(&FailureTrace::from_records(records)).unwrap();
        assert_eq!(a.counts.len(), 51);
        assert_eq!(a.counts.iter().sum::<u64>(), 41);
        assert_eq!(&a.counts[40..50], &[0; 10]);
        assert!((a.mean_per_day() - 41.0 / 51.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_site_is_overdispersed_and_correlated() {
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let a = analyze_trace(&trace).unwrap();
        // Bursts + lifecycle + weekends make daily counts overdispersed…
        assert!(
            a.dispersion_index > 1.5,
            "dispersion {}",
            a.dispersion_index
        );
        assert!(a.negative_binomial_wins());
        // …and serially correlated (systems ramp up and down together).
        assert!(
            a.lag1_autocorrelation > 0.1,
            "lag-1 autocorrelation {}",
            a.lag1_autocorrelation
        );
        // The site averages several failures per day (~23k over ~9.5y).
        assert!(
            (3.0..15.0).contains(&a.mean_per_day()),
            "{}",
            a.mean_per_day()
        );
    }

    #[test]
    fn poisson_world_is_equidispersed() {
        use hpcfail_stats::dist::{Continuous, Exponential};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gap = Exponential::from_mean(3.0 * 3_600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = 0.0f64;
        let mut records = Vec::new();
        while t < 365.0 * DAY as f64 {
            t += gap.sample(&mut rng);
            let at = Timestamp::from_secs(t as u64);
            records.push(
                FailureRecord::new(
                    SystemId::new(1),
                    NodeId::new(0),
                    at,
                    at + 60,
                    Workload::Compute,
                    DetailedCause::Memory,
                )
                .unwrap(),
            );
        }
        let a = analyze_trace(&FailureTrace::from_records(records)).unwrap();
        assert!(
            (a.dispersion_index - 1.0).abs() < 0.25,
            "{}",
            a.dispersion_index
        );
        assert!(
            a.lag1_autocorrelation.abs() < 0.12,
            "{}",
            a.lag1_autocorrelation
        );
    }
}
