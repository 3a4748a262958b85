//! Event-driven simulation of a checkpointed job under failures.
//!
//! Reproduces the LANL operating model (Section 2.2 of the paper):
//! long-running computation, periodic checkpoints, and on failure the job
//! restarts from the most recent checkpoint after the node is repaired.

use hpcfail_stats::dist::Continuous;
use rand::Rng;

use crate::error::CheckpointError;
use crate::strategies::Strategy;

/// Static description of the job and its checkpoint costs (all seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConfig {
    /// Total useful work the job must complete.
    pub total_work_secs: f64,
    /// Cost of writing one checkpoint.
    pub checkpoint_cost_secs: f64,
    /// Fixed restart cost after a failure (reload checkpoint, requeue).
    pub restart_cost_secs: f64,
}

impl JobConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InvalidParameter`] if any field is non-finite,
    /// work is non-positive, or costs are negative.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        if !self.total_work_secs.is_finite() || self.total_work_secs <= 0.0 {
            return Err(CheckpointError::InvalidParameter {
                name: "total_work_secs",
                value: self.total_work_secs,
            });
        }
        if !self.checkpoint_cost_secs.is_finite() || self.checkpoint_cost_secs < 0.0 {
            return Err(CheckpointError::InvalidParameter {
                name: "checkpoint_cost_secs",
                value: self.checkpoint_cost_secs,
            });
        }
        if !self.restart_cost_secs.is_finite() || self.restart_cost_secs < 0.0 {
            return Err(CheckpointError::InvalidParameter {
                name: "restart_cost_secs",
                value: self.restart_cost_secs,
            });
        }
        Ok(())
    }
}

/// Where the wall-clock time went.
///
/// Conservation invariant (tested):
/// `wall = useful + checkpoint + lost + restart + downtime`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOutcome {
    /// Total wall-clock time to completion.
    pub wall_secs: f64,
    /// Committed useful work (equals the configured total on success).
    pub useful_secs: f64,
    /// Time spent writing completed checkpoints.
    pub checkpoint_secs: f64,
    /// Work and partial checkpoints lost to failures.
    pub lost_secs: f64,
    /// Fixed restart costs paid.
    pub restart_secs: f64,
    /// Node repair downtime endured.
    pub downtime_secs: f64,
    /// Number of failures endured.
    pub failures: u64,
}

impl SimOutcome {
    /// The fraction of wall time not spent on useful work.
    pub fn waste_fraction(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            f64::NAN
        } else {
            1.0 - self.useful_secs / self.wall_secs
        }
    }

    /// Check the conservation invariant within a tolerance.
    pub fn conserves_time(&self) -> bool {
        let sum = self.useful_secs
            + self.checkpoint_secs
            + self.lost_secs
            + self.restart_secs
            + self.downtime_secs;
        (sum - self.wall_secs).abs() <= 1e-6 * self.wall_secs.max(1.0)
    }
}

/// Cap on endured failures before declaring the job stuck — reached only
/// when the mean TBF is far below the checkpoint interval.
const MAX_FAILURES: u64 = 1_000_000;

/// Simulate one job to completion.
///
/// Failures arrive as a renewal process drawn from `tbf` (the clock
/// restarts after each repair — the post-repair state is "as fresh as
/// after a failure", which is the natural reading of a fitted TBF
/// distribution). Repair durations are drawn from `repair`.
///
/// # Errors
///
/// [`CheckpointError::InvalidParameter`] for bad configs,
/// [`CheckpointError::NoProgress`] if the job cannot finish within the
/// failure budget.
pub fn simulate<R: Rng + ?Sized>(
    job: &JobConfig,
    strategy: &dyn Strategy,
    tbf: &dyn Continuous,
    repair: &dyn Continuous,
    rng: &mut R,
) -> Result<SimOutcome, CheckpointError> {
    job.validate()?;
    let mut out = SimOutcome::default();
    let mut committed = 0.0f64;
    let delta = job.checkpoint_cost_secs;

    'job: while committed < job.total_work_secs {
        if out.failures >= MAX_FAILURES {
            return Err(CheckpointError::NoProgress {
                failures: out.failures,
            });
        }
        // Time until the next failure of this segment.
        let mut rng_ref: &mut R = rng;
        let fail_at = tbf.sample(&mut rng_ref).max(1e-9);
        let mut elapsed = 0.0f64; // wall time within this segment

        // Run work+checkpoint cycles until failure or completion.
        loop {
            let tau = strategy.interval(elapsed).max(1e-9);
            let remaining = job.total_work_secs - committed;
            let work_chunk = tau.min(remaining);
            let is_final = work_chunk >= remaining - 1e-12;
            // The final chunk does not need a trailing checkpoint.
            let cycle = work_chunk + if is_final { 0.0 } else { delta };

            if elapsed + cycle <= fail_at {
                elapsed += cycle;
                committed += work_chunk;
                out.useful_secs += work_chunk;
                if !is_final {
                    out.checkpoint_secs += delta;
                }
                if committed >= job.total_work_secs - 1e-12 {
                    out.wall_secs += elapsed;
                    break 'job;
                }
            } else {
                // Failure strikes mid-cycle: everything since the last
                // completed checkpoint is lost (work and any partial
                // checkpoint time).
                let into_cycle = fail_at - elapsed;
                out.lost_secs += into_cycle;
                out.wall_secs += fail_at;
                out.failures += 1;
                let mut rng_ref: &mut R = rng;
                let down = repair.sample(&mut rng_ref).max(0.0);
                out.downtime_secs += down;
                out.restart_secs += job.restart_cost_secs;
                out.wall_secs += down + job.restart_cost_secs;
                continue 'job;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{HazardAware, Periodic};
    use hpcfail_stats::dist::{Exponential, LogNormal, Weibull};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job() -> JobConfig {
        JobConfig {
            total_work_secs: 30.0 * 86_400.0, // a month of compute
            checkpoint_cost_secs: 300.0,      // 5-minute checkpoint
            restart_cost_secs: 600.0,
        }
    }

    fn repair_dist() -> LogNormal {
        // Table 2 "All": median 54 min, mean 355 min, in seconds.
        LogNormal::from_median_mean(54.0 * 60.0, 355.0 * 60.0).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut j = job();
        j.total_work_secs = 0.0;
        assert!(j.validate().is_err());
        let mut j = job();
        j.checkpoint_cost_secs = -1.0;
        assert!(j.validate().is_err());
        let mut j = job();
        j.restart_cost_secs = f64::NAN;
        assert!(j.validate().is_err());
        assert!(job().validate().is_ok());
    }

    #[test]
    fn no_failures_means_exact_overhead() {
        // TBF far beyond the job length → zero failures, wall time =
        // work + checkpoints.
        let j = job();
        let tbf = Exponential::from_mean(1e15).unwrap();
        let strategy = Periodic::new(86_400.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = simulate(&j, &strategy, &tbf, &repair_dist(), &mut rng).unwrap();
        assert_eq!(out.failures, 0);
        assert!((out.useful_secs - j.total_work_secs).abs() < 1e-6);
        // 30 daily chunks → 29 checkpoints.
        assert!((out.checkpoint_secs - 29.0 * 300.0).abs() < 1e-6);
        assert!(out.conserves_time());
        assert_eq!(out.lost_secs, 0.0);
    }

    #[test]
    fn conservation_with_failures() {
        let j = job();
        let tbf = Weibull::new(0.7, 5.0 * 86_400.0).unwrap();
        let strategy = Periodic::new(3.0 * 3_600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = simulate(&j, &strategy, &tbf, &repair_dist(), &mut rng).unwrap();
        assert!(out.failures > 0);
        assert!(out.conserves_time(), "{out:?}");
        assert!((out.useful_secs - j.total_work_secs).abs() < 1e-6);
        assert!(out.lost_secs > 0.0);
        assert!(out.downtime_secs > 0.0);
    }

    #[test]
    fn young_interval_beats_bad_intervals_under_exponential() {
        // Under exponential failures the Young interval should waste less
        // than a far-too-short or far-too-long interval.
        let j = JobConfig {
            total_work_secs: 300.0 * 86_400.0,
            checkpoint_cost_secs: 300.0,
            restart_cost_secs: 0.0,
        };
        let mtbf = 2.0 * 86_400.0;
        let tbf = Exponential::from_mean(mtbf).unwrap();
        // Fixed tiny repair so downtime noise doesn't drown the signal.
        let repair = Exponential::from_mean(60.0).unwrap();
        let young = crate::daly::young_interval(300.0, mtbf).unwrap();
        let waste = |tau: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let strategy = Periodic::new(tau).unwrap();
            simulate(&j, &strategy, &tbf, &repair, &mut rng)
                .unwrap()
                .waste_fraction()
        };
        let w_young: f64 = (0..5).map(|s| waste(young, s)).sum::<f64>() / 5.0;
        let w_short: f64 = (0..5).map(|s| waste(young / 10.0, s)).sum::<f64>() / 5.0;
        let w_long: f64 = (0..5).map(|s| waste(young * 10.0, s)).sum::<f64>() / 5.0;
        assert!(w_young < w_short, "young {w_young} vs short {w_short}");
        assert!(w_young < w_long, "young {w_young} vs long {w_long}");
    }

    #[test]
    fn hazard_aware_runs_to_completion() {
        let j = job();
        let w = Weibull::new(0.7, 5.0 * 86_400.0).unwrap();
        let strategy = HazardAware::new(w, 300.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = simulate(&j, &strategy, &w, &repair_dist(), &mut rng).unwrap();
        assert!(out.conserves_time());
        assert!((out.useful_secs - j.total_work_secs).abs() < 1e-6);
    }

    #[test]
    fn hopeless_job_errors_out() {
        // Mean TBF of 10 s with hour-long mandatory chunks → no progress.
        let j = JobConfig {
            total_work_secs: 86_400.0,
            checkpoint_cost_secs: 3_600.0,
            restart_cost_secs: 0.0,
        };
        let tbf = Exponential::from_mean(10.0).unwrap();
        let repair = Exponential::from_mean(1.0).unwrap();
        let strategy = Periodic::new(3_600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Use a reduced failure budget via the public API by observing the
        // error after MAX_FAILURES would take too long; instead verify the
        // waste fraction is extreme on a short horizon.
        let small = JobConfig {
            total_work_secs: 7_200.0,
            ..j
        };
        let result = simulate(&small, &strategy, &tbf, &repair, &mut rng);
        assert!(matches!(result, Err(CheckpointError::NoProgress { .. })));
    }

    #[test]
    fn waste_fraction_sane() {
        let out = SimOutcome {
            wall_secs: 100.0,
            useful_secs: 80.0,
            checkpoint_secs: 10.0,
            lost_secs: 5.0,
            restart_secs: 2.0,
            downtime_secs: 3.0,
            failures: 1,
        };
        assert!((out.waste_fraction() - 0.2).abs() < 1e-12);
        assert!(out.conserves_time());
        let empty = SimOutcome::default();
        assert!(empty.waste_fraction().is_nan());
    }
}
