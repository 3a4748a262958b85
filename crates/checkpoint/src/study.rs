//! The checkpoint study: what does the paper's "failures are Weibull
//! with decreasing hazard, not exponential" finding cost a scheduler that
//! assumes exponential failures?
//!
//! For a fixed mean TBF we compare three strategies under Weibull
//! failures of varying shape:
//!
//! 1. **Exponential-assumed periodic** — Young's interval from the MTBF;
//! 2. **Tuned periodic** — the best fixed interval found by sweep;
//! 3. **Hazard-aware** — intervals scaled by the instantaneous hazard.
//!
//! This is the experiment the paper's introduction motivates ("the design
//! and analysis of checkpoint strategies relies on certain statistical
//! properties of failures").

use hpcfail_stats::dist::{Continuous, Exponential, Weibull};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::daly::young_interval;
use crate::error::CheckpointError;
use crate::sim::{simulate, JobConfig, SimOutcome};
use crate::strategies::{HazardAware, Periodic, Strategy};

/// Result of evaluating one strategy at one Weibull shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyPoint {
    /// Weibull shape of the failure process.
    pub shape: f64,
    /// Mean waste fraction of the exponential-assumed Young interval.
    pub young_waste: f64,
    /// Mean waste fraction of the best swept fixed interval.
    pub tuned_waste: f64,
    /// The interval the sweep selected (seconds).
    pub tuned_tau: f64,
    /// Mean waste fraction of the hazard-aware strategy.
    pub hazard_aware_waste: f64,
}

/// Configuration of the study sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// The job to run at every point.
    pub job: JobConfig,
    /// Mean time between failures (seconds), held constant across
    /// shapes.
    pub mean_tbf_secs: f64,
    /// Mean repair time (seconds).
    pub mean_repair_secs: f64,
    /// Replications averaged per point.
    pub replications: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl StudyConfig {
    /// A laptop-scale default: a 60-day job on a node with 4-day MTBF,
    /// 5-minute checkpoints, 1-hour mean repair, 5 replications.
    pub fn default_study() -> Self {
        StudyConfig {
            job: JobConfig {
                total_work_secs: 60.0 * 86_400.0,
                checkpoint_cost_secs: 300.0,
                restart_cost_secs: 300.0,
            },
            mean_tbf_secs: 4.0 * 86_400.0,
            mean_repair_secs: 3_600.0,
            replications: 5,
            seed: 42,
        }
    }
}

/// Mean waste fraction of a strategy over the configured replications.
///
/// Uses **common random numbers**: every strategy sees the same per-
/// replication seed, so strategy comparisons are paired and the sweep's
/// argmin is meaningful at small replication counts.
fn mean_waste(
    config: &StudyConfig,
    strategy: &dyn Strategy,
    tbf: &dyn Continuous,
    repair: &dyn Continuous,
) -> Result<f64, CheckpointError> {
    let mut total = 0.0;
    for rep in 0..config.replications {
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let out: SimOutcome = simulate(&config.job, strategy, tbf, repair, &mut rng)?;
        total += out.waste_fraction();
    }
    Ok(total / config.replications as f64)
}

/// Evaluate the three strategies at one Weibull shape.
///
/// # Errors
///
/// Propagates parameter/simulation errors.
pub(crate) fn evaluate_shape(
    config: &StudyConfig,
    shape: f64,
) -> Result<StudyPoint, CheckpointError> {
    // Mean held fixed across shapes.
    let tbf = Weibull::with_mean(shape, config.mean_tbf_secs)?;
    let repair = Exponential::from_mean(config.mean_repair_secs)?;

    let young_tau = young_interval(config.job.checkpoint_cost_secs, config.mean_tbf_secs)?;
    let young = Periodic::new(young_tau)?;
    let young_waste = mean_waste(config, &young, &tbf, &repair)?;

    // Sweep fixed intervals over a log grid around Young's choice.
    let mut tuned_waste = f64::INFINITY;
    let mut tuned_tau = young_tau;
    for factor in [0.25, 0.4, 0.63, 1.0, 1.6, 2.5, 4.0] {
        let tau = young_tau * factor;
        let strategy = Periodic::new(tau)?;
        let w = mean_waste(config, &strategy, &tbf, &repair)?;
        if w < tuned_waste {
            tuned_waste = w;
            tuned_tau = tau;
        }
    }

    let hazard = HazardAware::new(tbf, config.job.checkpoint_cost_secs)?;
    let hazard_aware_waste = mean_waste(config, &hazard, &tbf, &repair)?;

    Ok(StudyPoint {
        shape,
        young_waste,
        tuned_waste,
        tuned_tau,
        hazard_aware_waste,
    })
}

/// Run the full sweep over Weibull shapes (the paper's range plus the
/// exponential boundary).
///
/// # Errors
///
/// Propagates per-point errors.
pub fn run_study(config: &StudyConfig, shapes: &[f64]) -> Result<Vec<StudyPoint>, CheckpointError> {
    shapes.iter().map(|&s| evaluate_shape(config, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> StudyConfig {
        StudyConfig {
            job: JobConfig {
                total_work_secs: 20.0 * 86_400.0,
                checkpoint_cost_secs: 300.0,
                restart_cost_secs: 300.0,
            },
            mean_tbf_secs: 3.0 * 86_400.0,
            mean_repair_secs: 1_800.0,
            replications: 3,
            seed: 7,
        }
    }

    #[test]
    fn tuned_never_loses_to_young() {
        // Young's τ is in the sweep grid (factor 1.0) and all strategies
        // share common random numbers, so tuned ≤ young exactly.
        let config = quick_config();
        for &shape in &[0.7, 1.0] {
            let p = evaluate_shape(&config, shape).unwrap();
            assert!(
                p.tuned_waste <= p.young_waste + 1e-12,
                "shape {shape}: tuned {} vs young {}",
                p.tuned_waste,
                p.young_waste
            );
        }
    }

    #[test]
    fn young_stays_near_optimal_under_weibull() {
        // Plank & Elwasif's (FTCS'98, the paper's ref [17]) conclusion,
        // reproduced: with renewal-at-repair Weibull failures at fixed
        // mean, the exponential-assumed Young interval stays close to the
        // best fixed interval even at the paper's shape 0.7.
        let config = quick_config();
        for &shape in &[0.5, 0.7, 0.8] {
            let p = evaluate_shape(&config, shape).unwrap();
            assert!(
                p.young_waste <= 1.5 * p.tuned_waste,
                "shape {shape}: young {} vs tuned {}",
                p.young_waste,
                p.tuned_waste
            );
        }
    }

    #[test]
    fn fixed_mean_shape_insensitivity() {
        // At fixed MTBF the waste of the Young interval moves only
        // modestly across the shape range — the headline penalty of the
        // exponential assumption is bounded in this regime.
        let config = quick_config();
        let wastes: Vec<f64> = [0.5, 0.7, 1.0, 1.5]
            .iter()
            .map(|&s| evaluate_shape(&config, s).unwrap().young_waste)
            .collect();
        let max = wastes.iter().cloned().fold(f64::MIN, f64::max);
        let min = wastes.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 2.0, "waste range {min}..{max}");
    }

    #[test]
    fn study_returns_one_point_per_shape() {
        let config = quick_config();
        let points = run_study(&config, &[0.7, 0.8]).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.young_waste.is_finite() && p.young_waste > 0.0);
            assert!(p.tuned_waste.is_finite());
            assert!(p.hazard_aware_waste.is_finite());
            assert!(p.tuned_tau > 0.0);
        }
    }

    #[test]
    fn closed_form_waste_model_matches_simulation_under_exponential() {
        // Under the assumptions of the Young derivation (exponential
        // failures, negligible repair/restart), the analytic waste
        // δ/τ + τ/(2M) should match the simulator.
        use crate::daly::{expected_waste_fraction, young_interval};
        use crate::sim::{simulate, JobConfig};
        let delta = 300.0;
        let mtbf = 4.0 * 86_400.0;
        let job = JobConfig {
            total_work_secs: 200.0 * 86_400.0, // long, to average noise
            checkpoint_cost_secs: delta,
            restart_cost_secs: 0.0,
        };
        let tbf = Exponential::from_mean(mtbf).unwrap();
        let repair = Exponential::from_mean(1.0).unwrap(); // negligible
        let tau = young_interval(delta, mtbf).unwrap();
        let strategy = Periodic::new(tau).unwrap();
        let mut measured = 0.0;
        let reps = 6;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed);
            measured += simulate(&job, &strategy, &tbf, &repair, &mut rng)
                .unwrap()
                .waste_fraction();
        }
        measured /= reps as f64;
        let model = expected_waste_fraction(tau, delta, mtbf).unwrap();
        assert!(
            (measured - model).abs() / model < 0.3,
            "measured {measured} vs model {model}"
        );
    }

    #[test]
    fn default_study_config_is_valid() {
        let c = StudyConfig::default_study();
        assert!(c.job.validate().is_ok());
        assert!(c.mean_tbf_secs > 0.0);
    }
}
