//! Two-level recovery (Vaidya — the paper's ref \[21\]): cheap *local*
//! checkpoints that can recover from transient/software failures on the
//! same node, plus rare expensive *global* checkpoints that survive
//! node-loss failures.
//!
//! The paper's root-cause data is exactly what this scheme needs: the
//! fraction of failures that are recoverable locally (software, human,
//! some network) versus those that take the node's state with it
//! (hardware, environment) determines how much of the checkpoint traffic
//! can be demoted to the cheap level.

use hpcfail_stats::dist::Continuous;
use rand::{Rng, RngExt};

use crate::error::CheckpointError;
use crate::sim::SimOutcome;

/// Configuration of a two-level checkpointed job (all seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevelConfig {
    /// Total useful work.
    pub total_work_secs: f64,
    /// Cost of a local (level-1) checkpoint.
    pub local_cost_secs: f64,
    /// Cost of a global (level-2) checkpoint.
    pub global_cost_secs: f64,
    /// Work between local checkpoints.
    pub local_interval_secs: f64,
    /// Local checkpoints per global checkpoint (the global replaces the
    /// k-th local).
    pub locals_per_global: u32,
    /// Fixed restart cost after any failure.
    pub restart_cost_secs: f64,
    /// Probability that a failure is locally recoverable (restart from
    /// the latest local checkpoint); otherwise recovery falls back to the
    /// latest global checkpoint. From the paper's Fig. 1: roughly the
    /// non-hardware, non-environment share.
    pub local_recoverable_probability: f64,
}

impl TwoLevelConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InvalidParameter`] for non-positive work or
    /// intervals, negative costs, zero `locals_per_global`, or an
    /// out-of-range probability.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let positive = [
            ("total_work_secs", self.total_work_secs),
            ("local_interval_secs", self.local_interval_secs),
        ];
        for (name, v) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(CheckpointError::InvalidParameter { name, value: v });
            }
        }
        let non_negative = [
            ("local_cost_secs", self.local_cost_secs),
            ("global_cost_secs", self.global_cost_secs),
            ("restart_cost_secs", self.restart_cost_secs),
        ];
        for (name, v) in non_negative {
            if !v.is_finite() || v < 0.0 {
                return Err(CheckpointError::InvalidParameter { name, value: v });
            }
        }
        if self.locals_per_global == 0 {
            return Err(CheckpointError::InvalidParameter {
                name: "locals_per_global",
                value: 0.0,
            });
        }
        if !(0.0..=1.0).contains(&self.local_recoverable_probability) {
            return Err(CheckpointError::InvalidParameter {
                name: "local_recoverable_probability",
                value: self.local_recoverable_probability,
            });
        }
        Ok(())
    }
}

/// Failure budget (matches the single-level simulator).
const MAX_FAILURES: u64 = 1_000_000;

/// Simulate a two-level-checkpointed job to completion.
///
/// Work proceeds in local intervals; every `locals_per_global`-th
/// checkpoint is global. A failure rolls back to the latest local
/// checkpoint with probability `local_recoverable_probability`, else to
/// the latest global checkpoint. The outcome satisfies the standard
/// conservation law.
///
/// # Errors
///
/// [`CheckpointError::InvalidParameter`] on bad config,
/// [`CheckpointError::NoProgress`] if the job cannot finish.
pub fn simulate_two_level<R: Rng + ?Sized>(
    config: &TwoLevelConfig,
    tbf: &dyn Continuous,
    repair: &dyn Continuous,
    rng: &mut R,
) -> Result<SimOutcome, CheckpointError> {
    config.validate()?;
    let mut out = SimOutcome::default();
    // Committed-to-global is the hard floor; committed-to-local may be
    // rolled back by a node-loss failure.
    let mut global_committed = 0.0f64;
    let mut local_committed = 0.0f64; // ≥ global_committed
    let mut checkpoints_since_global = 0u32;

    'job: while local_committed < config.total_work_secs {
        if out.failures >= MAX_FAILURES {
            return Err(CheckpointError::NoProgress {
                failures: out.failures,
            });
        }
        let mut rng_ref: &mut R = rng;
        let fail_at = tbf.sample(&mut rng_ref).max(1e-9);
        let mut elapsed = 0.0f64;
        // Work performed since the last *local* checkpoint in this
        // segment (lost on any failure).
        loop {
            let remaining = config.total_work_secs - local_committed;
            let work_chunk = config.local_interval_secs.min(remaining);
            let is_final = work_chunk >= remaining - 1e-12;
            let is_global = checkpoints_since_global + 1 >= config.locals_per_global;
            let ckpt_cost = if is_final {
                0.0
            } else if is_global {
                config.global_cost_secs
            } else {
                config.local_cost_secs
            };
            let cycle = work_chunk + ckpt_cost;

            if elapsed + cycle <= fail_at {
                elapsed += cycle;
                local_committed += work_chunk;
                out.useful_secs += work_chunk;
                out.checkpoint_secs += ckpt_cost;
                if !is_final {
                    if is_global {
                        global_committed = local_committed;
                        checkpoints_since_global = 0;
                    } else {
                        checkpoints_since_global += 1;
                    }
                }
                if local_committed >= config.total_work_secs - 1e-12 {
                    out.wall_secs += elapsed;
                    break 'job;
                }
            } else {
                let into_cycle = fail_at - elapsed;
                out.wall_secs += fail_at;
                out.failures += 1;
                // Uncommitted work in the interrupted cycle is always lost.
                let mut lost = into_cycle;
                let mut rng_ref: &mut R = rng;
                let local_ok = rng_ref.random::<f64>() < config.local_recoverable_probability;
                if !local_ok {
                    // Node-loss: everything since the last global
                    // checkpoint is gone too.
                    lost += local_committed - global_committed;
                    local_committed = global_committed;
                    checkpoints_since_global = 0;
                }
                out.lost_secs += lost;
                out.useful_secs -= (lost - into_cycle).max(0.0); // rolled-back commits
                let down = repair.sample(&mut rng_ref).max(0.0);
                out.downtime_secs += down;
                out.restart_secs += config.restart_cost_secs;
                out.wall_secs += down + config.restart_cost_secs;
                continue 'job;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_stats::dist::{Exponential, LogNormal, Weibull};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> TwoLevelConfig {
        TwoLevelConfig {
            total_work_secs: 30.0 * 86_400.0,
            local_cost_secs: 30.0,   // cheap node-local snapshot
            global_cost_secs: 600.0, // expensive parallel-FS write
            local_interval_secs: 3_600.0,
            locals_per_global: 6,
            restart_cost_secs: 300.0,
            local_recoverable_probability: 0.35, // ~software+human+network share
        }
    }

    fn repair_dist() -> LogNormal {
        LogNormal::from_median_mean(54.0 * 60.0, 355.0 * 60.0).unwrap()
    }

    #[test]
    fn validation() {
        let mut c = config();
        c.total_work_secs = 0.0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.locals_per_global = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.local_recoverable_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = config();
        c.local_cost_secs = -1.0;
        assert!(c.validate().is_err());
        assert!(config().validate().is_ok());
    }

    #[test]
    fn failure_free_overhead_counts_both_levels() {
        let c = config();
        let tbf = Exponential::from_mean(1e15).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = simulate_two_level(&c, &tbf, &repair_dist(), &mut rng).unwrap();
        assert_eq!(out.failures, 0);
        assert!(out.conserves_time(), "{out:?}");
        // 30 days of hourly chunks → 719 checkpoints, every 6th global:
        // 119 globals (no trailing checkpoint after the final chunk).
        let total_ckpts = 719.0f64;
        let globals = (total_ckpts / 6.0).floor();
        let locals = total_ckpts - globals;
        let expected = locals * 30.0 + globals * 600.0;
        assert!(
            (out.checkpoint_secs - expected).abs() < 700.0,
            "checkpoint overhead {} vs expected ~{expected}",
            out.checkpoint_secs
        );
    }

    #[test]
    fn conservation_under_failures() {
        let c = config();
        let tbf = Weibull::new(0.7, 4.0 * 86_400.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = simulate_two_level(&c, &tbf, &repair_dist(), &mut rng).unwrap();
        assert!(out.failures > 0);
        assert!(out.conserves_time(), "{out:?}");
        assert!((out.useful_secs - c.total_work_secs).abs() < 1e-6);
    }

    #[test]
    fn two_level_beats_all_global_when_most_failures_are_local() {
        // With 80% locally recoverable failures, demoting most
        // checkpoints to the cheap level wins over paying the global cost
        // every time.
        let base = TwoLevelConfig {
            local_recoverable_probability: 0.8,
            ..config()
        };
        let all_global = TwoLevelConfig {
            locals_per_global: 1, // every checkpoint is global
            ..base
        };
        let tbf = Weibull::new(0.75, 2.0 * 86_400.0).unwrap();
        let repair = Exponential::from_mean(1_800.0).unwrap();
        let mut waste_two = 0.0;
        let mut waste_global = 0.0;
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            waste_two += simulate_two_level(&base, &tbf, &repair, &mut rng)
                .unwrap()
                .waste_fraction();
            let mut rng = StdRng::seed_from_u64(seed);
            waste_global += simulate_two_level(&all_global, &tbf, &repair, &mut rng)
                .unwrap()
                .waste_fraction();
        }
        assert!(
            waste_two < waste_global,
            "two-level {waste_two} vs all-global {waste_global}"
        );
    }

    #[test]
    fn node_loss_rolls_back_to_global() {
        // With local recovery impossible, every failure rolls back to the
        // last global checkpoint — losses exceed one local interval.
        let c = TwoLevelConfig {
            local_recoverable_probability: 0.0,
            ..config()
        };
        let tbf = Exponential::from_mean(12.0 * 3_600.0).unwrap();
        let repair = Exponential::from_mean(600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = simulate_two_level(&c, &tbf, &repair, &mut rng).unwrap();
        assert!(out.failures > 0);
        assert!(
            out.lost_secs / out.failures as f64 > c.local_interval_secs,
            "mean loss {} should exceed one local interval",
            out.lost_secs / out.failures as f64
        );
        assert!(out.conserves_time());
    }

    #[test]
    fn fully_local_recovery_caps_losses() {
        // With local recovery always possible, no loss can exceed a local
        // cycle (interval + global cost).
        let c = TwoLevelConfig {
            local_recoverable_probability: 1.0,
            ..config()
        };
        let tbf = Exponential::from_mean(6.0 * 3_600.0).unwrap();
        let repair = Exponential::from_mean(600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let out = simulate_two_level(&c, &tbf, &repair, &mut rng).unwrap();
        assert!(out.failures > 0);
        assert!(
            out.lost_secs / out.failures as f64 <= c.local_interval_secs + c.global_cost_secs,
            "mean loss {} bounded by one cycle",
            out.lost_secs / out.failures as f64
        );
    }
}
