//! Checkpointing strategies.
//!
//! A strategy chooses the amount of work to attempt before the next
//! checkpoint, possibly as a function of the time since the last failure.
//! With memoryless failures the optimal interval is constant (Young/
//! Daly); with the paper's *decreasing* hazard the risk is concentrated
//! right after a failure, so a hazard-aware strategy checkpoints more
//! eagerly early in a segment and stretches later.

use hpcfail_stats::dist::{Continuous, Weibull};

use crate::error::CheckpointError;

/// A checkpoint-interval policy.
///
/// `interval(since_failure)` returns the work time to attempt before the
/// next checkpoint, given the time elapsed since the last failure (or
/// job start). Implementations must return finite positive values.
pub trait Strategy: std::fmt::Debug {
    /// Work seconds to attempt before the next checkpoint.
    fn interval(&self, since_failure_secs: f64) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Fixed-interval (periodic) checkpointing — the Young/Daly regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodic {
    tau: f64,
}

impl Periodic {
    /// Create a periodic strategy with interval `τ > 0` seconds.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InvalidParameter`] for non-positive `τ`.
    pub fn new(tau: f64) -> Result<Self, CheckpointError> {
        if !tau.is_finite() || tau <= 0.0 {
            return Err(CheckpointError::InvalidParameter {
                name: "tau",
                value: tau,
            });
        }
        Ok(Periodic { tau })
    }
}

impl Strategy for Periodic {
    fn interval(&self, _since_failure_secs: f64) -> f64 {
        self.tau
    }

    fn name(&self) -> &'static str {
        "periodic"
    }
}

/// Hazard-aware checkpointing for Weibull failures.
///
/// First-order dynamic optimum: the interval at elapsed time `t` scales
/// like `√(2δ / h(t))` where `h` is the hazard rate. For shape < 1
/// (the paper's HPC case) `h` decreases, so intervals grow as the
/// segment survives — matching the intuition that "not seeing a failure
/// for a long time decreases the chance of seeing one soon".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardAware {
    weibull: Weibull,
    checkpoint_cost: f64,
    min_tau: f64,
    max_tau: f64,
}

impl HazardAware {
    /// Create a hazard-aware strategy for the given fitted Weibull TBF
    /// distribution and checkpoint cost (seconds). Intervals are clamped
    /// to `[checkpoint_cost, 20 × young(mean)]`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InvalidParameter`] for a non-positive cost.
    pub fn new(weibull: Weibull, checkpoint_cost: f64) -> Result<Self, CheckpointError> {
        if !checkpoint_cost.is_finite() || checkpoint_cost <= 0.0 {
            return Err(CheckpointError::InvalidParameter {
                name: "checkpoint_cost",
                value: checkpoint_cost,
            });
        }
        let young = (2.0 * checkpoint_cost * weibull.mean()).sqrt();
        Ok(HazardAware {
            weibull,
            checkpoint_cost,
            min_tau: checkpoint_cost,
            max_tau: 20.0 * young,
        })
    }
}

impl Strategy for HazardAware {
    fn interval(&self, since_failure_secs: f64) -> f64 {
        // Evaluate the hazard a little into the future so the t=0
        // singularity of sub-one shapes doesn't collapse the interval.
        let t = since_failure_secs.max(self.checkpoint_cost);
        let h = self.weibull.hazard(t);
        if h <= 0.0 || !h.is_finite() {
            return self.max_tau;
        }
        (2.0 * self.checkpoint_cost / h)
            .sqrt()
            .clamp(self.min_tau, self.max_tau)
    }

    fn name(&self) -> &'static str {
        "hazard-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_constant() {
        let p = Periodic::new(3_600.0).unwrap();
        assert_eq!(p.interval(0.0), 3_600.0);
        assert_eq!(p.interval(1e9), 3_600.0);
        assert_eq!(p.tau, 3_600.0);
        assert_eq!(p.name(), "periodic");
        assert!(Periodic::new(0.0).is_err());
        assert!(Periodic::new(f64::NAN).is_err());
    }

    #[test]
    fn hazard_aware_grows_with_uptime_for_sub_one_shape() {
        // Decreasing hazard → intervals stretch as the segment survives.
        let w = Weibull::new(0.7, 100_000.0).unwrap();
        let s = HazardAware::new(w, 60.0).unwrap();
        let early = s.interval(600.0);
        let mid = s.interval(86_400.0);
        let late = s.interval(10.0 * 86_400.0);
        assert!(early < mid, "early {early} vs mid {mid}");
        assert!(mid < late, "mid {mid} vs late {late}");
        assert_eq!(s.name(), "hazard-aware");
    }

    #[test]
    fn hazard_aware_shrinks_with_uptime_for_wearout() {
        let w = Weibull::new(2.0, 100_000.0).unwrap();
        let s = HazardAware::new(w, 60.0).unwrap();
        assert!(s.interval(600.0) > s.interval(10.0 * 86_400.0));
    }

    #[test]
    fn exponential_case_matches_young() {
        // Shape 1 (exponential): hazard is constant 1/λ, so the interval
        // equals √(2δλ) = Young's τ for M = λ.
        let m = 250_000.0;
        let w = Weibull::new(1.0, m).unwrap();
        let delta = 120.0;
        let s = HazardAware::new(w, delta).unwrap();
        let young = crate::daly::young_interval(delta, m).unwrap();
        let tau = s.interval(3_600.0);
        assert!(
            (tau - young).abs() / young < 1e-9,
            "tau {tau} vs young {young}"
        );
    }

    #[test]
    fn intervals_clamped() {
        let w = Weibull::new(0.5, 1e9).unwrap();
        let s = HazardAware::new(w, 60.0).unwrap();
        // At huge uptimes the hazard is tiny → clamped at max.
        let tau = s.interval(1e12);
        let young = (2.0f64 * 60.0 * w.mean()).sqrt();
        assert!(tau <= 20.0 * young + 1e-6);
        assert!(s.interval(0.0) >= 60.0);
    }

    #[test]
    fn invalid_cost_rejected() {
        let w = Weibull::new(0.7, 1_000.0).unwrap();
        assert!(HazardAware::new(w, 0.0).is_err());
        assert!(HazardAware::new(w, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn strategies_usable_as_trait_objects() {
        let w = Weibull::new(0.7, 100_000.0).unwrap();
        let list: Vec<Box<dyn Strategy>> = vec![
            Box::new(Periodic::new(1_000.0).unwrap()),
            Box::new(HazardAware::new(w, 60.0).unwrap()),
        ];
        for s in &list {
            let tau = s.interval(500.0);
            assert!(tau.is_finite() && tau > 0.0, "{}", s.name());
        }
    }
}
