//! Fluent what-if scenario construction.
//!
//! Ablations and sensitivity studies perturb the LANL calibration in
//! controlled ways — scale every failure rate, disable the burst or
//! aftershock mechanisms, flatten the diurnal profile. The builder makes
//! those perturbations one-liners while keeping [`super::config`] the
//! single source of truth.
//!
//! ```
//! use hpcfail_synth::builder::ScenarioBuilder;
//!
//! // A site with half the failure rates and no correlated bursts.
//! let trace = ScenarioBuilder::lanl()
//!     .scale_rates(0.5)
//!     .without_bursts()
//!     .seed(7)
//!     .build_site()?;
//! assert!(!trace.is_empty());
//! # Ok::<(), hpcfail_synth::SynthError>(())
//! ```

use hpcfail_records::{Catalog, FailureTrace, SystemId};

use crate::config::Calibration;
use crate::diurnal::DiurnalProfile;
use crate::error::SynthError;
use crate::generator::TraceGenerator;

/// Builder over the LANL catalog/calibration with fluent perturbations.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    calibration: Calibration,
    seed: u64,
}

impl ScenarioBuilder {
    /// Start from the paper-calibrated LANL site.
    pub fn lanl() -> Self {
        ScenarioBuilder {
            calibration: Calibration::lanl(),
            seed: crate::scenario::DEFAULT_SEED,
        }
    }

    /// Set the RNG seed (default: [`crate::scenario::DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Multiply every system's annual failure rate by `factor`.
    pub fn scale_rates(mut self, factor: f64) -> Self {
        self.for_each(|c| c.annual_failures *= factor);
        self
    }

    /// Disable the correlated simultaneous-failure bursts everywhere.
    pub fn without_bursts(mut self) -> Self {
        self.for_each(|c| c.burst = None);
        self
    }

    /// Install one correlated-burst process on **every** system (the
    /// calibrated default only bursts the early NUMA/SMP clusters). The
    /// burst remains a seeded part of the generator's per-node streams,
    /// so the injection is deterministic in the trace seed.
    pub fn with_bursts_everywhere(mut self, burst: crate::config::BurstConfig) -> Self {
        self.for_each(|c| c.burst = Some(burst));
        self
    }

    /// Replace every system's root-cause mix (the calibrated default is
    /// per hardware type, Fig. 1(a)).
    pub fn with_cause_mix(mut self, mix: crate::causes::CauseMix) -> Self {
        self.for_each(|c| c.cause_mix = mix);
        self
    }

    /// Disable failure clustering (aftershocks) everywhere.
    pub fn without_aftershocks(mut self) -> Self {
        self.for_each(|c| {
            c.aftershock_probability = 1e-9;
            c.early_aftershock_multiplier = 1.0;
        });
        self
    }

    /// Replace the diurnal/weekly modulation with a flat profile.
    pub fn without_diurnal(mut self) -> Self {
        self.for_each(|c| c.diurnal = DiurnalProfile::flat());
        self
    }

    /// Set every system's steady-state Weibull gap shape (and the early
    /// shape to the same value — a pure-renewal world).
    pub fn uniform_gap_shape(mut self, shape: f64) -> Self {
        self.for_each(|c| {
            c.tbf_shape = shape;
            c.early_tbf_shape = shape;
        });
        self
    }

    /// Remove per-node heterogeneity (every compute node identical).
    pub fn homogeneous_nodes(mut self) -> Self {
        self.for_each(|c| {
            c.node_heterogeneity_sigma = 1e-9;
            c.graphics_multiplier = 1.0;
            c.frontend_multiplier = 1.0;
        });
        self
    }

    /// Generate the full site trace.
    ///
    /// # Errors
    ///
    /// Propagates generator failures.
    pub fn build_site(&self) -> Result<FailureTrace, SynthError> {
        let catalog = Catalog::lanl();
        TraceGenerator::new(&catalog, &self.calibration)?.site_trace(self.seed)
    }

    /// Generate one system's trace.
    ///
    /// # Errors
    ///
    /// [`SynthError::UnknownSystem`] for ids outside 1–22.
    pub fn build_system(&self, system: SystemId) -> Result<FailureTrace, SynthError> {
        let catalog = Catalog::lanl();
        TraceGenerator::new(&catalog, &self.calibration)?.system_trace(system, self.seed)
    }

    fn for_each<F: Fn(&mut crate::config::SystemConfig)>(&mut self, f: F) {
        for id in 1..=22u32 {
            if let Some(c) = self.calibration.system_mut(SystemId::new(id)) {
                f(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::RootCause;

    #[test]
    fn scaled_rates_scale_counts() {
        let sys = SystemId::new(12);
        let base = ScenarioBuilder::lanl().seed(3).build_system(sys).unwrap();
        let half = ScenarioBuilder::lanl()
            .seed(3)
            .scale_rates(0.5)
            .build_system(sys)
            .unwrap();
        let ratio = half.len() as f64 / base.len() as f64;
        assert!((0.35..0.65).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn without_bursts_removes_zero_gaps() {
        let sys = SystemId::new(20);
        let trace = ScenarioBuilder::lanl()
            .seed(5)
            .without_bursts()
            .build_system(sys)
            .unwrap();
        assert!(trace.index().all().zero_gap_fraction() < 0.02);
    }

    #[test]
    fn homogeneous_nodes_remove_graphics_excess() {
        let sys = SystemId::new(20);
        let trace = ScenarioBuilder::lanl()
            .seed(9)
            .homogeneous_nodes()
            .build_system(sys)
            .unwrap();
        let counts = trace.index().failures_per_node(sys, 49);
        let graphics: u64 = [21usize, 22, 23].iter().map(|&n| counts[n]).sum();
        let share = graphics as f64 / counts.iter().sum::<u64>() as f64;
        // 3/49 ≈ 6% of nodes now take ≈6% of failures.
        assert!((0.03..0.10).contains(&share), "graphics share {share}");
    }

    #[test]
    fn builder_preserves_cause_mix() {
        // Perturbing rates must not change what fails, only how often.
        let sys = SystemId::new(7);
        let trace = ScenarioBuilder::lanl()
            .seed(2)
            .scale_rates(0.3)
            .build_system(sys)
            .unwrap();
        let hw = trace
            .index()
            .all()
            .count_by_cause()
            .get(&RootCause::Hardware)
            .copied()
            .unwrap_or(0) as f64
            / trace.len() as f64;
        assert!((0.55..0.70).contains(&hw), "hardware share {hw}");
    }

    #[test]
    fn uniform_shape_flattens_clustering() {
        // Shape 1 everywhere + no aftershocks + no modulation ≈ Poisson
        // superposition: near-exponential system-wide gaps.
        let sys = SystemId::new(20);
        let trace = ScenarioBuilder::lanl()
            .seed(11)
            .uniform_gap_shape(1.0)
            .without_aftershocks()
            .without_bursts()
            .without_diurnal()
            .build_system(sys)
            .unwrap();
        let gaps: Vec<f64> = trace
            .index()
            .all()
            .interarrival_secs()
            .unwrap()
            .into_iter()
            .filter(|&g| g > 0.0)
            .collect();
        let c2 = hpcfail_stats::descriptive::squared_cv(&gaps);
        assert!(
            (0.7..1.6).contains(&c2),
            "C² {c2} should be near exponential"
        );
    }
}
