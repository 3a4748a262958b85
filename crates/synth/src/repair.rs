//! Repair-time (time-to-repair) sampling, calibrated to Table 2.
//!
//! For each root-cause category the paper reports the median and mean
//! repair time in minutes plus an enormous C² for most categories. A
//! lognormal pinned to (median, mean) cannot reach those C² values (see
//! DESIGN.md §4), so every category except Environment mixes a rare
//! Pareto tail into a lognormal body:
//!
//! * body: `LogNormal::from_median_mean(median, 0.85·mean)` — carries the
//!   median (a rare tail barely moves it);
//! * tail (2%): `Pareto(x_min = 4·mean, α = 2.05)` — restores the target
//!   mean (`0.98·0.85 + 0.02·4·α/(α−1) ≈ 1.0`) and inflates C² by an
//!   order of magnitude, mimicking the month-long outliers in the data.
//!
//! Environment (power/cooling) is the one low-variability category
//! (C² = 2) and uses a pure lognormal.

use hpcfail_records::{Catalog, HardwareType, RootCause};
use hpcfail_stats::dist::{Continuous, LogNormal, Pareto};
use hpcfail_stats::mixture::Mixture;
use hpcfail_stats::StatsError;
use rand::Rng;

/// Table 2 calibration targets: (median minutes, mean minutes) per
/// high-level root cause, plus the all-causes row.
pub const TABLE2_TARGETS: [(RootCause, f64, f64); 6] = [
    (RootCause::Unknown, 32.0, 398.0),
    (RootCause::Human, 44.0, 163.0),
    (RootCause::Environment, 269.0, 572.0),
    (RootCause::Network, 70.0, 247.0),
    (RootCause::Software, 33.0, 369.0),
    (RootCause::Hardware, 64.0, 342.0),
];

/// The paper's all-causes repair-time row: median 54, mean 355 minutes.
pub const TABLE2_ALL: (f64, f64) = (54.0, 355.0);

/// Look up the Table 2 (median, mean) target for a category.
pub(crate) fn table2_target(cause: RootCause) -> (f64, f64) {
    TABLE2_TARGETS
        .iter()
        .find(|(c, _, _)| *c == cause)
        .map(|&(_, med, mean)| (med, mean))
        .expect("all causes present")
}

/// Per-cause repair-time sampler.
#[derive(Debug)]
enum CauseSampler {
    Pure(LogNormal),
    HeavyTail(Mixture<LogNormal, Pareto>),
}

/// The repair-time model: one sampler per root-cause category, plus a
/// per-hardware-type scale factor reproducing the strong type effect of
/// Fig. 7(b)(c) ("repair times depend mostly on the type of the system").
#[derive(Debug)]
pub struct RepairModel {
    samplers: [CauseSampler; 6],
}

/// Per-hardware-type multiplier on sampled repair times.
///
/// Values chosen so type-G NUMA systems repair slowest (the paper's mean
/// repair ranges from under an hour to more than a day across systems)
/// while the overall per-cause statistics stay near Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairScale(f64);

impl RepairScale {
    /// The multiplier for a hardware type.
    pub(crate) fn for_type(hw: HardwareType) -> Self {
        RepairScale(match hw {
            HardwareType::A | HardwareType::B | HardwareType::C => 0.9,
            HardwareType::D => 0.75,
            HardwareType::E => 0.6,
            HardwareType::F => 1.0,
            HardwareType::G => 1.9,
            HardwareType::H => 1.3,
        })
    }

    /// Raw multiplier value.
    pub(crate) fn factor(&self) -> f64 {
        self.0
    }
}

impl RepairModel {
    /// Build the model with per-cause deflation factors: each cause's
    /// (median, mean) target is divided by its factor before sampling, so
    /// that after the per-type scaling the **event-weighted site-wide**
    /// statistics land on Table 2. Computed by
    /// [`RepairModel::calibrated`].
    fn with_deflation(deflation: &[f64; 6]) -> Result<Self, StatsError> {
        let build = |cause: RootCause| -> Result<CauseSampler, StatsError> {
            let (median, mean) = table2_target(cause);
            let d = deflation[cause.index()].max(1e-6);
            let (median, mean) = (median / d, mean / d);
            if cause == RootCause::Environment {
                return Ok(CauseSampler::Pure(LogNormal::from_median_mean(
                    median, mean,
                )?));
            }
            let body = LogNormal::from_median_mean(median, 0.85 * mean)?;
            let tail = Pareto::new(4.0 * mean, 2.05)?;
            Ok(CauseSampler::HeavyTail(Mixture::new(body, tail, 0.98)?))
        };
        Ok(RepairModel {
            samplers: [
                build(RootCause::ALL[0])?,
                build(RootCause::ALL[1])?,
                build(RootCause::ALL[2])?,
                build(RootCause::ALL[3])?,
                build(RootCause::ALL[4])?,
                build(RootCause::ALL[5])?,
            ],
        })
    }

    /// Build the model calibrated against a site: for each cause, the
    /// expected event-weighted average of the per-type repair scales is
    /// computed from the calibration (rates × production years × cause
    /// mix), and the cause's targets are deflated by it — so the site
    /// aggregate per cause reproduces Table 2 while the Fig. 7 type
    /// ratios are preserved.
    ///
    /// # Errors
    ///
    /// Propagates distribution-construction errors.
    pub(crate) fn calibrated(
        catalog: &Catalog,
        calibration: &crate::config::Calibration,
    ) -> Result<Self, StatsError> {
        let mut weighted = [0.0f64; 6];
        let mut weight = [0.0f64; 6];
        for (id, config) in calibration.iter() {
            let Ok(spec) = catalog.system(id) else {
                continue;
            };
            let events = config.annual_failures * spec.production_years();
            let scale = RepairScale::for_type(spec.hardware()).factor();
            for cause in RootCause::ALL {
                let share = config.cause_mix.probability(cause);
                weighted[cause.index()] += events * share * scale;
                weight[cause.index()] += events * share;
            }
        }
        let mut deflation = [1.0f64; 6];
        for i in 0..6 {
            if weight[i] > 0.0 {
                deflation[i] = weighted[i] / weight[i];
            }
        }
        Self::with_deflation(&deflation)
    }

    /// Sample a repair time in **seconds** for a failure of the given
    /// cause on the given hardware type. Always ≥ 60 seconds (operator
    /// data has a natural floor of about a minute).
    pub(crate) fn sample_secs<R: Rng + ?Sized>(
        &self,
        cause: RootCause,
        hw: HardwareType,
        rng: &mut R,
    ) -> u64 {
        let minutes = self.sample_minutes(cause, hw, rng);
        (minutes * 60.0).round().max(60.0) as u64
    }

    /// Sample a repair time in minutes (Table 2's unit).
    pub(crate) fn sample_minutes<R: Rng + ?Sized>(
        &self,
        cause: RootCause,
        hw: HardwareType,
        rng: &mut R,
    ) -> f64 {
        let mut rng = rng;
        let raw = match &self.samplers[cause.index()] {
            CauseSampler::Pure(d) => d.sample(&mut rng),
            CauseSampler::HeavyTail(d) => d.sample(&mut rng),
        };
        raw * RepairScale::for_type(hw).factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_stats::descriptive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The model's analytic mean (minutes) for a cause before the
    /// hardware-type scaling — should be close to the Table 2 mean.
    fn analytic_mean_minutes(model: &RepairModel, cause: RootCause) -> f64 {
        match &model.samplers[cause.index()] {
            CauseSampler::Pure(d) => d.mean(),
            CauseSampler::HeavyTail(d) => d.mean(),
        }
    }

    #[test]
    fn analytic_means_match_table2() {
        let model = RepairModel::with_deflation(&[1.0; 6]).unwrap();
        for (cause, _, mean) in TABLE2_TARGETS {
            let m = analytic_mean_minutes(&model, cause);
            assert!(
                (m - mean).abs() / mean < 0.10,
                "{cause}: analytic mean {m} vs Table 2 {mean}"
            );
        }
    }

    #[test]
    fn sampled_medians_match_table2() {
        let model = RepairModel::with_deflation(&[1.0; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for (cause, median, _) in TABLE2_TARGETS {
            let sample: Vec<f64> = (0..40_000)
                .map(|_| model.sample_minutes(cause, HardwareType::F, &mut rng))
                .collect();
            let med = descriptive::median(&sample);
            // F has scale 1.0 so the raw calibration shows through.
            assert!(
                (med - median).abs() / median < 0.12,
                "{cause}: sampled median {med} vs Table 2 {median}"
            );
        }
    }

    #[test]
    fn variability_ordering_matches_table2() {
        // Software and hardware C² must dwarf environment C² (293 and 151
        // vs 2 in the paper).
        let model = RepairModel::with_deflation(&[1.0; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let c2_of = |cause: RootCause, rng: &mut StdRng| {
            let sample: Vec<f64> = (0..60_000)
                .map(|_| model.sample_minutes(cause, HardwareType::F, rng))
                .collect();
            descriptive::squared_cv(&sample)
        };
        let sw = c2_of(RootCause::Software, &mut rng);
        let hw = c2_of(RootCause::Hardware, &mut rng);
        let env = c2_of(RootCause::Environment, &mut rng);
        // Sample C² underestimates heavy tails, so the margins here are
        // loose; the paper's gap (293 and 151 vs 2) is far larger.
        assert!(sw > 8.0 * env, "sw {sw} vs env {env}");
        assert!(hw > 3.0 * env, "hw {hw} vs env {env}");
        assert!(env < 8.0, "env {env} should be low-variability");
    }

    #[test]
    fn median_far_below_mean_for_software() {
        // Paper: software median (33) ~10× below mean (369).
        let model = RepairModel::with_deflation(&[1.0; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let sample: Vec<f64> = (0..60_000)
            .map(|_| model.sample_minutes(RootCause::Software, HardwareType::F, &mut rng))
            .collect();
        let med = descriptive::median(&sample);
        let mean = descriptive::mean(&sample);
        assert!(mean / med > 5.0, "mean {mean} vs median {med}");
    }

    #[test]
    fn hardware_type_scaling() {
        let model = RepairModel::with_deflation(&[1.0; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let mean_for = |hw: HardwareType, rng: &mut StdRng| {
            let sample: Vec<f64> = (0..30_000)
                .map(|_| model.sample_minutes(RootCause::Hardware, hw, rng))
                .collect();
            descriptive::mean(&sample)
        };
        let e = mean_for(HardwareType::E, &mut rng);
        let g = mean_for(HardwareType::G, &mut rng);
        // G repairs ~4× slower than E (2.2 / 0.55).
        assert!(g / e > 2.0, "g {g} vs e {e}");
    }

    #[test]
    fn sample_secs_floor() {
        let model = RepairModel::with_deflation(&[1.0; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5_000 {
            let s = model.sample_secs(RootCause::Human, HardwareType::E, &mut rng);
            assert!(s >= 60, "repairs have a one-minute floor");
        }
    }

    #[test]
    fn target_lookup() {
        assert_eq!(table2_target(RootCause::Hardware), (64.0, 342.0));
        assert_eq!(table2_target(RootCause::Environment), (269.0, 572.0));
        assert_eq!(TABLE2_ALL, (54.0, 355.0));
    }
}
