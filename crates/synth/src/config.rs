//! Per-system generator calibration, derived from the paper's reported
//! statistics (see DESIGN.md §4).

use hpcfail_records::{HardwareType, SystemId};

use crate::causes::CauseMix;
use crate::diurnal::DiurnalProfile;
use crate::lifecycle::LifecycleShape;

/// Everything the generator needs to know about one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Target average failures per year over the production lifetime
    /// (Fig. 2(a): 17 for system 2 up to 1159 for system 7).
    pub annual_failures: f64,
    /// Weibull shape of per-node inter-arrival gaps (paper: 0.7–0.8;
    /// shape < 1 = decreasing hazard).
    pub tbf_shape: f64,
    /// Gap shape during the first [`SystemConfig::early_instability_months`]
    /// — lower, because immature systems fail in burstier patterns
    /// (drives Fig. 6(a)'s C² ≈ 3.9 vs 1.9 late).
    pub early_tbf_shape: f64,
    /// Failure-rate curve over system age (Fig. 4).
    pub lifecycle: LifecycleShape,
    /// Hour-of-day / day-of-week modulation (Fig. 5).
    pub diurnal: DiurnalProfile,
    /// σ of the lognormal per-node rate multiplier for compute nodes —
    /// the heterogeneity that makes Fig. 3(b) overdispersed vs Poisson.
    pub node_heterogeneity_sigma: f64,
    /// Rate multiplier for graphics nodes (system 20 nodes 21–23 ≈ 3.8×
    /// so that 6% of nodes take ~20% of failures).
    pub graphics_multiplier: f64,
    /// Rate multiplier for front-end nodes.
    pub frontend_multiplier: f64,
    /// Root-cause mix (Fig. 1(a) per hardware type).
    pub cause_mix: CauseMix,
    /// Correlated simultaneous-failure bursts (Fig. 6(c): >30% zero
    /// inter-arrivals in system 20's early years).
    pub burst: Option<BurstConfig>,
    /// Probability that a failure triggers a short-delay follow-up
    /// failure on the same node — a repair that did not fix the root
    /// cause. This clustering keeps the *system-wide* failure process
    /// overdispersed (the superposition of many independent node
    /// processes would otherwise converge to Poisson, contradicting
    /// Fig. 6(d)).
    pub aftershock_probability: f64,
    /// Mean delay of the follow-up failure, in hours.
    pub aftershock_mean_hours: f64,
    /// Multiplier on the aftershock probability during the first
    /// [`SystemConfig::early_instability_months`] of production —
    /// immature systems fail in clusters more often, which is what makes
    /// early-era time between failures so much more variable
    /// (Fig. 6(a): C² 3.9 vs 1.9 late).
    pub early_aftershock_multiplier: f64,
    /// How long the early instability lasts, in months.
    pub early_instability_months: f64,
}

/// Configuration for correlated multi-node failure bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Probability that a primary failure triggers a burst.
    pub probability: f64,
    /// Minimum additional nodes failing simultaneously.
    pub min_extra: u32,
    /// Maximum additional nodes failing simultaneously.
    pub max_extra: u32,
    /// Bursts only occur before this many months of system age
    /// (the correlation disappears after the early years).
    pub until_month: f64,
}

impl BurstConfig {
    /// The burst behaviour of the early NUMA clusters: a quarter of
    /// primary failures take 1–3 additional nodes down simultaneously,
    /// during the first three years.
    pub(crate) fn early_numa_default() -> Self {
        BurstConfig {
            probability: 0.38,
            min_extra: 1,
            max_extra: 3,
            until_month: 36.0,
        }
    }
}

/// Calibration for the whole site: one [`SystemConfig`] per system id.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    configs: Vec<(SystemId, SystemConfig)>,
}

impl Calibration {
    /// The LANL calibration: per-system annual failure-rate targets read
    /// off Fig. 2(a) (systems 2 and 7 are given explicitly in the text as
    /// 17 and 1159), lifecycle shapes per Section 5.2, cause mixes per
    /// hardware type, bursts on the early NUMA/first-SMP systems.
    pub fn lanl() -> Self {
        // (system id, hardware type, annual failures)
        let rates: [(u32, HardwareType, f64); 22] = [
            (1, HardwareType::A, 14.0),
            (2, HardwareType::B, 17.0), // paper: minimum, 17/year
            (3, HardwareType::C, 7.0),
            (4, HardwareType::D, 250.0),
            (5, HardwareType::E, 450.0),  // first type-E: elevated
            (6, HardwareType::E, 300.0),  // first type-E: elevated
            (7, HardwareType::E, 1159.0), // paper: maximum, 1159/year
            (8, HardwareType::E, 1100.0),
            (9, HardwareType::E, 160.0),
            (10, HardwareType::E, 150.0),
            (11, HardwareType::E, 140.0),
            (12, HardwareType::E, 50.0),
            (13, HardwareType::F, 90.0),
            (14, HardwareType::F, 170.0),
            (15, HardwareType::F, 160.0),
            (16, HardwareType::F, 180.0),
            (17, HardwareType::F, 170.0),
            (18, HardwareType::F, 330.0),
            (19, HardwareType::G, 500.0),
            (20, HardwareType::G, 750.0),
            (21, HardwareType::G, 120.0),
            (22, HardwareType::H, 80.0),
        ];
        let configs = rates
            .iter()
            .map(|&(id, hw, annual)| {
                let lifecycle = match hw {
                    // Fig 4(b) shape for the first SMP cluster and the
                    // NUMA-era systems…
                    HardwareType::D | HardwareType::G if id != 21 => LifecycleShape::ramp_default(),
                    // …but system 21 arrived two years later and behaves
                    // like Fig 4(a) (Section 5.2).
                    _ => LifecycleShape::early_drop_default(),
                };
                let burst = match id {
                    // Early correlation on the first NUMA clusters and the
                    // first large SMP cluster.
                    4 | 19 | 20 => Some(BurstConfig::early_numa_default()),
                    _ => None,
                };
                let config = SystemConfig {
                    annual_failures: annual,
                    tbf_shape: 0.75,
                    early_tbf_shape: 0.55,
                    lifecycle,
                    diurnal: DiurnalProfile::lanl_default(),
                    node_heterogeneity_sigma: 0.35,
                    graphics_multiplier: 3.8,
                    frontend_multiplier: 2.5,
                    cause_mix: CauseMix::for_type(hw),
                    burst,
                    aftershock_probability: 0.2,
                    aftershock_mean_hours: 4.0,
                    early_aftershock_multiplier: 2.5,
                    early_instability_months: 36.0,
                };
                (SystemId::new(id), config)
            })
            .collect();
        Calibration { configs }
    }

    /// Configuration for one system, if present.
    pub fn system(&self, id: SystemId) -> Option<&SystemConfig> {
        self.configs.iter().find(|(s, _)| *s == id).map(|(_, c)| c)
    }

    /// Mutable configuration for one system (for scenario tweaks).
    pub(crate) fn system_mut(&mut self, id: SystemId) -> Option<&mut SystemConfig> {
        self.configs
            .iter_mut()
            .find(|(s, _)| *s == id)
            .map(|(_, c)| c)
    }

    /// Iterate all `(id, config)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SystemId, &SystemConfig)> {
        self.configs.iter().map(|(id, c)| (*id, c))
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::lanl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::tests::peaks_late;

    #[test]
    fn all_22_systems_configured() {
        let cal = Calibration::lanl();
        for id in 1..=22u32 {
            assert!(cal.system(SystemId::new(id)).is_some(), "system {id}");
        }
        assert!(cal.system(SystemId::new(23)).is_none());
        assert_eq!(cal.iter().count(), 22);
    }

    #[test]
    fn rate_extremes_match_text() {
        let cal = Calibration::lanl();
        let rates: Vec<f64> = cal.iter().map(|(_, c)| c.annual_failures).collect();
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(min, 7.0);
        assert_eq!(max, 1159.0, "paper: system 7 averages 1159/year");
        assert_eq!(
            cal.system(SystemId::new(2)).unwrap().annual_failures,
            17.0,
            "paper: system 2 has only 17/year"
        );
    }

    #[test]
    fn lifecycle_assignment_matches_section52() {
        let cal = Calibration::lanl();
        // D and the early G systems ramp…
        for id in [4u32, 19, 20] {
            assert!(
                peaks_late(&cal.system(SystemId::new(id)).unwrap().lifecycle),
                "system {id} should ramp"
            );
        }
        // …E/F and the late-arriving system 21 drop early.
        for id in [5u32, 7, 13, 18, 21] {
            assert!(
                !peaks_late(&cal.system(SystemId::new(id)).unwrap().lifecycle),
                "system {id} should drop early"
            );
        }
    }

    #[test]
    fn bursts_only_on_early_clusters() {
        let cal = Calibration::lanl();
        for (id, c) in cal.iter() {
            let expect = matches!(id.get(), 4 | 19 | 20);
            assert_eq!(c.burst.is_some(), expect, "system {id}");
        }
    }

    #[test]
    fn shapes_are_below_one() {
        // Every system's TBF shape must be in the paper's decreasing-
        // hazard band.
        let cal = Calibration::lanl();
        for (id, c) in cal.iter() {
            assert!(
                (0.6..1.0).contains(&c.tbf_shape),
                "system {id}: shape {}",
                c.tbf_shape
            );
        }
    }

    #[test]
    fn per_proc_rates_are_plausible() {
        // Fig 2(b): normalized rates stay below ~2.5 failures/year/proc.
        let cal = Calibration::lanl();
        let catalog = hpcfail_records::Catalog::lanl();
        for (id, c) in cal.iter() {
            let procs = catalog.system(id).unwrap().procs() as f64;
            let per_proc = c.annual_failures / procs;
            assert!(per_proc <= 2.6, "system {id}: {per_proc}/proc/year");
            assert!(per_proc > 0.01, "system {id}: {per_proc}/proc/year");
        }
    }

    #[test]
    fn mutation_api() {
        let mut cal = Calibration::lanl();
        cal.system_mut(SystemId::new(5)).unwrap().annual_failures = 999.0;
        assert_eq!(cal.system(SystemId::new(5)).unwrap().annual_failures, 999.0);
    }
}
