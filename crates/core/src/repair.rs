//! Repair-time analysis — Table 2 and Fig. 7.
//!
//! Table 2: mean/median/stddev/C² of time to repair per root cause.
//! Fig. 7(a): the repair-time CDF with four fits — lognormal best,
//! exponential far worst. Fig. 7(b)(c): mean and median repair time per
//! system, showing a strong hardware-type effect and insensitivity to
//! system size.

use hpcfail_exec::ParallelExecutor;
use hpcfail_records::{Catalog, HardwareType, RootCause, SystemId, TraceIndex};
use hpcfail_stats::descriptive::{self, Summary};
use hpcfail_stats::fit::{fit_paper_set_prepared, FitReport};
use hpcfail_stats::prepared::PreparedSample;

use crate::error::AnalysisError;

/// One Table 2 row: repair-time statistics for a root-cause category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairRow {
    /// The cause (or `None` for the "All" column).
    pub cause: Option<RootCause>,
    /// Summary in minutes: mean, median, std dev, C².
    pub summary: Summary,
}

/// The Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairByCause {
    /// Rows in the paper's column order (Unknown, Human, Env, Net, SW,
    /// HW) — causes missing from the trace are omitted.
    pub rows: Vec<RepairRow>,
    /// The all-causes aggregate row.
    pub all: RepairRow,
}

impl RepairByCause {
    /// Look up the row for one cause.
    pub fn row(&self, cause: RootCause) -> Option<&RepairRow> {
        self.rows.iter().find(|r| r.cause == Some(cause))
    }
}

/// Compute Table 2: repair-time statistics by root cause (in minutes).
/// Each cause's repair times come straight off its posting list in the
/// [`TraceIndex`], no per-cause trace clones.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for an empty trace; propagates
/// summary errors.
pub fn by_cause_indexed(index: &TraceIndex) -> Result<RepairByCause, AnalysisError> {
    if index.is_empty() {
        return Err(AnalysisError::InsufficientData {
            what: "repair times",
            needed: 1,
            got: 0,
        });
    }
    // Paper's Table 2 column order.
    let order = [
        RootCause::Unknown,
        RootCause::Human,
        RootCause::Environment,
        RootCause::Network,
        RootCause::Software,
        RootCause::Hardware,
    ];
    let mut rows = Vec::new();
    for cause in order {
        let minutes = index.cause(cause).downtimes_minutes();
        if minutes.is_empty() {
            continue;
        }
        rows.push(RepairRow {
            cause: Some(cause),
            summary: Summary::from_sample(&minutes)?,
        });
    }
    let all = RepairRow {
        cause: None,
        summary: Summary::from_sample(&index.all().downtimes_minutes())?,
    };
    Ok(RepairByCause { rows, all })
}

/// Fit the four standard distributions to all repair times (Fig. 7(a)).
///
/// # Errors
///
/// Propagates fitting errors (empty/degenerate samples).
pub fn fit_all_repairs_indexed(index: &TraceIndex) -> Result<FitReport, AnalysisError> {
    let minutes = index.all().downtimes_minutes();
    Ok(fit_paper_set_prepared(&PreparedSample::from_vec(minutes)?)?)
}

/// Mean and median repair time for one system (Fig. 7(b)(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemRepair {
    /// Which system.
    pub system: SystemId,
    /// Its hardware type.
    pub hardware: HardwareType,
    /// Number of repairs observed.
    pub count: usize,
    /// Mean repair time in minutes.
    pub mean_minutes: f64,
    /// Median repair time in minutes.
    pub median_minutes: f64,
}

/// Compute per-system mean/median repair times (Fig. 7(b)(c)). Systems
/// with no records in the trace are omitted. Workers take borrowed
/// per-system views of the shared [`TraceIndex`] (it is `Sync`) instead
/// of cloning a sub-trace each.
pub fn by_system_indexed(index: &TraceIndex, catalog: &Catalog) -> Vec<SystemRepair> {
    // Each system's summary is independent of the others; fan out and
    // keep catalog order (the fan-out returns results at their input
    // index, so this is deterministic for any worker count).
    ParallelExecutor::from_env()
        .map_indexed(catalog.systems(), |_, spec| {
            let minutes = index.system(spec.id()).downtimes_minutes();
            if minutes.is_empty() {
                return None;
            }
            Some(SystemRepair {
                system: spec.id(),
                hardware: spec.hardware(),
                count: minutes.len(),
                mean_minutes: descriptive::mean(&minutes),
                median_minutes: descriptive::median(&minutes),
            })
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The paper's type-effect check: the spread (max/min) of mean repair
/// times *within* each hardware type, versus across all systems. Small
/// within-type spreads and a large global spread mean the hardware type,
/// not size, drives repair time.
pub fn type_effect(rows: &[SystemRepair]) -> TypeEffect {
    let mut within: Vec<f64> = Vec::new();
    for hw in HardwareType::ALL {
        let means: Vec<f64> = rows
            .iter()
            .filter(|r| r.hardware == hw && r.count >= 30)
            .map(|r| r.mean_minutes)
            .collect();
        if means.len() >= 2 {
            let max = means.iter().cloned().fold(f64::MIN, f64::max);
            let min = means.iter().cloned().fold(f64::MAX, f64::min);
            within.push(max / min);
        }
    }
    let all: Vec<f64> = rows
        .iter()
        .filter(|r| r.count >= 30)
        .map(|r| r.mean_minutes)
        .collect();
    let across = if all.len() >= 2 {
        let max = all.iter().cloned().fold(f64::MIN, f64::max);
        let min = all.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    } else {
        f64::NAN
    };
    TypeEffect {
        max_within_type_spread: within.iter().cloned().fold(f64::NAN, f64::max),
        across_all_spread: across,
    }
}

/// Result of [`type_effect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeEffect {
    /// The largest max/min ratio of mean repair times within one type.
    pub max_within_type_spread: f64,
    /// The max/min ratio across all systems.
    pub across_all_spread: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::FailureTrace;
    use hpcfail_stats::fit::Family;

    fn site() -> FailureTrace {
        hpcfail_synth::scenario::site_trace(42).unwrap()
    }

    #[test]
    fn empty_trace_rejected() {
        assert!(matches!(
            by_cause_indexed(&FailureTrace::new().index()),
            Err(AnalysisError::InsufficientData { .. })
        ));
        assert!(by_system_indexed(&FailureTrace::new().index(), &Catalog::lanl()).is_empty());
    }

    #[test]
    fn table2_medians_and_ordering() {
        let trace = site();
        let table = by_cause_indexed(&trace.index()).unwrap();
        // All six causes present on the full site.
        assert_eq!(table.rows.len(), 6);
        // Environment is the slowest by mean (paper: 572 min)…
        let env = table.row(RootCause::Environment).unwrap().summary;
        let human = table.row(RootCause::Human).unwrap().summary;
        assert!(
            env.mean > human.mean,
            "env {} vs human {}",
            env.mean,
            human.mean
        );
        // …but by far the least variable.
        let sw = table.row(RootCause::Software).unwrap().summary;
        let hw = table.row(RootCause::Hardware).unwrap().summary;
        assert!(sw.c2 > 4.0 * env.c2, "sw C² {} vs env C² {}", sw.c2, env.c2);
        assert!(hw.c2 > 2.0 * env.c2, "hw C² {} vs env C² {}", hw.c2, env.c2);
        // Median far below mean for software (paper: 33 vs 369).
        assert!(sw.mean / sw.median > 3.0);
        // The all-row mean lands near the paper's ~6 hours (355 min):
        // within a factor ~2 given type scaling and generation noise.
        let all = table.all.summary;
        assert!(
            (150.0..800.0).contains(&all.mean),
            "all-causes mean {} min",
            all.mean
        );
    }

    #[test]
    fn fig7a_lognormal_wins_exponential_loses() {
        let trace = site();
        let report = fit_all_repairs_indexed(&trace.index()).unwrap();
        assert_eq!(report.best().unwrap().family, Family::LogNormal);
        assert_eq!(report.rank_of(Family::Exponential), Some(3));
    }

    #[test]
    fn fig7bc_type_effect() {
        let trace = site();
        let rows = by_system_indexed(&trace.index(), &Catalog::lanl());
        assert!(rows.len() >= 20, "most systems have repairs");
        let effect = type_effect(&rows);
        // Across systems the spread is large (paper: <1 hour to >1 day)…
        assert!(
            effect.across_all_spread > 2.5,
            "across {}",
            effect.across_all_spread
        );
        // …but within a type it is small.
        assert!(
            effect.max_within_type_spread < effect.across_all_spread,
            "within {} vs across {}",
            effect.max_within_type_spread,
            effect.across_all_spread
        );
        // Type-G systems repair slower than type-E systems on average.
        let mean_of = |hw: HardwareType| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.hardware == hw)
                .map(|r| r.mean_minutes)
                .collect();
            descriptive::mean(&v)
        };
        assert!(mean_of(HardwareType::G) > 2.0 * mean_of(HardwareType::E));
    }

    #[test]
    fn footnote5_within_type_exponential_improves() {
        // Restricting to one hardware type removes the type-scale mixing,
        // so the exponential's KS distance improves versus the all-systems
        // fit — while lognormal still wins (sub-optimal exponential).
        let index = site().index();
        let catalog = Catalog::lanl();
        let all = fit_all_repairs_indexed(&index).unwrap();
        let all_exp_ks = all.candidate(Family::Exponential).unwrap().ks;
        let mut improved = 0;
        let mut compared = 0;
        for hw in [HardwareType::E, HardwareType::F, HardwareType::G] {
            let minutes: Vec<f64> = catalog
                .systems_of_type(hw)
                .iter()
                .flat_map(|s| index.system(s.id()).downtimes_minutes())
                .collect();
            let within =
                fit_paper_set_prepared(&PreparedSample::from_vec(minutes).unwrap()).unwrap();
            let exp_ks = within.candidate(Family::Exponential).unwrap().ks;
            compared += 1;
            if exp_ks < all_exp_ks {
                improved += 1;
            }
            // Still sub-optimal: lognormal remains the best fit.
            assert_eq!(
                within.best().unwrap().family,
                Family::LogNormal,
                "{hw}: lognormal should still win"
            );
        }
        assert!(
            improved >= compared - 1,
            "exponential KS should improve within most types ({improved}/{compared})"
        );
    }

    #[test]
    fn size_insensitivity_within_type_e() {
        // Paper: the largest type-E systems (7, 8) are among the ones with
        // the *lowest* median repair times; size doesn't drive repair.
        let trace = site();
        let rows = by_system_indexed(&trace.index(), &Catalog::lanl());
        let medians: Vec<(u32, f64)> = rows
            .iter()
            .filter(|r| r.hardware == HardwareType::E)
            .map(|r| (r.system.get(), r.median_minutes))
            .collect();
        let small = medians.iter().find(|(id, _)| *id == 12).unwrap().1;
        let large = medians.iter().find(|(id, _)| *id == 7).unwrap().1;
        let ratio = large / small;
        assert!(
            (0.4..2.5).contains(&ratio),
            "median repair of 4096-proc vs 128-proc type-E: ratio {ratio}"
        );
    }
}
