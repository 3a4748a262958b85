//! Failure rates per system — Fig. 2(a) (failures per year) and
//! Fig. 2(b) (failures per year per processor), plus the paper's
//! variability claim: normalizing by processor count removes most of the
//! cross-system variability, i.e. failure rates grow roughly linearly
//! with system size.

use hpcfail_records::{Catalog, HardwareType, SystemId, SystemSpec, TraceIndex};
use hpcfail_stats::descriptive;

use crate::error::AnalysisError;

/// Failure-rate summary for one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemRate {
    /// Which system.
    pub system: SystemId,
    /// Its hardware type.
    pub hardware: HardwareType,
    /// Total failures recorded.
    pub failures: u64,
    /// Production time in years.
    pub years: f64,
    /// Processors in the system.
    pub procs: u32,
    /// Nodes in the system.
    pub nodes: u32,
    /// Fig. 2(a): average failures per year.
    pub per_year: f64,
    /// Fig. 2(b): average failures per year per processor.
    pub per_proc_year: f64,
}

/// The Fig. 2 analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct RateAnalysis {
    /// One row per system, in system-id order (including systems with
    /// zero recorded failures).
    pub rates: Vec<SystemRate>,
}

impl RateAnalysis {
    /// Rate row for one system.
    pub fn system(&self, id: SystemId) -> Option<&SystemRate> {
        self.rates.iter().find(|r| r.system == id)
    }

    /// Minimum and maximum failures/year (the paper quotes 17–1159).
    pub fn per_year_range(&self) -> (f64, f64) {
        let min = self
            .rates
            .iter()
            .map(|r| r.per_year)
            .fold(f64::MAX, f64::min);
        let max = self
            .rates
            .iter()
            .map(|r| r.per_year)
            .fold(f64::MIN, f64::max);
        (min, max)
    }

    /// Squared coefficient of variation of the raw per-year rates across
    /// systems.
    pub fn raw_variability(&self) -> f64 {
        let v: Vec<f64> = self.rates.iter().map(|r| r.per_year).collect();
        descriptive::squared_cv(&v)
    }

    /// Squared coefficient of variation of the per-processor rates —
    /// the paper's point is that this is far smaller than
    /// [`RateAnalysis::raw_variability`].
    pub fn normalized_variability(&self) -> f64 {
        let v: Vec<f64> = self.rates.iter().map(|r| r.per_proc_year).collect();
        descriptive::squared_cv(&v)
    }
}

/// Compute per-system failure rates (Fig. 2): [`system_indexed`]'s row
/// for every catalog system, in catalog order.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for an empty trace.
pub fn analyze_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
) -> Result<RateAnalysis, AnalysisError> {
    AnalysisError::require("failure rates", 1, index.len())?;
    Ok(RateAnalysis {
        rates: catalog.systems().iter().map(|s| row(index, s)).collect(),
    })
}

/// The Fig. 2 row of one system, or `None` for an id outside the
/// catalog — the same row [`analyze_indexed`] holds for it.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for an empty trace, whatever the id.
pub fn system_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
    id: SystemId,
) -> Result<Option<SystemRate>, AnalysisError> {
    AnalysisError::require("failure rates", 1, index.len())?;
    Ok(catalog.system(id).ok().map(|s| row(index, s)))
}

/// One system's rates; its failure count is its posting-list length.
fn row(index: &TraceIndex, spec: &SystemSpec) -> SystemRate {
    let failures = index.system(spec.id()).len() as u64;
    let years = spec.production_years();
    let per_year = failures as f64 / years;
    SystemRate {
        system: spec.id(),
        hardware: spec.hardware(),
        failures,
        years,
        procs: spec.procs(),
        nodes: spec.nodes(),
        per_year,
        per_proc_year: per_year / spec.procs() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{
        DetailedCause, FailureRecord, FailureTrace, NodeId, Timestamp, Workload,
    };

    fn trace_with_counts(counts: &[(u32, u64)]) -> FailureTrace {
        let mut records = Vec::new();
        for &(sys, n) in counts {
            for i in 0..n {
                records.push(
                    FailureRecord::new(
                        SystemId::new(sys),
                        NodeId::new(0),
                        Timestamp::from_secs(1_000 + i * 100),
                        Timestamp::from_secs(1_000 + i * 100 + 60),
                        Workload::Compute,
                        DetailedCause::Memory,
                    )
                    .unwrap(),
                );
            }
        }
        FailureTrace::from_records(records)
    }

    #[test]
    fn empty_trace_errors() {
        let catalog = Catalog::lanl();
        assert!(matches!(
            analyze_indexed(&FailureTrace::new().index(), &catalog),
            Err(AnalysisError::InsufficientData { .. })
        ));
    }

    #[test]
    fn per_year_math() {
        let catalog = Catalog::lanl();
        let trace = trace_with_counts(&[(19, 575)]); // system 19: ~5.75 years
        let analysis = analyze_indexed(&trace.index(), &catalog).unwrap();
        let r = analysis.system(SystemId::new(19)).unwrap();
        assert_eq!(r.failures, 575);
        assert!((r.per_year - 575.0 / r.years).abs() < 1e-9);
        assert!((r.per_proc_year - r.per_year / 2048.0).abs() < 1e-12);
        // Systems without failures still get rows (with rate 0).
        assert_eq!(analysis.rates.len(), 22);
        assert_eq!(analysis.system(SystemId::new(1)).unwrap().failures, 0);
    }

    #[test]
    fn normalization_reduces_variability_on_synthetic_site() {
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let analysis = analyze_indexed(&trace.index(), &catalog).unwrap();
        let raw = analysis.raw_variability();
        let norm = analysis.normalized_variability();
        assert!(
            norm < 0.8 * raw,
            "normalized C² {norm} should be below raw C² {raw}"
        );
        // Range matches the paper's 17–1159 within generation noise.
        let (min, max) = analysis.per_year_range();
        assert!(min < 40.0, "min {min}");
        assert!(max > 800.0, "max {max}");
    }

    #[test]
    fn within_type_consistency_for_type_e() {
        // Paper: all type-E systems exhibit a similar normalized rate
        // (with 5 and 6 a bit elevated). C² within the type must be small.
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let analysis = analyze_indexed(&trace.index(), &catalog).unwrap();
        let within_type = |hw| {
            let v: Vec<f64> = analysis
                .rates
                .iter()
                .filter(|r| r.hardware == hw)
                .map(|r| r.per_proc_year)
                .collect();
            descriptive::squared_cv(&v)
        };
        let e_var = within_type(HardwareType::E);
        assert!(e_var < 0.6, "type E per-proc C² {e_var}");
        let f_var = within_type(HardwareType::F);
        assert!(f_var < 0.6, "type F per-proc C² {f_var}");
    }

    #[test]
    fn per_proc_rates_do_not_grow_with_size() {
        // "Failure rates do not grow significantly faster than linearly
        // with system size": per-proc rate of the biggest type-E system
        // stays within ~3x of the smallest's.
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let analysis = analyze_indexed(&trace.index(), &catalog).unwrap();
        let small = analysis.system(SystemId::new(12)).unwrap().per_proc_year; // 128 procs
        let big = analysis.system(SystemId::new(7)).unwrap().per_proc_year; // 4096 procs
        let ratio = big / small;
        assert!((0.3..3.0).contains(&ratio), "per-proc ratio {ratio}");
    }
}
