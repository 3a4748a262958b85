//! Failure rates by workload class — Section 5.1's claim that "failure
//! rates vary significantly depending on a node's workload": graphics
//! and front-end nodes, with their varied interactive workloads, fail
//! far more often per node than compute nodes.

use std::collections::BTreeMap;

use hpcfail_records::{Catalog, NodeId, TraceIndex, Workload};

use crate::error::AnalysisError;

/// Failure statistics for one workload class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRate {
    /// The workload class.
    pub workload: Workload,
    /// Failures attributed to nodes of this class.
    pub failures: u64,
    /// Node-years of exposure (nodes of this class × production years,
    /// summed over systems present in the trace).
    pub node_years: f64,
    /// Failures per node-year.
    pub per_node_year: f64,
}

/// The Section-5.1 workload comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAnalysis {
    /// One row per workload class present.
    pub rates: Vec<WorkloadRate>,
}

impl WorkloadAnalysis {
    /// The rate row for a class.
    pub(crate) fn rate(&self, workload: Workload) -> Option<&WorkloadRate> {
        self.rates.iter().find(|r| r.workload == workload)
    }

    /// Ratio of a class's per-node-year rate to the compute baseline.
    /// NaN if either class is missing or compute has rate 0.
    pub fn multiplier_vs_compute(&self, workload: Workload) -> f64 {
        match (self.rate(workload), self.rate(Workload::Compute)) {
            (Some(w), Some(c)) if c.per_node_year > 0.0 => w.per_node_year / c.per_node_year,
            _ => f64::NAN,
        }
    }
}

/// Compute per-workload failure rates over all systems present in the
/// trace. Exposure (node-years) comes from the catalog: each node counts
/// toward the class the catalog assigns it. Per-workload counts come
/// from the [`TraceIndex`] posting-list lengths and present systems from
/// the system spans — no record scan at all.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for an empty trace.
pub fn analyze_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
) -> Result<WorkloadAnalysis, AnalysisError> {
    AnalysisError::require("workload rates", 1, index.len())?;
    let systems_present: Vec<_> = index.systems().collect();
    let mut failures: BTreeMap<Workload, u64> = BTreeMap::new();
    for w in Workload::ALL {
        let n = index.workload(w).len() as u64;
        if n > 0 {
            failures.insert(w, n);
        }
    }
    let mut node_years: BTreeMap<Workload, f64> = BTreeMap::new();
    for &id in &systems_present {
        let Ok(spec) = catalog.system(id) else {
            continue;
        };
        let years = spec.production_years();
        for n in 0..spec.nodes() {
            *node_years
                .entry(spec.workload_of(NodeId::new(n)))
                .or_insert(0.0) += years;
        }
    }
    let rates = Workload::ALL
        .iter()
        .filter_map(|&w| {
            let f = failures.get(&w).copied().unwrap_or(0);
            let ny = node_years.get(&w).copied().unwrap_or(0.0);
            if f == 0 && ny == 0.0 {
                return None;
            }
            Some(WorkloadRate {
                workload: w,
                failures: f,
                node_years: ny,
                per_node_year: if ny > 0.0 { f as f64 / ny } else { f64::NAN },
            })
        })
        .collect();
    Ok(WorkloadAnalysis { rates })
}

/// Per-system multiplier of a workload class's per-node rate over the
/// same system's compute-node rate — the clean within-system comparison
/// (the site-wide [`WorkloadAnalysis::multiplier_vs_compute`] conflates
/// workload with system effects, since graphics nodes only exist on the
/// busiest system).
///
/// Only systems hosting both the class and compute nodes, with at least
/// 20 failures on each, are reported. Each system's per-workload counts
/// come from counting over its borrowed [`TraceIndex`] view instead of
/// two filtered clones per system.
pub fn within_system_multipliers_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
    workload: Workload,
) -> Vec<(hpcfail_records::SystemId, f64)> {
    let mut out = Vec::new();
    for spec in catalog.systems() {
        let mut class_nodes = 0u32;
        let mut compute_nodes = 0u32;
        for n in 0..spec.nodes() {
            match spec.workload_of(NodeId::new(n)) {
                w if w == workload => class_nodes += 1,
                Workload::Compute => compute_nodes += 1,
                _ => {}
            }
        }
        if class_nodes == 0 || compute_nodes == 0 {
            continue;
        }
        let sub = index.system(spec.id());
        let class_failures = sub.count_workload(workload) as f64;
        let compute_failures = sub.count_workload(Workload::Compute) as f64;
        if class_failures < 20.0 || compute_failures < 20.0 {
            continue;
        }
        let class_rate = class_failures / class_nodes as f64;
        let compute_rate = compute_failures / compute_nodes as f64;
        out.push((spec.id(), class_rate / compute_rate));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{FailureTrace, SystemId};

    #[test]
    fn empty_trace_rejected() {
        assert!(analyze_indexed(&FailureTrace::new().index(), &Catalog::lanl()).is_err());
    }

    #[test]
    fn graphics_and_frontend_fail_more_per_node() {
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let a = analyze_indexed(&trace.index(), &catalog).unwrap();
        // All three classes present at the site level.
        assert!(a.rate(Workload::Compute).is_some());
        assert!(a.rate(Workload::Graphics).is_some());
        assert!(a.rate(Workload::FrontEnd).is_some());
        // Graphics nodes (configured 3.8×) and front-end nodes (2.5×)
        // clearly exceed the compute baseline.
        let g = a.multiplier_vs_compute(Workload::Graphics);
        let fe = a.multiplier_vs_compute(Workload::FrontEnd);
        assert!(g > 2.0, "graphics multiplier {g}");
        assert!(fe > 1.5, "front-end multiplier {fe}");
        assert!((a.multiplier_vs_compute(Workload::Compute) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn within_system_multiplier_isolates_the_workload_effect() {
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let per_system =
            within_system_multipliers_indexed(&trace.index(), &catalog, Workload::Graphics);
        // Graphics nodes exist only on system 20.
        assert_eq!(per_system.len(), 1);
        let (sys, mult) = per_system[0];
        assert_eq!(sys, SystemId::new(20));
        // Configured 3.8x; measured within a factor of generation noise.
        assert!((2.5..5.5).contains(&mult), "graphics multiplier {mult}");
        // Front-end nodes exist on many systems; their multipliers hover
        // around the configured 2.5x.
        let fe = within_system_multipliers_indexed(&trace.index(), &catalog, Workload::FrontEnd);
        assert!(!fe.is_empty());
        for &(id, m) in &fe {
            assert!((1.0..6.0).contains(&m), "system {id}: fe multiplier {m}");
        }
    }

    #[test]
    fn single_system_exposure_math() {
        // System 20: 46 compute + 3 graphics nodes over its production.
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(20), 42).unwrap();
        let a = analyze_indexed(&trace.index(), &catalog).unwrap();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        let g = a.rate(Workload::Graphics).unwrap();
        assert!((g.node_years - 3.0 * spec.production_years()).abs() < 1e-9);
        let c = a.rate(Workload::Compute).unwrap();
        assert!((c.node_years - 46.0 * spec.production_years()).abs() < 1e-9);
        // Counts partition the trace.
        let total: u64 = a.rates.iter().map(|r| r.failures).sum();
        assert_eq!(total, trace.len() as u64);
    }
}
