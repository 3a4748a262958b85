//! Availability analysis — a derived metric the paper's data supports
//! directly: for each system, the fraction of node-time lost to repairs,
//! combining the failure-rate view (Fig. 2) with the repair-time view
//! (Fig. 7).

use hpcfail_records::{Catalog, HardwareType, SystemId, TraceIndex};

use crate::error::AnalysisError;

/// Availability summary of one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemAvailability {
    /// Which system.
    pub system: SystemId,
    /// Hardware type.
    pub hardware: HardwareType,
    /// Total downtime summed over all failure records, in node-hours.
    pub downtime_node_hours: f64,
    /// Total node-hours of production capacity over the system life.
    pub capacity_node_hours: f64,
    /// `1 − downtime/capacity`.
    pub availability: f64,
    /// Expected number of nines: `−log10(1 − availability)`.
    pub nines: f64,
}

/// Compute per-system availability. Systems absent from the trace are
/// reported with availability 1. Per-system downtime comes from the
/// single-pass `downtime_by_system` kernel over the [`TraceIndex`]
/// columns (u64 sums, so accumulation order is immaterial).
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] for an empty trace.
pub fn analyze_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
) -> Result<Vec<SystemAvailability>, AnalysisError> {
    if index.is_empty() {
        return Err(AnalysisError::InsufficientData {
            what: "availability",
            needed: 1,
            got: 0,
        });
    }
    let downtime_secs = index.all().downtime_by_system();
    Ok(catalog
        .systems()
        .iter()
        .map(|spec| {
            let down_hours = downtime_secs.get(&spec.id()).copied().unwrap_or(0) as f64 / 3_600.0;
            let capacity = spec.nodes() as f64
                * (spec.production_end() - spec.production_start()) as f64
                / 3_600.0;
            let availability = (1.0 - down_hours / capacity).clamp(0.0, 1.0);
            SystemAvailability {
                system: spec.id(),
                hardware: spec.hardware(),
                downtime_node_hours: down_hours,
                capacity_node_hours: capacity,
                availability,
                nines: if availability < 1.0 {
                    -(1.0 - availability).log10()
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect())
}

/// Site-wide availability: total downtime over total capacity.
///
/// # Errors
///
/// See [`analyze_indexed`].
pub fn site_availability_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
) -> Result<f64, AnalysisError> {
    let rows = analyze_indexed(index, catalog)?;
    let down: f64 = rows.iter().map(|r| r.downtime_node_hours).sum();
    let cap: f64 = rows.iter().map(|r| r.capacity_node_hours).sum();
    Ok(1.0 - down / cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{DetailedCause, FailureRecord, FailureTrace, NodeId, Workload};

    #[test]
    fn empty_trace_rejected() {
        assert!(analyze_indexed(&FailureTrace::new().index(), &Catalog::lanl()).is_err());
    }

    #[test]
    fn single_record_math() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(22)).unwrap(); // 1 node
        let start = spec.production_start();
        // One 24-hour outage on the single node.
        let rec = FailureRecord::new(
            SystemId::new(22),
            NodeId::new(0),
            start,
            start + 24 * 3_600,
            Workload::Compute,
            DetailedCause::Memory,
        )
        .unwrap();
        let trace = FailureTrace::from_records(vec![rec]);
        let rows = analyze_indexed(&trace.index(), &catalog).unwrap();
        let row = rows.iter().find(|r| r.system == SystemId::new(22)).unwrap();
        assert!((row.downtime_node_hours - 24.0).abs() < 1e-9);
        let life_hours = (spec.production_end() - start) as f64 / 3_600.0;
        assert!((row.capacity_node_hours - life_hours).abs() < 1e-6);
        assert!((row.availability - (1.0 - 24.0 / life_hours)).abs() < 1e-12);
        // Untouched systems have availability exactly 1.
        let other = rows.iter().find(|r| r.system == SystemId::new(1)).unwrap();
        assert_eq!(other.availability, 1.0);
        assert_eq!(other.nines, f64::INFINITY);
    }

    #[test]
    fn synthetic_site_availability_is_high_but_not_perfect() {
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let rows = analyze_indexed(&trace.index(), &catalog).unwrap();
        for r in &rows {
            assert!(
                (0.85..=1.0).contains(&r.availability),
                "{}: {}",
                r.system,
                r.availability
            );
        }
        let site = site_availability_indexed(&trace.index(), &catalog).unwrap();
        // HPC-scale availability: between two and four nines at the site
        // level for LANL-like failure and repair rates.
        assert!((0.99..1.0).contains(&site), "site availability {site}");
    }

    #[test]
    fn numa_systems_lose_more_time_per_node() {
        // Type G repairs ~4x slower (Fig 7(b)) with high rates → lower
        // availability than type E systems.
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let rows = analyze_indexed(&trace.index(), &catalog).unwrap();
        let avg = |hw: HardwareType| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.hardware == hw && r.downtime_node_hours > 0.0)
                .map(|r| r.availability)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(HardwareType::G) < avg(HardwareType::F));
    }
}
