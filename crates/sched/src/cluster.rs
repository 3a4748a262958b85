//! Node reliability profiles.
//!
//! The paper's Section 5.1 suggests using per-node failure-rate knowledge
//! "in job scheduling, for instance by assigning critical jobs or jobs
//! with high recovery time to more reliable nodes". A
//! [`NodeProfile`] captures what a scheduler can actually know: the
//! node's historical failure count/rate (from a trace) and its current
//! uptime.

use hpcfail_records::{SystemId, TraceIndex};

use crate::error::SchedError;

/// Reliability profile of one node, as estimated from history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeProfile {
    /// Node index within the simulated cluster.
    pub node: u32,
    /// Estimated failures per year.
    pub failures_per_year: f64,
}

/// Build per-node profiles from the observed failure trace of one
/// system, off a prebuilt [`TraceIndex`]: counts come from the node-run
/// offsets instead of a trace scan.
///
/// Nodes with zero observed failures get a rate of half a failure per
/// observation period (a pseudo-count, so they rank as most reliable but
/// not infinitely so).
///
/// # Errors
///
/// [`SchedError::InvalidParameter`] if `node_count` is zero or the trace
/// observation span is empty.
pub fn profiles_from_index(
    index: &TraceIndex,
    system: SystemId,
    node_count: u32,
    observation_years: f64,
) -> Result<Vec<NodeProfile>, SchedError> {
    if node_count == 0 {
        return Err(SchedError::InvalidParameter {
            name: "node_count",
            value: 0.0,
        });
    }
    if !observation_years.is_finite() || observation_years <= 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "observation_years",
            value: observation_years,
        });
    }
    Ok(index
        .failures_per_node(system, node_count)
        .into_iter()
        .enumerate()
        .map(|(n, c)| NodeProfile {
            node: n as u32,
            failures_per_year: (c as f64).max(0.5) / observation_years,
        })
        .collect())
}

/// Ranks node indices from most to least reliable by historical rate.
pub fn reliability_ranking(profiles: &[NodeProfile]) -> Vec<u32> {
    let mut order: Vec<&NodeProfile> = profiles.iter().collect();
    order.sort_by(|a, b| {
        a.failures_per_year
            .total_cmp(&b.failures_per_year)
            .then(a.node.cmp(&b.node))
    });
    order.iter().map(|p| p.node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{
        DetailedCause, FailureRecord, FailureTrace, NodeId, Timestamp, Workload,
    };

    fn trace() -> FailureTrace {
        let rec = |node: u32, start: u64| {
            FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_secs(start),
                Timestamp::from_secs(start + 60),
                Workload::Compute,
                DetailedCause::Memory,
            )
            .unwrap()
        };
        FailureTrace::from_records(vec![rec(0, 100), rec(0, 200), rec(0, 300), rec(2, 150)])
    }

    #[test]
    fn profiles_count_failures() {
        let p = profiles_from_index(&trace().index(), SystemId::new(1), 3, 2.0).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p[0].failures_per_year - 1.5).abs() < 1e-12);
        // Node 1 never failed → pseudo-count 0.5 over 2 years.
        assert!((p[1].failures_per_year - 0.25).abs() < 1e-12);
        assert!((p[2].failures_per_year - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ranking_orders_by_reliability() {
        let p = profiles_from_index(&trace().index(), SystemId::new(1), 3, 2.0).unwrap();
        let ranking = reliability_ranking(&p);
        assert_eq!(ranking, vec![1, 2, 0], "fewest failures first");
    }

    #[test]
    fn validation() {
        let t = trace();
        let index = t.index();
        assert!(profiles_from_index(&index, SystemId::new(1), 0, 1.0).is_err());
        assert!(profiles_from_index(&index, SystemId::new(1), 3, 0.0).is_err());
        assert!(profiles_from_index(&index, SystemId::new(1), 3, f64::NAN).is_err());
    }

    #[test]
    fn ranking_is_stable_for_ties() {
        let profiles = vec![
            NodeProfile {
                node: 0,
                failures_per_year: 1.0,
            },
            NodeProfile {
                node: 1,
                failures_per_year: 1.0,
            },
            NodeProfile {
                node: 2,
                failures_per_year: 1.0,
            },
        ];
        assert_eq!(reliability_ranking(&profiles), vec![0, 1, 2]);
    }
}
