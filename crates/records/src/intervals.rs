//! Downtime-interval algebra.
//!
//! Per-record downtime sums double-count moments when several nodes are
//! down at once (the paper's Fig. 6(c) bursts are exactly such moments).
//! This module computes, over one [`TraceView`] (a system, a node, ...),
//! the union of its outage intervals and its concurrent-outage profile.

use crate::index::TraceView;
use crate::time::Timestamp;

/// A half-open time interval `[start, end)` in epoch seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    /// Interval start (inclusive).
    pub start: u64,
    /// Interval end (exclusive).
    pub end: u64,
}

impl Interval {
    /// Length in seconds.
    pub fn secs(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Merge overlapping/adjacent intervals into a sorted disjoint union.
pub fn union(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|iv| iv.end > iv.start);
    intervals.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

/// The outage intervals of a view's records (one interval per failure
/// record, unmerged, in record order).
pub fn outage_intervals(view: &TraceView<'_>) -> Vec<Interval> {
    view.iter()
        .map(|r| Interval {
            start: r.start().as_secs(),
            end: r.end().as_secs(),
        })
        .collect()
}

/// Seconds during which **at least one** of the view's records was an
/// open outage — the union of its outage intervals (no double counting).
/// On a system view this is the time any node was down; on a node view,
/// the time that node was down with its own overlapping records merged.
pub fn down_secs(view: &TraceView<'_>) -> u64 {
    union(outage_intervals(view))
        .iter()
        .map(Interval::secs)
        .sum()
}

/// The peak number of simultaneously-open outages in the view and when
/// it occurred. Returns `None` for an empty view.
pub fn peak_concurrent_outages(view: &TraceView<'_>) -> Option<(u32, Timestamp)> {
    let mut events: Vec<(u64, i32)> = Vec::new();
    for r in view.iter() {
        events.push((r.start().as_secs(), 1));
        events.push((r.end().as_secs(), -1));
    }
    if events.is_empty() {
        return None;
    }
    // Ends sort before starts at the same instant so a back-to-back
    // repair/failure pair doesn't count as concurrent.
    events.sort_unstable_by_key(|&(t, delta)| (t, delta));
    let mut depth = 0i32;
    let mut best = (0i32, 0u64);
    for (t, delta) in events {
        depth += delta;
        if depth > best.0 {
            best = (depth, t);
        }
    }
    Some((best.0 as u32, Timestamp::from_secs(best.1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::DetailedCause;
    use crate::ids::{NodeId, SystemId};
    use crate::record::FailureRecord;
    use crate::trace::FailureTrace;
    use crate::workload::Workload;

    fn rec(node: u32, start: u64, end: u64) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(end),
            Workload::Compute,
            DetailedCause::Memory,
        )
        .unwrap()
    }

    #[test]
    fn union_merges_overlaps_and_adjacency() {
        let merged = union(vec![
            Interval { start: 10, end: 20 },
            Interval { start: 15, end: 25 },
            Interval { start: 25, end: 30 }, // adjacent
            Interval { start: 50, end: 60 },
            Interval { start: 5, end: 5 }, // empty, dropped
        ]);
        assert_eq!(
            merged,
            vec![
                Interval { start: 10, end: 30 },
                Interval { start: 50, end: 60 }
            ]
        );
        assert_eq!(merged.iter().map(Interval::secs).sum::<u64>(), 30);
        assert!(union(vec![]).is_empty());
    }

    #[test]
    fn any_node_down_does_not_double_count() {
        // Two nodes down over the same hour: union is one hour, the
        // per-record sum is two.
        let trace = FailureTrace::from_records(vec![rec(0, 1_000, 4_600), rec(1, 1_000, 4_600)]);
        let index = trace.index();
        assert_eq!(down_secs(&index.system(SystemId::new(1))), 3_600);
        assert_eq!(index.all().total_downtime_secs(), 7_200);
    }

    #[test]
    fn peak_concurrency() {
        let trace = FailureTrace::from_records(vec![
            rec(0, 100, 200),
            rec(1, 150, 300),
            rec(2, 180, 190),
            rec(3, 500, 600),
        ]);
        let index = trace.index();
        let (peak, at) = peak_concurrent_outages(&index.system(SystemId::new(1))).unwrap();
        assert_eq!(peak, 3);
        assert_eq!(at.as_secs(), 180);
        assert!(peak_concurrent_outages(&index.system(SystemId::new(9))).is_none());
    }

    #[test]
    fn back_to_back_is_not_concurrent() {
        // One ends exactly when the next begins: depth stays 1.
        let trace = FailureTrace::from_records(vec![rec(0, 100, 200), rec(1, 200, 300)]);
        let (peak, _) = peak_concurrent_outages(&trace.index().system(SystemId::new(1))).unwrap();
        assert_eq!(peak, 1);
    }

    #[test]
    fn node_level_union() {
        // The same node double-reported over overlapping windows.
        let trace =
            FailureTrace::from_records(vec![rec(7, 100, 200), rec(7, 150, 250), rec(7, 400, 500)]);
        let index = trace.index();
        assert_eq!(
            down_secs(&index.node(SystemId::new(1), NodeId::new(7))),
            250
        );
        assert_eq!(down_secs(&index.node(SystemId::new(1), NodeId::new(8))), 0);
    }

    #[test]
    fn burst_trace_has_concurrent_outages() {
        // A burst-like trace: the peak depth must exceed 1 and union
        // downtime must be below the raw per-record sum.
        let t = hpcfail_synth_like();
        let index = t.index();
        let system = index.system(SystemId::new(1));
        let (peak, _) = peak_concurrent_outages(&system).unwrap();
        assert!(peak >= 2);
        assert!(down_secs(&system) < system.total_downtime_secs());
    }

    /// A small deterministic burst-like trace (three simultaneous
    /// outages) standing in for generated data, keeping this crate free
    /// of dev-dependency cycles.
    fn hpcfail_synth_like() -> FailureTrace {
        FailureTrace::from_records(vec![
            rec(0, 1_000, 5_000),
            rec(1, 1_000, 4_000),
            rec(2, 1_000, 3_000),
            rec(3, 10_000, 11_000),
        ])
    }
}
