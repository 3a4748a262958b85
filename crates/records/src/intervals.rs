//! Concurrent outages.
//!
//! Several nodes are often down at once (the paper's Fig. 6(c) bursts are
//! exactly such moments). This module finds, over one [`TraceView`] (a
//! system, a node, ...), the peak number of simultaneously-open outages.

use crate::index::TraceView;
use crate::time::Timestamp;

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
    fn burst_trace_has_concurrent_outages() {
        // A burst-like trace: the peak depth must exceed 1, and the
        // per-record downtime sum counts each overlapping outage.
        let t = hpcfail_synth_like();
        let index = t.index();
        let system = index.system(SystemId::new(1));
        let (peak, _) = peak_concurrent_outages(&system).unwrap();
        assert!(peak >= 2);
        assert_eq!(system.downtimes_secs().iter().sum::<u64>(), 10_000);
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
