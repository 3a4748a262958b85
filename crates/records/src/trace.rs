//! The failure trace — the row builder of [`FailureRecord`]s, kept in
//! `(start, system, node)` order.
//!
//! The generator and the CSV parsers fill a trace row by row:
//! construction sorts the records, [`FailureTrace::merge`] joins two
//! sorted traces, and [`FailureTrace::filter_window`] copies out one time
//! slice. [`FailureTrace::index`] turns the rows into the columnar
//! [`crate::index::TraceIndex`], and every question about the records —
//! per system, node, cause, workload or era — is asked of a
//! [`crate::index::TraceView`] over it.

use crate::ids::{NodeId, SystemId};
use crate::record::FailureRecord;
use crate::time::Timestamp;

/// The sort key every trace is ordered by.
fn sort_key(r: &FailureRecord) -> (Timestamp, SystemId, NodeId) {
    (r.start(), r.system(), r.node())
}

fn is_sorted(records: &[FailureRecord]) -> bool {
    records
        .windows(2)
        .all(|w| sort_key(&w[0]) <= sort_key(&w[1]))
}

/// An ordered (by start time) collection of failure records.
///
/// Construction sorts records by `(start, system, node)` so all
/// inter-arrival computations are well-defined.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureTrace {
    records: Vec<FailureRecord>,
}

impl FailureTrace {
    /// An empty trace.
    pub fn new() -> Self {
        FailureTrace {
            records: Vec::new(),
        }
    }

    /// Build a trace from records (sorted on construction).
    pub fn from_records(mut records: Vec<FailureRecord>) -> Self {
        records.sort_by_key(sort_key);
        FailureTrace { records }
    }

    /// Wrap records already in `(start, system, node)` order without
    /// re-sorting. Callers (the index layer) guarantee the invariant.
    pub(crate) fn from_sorted_records(records: Vec<FailureRecord>) -> Self {
        debug_assert!(is_sorted(&records));
        FailureTrace { records }
    }

    /// All records in start-time order.
    pub fn records(&self) -> &[FailureRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over records.
    pub fn iter(&self) -> std::slice::Iter<'_, FailureRecord> {
        self.records.iter()
    }

    /// Records that *start* within `[from, to)` — the paper's era splits
    /// (1996–1999 vs 2000–2005 in Fig. 6) — as a new trace.
    ///
    /// Because records are kept sorted by start time, the window is two
    /// binary searches plus one contiguous copy, not a full scan.
    pub fn filter_window(&self, from: Timestamp, to: Timestamp) -> FailureTrace {
        let lo = self.records.partition_point(|r| r.start() < from);
        let hi = self.records.partition_point(|r| r.start() < to).max(lo);
        FailureTrace {
            records: self.records[lo..hi].to_vec(),
        }
    }

    /// Merge another trace into this one: a single O(n+m) sorted merge of
    /// the two `(start, system, node)`-ordered record vectors. Equal keys
    /// take the `self` record first, matching a stable resort of the
    /// concatenation.
    pub fn merge(&mut self, other: FailureTrace) {
        debug_assert!(is_sorted(&self.records) && is_sorted(&other.records));
        if other.records.is_empty() {
            return;
        }
        if self.records.is_empty() {
            self.records = other.records;
            return;
        }
        let a = std::mem::take(&mut self.records);
        let b = other.records;
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if sort_key(&a[i]) <= sort_key(&b[j]) {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.records = merged;
    }

    /// The columnar index of this trace. See [`crate::index`].
    pub fn index(&self) -> crate::index::TraceIndex {
        crate::index::TraceIndex::build(self)
    }
}

impl FromIterator<FailureRecord> for FailureTrace {
    fn from_iter<I: IntoIterator<Item = FailureRecord>>(iter: I) -> Self {
        FailureTrace::from_records(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a FailureTrace {
    type Item = &'a FailureRecord;
    type IntoIter = std::slice::Iter<'a, FailureRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::{DetailedCause, RootCause};
    use crate::error::RecordError;
    use crate::workload::Workload;

    fn rec(system: u32, node: u32, start: u64, dur: u64, detail: DetailedCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(system),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(start + dur),
            Workload::Compute,
            detail,
        )
        .unwrap()
    }

    fn sample_trace() -> FailureTrace {
        FailureTrace::from_records(vec![
            rec(20, 0, 1_000, 60, DetailedCause::Memory),
            rec(20, 1, 500, 120, DetailedCause::OperatingSystem),
            rec(20, 0, 2_000, 30, DetailedCause::Cpu),
            rec(5, 3, 1_500, 600, DetailedCause::PowerOutage),
            rec(20, 1, 2_000, 90, DetailedCause::Undetermined),
        ])
    }

    #[test]
    fn construction_sorts_by_start() {
        let t = sample_trace();
        let starts: Vec<u64> = t.iter().map(|r| r.start().as_secs()).collect();
        assert_eq!(starts, vec![500, 1_000, 1_500, 2_000, 2_000]);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    // The hand-checked cases below pin what a trace's index answers about
    // its records; the proptests in `tests/proptests.rs` extend them to
    // arbitrary traces against a naive record fold.

    #[test]
    fn filters() {
        let t = sample_trace();
        let idx = t.index();
        assert_eq!(idx.system(SystemId::new(20)).len(), 4);
        assert_eq!(idx.system(SystemId::new(5)).len(), 1);
        assert_eq!(idx.node(SystemId::new(20), NodeId::new(0)).len(), 2);
        assert_eq!(idx.cause(RootCause::Hardware).len(), 2);
        assert_eq!(idx.cause(RootCause::Environment).len(), 1);
        let (from, to) = (Timestamp::from_secs(1_000), Timestamp::from_secs(2_000));
        assert_eq!(idx.all().window(from, to).len(), 2);
        assert_eq!(t.filter_window(from, to).len(), 2);
        assert!(t.filter_window(to, from).is_empty());
        assert_eq!(idx.workload(Workload::Compute).len(), 5);
        assert_eq!(idx.workload(Workload::Graphics).len(), 0);
    }

    #[test]
    fn counting_and_downtime() {
        let t = sample_trace();
        let idx = t.index();
        let all = idx.all();
        let by_cause = all.count_by_cause();
        assert_eq!(by_cause[&RootCause::Hardware], 2);
        assert_eq!(by_cause[&RootCause::Software], 1);
        assert_eq!(by_cause[&RootCause::Unknown], 1);
        let total = |secs: Vec<u64>| secs.iter().sum::<u64>();
        let downtime = |cause| total(idx.cause(cause).downtimes_secs());
        assert_eq!(downtime(RootCause::Environment), 600);
        assert_eq!(downtime(RootCause::Hardware), 90);
        assert_eq!(total(all.downtimes_secs()), 60 + 120 + 30 + 600 + 90);
        let by_sys = idx.count_by_system();
        assert_eq!(by_sys[&SystemId::new(20)], 4);
    }

    #[test]
    fn failures_per_node_includes_zeros() {
        let t = sample_trace();
        let idx = t.index();
        assert_eq!(
            idx.failures_per_node(SystemId::new(20), 4),
            vec![2, 2, 0, 0]
        );
        // Out-of-range node ids are ignored rather than panicking.
        assert_eq!(idx.failures_per_node(SystemId::new(20), 1), vec![2]);
        assert_eq!(
            idx.failures_per_node(SystemId::new(20), 0),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn system_wide_interarrivals_keep_zeros() {
        let t = sample_trace();
        let idx = t.index();
        let gaps = idx.all().interarrival_secs().unwrap();
        assert_eq!(gaps, vec![500.0, 500.0, 500.0, 0.0]);
    }

    #[test]
    fn per_node_interarrivals() {
        let t = sample_trace();
        let idx = t.index();
        // node (20,0): 2000-1000 = 1000; node (20,1): 2000-500 = 1500, in
        // time order (both close at t=2000; node 0 sorts first).
        assert_eq!(
            idx.all().per_node_interarrival_secs(),
            vec![1_000.0, 1_500.0]
        );
        assert_eq!(
            idx.node(SystemId::new(20), NodeId::new(1))
                .per_node_interarrival_secs(),
            vec![1_500.0]
        );
        // A cause view measures gaps between the records it retains:
        // node (20,0)'s Memory and Cpu failures are both Hardware.
        assert_eq!(
            idx.cause(RootCause::Hardware).per_node_interarrival_secs(),
            vec![1_000.0]
        );
    }

    #[test]
    fn empty_trace_errors() {
        let t = FailureTrace::new();
        let idx = t.index();
        let all = idx.all();
        assert!(matches!(
            all.interarrival_secs(),
            Err(RecordError::EmptyTrace)
        ));
        assert!(all.first_start().is_none());
        assert_eq!(all.per_node_interarrival_secs(), Vec::<f64>::new());
        // One record is still below the two an inter-arrival needs.
        let one = sample_trace();
        let idx = one.index();
        let single = idx.system(SystemId::new(5));
        assert!(matches!(
            single.interarrival_secs(),
            Err(RecordError::EmptyTrace)
        ));
    }

    #[test]
    fn merge_and_collect() {
        let mut a = sample_trace();
        let b = FailureTrace::from_records(vec![rec(7, 9, 10, 5, DetailedCause::Disk)]);
        a.merge(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.index().all().first_start().unwrap().as_secs(), 10);

        let collected: FailureTrace = sample_trace().iter().copied().collect();
        assert_eq!(collected, sample_trace());
    }

    #[test]
    fn first_last_start() {
        let t = sample_trace();
        let idx = t.index();
        assert_eq!(idx.all().first_start().unwrap().as_secs(), 500);
        assert_eq!(idx.all().last_start().unwrap().as_secs(), 2_000);
        let node = idx.node(SystemId::new(20), NodeId::new(0));
        assert_eq!(node.first_start().unwrap().as_secs(), 1_000);
        assert_eq!(node.last_start().unwrap().as_secs(), 2_000);
    }
}
