//! The failure trace — an ordered collection of [`FailureRecord`]s with
//! the query operations every analysis in the paper needs: filtering by
//! system/node/time/cause, grouping, counting, downtime aggregation, and
//! inter-arrival extraction (per node and system-wide).

use std::collections::BTreeMap;

use crate::cause::RootCause;
use crate::error::RecordError;
use crate::ids::{NodeId, SystemId};
use crate::record::FailureRecord;
use crate::time::Timestamp;
use crate::workload::Workload;

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
        records.sort_by_key(|r| (r.start(), r.system(), r.node()));
        FailureTrace { records }
    }

    /// Wrap records already in `(start, system, node)` order without
    /// re-sorting. Callers (the index layer) guarantee the invariant.
    pub(crate) fn from_sorted_records(records: Vec<FailureRecord>) -> Self {
        debug_assert!(records
            .windows(2)
            .all(|w| (w[0].start(), w[0].system(), w[0].node())
                <= (w[1].start(), w[1].system(), w[1].node())));
        FailureTrace { records }
    }

    /// Add one record, keeping the ordering invariant.
    pub fn push(&mut self, record: FailureRecord) {
        // Fast path: appending in time order.
        if self
            .records
            .last()
            .map(|last| last.start() <= record.start())
            .unwrap_or(true)
        {
            self.records.push(record);
        } else {
            let pos = self
                .records
                .partition_point(|r| r.start() <= record.start());
            self.records.insert(pos, record);
        }
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

    /// Records of one system, as a new trace.
    pub fn filter_system(&self, system: SystemId) -> FailureTrace {
        self.filter(|r| r.system() == system)
    }

    /// Records of one node of one system.
    pub fn filter_node(&self, system: SystemId, node: NodeId) -> FailureTrace {
        self.filter(|r| r.system() == system && r.node() == node)
    }

    /// Records with a given high-level root cause.
    pub fn filter_cause(&self, cause: RootCause) -> FailureTrace {
        self.filter(|r| r.cause() == cause)
    }

    /// Records whose node runs the given workload class.
    pub fn filter_workload(&self, workload: Workload) -> FailureTrace {
        self.filter(|r| r.workload() == workload)
    }

    /// Records that *start* within `[from, to)` — the paper's era splits
    /// (1996–1999 vs 2000–2005 in Fig. 6).
    ///
    /// Because records are kept sorted by start time, the window is two
    /// binary searches plus one contiguous copy, not a full scan.
    pub fn filter_window(&self, from: Timestamp, to: Timestamp) -> FailureTrace {
        let (lo, hi) = self.window_bounds(from, to);
        FailureTrace {
            records: self.records[lo..hi].to_vec(),
        }
    }

    /// Index range `[lo, hi)` of records starting within `[from, to)`.
    pub(crate) fn window_bounds(&self, from: Timestamp, to: Timestamp) -> (usize, usize) {
        let lo = self.records.partition_point(|r| r.start() < from);
        let hi = self.records.partition_point(|r| r.start() < to);
        (lo, hi.max(lo))
    }

    /// Generic predicate filter preserving order.
    pub fn filter<P: Fn(&FailureRecord) -> bool>(&self, pred: P) -> FailureTrace {
        FailureTrace {
            records: self.records.iter().filter(|r| pred(r)).copied().collect(),
        }
    }

    /// Earliest failure start, if any.
    pub fn first_start(&self) -> Option<Timestamp> {
        self.records.first().map(|r| r.start())
    }

    /// Latest failure start, if any.
    pub fn last_start(&self) -> Option<Timestamp> {
        self.records.last().map(|r| r.start())
    }

    /// Total downtime across all records, in seconds.
    pub fn total_downtime_secs(&self) -> u64 {
        self.records.iter().map(|r| r.downtime_secs()).sum()
    }

    /// Downtimes in minutes (the paper's repair-time unit), in record
    /// order.
    pub fn downtimes_minutes(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.downtime_minutes()).collect()
    }

    /// Failure count per node of one system, indexed by node id — the
    /// Fig. 3(a) bar data. Nodes with zero failures are included (0..n).
    pub fn failures_per_node(&self, system: SystemId, node_count: u32) -> Vec<u64> {
        let mut counts = vec![0u64; node_count as usize];
        for r in self.records.iter().filter(|r| r.system() == system) {
            if let Some(c) = counts.get_mut(r.node().get() as usize) {
                *c += 1;
            }
        }
        counts
    }

    /// Count records grouped by high-level cause.
    pub fn count_by_cause(&self) -> BTreeMap<RootCause, u64> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            *map.entry(r.cause()).or_insert(0) += 1;
        }
        map
    }

    /// Total downtime (seconds) grouped by high-level cause.
    pub fn downtime_by_cause(&self) -> BTreeMap<RootCause, u64> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            *map.entry(r.cause()).or_insert(0) += r.downtime_secs();
        }
        map
    }

    /// Count records grouped by system.
    pub fn count_by_system(&self) -> BTreeMap<SystemId, u64> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            *map.entry(r.system()).or_insert(0) += 1;
        }
        map
    }

    /// System-wide inter-arrival times in seconds: gaps between
    /// consecutive failure *starts* anywhere in the trace (the paper's
    /// "view as seen by the whole system", Fig. 6(c)(d)).
    ///
    /// Zero gaps — simultaneous failures of two or more nodes — are
    /// retained; the paper's Fig. 6(c) hinges on >30% of them being zero.
    ///
    /// # Errors
    ///
    /// [`RecordError::EmptyTrace`] when fewer than 2 records exist.
    pub fn interarrival_secs(&self) -> Result<Vec<f64>, RecordError> {
        if self.records.len() < 2 {
            return Err(RecordError::EmptyTrace);
        }
        Ok(self
            .records
            .windows(2)
            .map(|w| (w[1].start() - w[0].start()) as f64)
            .collect())
    }

    /// Per-node inter-arrival times: gaps between consecutive failures of
    /// the same `(system, node)` (the paper's "view as seen by an
    /// individual node", Fig. 6(a)(b)). Returns gaps pooled across all
    /// nodes present in the trace.
    pub fn per_node_interarrival_secs(&self) -> Vec<f64> {
        let mut last_seen: BTreeMap<(SystemId, NodeId), Timestamp> = BTreeMap::new();
        let mut gaps = Vec::new();
        for r in &self.records {
            let key = (r.system(), r.node());
            if let Some(prev) = last_seen.insert(key, r.start()) {
                gaps.push((r.start() - prev) as f64);
            }
        }
        gaps
    }

    /// The fraction of system-wide inter-arrivals that are exactly zero
    /// (simultaneous multi-node failures). NaN for traces with < 2
    /// records.
    pub fn zero_gap_fraction(&self) -> f64 {
        match self.interarrival_secs() {
            Ok(gaps) => gaps.iter().filter(|&&g| g == 0.0).count() as f64 / gaps.len() as f64,
            Err(_) => f64::NAN,
        }
    }

    /// Merge another trace into this one.
    ///
    /// When both sides already satisfy the full `(start, system, node)`
    /// ordering this is a single O(n+m) sorted merge; equal keys take the
    /// `self` record first, matching what the stable resort of the
    /// concatenation used to produce. [`FailureTrace::push`] only
    /// maintains start-order, so a side that lost the full ordering falls
    /// back to extend-then-resort.
    pub fn merge(&mut self, other: FailureTrace) {
        fn full_key(r: &FailureRecord) -> (Timestamp, SystemId, NodeId) {
            (r.start(), r.system(), r.node())
        }
        fn fully_sorted(records: &[FailureRecord]) -> bool {
            records.windows(2).all(|w| full_key(&w[0]) <= full_key(&w[1]))
        }

        if other.records.is_empty() {
            return;
        }
        if fully_sorted(&self.records) && fully_sorted(&other.records) {
            if self.records.is_empty() {
                self.records = other.records;
                return;
            }
            let a = std::mem::take(&mut self.records);
            let b = other.records;
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if full_key(&a[i]) <= full_key(&b[j]) {
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
        } else {
            self.records.extend(other.records);
            self.records
                .sort_by_key(|r| (r.start(), r.system(), r.node()));
        }
    }

    /// A zero-copy query index over this trace. See [`crate::index`].
    pub fn index(&self) -> crate::index::TraceIndex<'_> {
        crate::index::TraceIndex::build(self)
    }
}

impl FromIterator<FailureRecord> for FailureTrace {
    fn from_iter<I: IntoIterator<Item = FailureRecord>>(iter: I) -> Self {
        FailureTrace::from_records(iter.into_iter().collect())
    }
}

impl Extend<FailureRecord> for FailureTrace {
    fn extend<I: IntoIterator<Item = FailureRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
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
    use crate::cause::DetailedCause;

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

    #[test]
    fn push_maintains_order() {
        let mut t = FailureTrace::new();
        t.push(rec(1, 0, 100, 1, DetailedCause::Memory));
        t.push(rec(1, 0, 50, 1, DetailedCause::Memory)); // out of order
        t.push(rec(1, 0, 200, 1, DetailedCause::Memory));
        let starts: Vec<u64> = t.iter().map(|r| r.start().as_secs()).collect();
        assert_eq!(starts, vec![50, 100, 200]);
    }

    #[test]
    fn filters() {
        let t = sample_trace();
        assert_eq!(t.filter_system(SystemId::new(20)).len(), 4);
        assert_eq!(t.filter_system(SystemId::new(5)).len(), 1);
        assert_eq!(t.filter_node(SystemId::new(20), NodeId::new(0)).len(), 2);
        assert_eq!(t.filter_cause(RootCause::Hardware).len(), 2);
        assert_eq!(t.filter_cause(RootCause::Environment).len(), 1);
        assert_eq!(
            t.filter_window(Timestamp::from_secs(1_000), Timestamp::from_secs(2_000))
                .len(),
            2
        );
        assert_eq!(t.filter_workload(Workload::Compute).len(), 5);
        assert_eq!(t.filter_workload(Workload::Graphics).len(), 0);
    }

    #[test]
    fn counting_and_downtime() {
        let t = sample_trace();
        let by_cause = t.count_by_cause();
        assert_eq!(by_cause[&RootCause::Hardware], 2);
        assert_eq!(by_cause[&RootCause::Software], 1);
        assert_eq!(by_cause[&RootCause::Unknown], 1);
        let dt = t.downtime_by_cause();
        assert_eq!(dt[&RootCause::Environment], 600);
        assert_eq!(dt[&RootCause::Hardware], 90);
        assert_eq!(t.total_downtime_secs(), 60 + 120 + 30 + 600 + 90);
        let by_sys = t.count_by_system();
        assert_eq!(by_sys[&SystemId::new(20)], 4);
    }

    #[test]
    fn failures_per_node_includes_zeros() {
        let t = sample_trace();
        let counts = t.failures_per_node(SystemId::new(20), 4);
        assert_eq!(counts, vec![2, 2, 0, 0]);
        // Out-of-range node ids are ignored rather than panicking.
        let small = t.failures_per_node(SystemId::new(20), 1);
        assert_eq!(small, vec![2]);
    }

    #[test]
    fn system_wide_interarrivals_keep_zeros() {
        let t = sample_trace();
        let gaps = t.interarrival_secs().unwrap();
        assert_eq!(gaps, vec![500.0, 500.0, 500.0, 0.0]);
        assert!((t.zero_gap_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn per_node_interarrivals() {
        let t = sample_trace();
        let gaps = t.per_node_interarrival_secs();
        // node (20,0): 2000-1000 = 1000; node (20,1): 2000-500 = 1500.
        let mut sorted = gaps.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, vec![1_000.0, 1_500.0]);
    }

    #[test]
    fn empty_trace_errors() {
        let t = FailureTrace::new();
        assert!(matches!(
            t.interarrival_secs(),
            Err(RecordError::EmptyTrace)
        ));
        assert!(t.zero_gap_fraction().is_nan());
        assert!(t.first_start().is_none());
        assert_eq!(t.per_node_interarrival_secs(), Vec::<f64>::new());
    }

    #[test]
    fn merge_and_collect() {
        let mut a = sample_trace();
        let b = FailureTrace::from_records(vec![rec(7, 9, 10, 5, DetailedCause::Disk)]);
        a.merge(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.first_start().unwrap().as_secs(), 10);

        let collected: FailureTrace = sample_trace().iter().copied().collect();
        assert_eq!(collected.len(), 5);

        let mut ext = FailureTrace::new();
        ext.extend(sample_trace().iter().copied());
        assert_eq!(ext.len(), 5);
    }

    #[test]
    fn first_last_start() {
        let t = sample_trace();
        assert_eq!(t.first_start().unwrap().as_secs(), 500);
        assert_eq!(t.last_start().unwrap().as_secs(), 2_000);
    }
}
