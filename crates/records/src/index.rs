//! The columnar trace: [`TraceIndex`] owns every field of every record
//! as a column, together with the groupings the analyses query.
//!
//! Every analysis in the paper groups the trace — by system, by node, by
//! root cause, by workload, by time window — and the naive implementation
//! materializes an owned [`FailureTrace`] per group: an O(n) scan-and-copy
//! for every group, O(n × nodes) for the per-node views of Fig. 6 alone.
//! [`TraceIndex`] replaces that with one O(n log n) build producing
//!
//! - **columns** of the record fields (`start`, `downtime`, `system`,
//!   `node`, `cause`, `detail`, `workload`), so kernels stream compact
//!   columns instead of striding over whole records, and rows are
//!   rebuilt only for the few callers that ask for a [`FailureRecord`];
//! - **contiguous per-`(system, node)` runs**: a permutation of row
//!   indices grouped by node, with run offsets, giving each node's rows as
//!   one slice;
//! - **posting lists** (sorted `u32` row indices) per system, per root
//!   cause, and per workload class;
//! - a **per-row predecessor link** `prev_in_node` (the previous row of
//!   the same `(system, node)`), which turns pooled per-node gap
//!   extraction into a single pass over the row set.
//!
//! The index borrows nothing: the `.hpct` store (`records::store`)
//! decodes straight into it, and a server keeps one per tenant.
//!
//! [`TraceView`] is the one query surface over a trace: a borrowed row
//! set (a contiguous range, or a slice of a posting list or node run)
//! over the index, answering every question the analyses ask of a slice
//! — counts, downtime, group-bys and gaps. A selection composes as
//! `index.system(s).window(a, b)` or `index.node(s, n).window(a, b)`.
//! [`FailureTrace`] is the row builder the index is built from.
//!
//! # Identity guarantees
//!
//! Row indices are assigned in trace order, and the trace is sorted by
//! `(start, system, node)`, so **ascending row order is time order** —
//! along any posting list the `start` column is non-decreasing, which is
//! what lets [`TraceView::window`] slice any row set with
//! `partition_point`. Every view query visits rows in ascending row
//! order, i.e. exactly the record order of a naive fold over the
//! selected records, and accumulates in the same sequence — results are
//! *element-identical* to that fold, bit for bit, not merely
//! statistically equal (proptests in `tests/proptests.rs` pin this on
//! arbitrary traces).
//!
//! ```
//! use hpcfail_records::{FailureTrace, SystemId};
//! let trace = FailureTrace::new();
//! let index = trace.index();
//! let view = index.system(SystemId::new(20));
//! assert_eq!(view.len(), 0);
//! ```

use std::collections::BTreeMap;

use crate::cause::{DetailedCause, RootCause};
use crate::error::RecordError;
use crate::ids::{NodeId, SystemId};
use crate::record::FailureRecord;
use crate::time::Timestamp;
use crate::trace::FailureTrace;
use crate::workload::Workload;

/// Sentinel for "no previous row of this node".
pub(crate) const NO_PREV: u32 = u32::MAX;

pub(crate) fn workload_slot(w: Workload) -> usize {
    match w {
        Workload::Compute => 0,
        Workload::Graphics => 1,
        Workload::FrontEnd => 2,
    }
}

/// One contiguous run of `node_rows` belonging to a single
/// `(system, node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeRun {
    pub(crate) system: SystemId,
    pub(crate) node: NodeId,
    /// Offsets into `TraceIndex::node_rows`.
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// Per-system counts and downtime split by root cause — the payload of
/// the single-pass [`TraceView::counts_by_cause_per_system`] kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseTotals {
    /// Failure count per cause, indexed by [`RootCause::index`].
    pub count: [u64; 6],
    /// Downtime seconds per cause, indexed by [`RootCause::index`].
    pub downtime_secs: [u64; 6],
}

/// The columnar form of a sorted failure trace, with its query index.
///
/// The index owns one column per record field plus the run, posting and
/// link arrays; it borrows nothing, so it can be kept, moved and shared
/// on its own. Build it once per trace (`trace.index()` or
/// [`TraceIndex::build`]) or open it from a `.hpct` store
/// ([`crate::store::TraceStore::from_bytes`]), then fan analyses off
/// borrowed [`TraceView`]s. The index is `Sync`: views can be taken from
/// worker threads concurrently. Its fields are crate-private, so only
/// the builder and the checked store loader, which both establish every
/// invariant below, can make one.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIndex {
    // Columns, indexed by row (= position in the sorted trace).
    pub(crate) start: Vec<Timestamp>,
    pub(crate) downtime: Vec<u64>,
    pub(crate) system: Vec<SystemId>,
    pub(crate) node: Vec<NodeId>,
    /// The category of `detail`, kept as its own column for the
    /// cause kernels.
    pub(crate) cause: Vec<RootCause>,
    pub(crate) detail: Vec<DetailedCause>,
    pub(crate) workload: Vec<Workload>,
    /// Previous row of the same `(system, node)`, or `NO_PREV`.
    pub(crate) prev_in_node: Vec<u32>,
    /// Permutation of rows grouped into contiguous per-node runs; rows
    /// ascend within each run. Runs are ordered by `(system, node)`.
    pub(crate) node_rows: Vec<u32>,
    pub(crate) node_runs: Vec<NodeRun>,
    /// Concatenated per-system posting lists; rows ascend within each
    /// span. Spans are ordered by system id.
    pub(crate) system_rows: Vec<u32>,
    pub(crate) system_spans: Vec<(SystemId, u32, u32)>,
    /// Posting list per root cause, indexed by [`RootCause::index`].
    pub(crate) cause_rows: [Vec<u32>; 6],
    /// Posting list per workload class.
    pub(crate) workload_rows: [Vec<u32>; 3],
}

impl TraceIndex {
    /// Build the index: one pass over the trace plus O(n log n) grouping.
    ///
    /// # Panics
    ///
    /// If the trace holds more than `u32::MAX` records (row indices are
    /// `u32` to halve posting-list memory).
    pub fn build(trace: &FailureTrace) -> Self {
        let records = trace.records();
        let n = records.len();
        assert!(u32::try_from(n).is_ok(), "trace too large for u32 rows");

        let mut start = Vec::with_capacity(n);
        let mut downtime = Vec::with_capacity(n);
        let mut system = Vec::with_capacity(n);
        let mut node = Vec::with_capacity(n);
        let mut cause = Vec::with_capacity(n);
        let mut detail = Vec::with_capacity(n);
        let mut workload = Vec::with_capacity(n);
        let mut prev_in_node = vec![NO_PREV; n];

        let mut node_map: BTreeMap<(SystemId, NodeId), Vec<u32>> = BTreeMap::new();
        let mut system_map: BTreeMap<SystemId, Vec<u32>> = BTreeMap::new();
        let mut cause_rows: [Vec<u32>; 6] = Default::default();
        let mut workload_rows: [Vec<u32>; 3] = Default::default();

        for (i, r) in records.iter().enumerate() {
            let row = i as u32;
            start.push(r.start());
            downtime.push(r.downtime_secs());
            system.push(r.system());
            node.push(r.node());
            cause.push(r.cause());
            detail.push(r.detail());
            workload.push(r.workload());

            let run = node_map.entry((r.system(), r.node())).or_default();
            if let Some(&p) = run.last() {
                prev_in_node[i] = p;
            }
            run.push(row);
            system_map.entry(r.system()).or_default().push(row);
            cause_rows[r.cause().index()].push(row);
            workload_rows[workload_slot(r.workload())].push(row);
        }

        let mut node_rows = Vec::with_capacity(n);
        let mut node_runs = Vec::with_capacity(node_map.len());
        for ((s, nd), rows) in node_map {
            let lo = node_rows.len() as u32;
            node_rows.extend_from_slice(&rows);
            node_runs.push(NodeRun {
                system: s,
                node: nd,
                lo,
                hi: node_rows.len() as u32,
            });
        }

        let mut system_rows = Vec::with_capacity(n);
        let mut system_spans = Vec::with_capacity(system_map.len());
        for (s, rows) in system_map {
            let lo = system_rows.len() as u32;
            system_rows.extend_from_slice(&rows);
            system_spans.push((s, lo, system_rows.len() as u32));
        }

        TraceIndex {
            start,
            downtime,
            system,
            node,
            cause,
            detail,
            workload,
            prev_in_node,
            node_rows,
            node_runs,
            system_rows,
            system_spans,
            cause_rows,
            workload_rows,
        }
    }

    /// Split into the rows rebuilt from the columns and the index
    /// itself. Kept only for the `perfbench` store-open timing, which
    /// pairs it with [`TraceIndex::from_parts`]; the product reads the
    /// index directly.
    pub fn into_parts(self) -> (FailureTrace, TraceIndex) {
        (self.all().to_trace(), self)
    }

    /// Hand back an index split by [`TraceIndex::into_parts`]. Kept only
    /// for `perfbench`, like `into_parts`.
    ///
    /// # Panics
    ///
    /// If `trace` and `index` hold different numbers of rows.
    pub fn from_parts(trace: &FailureTrace, index: TraceIndex) -> TraceIndex {
        assert_eq!(index.len(), trace.len(), "rows must match the index");
        index
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// The record at `row`, rebuilt from the columns.
    fn record(&self, row: usize) -> FailureRecord {
        FailureRecord::new(
            self.system[row],
            self.node[row],
            self.start[row],
            self.start[row] + self.downtime[row],
            self.workload[row],
            self.detail[row],
        )
        .expect("index columns hold valid records")
    }

    /// A view over the whole trace.
    pub fn all(&self) -> TraceView<'_> {
        TraceView {
            index: self,
            rows: RowSet::Range {
                lo: 0,
                hi: self.len() as u32,
            },
        }
    }

    /// A view over one system's records (posting-list backed).
    pub fn system(&self, system: SystemId) -> TraceView<'_> {
        let rows = match self
            .system_spans
            .binary_search_by_key(&system, |&(s, _, _)| s)
        {
            Ok(i) => {
                let (_, lo, hi) = self.system_spans[i];
                &self.system_rows[lo as usize..hi as usize]
            }
            Err(_) => &[],
        };
        TraceView {
            index: self,
            rows: RowSet::Rows {
                rows,
                node_closed: true,
            },
        }
    }

    /// A view over one node's records (run-slice backed).
    pub fn node(&self, system: SystemId, node: NodeId) -> TraceView<'_> {
        let rows = match self
            .node_runs
            .binary_search_by_key(&(system, node), |r| (r.system, r.node))
        {
            Ok(i) => {
                let run = self.node_runs[i];
                &self.node_rows[run.lo as usize..run.hi as usize]
            }
            Err(_) => &[],
        };
        TraceView {
            index: self,
            rows: RowSet::Rows {
                rows,
                node_closed: true,
            },
        }
    }

    /// A view over one root cause's records (posting-list backed).
    pub fn cause(&self, cause: RootCause) -> TraceView<'_> {
        TraceView {
            index: self,
            rows: RowSet::Rows {
                rows: &self.cause_rows[cause.index()],
                node_closed: false,
            },
        }
    }

    /// A view over one workload class's records (posting-list backed).
    pub fn workload(&self, workload: Workload) -> TraceView<'_> {
        TraceView {
            index: self,
            rows: RowSet::Rows {
                rows: &self.workload_rows[workload_slot(workload)],
                node_closed: false,
            },
        }
    }

    /// Systems present in the trace, ascending.
    pub fn systems(&self) -> impl Iterator<Item = SystemId> + '_ {
        self.system_spans.iter().map(|&(s, _, _)| s)
    }

    /// Failure count per node of one system, indexed by node id, zeros
    /// included (ids past `node_count` are ignored) — read off the node
    /// runs.
    pub fn failures_per_node(&self, system: SystemId, node_count: u32) -> Vec<u64> {
        let mut counts = vec![0u64; node_count as usize];
        let lo = self.node_runs.partition_point(|r| r.system < system);
        for run in self.node_runs[lo..]
            .iter()
            .take_while(|r| r.system == system)
        {
            if let Some(c) = counts.get_mut(run.node.get() as usize) {
                *c += (run.hi - run.lo) as u64;
            }
        }
        counts
    }
}

/// Row membership of a [`TraceView`].
#[derive(Debug, Clone, Copy)]
enum RowSet<'a> {
    /// All rows in `[lo, hi)` — the whole trace or a time window of it.
    Range { lo: u32, hi: u32 },
    /// Listed rows, ascending: a (sub)slice of a posting list or node
    /// run.
    ///
    /// `node_closed` records whether the set is closed under the
    /// `prev_in_node` link: for every row `r` in the set, the previous
    /// row of `r`'s node is in the set exactly when it is ≥ the set's
    /// first row. System, node, and window restrictions preserve this;
    /// cause/workload restrictions do not.
    Rows { rows: &'a [u32], node_closed: bool },
}

/// A borrowed, zero-copy slice of a trace — per system, node, cause,
/// workload or time window — backed by a row set over a [`TraceIndex`].
#[derive(Debug, Clone)]
pub struct TraceView<'a> {
    index: &'a TraceIndex,
    rows: RowSet<'a>,
}

impl<'a> TraceView<'a> {
    /// Number of records in the view.
    pub fn len(&self) -> usize {
        match self.rows {
            RowSet::Range { lo, hi } => (hi - lo) as usize,
            RowSet::Rows { rows, .. } => rows.len(),
        }
    }

    /// Whether the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn node_closed(&self) -> bool {
        match self.rows {
            RowSet::Range { .. } => true,
            RowSet::Rows { node_closed, .. } => node_closed,
        }
    }

    fn first_row(&self) -> Option<u32> {
        match self.rows {
            RowSet::Range { lo, hi } => (lo < hi).then_some(lo),
            RowSet::Rows { rows, .. } => rows.first().copied(),
        }
    }

    fn last_row(&self) -> Option<u32> {
        match self.rows {
            RowSet::Range { lo, hi } => (lo < hi).then(|| hi - 1),
            RowSet::Rows { rows, .. } => rows.last().copied(),
        }
    }

    /// Visit every row index in ascending (= time) order.
    fn for_each_row(&self, mut f: impl FnMut(usize)) {
        match self.rows {
            RowSet::Range { lo, hi } => {
                for r in lo..hi {
                    f(r as usize);
                }
            }
            RowSet::Rows { rows, .. } => {
                for &r in rows {
                    f(r as usize);
                }
            }
        }
    }

    /// Iterate the view's records in time order, each rebuilt from the
    /// index columns. The iterator borrows the index, not the view.
    pub fn iter(&self) -> impl Iterator<Item = FailureRecord> + 'a {
        let index = self.index;
        let (range, slice): (_, &[u32]) = match self.rows {
            RowSet::Range { lo, hi } => (Some(lo as usize..hi as usize), &[]),
            RowSet::Rows { rows, .. } => (None, rows),
        };
        range
            .into_iter()
            .flatten()
            .chain(slice.iter().map(|&r| r as usize))
            .map(move |r| index.record(r))
    }

    /// Materialize the view as an owned [`FailureTrace`] (rows ascend so
    /// the sort invariant carries over).
    pub fn to_trace(&self) -> FailureTrace {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_row(|r| out.push(self.index.record(r)));
        FailureTrace::from_sorted_records(out)
    }

    /// Earliest failure start in the view.
    pub fn first_start(&self) -> Option<Timestamp> {
        self.first_row().map(|r| self.index.start[r as usize])
    }

    /// Latest failure start in the view.
    pub fn last_start(&self) -> Option<Timestamp> {
        self.last_row().map(|r| self.index.start[r as usize])
    }

    /// Downtimes in seconds, in time order.
    pub fn downtimes_secs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_row(|r| out.push(self.index.downtime[r]));
        out
    }

    /// Downtimes in minutes (the paper's repair-time unit), in time order.
    pub fn downtimes_minutes(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_row(|r| out.push(self.index.downtime[r] as f64 / 60.0));
        out
    }

    /// Count records grouped by high-level cause.
    pub fn count_by_cause(&self) -> BTreeMap<RootCause, u64> {
        let mut map = BTreeMap::new();
        self.for_each_row(|r| *map.entry(self.index.cause[r]).or_insert(0) += 1);
        map
    }

    /// Count records grouped by system. On the whole-trace view this is
    /// read off the posting-span lengths without touching any row.
    pub fn count_by_system(&self) -> BTreeMap<SystemId, u64> {
        if let RowSet::Range { lo, hi } = self.rows {
            if lo == 0 && hi as usize == self.index.len() {
                return self
                    .index
                    .system_spans
                    .iter()
                    .map(|&(s, a, b)| (s, (b - a) as u64))
                    .collect();
            }
        }
        let mut map = BTreeMap::new();
        self.for_each_row(|r| *map.entry(self.index.system[r]).or_insert(0) += 1);
        map
    }

    /// Total downtime (seconds) grouped by system — the availability
    /// kernel, one pass over the view.
    pub fn downtime_by_system(&self) -> BTreeMap<SystemId, u64> {
        let mut map = BTreeMap::new();
        self.for_each_row(|r| {
            *map.entry(self.index.system[r]).or_insert(0) += self.index.downtime[r]
        });
        map
    }

    /// Per-system failure counts and downtime split by root cause, in one
    /// pass over the `system`/`cause`/`downtime` columns (the root-cause
    /// breakdown of Figs. 4–5 without 6 × systems filter clones).
    pub fn counts_by_cause_per_system(&self) -> BTreeMap<SystemId, CauseTotals> {
        let mut map: BTreeMap<SystemId, CauseTotals> = BTreeMap::new();
        self.for_each_row(|r| {
            let slot = map.entry(self.index.system[r]).or_default();
            let c = self.index.cause[r].index();
            slot.count[c] += 1;
            slot.downtime_secs[c] += self.index.downtime[r];
        });
        map
    }

    /// Number of records in the view with the given workload class.
    pub fn count_workload(&self, workload: Workload) -> usize {
        let mut count = 0;
        self.for_each_row(|r| {
            if self.index.workload[r] == workload {
                count += 1;
            }
        });
        count
    }

    /// System-wide inter-arrival gaps in seconds: gaps between
    /// consecutive failure *starts* in the view, in time order (the
    /// paper's "view as seen by the whole system", Fig. 6(c)(d)).
    ///
    /// Zero gaps — simultaneous failures of two or more nodes — are
    /// retained; the paper's Fig. 6(c) hinges on >30% of them being zero.
    ///
    /// # Errors
    ///
    /// [`RecordError::EmptyTrace`] when the view has fewer than 2 records.
    pub fn interarrival_secs(&self) -> Result<Vec<f64>, RecordError> {
        if self.len() < 2 {
            return Err(RecordError::EmptyTrace);
        }
        let start = &self.index.start;
        let mut gaps = Vec::with_capacity(self.len() - 1);
        match self.rows {
            RowSet::Range { lo, hi } => {
                for w in start[lo as usize..hi as usize].windows(2) {
                    gaps.push((w[1] - w[0]) as f64);
                }
            }
            RowSet::Rows { rows, .. } => {
                for w in rows.windows(2) {
                    gaps.push((start[w[1] as usize] - start[w[0] as usize]) as f64);
                }
            }
        }
        Ok(gaps)
    }

    /// Per-node inter-arrival gaps — between consecutive records of the
    /// same `(system, node)` retained by the view (the paper's "view as
    /// seen by an individual node", Fig. 6(a)(b)) — pooled across all
    /// nodes in the view, in time order.
    ///
    /// On node-closed row sets (system/node/window restrictions) this is
    /// a single sweep following the precomputed `prev_in_node` links; the
    /// generic fallback replays the last-seen map over the view's rows.
    pub fn per_node_interarrival_secs(&self) -> Vec<f64> {
        let mut gaps = Vec::new();
        if self.node_closed() {
            let Some(min_row) = self.first_row() else {
                return gaps;
            };
            let start = &self.index.start;
            let prev = &self.index.prev_in_node;
            self.for_each_row(|r| {
                let p = prev[r];
                if p != NO_PREV && p >= min_row {
                    gaps.push((start[r] - start[p as usize]) as f64);
                }
            });
        } else {
            let mut last_seen: BTreeMap<(SystemId, NodeId), Timestamp> = BTreeMap::new();
            self.for_each_row(|r| {
                let key = (self.index.system[r], self.index.node[r]);
                let now = self.index.start[r];
                if let Some(prev) = last_seen.insert(key, now) {
                    gaps.push((now - prev) as f64);
                }
            });
        }
        gaps
    }

    /// The fraction of system-wide inter-arrivals that are exactly zero;
    /// NaN for views with < 2 records.
    pub fn zero_gap_fraction(&self) -> f64 {
        match self.interarrival_secs() {
            Ok(gaps) => gaps.iter().filter(|&&g| g == 0.0).count() as f64 / gaps.len() as f64,
            Err(_) => f64::NAN,
        }
    }

    /// Narrow the view to records starting within `[from, to)` — two
    /// `partition_point` probes on the (non-decreasing) start column
    /// along the row set; always zero-copy.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> TraceView<'a> {
        let start = &self.index.start;
        let rows = match self.rows {
            RowSet::Range { lo, hi } => {
                let col = &start[lo as usize..hi as usize];
                let a = lo + col.partition_point(|&s| s < from) as u32;
                let b = lo + col.partition_point(|&s| s < to) as u32;
                RowSet::Range {
                    lo: a,
                    hi: b.max(a),
                }
            }
            RowSet::Rows { rows, node_closed } => {
                let a = rows.partition_point(|&r| start[r as usize] < from);
                let b = rows.partition_point(|&r| start[r as usize] < to);
                RowSet::Rows {
                    rows: &rows[a..b.max(a)],
                    node_closed,
                }
            }
        };
        TraceView {
            index: self.index,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        system: u32,
        node: u32,
        start: u64,
        dur: u64,
        workload: Workload,
        detail: DetailedCause,
    ) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(system),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(start + dur),
            workload,
            detail,
        )
        .unwrap()
    }

    fn sample_trace() -> FailureTrace {
        FailureTrace::from_records(vec![
            rec(20, 0, 1_000, 60, Workload::Compute, DetailedCause::Memory),
            rec(
                20,
                1,
                500,
                120,
                Workload::Compute,
                DetailedCause::OperatingSystem,
            ),
            rec(20, 0, 2_000, 30, Workload::Compute, DetailedCause::Cpu),
            rec(
                5,
                3,
                1_500,
                600,
                Workload::Graphics,
                DetailedCause::PowerOutage,
            ),
            rec(
                20,
                1,
                2_000,
                90,
                Workload::Compute,
                DetailedCause::Undetermined,
            ),
            rec(20, 0, 3_000, 15, Workload::Compute, DetailedCause::Memory),
        ])
    }

    /// The records of `trace` that `keep` selects, as their own trace.
    fn select(trace: &FailureTrace, keep: impl Fn(&FailureRecord) -> bool) -> FailureTrace {
        trace.iter().copied().filter(|r| keep(r)).collect()
    }

    /// Every query on a narrowed view must match the whole-trace view of
    /// a trace holding only the selected records exactly: the posting and
    /// node-run paths against the contiguous-range path.
    fn assert_view_matches(view: &TraceView<'_>, owned: &FailureTrace) {
        let index = owned.index();
        let expected = index.all();
        assert_eq!(view.len(), expected.len());
        assert_eq!(view.first_start(), expected.first_start());
        assert_eq!(view.last_start(), expected.last_start());
        assert_eq!(view.downtimes_secs(), expected.downtimes_secs());
        assert_eq!(view.downtimes_minutes(), expected.downtimes_minutes());
        assert_eq!(view.count_by_cause(), expected.count_by_cause());
        assert_eq!(view.count_by_system(), expected.count_by_system());
        for w in Workload::ALL {
            assert_eq!(view.count_workload(w), expected.count_workload(w));
        }
        assert_eq!(
            view.interarrival_secs().ok(),
            expected.interarrival_secs().ok()
        );
        assert_eq!(
            view.per_node_interarrival_secs(),
            expected.per_node_interarrival_secs()
        );
        assert_eq!(&view.to_trace(), owned);
        let viewed: Vec<FailureRecord> = view.iter().collect();
        assert_eq!(viewed, owned.records().to_vec());
    }

    #[test]
    fn whole_trace_view_matches() {
        let trace = sample_trace();
        let index = trace.index();
        assert_eq!(index.len(), trace.len());
        assert_view_matches(&index.all(), &trace);
        // Hand-checked: starts 500, 1000, 1500, 2000, 2000, 3000.
        let all = index.all();
        assert_eq!(all.first_start(), Some(Timestamp::from_secs(500)));
        assert_eq!(all.last_start(), Some(Timestamp::from_secs(3_000)));
        assert_eq!(
            all.downtimes_secs().iter().sum::<u64>(),
            120 + 60 + 600 + 30 + 90 + 15
        );
        assert_eq!(
            all.interarrival_secs().unwrap(),
            vec![500.0, 500.0, 500.0, 0.0, 1_000.0]
        );
        assert_eq!(
            all.per_node_interarrival_secs(),
            vec![1_000.0, 1_500.0, 1_000.0]
        );
    }

    #[test]
    fn single_filters_match_owned() {
        let trace = sample_trace();
        let index = trace.index();
        for sys in [5u32, 20, 7] {
            let id = SystemId::new(sys);
            assert_view_matches(&index.system(id), &select(&trace, |r| r.system() == id));
            for node in 0..4u32 {
                let n = NodeId::new(node);
                assert_view_matches(
                    &index.node(id, n),
                    &select(&trace, |r| r.system() == id && r.node() == n),
                );
            }
        }
        for cause in RootCause::ALL {
            assert_view_matches(&index.cause(cause), &select(&trace, |r| r.cause() == cause));
        }
        for w in Workload::ALL {
            assert_view_matches(&index.workload(w), &select(&trace, |r| r.workload() == w));
        }
    }

    #[test]
    fn window_and_compositions_match_owned() {
        let trace = sample_trace();
        let index = trace.index();
        let windows = [
            (0u64, 10_000u64),
            (500, 2_000),
            (1_000, 1_000),
            (2_000, 500),
            (1_500, 3_001),
        ];
        for (from, to) in windows {
            let (f, t) = (Timestamp::from_secs(from), Timestamp::from_secs(to));
            let owned = trace.filter_window(f, t);
            assert_view_matches(&index.all().window(f, t), &owned);
            let id = SystemId::new(20);
            assert_view_matches(
                &index.system(id).window(f, t),
                &select(&owned, |r| r.system() == id),
            );
            let n = NodeId::new(0);
            assert_view_matches(
                &index.node(id, n).window(f, t),
                &select(&owned, |r| r.system() == id && r.node() == n),
            );
            assert_view_matches(
                &index.cause(RootCause::Hardware).window(f, t),
                &select(&owned, |r| r.cause() == RootCause::Hardware),
            );
        }
    }

    #[test]
    fn group_kernels_match_owned() {
        let trace = sample_trace();
        let index = trace.index();
        let view = index.all();
        let totals = view.counts_by_cause_per_system();
        for (&sys, t) in &totals {
            for cause in RootCause::ALL {
                let of_cause = select(&trace, |r| r.system() == sys && r.cause() == cause);
                assert_eq!(t.count[cause.index()], of_cause.len() as u64);
                assert_eq!(
                    t.downtime_secs[cause.index()],
                    of_cause.iter().map(|r| r.downtime_secs()).sum::<u64>()
                );
            }
        }
        assert_eq!(
            totals.keys().copied().collect::<Vec<_>>(),
            index.systems().collect::<Vec<_>>()
        );
        assert_eq!(view.downtime_by_system().len(), totals.len());
        // Hand-checked: node 0 fails at 1000, 2000, 3000; node 1 at 500, 2000.
        assert_eq!(
            index.failures_per_node(SystemId::new(20), 4),
            vec![3, 2, 0, 0]
        );
    }

    #[test]
    fn index_is_stable_under_input_order() {
        // Same records, pre-sorted vs reversed vs interleaved input: the
        // trace sort normalizes them and the index must come out
        // identical (all keys here are distinct, so the stable sort has
        // no freedom).
        let base = sample_trace();
        let mut reversed: Vec<FailureRecord> = base.records().to_vec();
        reversed.reverse();
        let mut interleaved: Vec<FailureRecord> = Vec::new();
        for (i, r) in base.records().iter().enumerate() {
            if i % 2 == 0 {
                interleaved.push(*r);
            }
        }
        for (i, r) in base.records().iter().enumerate() {
            if i % 2 == 1 {
                interleaved.push(*r);
            }
        }
        for shuffled in [reversed, interleaved] {
            let other = FailureTrace::from_records(shuffled);
            assert_eq!(&other, &base);
            let ia = base.index();
            let ib = other.index();
            assert_eq!(ia.len(), ib.len());
            assert_eq!(
                ia.systems().collect::<Vec<_>>(),
                ib.systems().collect::<Vec<_>>()
            );
            assert_eq!(
                ia.all().per_node_interarrival_secs(),
                ib.all().per_node_interarrival_secs()
            );
            assert_eq!(
                ia.all().counts_by_cause_per_system(),
                ib.all().counts_by_cause_per_system()
            );
            for sys in ia.systems() {
                let va: Vec<FailureRecord> = ia.system(sys).iter().collect();
                let vb: Vec<FailureRecord> = ib.system(sys).iter().collect();
                assert_eq!(va, vb);
            }
        }
    }

    #[test]
    fn empty_trace_views() {
        let trace = FailureTrace::new();
        let index = trace.index();
        assert!(index.is_empty());
        let view = index.all();
        assert!(view.is_empty());
        assert!(view.interarrival_secs().is_err());
        assert!(view.per_node_interarrival_secs().is_empty());
        assert!(view.zero_gap_fraction().is_nan());
        assert!(view.first_start().is_none());
        assert_eq!(index.failures_per_node(SystemId::new(1), 3), vec![0, 0, 0]);
    }

    #[test]
    fn zero_gap_fraction_matches() {
        let trace = sample_trace();
        let index = trace.index();
        // One zero gap (the two failures at t=2000) among five.
        assert_eq!(index.all().zero_gap_fraction(), 0.2);
        // Same via the posting-list path: system 20 has the same tie.
        assert_eq!(index.system(SystemId::new(20)).zero_gap_fraction(), 0.25);
    }
}
