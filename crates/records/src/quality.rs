//! Data-quality layer for ingested failure traces.
//!
//! The raw LANL release is operator-entered and known-dirty: inverted
//! timestamps, duplicate rows, overlapping outages of the same node,
//! vocabulary drift in the cause column (Lu, *Failure Data Analysis of
//! HPC Systems*). Every downstream statistic in this workspace changes
//! with the cleaning decisions made here, so those decisions are
//! explicit, counted, and idempotent:
//!
//! * an [`IngestPolicy`] decides what the trace loader
//!   ([`crate::io::read_trace`], in either CSV dialect) does with a bad
//!   row — fail the file, quarantine the row, or repair it in place;
//! * [`audit`] scans a parsed trace against the catalog and counts
//!   every issue class without modifying anything;
//! * [`repair`] applies every per-class fix (catalog drops,
//!   clip-to-window, zero-width drop, dedup, merge-overlaps) and reports
//!   what it did. `repair` is idempotent: repairing an already-repaired
//!   trace is a no-op, a property pinned by `tests/ingest_robustness.rs`.

use std::collections::HashMap;
use std::fmt;

use crate::catalog::Catalog;
use crate::cause::DetailedCause;
use crate::ids::{NodeId, SystemId};
use crate::index::TraceIndex;
use crate::record::FailureRecord;
use crate::time::Timestamp;
use crate::trace::FailureTrace;

/// What the trace loader does when it meets a row it cannot accept
/// as-is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Abort on the first bad row with its typed error (the strict
    /// read). In the LANL dialect inverted rows are still quarantined,
    /// not fatal: the raw release carries them.
    FailFast,
    /// Keep going: bad rows land in a structured quarantine, good rows in
    /// the trace. `accepted + quarantined == total rows`, always.
    #[default]
    Quarantine,
    /// Like [`IngestPolicy::Quarantine`], but first attempt the explicit
    /// per-class repairs (swap inverted timestamps, map unknown causes to
    /// `undetermined`, strip extra empty trailing fields). Rows that
    /// remain unparseable are quarantined.
    Repair,
}

/// How bad a quarantined row is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The row parsed but carries a suspicious value.
    Warning,
    /// The row could not be turned into a record.
    Error,
}

/// Why a row was quarantined (or repaired). Each variant is one issue
/// class with its own counting bucket and repair rule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QualityIssue {
    /// The line had the wrong number of CSV fields.
    WrongFieldCount {
        /// Fields expected.
        expected: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse (with the underlying reason).
    MalformedField {
        /// Human-readable parse failure.
        reason: String,
    },
    /// Repair completed before the failure started (clock or data-entry
    /// glitch). Repairable by swapping the endpoints.
    InvertedInterval,
    /// The failure start equals the repair time (node bounced).
    ZeroWidthInterval,
    /// The cause text is outside the known vocabulary (drift in the
    /// operator's category set). Repairable by mapping to `undetermined`.
    VocabularyDrift {
        /// The unrecognized raw cause text.
        raw: String,
    },
    /// The line could not be read at all (encoding junk, I/O error).
    Unreadable {
        /// The underlying read error.
        reason: String,
    },
}

impl QualityIssue {
    /// The severity this issue class carries in quarantine.
    pub fn severity(&self) -> Severity {
        match self {
            QualityIssue::ZeroWidthInterval => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Short stable label for reports and per-class counting.
    pub fn class(&self) -> &'static str {
        match self {
            QualityIssue::WrongFieldCount { .. } => "wrong-field-count",
            QualityIssue::MalformedField { .. } => "malformed-field",
            QualityIssue::InvertedInterval => "inverted-interval",
            QualityIssue::ZeroWidthInterval => "zero-width-interval",
            QualityIssue::VocabularyDrift { .. } => "vocabulary-drift",
            QualityIssue::Unreadable { .. } => "unreadable",
        }
    }
}

impl fmt::Display for QualityIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualityIssue::WrongFieldCount { expected, got } => {
                write!(f, "expected {expected} fields, got {got}")
            }
            QualityIssue::MalformedField { reason } => f.write_str(reason),
            QualityIssue::InvertedInterval => f.write_str("repair time precedes failure start"),
            QualityIssue::ZeroWidthInterval => f.write_str("zero-width outage interval"),
            QualityIssue::VocabularyDrift { raw } => {
                write!(f, "cause {raw:?} is outside the known vocabulary")
            }
            QualityIssue::Unreadable { reason } => write!(f, "unreadable line: {reason}"),
        }
    }
}

/// One row the loader refused, with enough context to replay
/// the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line number in the source file.
    pub line: usize,
    /// The raw line text (empty when the line itself was unreadable).
    pub raw: String,
    /// Why it was quarantined.
    pub issue: QualityIssue,
    /// How bad it is.
    pub severity: Severity,
}

/// One row the loader accepted only after an explicit repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairedRow {
    /// 1-based line number in the source file.
    pub line: usize,
    /// The issue that was repaired away.
    pub issue: QualityIssue,
}

/// The outcome of a trace load: the index of the accepted records, the
/// structured quarantine, and the conservation bookkeeping.
///
/// A packed `.hpct` input accepts every record (`total_rows == len`,
/// no quarantine, no repairs).
#[derive(Debug, Clone, PartialEq)]
pub struct LenientIngest {
    /// The records that were accepted (possibly after repair).
    pub index: TraceIndex,
    /// Rows that were refused, with reasons.
    pub quarantine: Vec<QuarantinedRow>,
    /// Rows accepted only after an explicit repair (policy
    /// [`IngestPolicy::Repair`]).
    pub repaired: Vec<RepairedRow>,
    /// Data rows seen (excludes blank lines, comments, and the header).
    pub total_rows: usize,
    /// Accepted records with `start == end` — counted, not dropped
    /// (instantaneous node bounces exist in operator data).
    pub zero_width: usize,
}

impl LenientIngest {
    /// Number of accepted records.
    pub fn accepted(&self) -> usize {
        self.index.len()
    }

    /// The conservation invariant every lenient read must satisfy:
    /// `accepted + quarantined == total rows`.
    pub fn is_conserved(&self) -> bool {
        self.accepted() + self.quarantine.len() == self.total_rows
    }

    /// Per-class quarantine counts, sorted by class label.
    pub fn quarantine_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for row in &self.quarantine {
            *counts.entry(row.issue.class()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_unstable();
        out
    }
}

/// Detailed causes that are catch-all buckets rather than diagnoses —
/// the vocabulary-drift indicator [`audit`] tracks.
const CATCHALL_CAUSES: [DetailedCause; 5] = [
    DetailedCause::OtherHardware,
    DetailedCause::OtherSoftware,
    DetailedCause::NetworkOther,
    DetailedCause::HumanOther,
    DetailedCause::Undetermined,
];

/// Fraction of catch-all causes above which [`QualityReport`] flags
/// cause-vocabulary drift.
pub const DRIFT_THRESHOLD: f64 = 0.5;

/// Start gap (seconds) under which two same-node same-cause records are
/// near-duplicates.
pub const NEAR_DUPLICATE_WINDOW_SECS: u64 = 120;

/// Per-class issue counts over one parsed trace. Produced by [`audit`];
/// every count is a detection, not a mutation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityReport {
    /// Records inspected.
    pub total_records: usize,
    /// Extra occurrences of byte-identical records (beyond the first).
    pub exact_duplicates: usize,
    /// Same-node same-cause records starting within
    /// [`NEAR_DUPLICATE_WINDOW_SECS`] of a kept record (excluding exact
    /// duplicates).
    pub near_duplicates: usize,
    /// Records whose outage overlaps the previous outage of the same
    /// node.
    pub overlapping_outages: usize,
    /// Records with `start == end`.
    pub zero_width: usize,
    /// Records naming a system the catalog does not know.
    pub unknown_system: usize,
    /// Records whose node index exceeds the system's node count.
    pub node_out_of_range: usize,
    /// Records starting outside the system's production window.
    pub outside_production_window: usize,
    /// Records whose detailed cause is a catch-all bucket.
    pub catchall_causes: usize,
}

impl QualityReport {
    /// Total issue detections across all classes (a record can count in
    /// several classes). Catch-all causes are an indicator, not an
    /// issue, and are excluded.
    pub fn issue_count(&self) -> usize {
        self.exact_duplicates
            + self.near_duplicates
            + self.overlapping_outages
            + self.zero_width
            + self.unknown_system
            + self.node_out_of_range
            + self.outside_production_window
    }

    /// Fraction of records carrying a catch-all cause.
    pub fn catchall_fraction(&self) -> f64 {
        if self.total_records == 0 {
            0.0
        } else {
            self.catchall_causes as f64 / self.total_records as f64
        }
    }

    /// Whether the catch-all fraction exceeds [`DRIFT_THRESHOLD`] —
    /// the operator's cause vocabulary has likely drifted away from the
    /// catalog's taxonomy.
    pub fn has_vocabulary_drift(&self) -> bool {
        self.catchall_fraction() > DRIFT_THRESHOLD
    }

    /// `(class, count)` pairs in a stable report order.
    pub fn counts(&self) -> [(&'static str, usize); 8] {
        [
            ("exact-duplicate", self.exact_duplicates),
            ("near-duplicate", self.near_duplicates),
            ("overlapping-outage", self.overlapping_outages),
            ("zero-width-interval", self.zero_width),
            ("unknown-system", self.unknown_system),
            ("node-out-of-range", self.node_out_of_range),
            ("outside-production-window", self.outside_production_window),
            ("catchall-cause", self.catchall_causes),
        ]
    }
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} records, {} issue detections",
            self.total_records,
            self.issue_count()
        )?;
        for (class, count) in self.counts() {
            writeln!(f, "  {class:<26} {count}")?;
        }
        write!(
            f,
            "  vocabulary drift: {} ({:.0}% catch-all causes)",
            if self.has_vocabulary_drift() {
                "likely"
            } else {
                "no"
            },
            self.catchall_fraction() * 100.0
        )
    }
}

/// Audit a trace: duplicates, overlaps, zero-width intervals, the
/// cause-vocabulary indicator, and the catalog checks (unknown systems,
/// out-of-range node indices, records outside the production window).
pub fn audit(trace: &FailureTrace, catalog: &Catalog) -> QualityReport {
    let mut report = QualityReport {
        total_records: trace.len(),
        ..QualityReport::default()
    };
    let mut seen: HashMap<FailureRecord, ()> = HashMap::with_capacity(trace.len());
    // Per-node running state: last kept start per (node, cause) for
    // near-duplicate detection, and max end per node for overlaps.
    let mut last_kept_start: HashMap<(SystemId, NodeId, DetailedCause), Timestamp> = HashMap::new();
    let mut max_end: HashMap<(SystemId, NodeId), Timestamp> = HashMap::new();
    for r in trace.iter() {
        let exact_dup = seen.insert(*r, ()).is_some();
        if exact_dup {
            report.exact_duplicates += 1;
        } else {
            let key = (r.system(), r.node(), r.detail());
            match last_kept_start.get(&key) {
                Some(&prev) if r.start() - prev <= NEAR_DUPLICATE_WINDOW_SECS => {
                    report.near_duplicates += 1;
                }
                _ => {
                    last_kept_start.insert(key, r.start());
                }
            }
            // An exact duplicate trivially overlaps its original; count
            // it only in its own class.
            let node_key = (r.system(), r.node());
            match max_end.get_mut(&node_key) {
                Some(end) => {
                    if r.start() < *end {
                        report.overlapping_outages += 1;
                    }
                    *end = (*end).max(r.end());
                }
                None => {
                    max_end.insert(node_key, r.end());
                }
            }
        }
        if r.downtime_secs() == 0 {
            report.zero_width += 1;
        }
        match catalog.system(r.system()) {
            Ok(spec) => {
                if !spec.contains_node(r.node()) {
                    report.node_out_of_range += 1;
                }
                if r.start() < spec.production_start() || r.start() > spec.production_end() {
                    report.outside_production_window += 1;
                }
            }
            Err(_) => report.unknown_system += 1,
        }
        if CATCHALL_CAUSES.contains(&r.detail()) {
            report.catchall_causes += 1;
        }
    }
    report
}

/// What [`repair`] did, with the repaired trace and per-class counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The repaired trace.
    pub trace: FailureTrace,
    /// Exact-duplicate records removed.
    pub removed_exact_duplicates: usize,
    /// Near-duplicate records removed.
    pub removed_near_duplicates: usize,
    /// Overlapping records merged into their predecessor.
    pub merged_overlaps: usize,
    /// Records whose interval was clipped to the production window.
    pub clipped_to_window: usize,
    /// Records dropped for an unknown system or out-of-range node.
    pub dropped_out_of_range: usize,
    /// Records dropped for starting entirely outside the window.
    pub dropped_outside_window: usize,
    /// Zero-width records dropped.
    pub dropped_zero_width: usize,
}

impl RepairOutcome {
    /// Total records removed or merged away.
    pub fn records_removed(&self) -> usize {
        self.removed_exact_duplicates
            + self.removed_near_duplicates
            + self.merged_overlaps
            + self.dropped_out_of_range
            + self.dropped_outside_window
            + self.dropped_zero_width
    }

    /// Whether the repair changed anything at all.
    pub fn changed(&self) -> bool {
        self.records_removed() + self.clipped_to_window > 0
    }
}

impl fmt::Display for RepairOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} records kept", self.trace.len())?;
        for (label, count) in [
            ("removed exact duplicates", self.removed_exact_duplicates),
            ("removed near duplicates", self.removed_near_duplicates),
            ("merged overlapping outages", self.merged_overlaps),
            ("clipped to production window", self.clipped_to_window),
            ("dropped out-of-range", self.dropped_out_of_range),
            ("dropped outside window", self.dropped_outside_window),
            ("dropped zero-width", self.dropped_zero_width),
        ] {
            writeln!(f, "  {label:<28} {count}")?;
        }
        write!(f, "  changed: {}", self.changed())
    }
}

/// Repair `trace` against `catalog` and return the repaired trace plus
/// what was done: drop records of unknown systems or out-of-range nodes,
/// clip records to the production window (dropping those entirely
/// outside it), drop zero-width records (clipped ones included), remove
/// exact duplicates and same-node same-cause records starting
/// within [`NEAR_DUPLICATE_WINDOW_SECS`] of the last kept one, and merge
/// overlapping outages of a node into one record spanning both (keeping
/// the earlier record's cause and workload).
///
/// Idempotent: `repair(&repair(t).trace, ..) == repair(t)` up to the
/// counts (the second pass reports zero changes). The fixed pass order
/// is: catalog drops → window clip → zero-width drop → exact dedup →
/// near dedup → overlap merge; each pass leaves nothing for itself or
/// any earlier pass to redo.
pub fn repair(trace: &FailureTrace, catalog: &Catalog) -> RepairOutcome {
    let mut outcome = RepairOutcome {
        trace: FailureTrace::new(),
        removed_exact_duplicates: 0,
        removed_near_duplicates: 0,
        merged_overlaps: 0,
        clipped_to_window: 0,
        dropped_out_of_range: 0,
        dropped_outside_window: 0,
        dropped_zero_width: 0,
    };

    // Pass 1: catalog-scoped drops and clips, then zero-width drops.
    let mut kept: Vec<FailureRecord> = Vec::with_capacity(trace.len());
    for r in trace.iter() {
        let spec = match catalog.system(r.system()) {
            Ok(spec) if spec.contains_node(r.node()) => spec,
            _ => {
                outcome.dropped_out_of_range += 1;
                continue;
            }
        };
        let (lo, hi) = (spec.production_start(), spec.production_end());
        if r.start() > hi || r.end() < lo {
            outcome.dropped_outside_window += 1;
            continue;
        }
        let start = r.start().max(lo);
        let end = r.end().min(hi).max(start);
        let mut record = *r;
        if start != r.start() || end != r.end() {
            record = FailureRecord::new(r.system(), r.node(), start, end, r.workload(), r.detail())
                .expect("clipped interval keeps end >= start");
            outcome.clipped_to_window += 1;
        }
        if record.downtime_secs() == 0 {
            outcome.dropped_zero_width += 1;
            continue;
        }
        kept.push(record);
    }
    // Clipping can reorder starts; restore the trace ordering invariant
    // before the order-sensitive dedup/merge passes.
    let sorted = FailureTrace::from_records(kept);

    // Pass 2: dedup (exact, then near), then merge same-node overlaps.
    let mut seen: HashMap<FailureRecord, ()> = HashMap::with_capacity(sorted.len());
    let mut last_kept_start: HashMap<(SystemId, NodeId, DetailedCause), Timestamp> = HashMap::new();
    // Index into `out` of the record holding each node's running max end.
    let mut open: HashMap<(SystemId, NodeId), usize> = HashMap::new();
    let mut out: Vec<FailureRecord> = Vec::with_capacity(sorted.len());
    for r in sorted.iter() {
        if seen.insert(*r, ()).is_some() {
            outcome.removed_exact_duplicates += 1;
            continue;
        }
        let key = (r.system(), r.node(), r.detail());
        match last_kept_start.get(&key) {
            Some(&prev) if r.start() - prev <= NEAR_DUPLICATE_WINDOW_SECS => {
                outcome.removed_near_duplicates += 1;
                continue;
            }
            _ => {
                last_kept_start.insert(key, r.start());
            }
        }
        let node_key = (r.system(), r.node());
        if let Some(&idx) = open.get(&node_key) {
            let prev = out[idx];
            if r.start() < prev.end() {
                let end = prev.end().max(r.end());
                out[idx] = FailureRecord::new(
                    prev.system(),
                    prev.node(),
                    prev.start(),
                    end,
                    prev.workload(),
                    prev.detail(),
                )
                .expect("merged interval keeps end >= start");
                outcome.merged_overlaps += 1;
                continue;
            }
        }
        open.insert(node_key, out.len());
        out.push(*r);
    }
    outcome.trace = FailureTrace::from_records(out);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn rec(system: u32, node: u32, start: u64, end: u64, detail: DetailedCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(system),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(end),
            Workload::Compute,
            detail,
        )
        .unwrap()
    }

    #[test]
    fn audit_counts_each_class() {
        let base = rec(20, 1, 1_000, 2_000, DetailedCause::Memory);
        let trace = FailureTrace::from_records(vec![
            base,
            base, // exact duplicate
            rec(20, 1, 1_060, 3_000, DetailedCause::Memory), // near dup + overlap
            rec(20, 1, 10_000, 10_000, DetailedCause::Cpu), // zero width
            rec(20, 2, 5_000, 6_000, DetailedCause::Undetermined), // catch-all
        ]);
        let report = audit(&trace, &Catalog::lanl());
        assert_eq!(report.total_records, 5);
        assert_eq!(report.exact_duplicates, 1);
        assert_eq!(report.near_duplicates, 1);
        assert_eq!(report.overlapping_outages, 1);
        assert_eq!(report.zero_width, 1);
        assert_eq!(report.catchall_causes, 1);
        assert_eq!(report.unknown_system, 0);
        assert_ne!(report.issue_count(), 0);
        assert!(!report.has_vocabulary_drift());
        let text = report.to_string();
        assert!(text.contains("exact-duplicate"), "{text}");
    }

    #[test]
    fn audit_with_catalog_checks_ranges_and_windows() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        let inside = spec.production_start().as_secs() + 1_000;
        let trace = FailureTrace::from_records(vec![
            rec(20, 1, inside, inside + 60, DetailedCause::Memory),
            rec(20, 4_999, inside, inside + 60, DetailedCause::Memory), // node out of range
            rec(20, 2, 10, 20, DetailedCause::Memory), // before production
            rec(99, 0, inside, inside + 60, DetailedCause::Memory), // unknown system
        ]);
        let report = audit(&trace, &catalog);
        assert_eq!(report.node_out_of_range, 1);
        assert_eq!(report.outside_production_window, 1);
        assert_eq!(report.unknown_system, 1);
    }

    #[test]
    fn repair_fixes_what_audit_found_and_is_idempotent() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        let inside = spec.production_start().as_secs() + 10_000;
        let base = rec(20, 1, inside, inside + 600, DetailedCause::Memory);
        let trace = FailureTrace::from_records(vec![
            base,
            base,                                                        // exact dup
            rec(20, 1, inside + 60, inside + 900, DetailedCause::Memory), // near dup
            rec(20, 1, inside + 500, inside + 2_000, DetailedCause::Cpu), // overlap
            rec(20, 1, inside + 5_000, inside + 5_000, DetailedCause::Cpu), // zero width
            rec(20, 4_999, inside, inside + 60, DetailedCause::Disk),    // out of range
            rec(20, 2, 10, 20, DetailedCause::Disk),                     // outside window
        ]);
        let once = repair(&trace, &catalog);
        assert_eq!(once.removed_exact_duplicates, 1);
        assert_eq!(once.removed_near_duplicates, 1);
        assert_eq!(once.merged_overlaps, 1);
        assert_eq!(once.dropped_zero_width, 1);
        assert_eq!(once.dropped_out_of_range, 1);
        assert_eq!(once.dropped_outside_window, 1);
        assert!(once.changed());
        // The merged record spans both outages.
        let merged = once
            .trace
            .iter()
            .find(|r| r.start().as_secs() == inside)
            .unwrap();
        assert_eq!(merged.end().as_secs(), inside + 2_000);
        assert_eq!(merged.detail(), DetailedCause::Memory);

        // A second repair is a no-op, and the repaired trace audits clean.
        let twice = repair(&once.trace, &catalog);
        assert!(!twice.changed(), "{twice}");
        assert_eq!(twice.trace, once.trace);
        let report = audit(&once.trace, &catalog);
        assert_eq!(report.issue_count(), 0, "{report}");
    }

    #[test]
    fn clipping_clamps_to_the_production_window() {
        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        let lo = spec.production_start().as_secs();
        let trace = FailureTrace::from_records(vec![rec(
            20,
            1,
            lo.saturating_sub(600),
            lo + 600,
            DetailedCause::Memory,
        )]);
        let out = repair(&trace, &catalog);
        assert_eq!(out.clipped_to_window, 1);
        assert_eq!(out.trace.len(), 1);
        assert_eq!(out.trace.records()[0].start(), spec.production_start());
    }

    #[test]
    fn issue_metadata() {
        let issue = QualityIssue::VocabularyDrift {
            raw: "gremlins".into(),
        };
        assert_eq!(issue.class(), "vocabulary-drift");
        assert_eq!(issue.severity(), Severity::Error);
        assert!(issue.to_string().contains("gremlins"));
        assert_eq!(
            QualityIssue::ZeroWidthInterval.severity(),
            Severity::Warning
        );
    }
}
