//! Trace ingestion and CSV export.
//!
//! [`read_trace`] is the one loader: it decides from the bytes whether
//! a file is a packed `.hpct` store, a LANL export or this crate's
//! native CSV, and reads text under an [`IngestPolicy`]. Both CSV
//! dialects share one line loop and differ only in their row parser.
//! [`open_trace`] is the same loader given a path: it streams a packed
//! store through one fixed-size chunk instead of reading the file whole.
//!
//! The native format mirrors the fields of the published LANL data that
//! this toolkit consumes — one record per line:
//!
//! ```text
//! system,node,start_secs,end_secs,workload,detailed_cause
//! 20,22,3155760,3177360,compute,memory
//! ```
//!
//! `start_secs`/`end_secs` are seconds since the 1996-01-01 epoch
//! (see [`crate::time::Timestamp`]). Lines starting with `#` and blank
//! lines are skipped; a header line (starting with `system,`) is
//! optional.
//!
//! A LANL-style export (LA-UR-05-7318, the data behind the paper) has a
//! header line naming its columns, which may come in any order; extra
//! columns are ignored. Required, case-insensitive: `system`,
//! `node`/`nodenum`, `started`/`failure start`,
//! `fixed`/`failure end`/`problem fixed`, and `cause`/`root cause`
//! (LANL's categories — `facilities`, `hardware`, `human error`,
//! `network`, `undetermined`, `software` — or a detailed cause name).
//! Optional: `workload`/`node purpose`, default `compute`. Timestamps
//! are `MM/DD/YYYY HH:MM` or `YYYY-MM-DD HH:MM[:SS]`.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::str::Utf8Error;

use crate::cause::DetailedCause;
use crate::error::RecordError;
use crate::ids::{NodeId, SystemId};
use crate::index::TraceIndex;
use crate::io_lanl::Header;
use crate::quality::{IngestPolicy, LenientIngest, QualityIssue, QuarantinedRow, RepairedRow};
use crate::record::FailureRecord;
use crate::store::{self, is_packed, TraceStore};
use crate::time::Timestamp;
use crate::trace::FailureTrace;
use crate::workload::Workload;

/// The CSV header written by [`write_csv`].
pub const CSV_HEADER: &str = "system,node,start_secs,end_secs,workload,detailed_cause";

const FIELDS: usize = 6;

/// One input line: its 1-based number and its text, or the decoding
/// error when it is not UTF-8.
pub(crate) type Line<'a> = (usize, Result<&'a str, Utf8Error>);

/// One data row as a dialect's row parser accepted or set it aside.
pub(crate) enum Row {
    /// The row parsed cleanly.
    Clean(FailureRecord),
    /// The row was accepted after an explicit repair.
    Repaired(FailureRecord, QualityIssue),
    /// The row was set aside without being an error (LANL inverted
    /// intervals outside [`IngestPolicy::Repair`]).
    Skipped(QualityIssue),
}

/// A row its parser refused: the [`IngestPolicy::FailFast`] error and
/// the quarantine class.
pub(crate) type RowError = (RecordError, QualityIssue);

/// The message `BufRead::lines` gives an undecodable line; kept so
/// error values do not depend on how the bytes were read.
const NOT_UTF8: &str = "stream did not contain valid UTF-8";

/// Split `bytes` into 1-based numbered lines, each decoded on its own
/// (as `BufRead::lines` does), so one undecodable line never hides the
/// next.
fn lines(bytes: &[u8]) -> impl Iterator<Item = Line<'_>> + Clone {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .enumerate()
        .map(|(i, line)| (i + 1, std::str::from_utf8(line)))
}

/// A line's content without a leading byte-order mark (exported
/// spreadsheets often carry one) and surrounding whitespace; `None` for
/// blank and `#` comment lines.
pub(crate) fn content(line: &str) -> Option<&str> {
    let trimmed = line.strip_prefix('\u{feff}').unwrap_or(line).trim();
    (!trimmed.is_empty() && !trimmed.starts_with('#')).then_some(trimmed)
}

/// Whether a line is the CSV header: either the legacy `system,` prefix
/// or a field-wise, case-insensitive match of [`CSV_HEADER`] with
/// arbitrary spacing around the field names.
pub(crate) fn is_header(line: &str) -> bool {
    if line.starts_with("system,") {
        return true;
    }
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    fields.len() == FIELDS
        && fields
            .iter()
            .zip(CSV_HEADER.split(','))
            .all(|(got, want)| got.eq_ignore_ascii_case(want))
}

/// Parse one CSV line into a record. `line_no` is 1-based for error
/// reporting.
///
/// # Errors
///
/// [`RecordError::WrongFieldCount`] or [`RecordError::MalformedLine`]
/// pinpointing the offending line.
pub fn parse_line(line: &str, line_no: usize) -> Result<FailureRecord, RecordError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != FIELDS {
        return Err(RecordError::WrongFieldCount {
            line: line_no,
            expected: FIELDS,
            got: fields.len(),
        });
    }
    let wrap = |e: RecordError| RecordError::MalformedLine {
        line: line_no,
        reason: e.to_string(),
    };
    let system: SystemId = fields[0].parse().map_err(wrap)?;
    let node: NodeId = fields[1].parse().map_err(wrap)?;
    let start = fields[2]
        .parse::<u64>()
        .map_err(|_| RecordError::MalformedLine {
            line: line_no,
            reason: format!("could not parse start_secs from {:?}", fields[2]),
        })?;
    let end = fields[3]
        .parse::<u64>()
        .map_err(|_| RecordError::MalformedLine {
            line: line_no,
            reason: format!("could not parse end_secs from {:?}", fields[3]),
        })?;
    let workload: Workload = fields[4].parse().map_err(wrap)?;
    let detail: DetailedCause = fields[5].parse().map_err(wrap)?;
    FailureRecord::new(
        system,
        node,
        Timestamp::from_secs(start),
        Timestamp::from_secs(end),
        workload,
        detail,
    )
    .map_err(|e| RecordError::MalformedLine {
        line: line_no,
        reason: e.to_string(),
    })
}

/// Render one record as a CSV line (no trailing newline).
pub fn format_line(record: &FailureRecord) -> String {
    format!(
        "{},{},{},{},{},{}",
        record.system(),
        record.node(),
        record.start().as_secs(),
        record.end().as_secs(),
        record.workload(),
        record.detail()
    )
}

/// Read a trace file's bytes. This is the only place that decides the
/// input format; [`open_trace`] routes a file by the same magic.
///
/// A packed `.hpct` store is recognised by its magic first and opens
/// through the checked [`TraceStore::from_bytes`] straight into the
/// returned [`LenientIngest::index`]: every record is accepted, and
/// neither rows nor the index are rebuilt. Anything else is
/// CSV text, read under `policy`: a LANL export when the first line that
/// is neither blank nor a comment is a LANL header (one naming a
/// failure-start, failure-end or cause column), native CSV otherwise.
///
/// With [`IngestPolicy::Quarantine`] and [`IngestPolicy::Repair`] bad
/// rows never abort the read: they land in the returned quarantine with
/// their line number, raw text, [`QualityIssue`], and severity, and
/// `accepted + quarantined == total_rows` always holds
/// ([`LenientIngest::is_conserved`]). [`IngestPolicy::Repair`]
/// additionally rewrites rows whose defect has an unambiguous fix —
/// extra empty trailing fields, an unknown cause word (mapped to
/// `undetermined`), inverted timestamps (swapped) — and records each fix.
///
/// # Errors
///
/// [`RecordError::Store`] for a damaged packed store. A LANL header
/// missing a required column fails under every policy. Row errors fail
/// only under [`IngestPolicy::FailFast`], as
/// [`RecordError::WrongFieldCount`] or [`RecordError::MalformedLine`]
/// with the row's line number.
pub fn read_trace(bytes: &[u8], policy: IngestPolicy) -> Result<LenientIngest, RecordError> {
    if is_packed(bytes) {
        return TraceStore::from_bytes(bytes)
            .map(packed_ingest)
            .map_err(RecordError::Store);
    }
    let mut lines = lines(bytes);
    let mut past_header = lines.clone();
    let header = Header::sniff(&mut past_header)?;
    if header.is_some() {
        lines = past_header;
    }
    let mut records = Vec::new();
    let mut quarantine = Vec::new();
    let mut repaired = Vec::new();
    let mut total_rows = 0usize;
    for (line_no, line) in lines {
        let Ok(line) = line else {
            if policy == IngestPolicy::FailFast {
                return Err(RecordError::MalformedLine {
                    line: line_no,
                    reason: format!("io error: {NOT_UTF8}"),
                });
            }
            total_rows += 1;
            let issue = QualityIssue::Unreadable {
                reason: NOT_UTF8.to_string(),
            };
            quarantine.push(quarantined(line_no, "", issue));
            continue;
        };
        let Some(line) = content(line) else {
            continue;
        };
        let row = match &header {
            None if is_header(line) => continue,
            None => parse_native_row(line, line_no, policy),
            Some(header) => header.parse_row(line, line_no, policy),
        };
        total_rows += 1;
        match row {
            Ok(Row::Clean(record)) => records.push(record),
            Ok(Row::Repaired(record, issue)) => {
                records.push(record);
                repaired.push(RepairedRow {
                    line: line_no,
                    issue,
                });
            }
            Ok(Row::Skipped(issue)) => quarantine.push(quarantined(line_no, line, issue)),
            Err((err, _)) if policy == IngestPolicy::FailFast => return Err(err),
            Err((_, issue)) => quarantine.push(quarantined(line_no, line, issue)),
        }
    }
    Ok(LenientIngest {
        zero_width: records.iter().filter(|r| r.downtime_secs() == 0).count(),
        index: FailureTrace::from_records(records).index(),
        quarantine,
        repaired,
        total_rows,
    })
}

/// Open the trace file at `path` through the one loader: the result
/// [`read_trace`] gives for the file's bytes.
///
/// A packed `.hpct` store never lands in memory whole: it streams
/// through one fixed-size chunk, each section hashed and decoded into
/// its column of the index as it arrives. CSV text is read whole, as
/// its parser needs.
///
/// # Errors
///
/// The outer error when the file cannot be opened or read; the inner
/// one as [`read_trace`] gives it. A store file that shrinks while it
/// is read fails as [`RecordError::Store`], not as an I/O error.
pub fn open_trace(
    path: impl AsRef<Path>,
    policy: IngestPolicy,
) -> std::io::Result<Result<LenientIngest, RecordError>> {
    let mut file = File::open(path)?;
    let mut magic = [0u8; 4];
    let got = store::read_full(&mut file, &mut magic)?;
    if is_packed(&magic[..got]) {
        return Ok(store::read_file(file)?
            .map(packed_ingest)
            .map_err(RecordError::Store));
    }
    let size = file.metadata().map_or(0, |m| m.len() as usize);
    let mut bytes = Vec::with_capacity(size);
    bytes.extend_from_slice(&magic[..got]);
    file.read_to_end(&mut bytes)?;
    Ok(read_trace(&bytes, policy))
}

/// A packed store's index as an ingest: every record accepted, none
/// rebuilt.
fn packed_ingest(index: TraceIndex) -> LenientIngest {
    LenientIngest {
        total_rows: index.len(),
        zero_width: index.downtime.iter().filter(|&&d| d == 0).count(),
        quarantine: Vec::new(),
        repaired: Vec::new(),
        index,
    }
}

fn quarantined(line: usize, raw: &str, issue: QualityIssue) -> QuarantinedRow {
    QuarantinedRow {
        line,
        raw: raw.to_string(),
        severity: issue.severity(),
        issue,
    }
}

/// The native dialect's row parser: [`parse_line`], then under
/// [`IngestPolicy::Repair`] the unambiguous line repairs, else the
/// failure's quarantine class.
fn parse_native_row(line: &str, line_no: usize, policy: IngestPolicy) -> Result<Row, RowError> {
    let err = match parse_line(line, line_no) {
        Ok(record) => return Ok(Row::Clean(record)),
        Err(err) => err,
    };
    if policy == IngestPolicy::Repair {
        if let Some((record, issue)) = attempt_repair(line, line_no) {
            return Ok(Row::Repaired(record, issue));
        }
    }
    let issue = classify_failure(line, &err);
    Err((err, issue))
}

/// Classify why `parse_line` rejected a line, mirroring its field order
/// (system, node, start, end, workload, cause, then the interval check).
fn classify_failure(line: &str, err: &RecordError) -> QualityIssue {
    if let RecordError::WrongFieldCount { expected, got, .. } = err {
        return QualityIssue::WrongFieldCount {
            expected: *expected,
            got: *got,
        };
    }
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() == FIELDS
        && fields[0].parse::<SystemId>().is_ok()
        && fields[1].parse::<NodeId>().is_ok()
        && fields[2].parse::<u64>().is_ok()
        && fields[3].parse::<u64>().is_ok()
        && fields[4].parse::<Workload>().is_ok()
    {
        if fields[5].parse::<DetailedCause>().is_err() {
            return QualityIssue::VocabularyDrift {
                raw: fields[5].to_string(),
            };
        }
        // Every field parsed and parse_line still failed: the only check
        // left is end >= start.
        return QualityIssue::InvertedInterval;
    }
    QualityIssue::MalformedField {
        reason: err.to_string(),
    }
}

/// Apply the unambiguous line repairs (truncate empty trailing fields,
/// map an unknown cause to `undetermined`, swap inverted timestamps)
/// until the line parses or no repair applies. Returns the record plus
/// the first issue repaired.
fn attempt_repair(line: &str, line_no: usize) -> Option<(FailureRecord, QualityIssue)> {
    let mut current = line.to_string();
    let mut first_issue: Option<QualityIssue> = None;
    // Each repair class applies at most once, so 3 rewrites + a final
    // parse bound the loop.
    for _ in 0..4 {
        let err = match parse_line(&current, line_no) {
            Ok(record) => return first_issue.map(|issue| (record, issue)),
            Err(e) => e,
        };
        let issue = classify_failure(&current, &err);
        let mut fields: Vec<String> = current.split(',').map(|f| f.trim().to_string()).collect();
        let rewritten = match &issue {
            QualityIssue::WrongFieldCount { expected, got }
                if *got > *expected && fields[FIELDS..].iter().all(|f| f.is_empty()) =>
            {
                fields.truncate(FIELDS);
                Some(fields.join(","))
            }
            QualityIssue::VocabularyDrift { .. } => {
                fields[FIELDS - 1] = "undetermined".to_string();
                Some(fields.join(","))
            }
            QualityIssue::InvertedInterval => {
                fields.swap(2, 3);
                Some(fields.join(","))
            }
            _ => None,
        };
        match rewritten {
            Some(next) => {
                if first_issue.is_none() {
                    first_issue = Some(issue);
                }
                current = next;
            }
            None => return None,
        }
    }
    None
}

/// Write a whole trace (with header) to a CSV writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_csv<W: Write>(trace: &FailureTrace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{CSV_HEADER}")?;
    for r in trace.records() {
        writeln!(writer, "{}", format_line(r))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::RootCause;

    /// The strict read: [`IngestPolicy::FailFast`].
    fn strict(bytes: &[u8]) -> Result<FailureTrace, RecordError> {
        read_trace(bytes, IngestPolicy::FailFast).map(|ingest| ingest.index.all().to_trace())
    }

    fn sample() -> FailureTrace {
        let rec = |sys: u32, node: u32, start: u64, end: u64, d: DetailedCause| {
            FailureRecord::new(
                SystemId::new(sys),
                NodeId::new(node),
                Timestamp::from_secs(start),
                Timestamp::from_secs(end),
                Workload::Compute,
                d,
            )
            .unwrap()
        };
        FailureTrace::from_records(vec![
            rec(20, 22, 1_000, 22_600, DetailedCause::Memory),
            rec(5, 0, 2_000, 3_000, DetailedCause::Scheduler),
        ])
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let parsed = strict(buf.as_slice()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn header_comments_blanks_skipped() {
        let text = "\
system,node,start_secs,end_secs,workload,detailed_cause
# a comment

20,22,1000,22600,compute,memory
";
        let t = strict(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].cause(), RootCause::Hardware);
    }

    #[test]
    fn malformed_lines_report_position() {
        let missing = "20,22,1000,22600,compute";
        match strict(missing.as_bytes()) {
            Err(RecordError::WrongFieldCount {
                line: 1,
                expected: 6,
                got: 5,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let bad_num = "20,22,notanumber,22600,compute,memory\n";
        assert!(matches!(
            strict(bad_num.as_bytes()),
            Err(RecordError::MalformedLine { line: 1, .. })
        ));
        let bad_cause = "20,22,1000,22600,compute,gremlins\n";
        assert!(matches!(
            strict(bad_cause.as_bytes()),
            Err(RecordError::MalformedLine { line: 1, .. })
        ));
        let end_before_start = "20,22,5000,4000,compute,memory\n";
        assert!(matches!(
            strict(end_before_start.as_bytes()),
            Err(RecordError::MalformedLine { line: 1, .. })
        ));
    }

    #[test]
    fn error_line_numbers_count_all_lines() {
        let text = "# comment\n20,22,1000,22600,compute,memory\nbadline\n";
        match strict(text.as_bytes()) {
            Err(RecordError::WrongFieldCount { line: 3, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let text = " 20 , 22 , 1000 , 22600 , compute , memory \n";
        let t = strict(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = strict("".as_bytes()).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn format_line_matches_parse() {
        let t = sample();
        for (i, r) in t.records().iter().enumerate() {
            let line = format_line(r);
            let parsed = parse_line(&line, i + 1).unwrap();
            assert_eq!(&parsed, r);
        }
    }

    #[test]
    fn bom_and_crlf_tolerated() {
        let text = "\u{feff}system,node,start_secs,end_secs,workload,detailed_cause\r\n\
                    20,22,1000,22600,compute,memory\r\n\
                    5,0,2000,3000,compute,scheduler\r\n";
        let t = strict(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t, sample());
        // A BOM directly on a data line is also stripped.
        let data_bom = "\u{feff}20,22,1000,22600,compute,memory\n";
        assert_eq!(strict(data_bom.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn header_detected_case_insensitively_with_spacing() {
        assert!(is_header(
            "system,node,start_secs,end_secs,workload,detailed_cause"
        ));
        assert!(is_header(
            "SYSTEM, Node, Start_Secs, End_Secs, WORKLOAD, Detailed_Cause"
        ));
        assert!(is_header("system,anything")); // legacy prefix rule
        assert!(!is_header("20,22,1000,22600,compute,memory"));
        assert!(!is_header("system node start"));
        let text = "System, Node, Start_secs, End_secs, Workload, Detailed_cause\n\
                    20,22,1000,22600,compute,memory\n";
        assert_eq!(strict(text.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn lenient_quarantine_conserves_rows() {
        let text = "\
system,node,start_secs,end_secs,workload,detailed_cause
20,22,1000,22600,compute,memory
20,22,1000,22600,compute
20,22,notanumber,22600,compute,memory
20,22,5000,4000,compute,memory
20,22,1000,22600,compute,gremlins
5,0,2000,3000,compute,scheduler
";
        let ingest = read_trace(text.as_bytes(), IngestPolicy::Quarantine).unwrap();
        assert_eq!(ingest.total_rows, 6);
        assert_eq!(ingest.accepted(), 2);
        assert_eq!(ingest.quarantine.len(), 4);
        assert!(ingest.is_conserved());
        assert!(ingest.repaired.is_empty());
        let classes: Vec<&str> = ingest.quarantine.iter().map(|q| q.issue.class()).collect();
        assert_eq!(
            classes,
            vec![
                "wrong-field-count",
                "malformed-field",
                "inverted-interval",
                "vocabulary-drift"
            ]
        );
        // Quarantined rows keep their source positions and raw text.
        assert_eq!(ingest.quarantine[0].line, 3);
        assert_eq!(ingest.quarantine[2].raw, "20,22,5000,4000,compute,memory");
        let counts = ingest.quarantine_counts();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&(_, n)| n == 1));
        // A headerless file whose first row is junk is still native: the
        // row is quarantined, not taken for a LANL header.
        let headerless = "not,a,row\n20,22,1000,22600,compute,memory\n";
        let ingest = read_trace(headerless.as_bytes(), IngestPolicy::Quarantine).unwrap();
        assert_eq!((ingest.accepted(), ingest.quarantine.len()), (1, 1));
        assert_eq!(ingest.quarantine[0].issue.class(), "wrong-field-count");
    }

    #[test]
    fn lenient_repair_fixes_unambiguous_defects() {
        let text = "\
20,22,5000,4000,compute,memory
20,22,1000,22600,compute,gremlins
20,22,1000,22600,compute,memory,,
20,22,##,22600,compute,memory
";
        let ingest = read_trace(text.as_bytes(), IngestPolicy::Repair).unwrap();
        assert_eq!(ingest.total_rows, 4);
        assert_eq!(ingest.accepted(), 3);
        assert_eq!(ingest.quarantine.len(), 1);
        assert!(ingest.is_conserved());
        assert_eq!(ingest.repaired.len(), 3);
        assert_eq!(ingest.repaired[0].issue, QualityIssue::InvertedInterval);
        assert!(matches!(
            ingest.repaired[1].issue,
            QualityIssue::VocabularyDrift { .. }
        ));
        assert!(matches!(
            ingest.repaired[2].issue,
            QualityIssue::WrongFieldCount {
                expected: 6,
                got: 8
            }
        ));
        // The inverted row came back with its endpoints swapped.
        let fixed = ingest
            .index
            .all()
            .iter()
            .find(|r| r.start().as_secs() == 4000)
            .unwrap();
        assert_eq!(fixed.end().as_secs(), 5000);
        // The drift row maps to undetermined.
        assert!(ingest
            .index
            .all()
            .iter()
            .any(|r| r.detail() == DetailedCause::Undetermined));
        // The truly malformed row stays quarantined.
        assert_eq!(ingest.quarantine[0].issue.class(), "malformed-field");
    }

    #[test]
    fn failfast_matches_strict_errors() {
        let missing = "20,22,1000,22600,compute";
        match read_trace(missing.as_bytes(), IngestPolicy::FailFast) {
            Err(RecordError::WrongFieldCount {
                line: 1,
                expected: 6,
                got: 5,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn lenient_counts_zero_width_rows() {
        let text = "20,22,1000,1000,compute,memory\n20,22,2000,3000,compute,memory\n";
        let ingest = read_trace(text.as_bytes(), IngestPolicy::Quarantine).unwrap();
        assert_eq!(ingest.zero_width, 1);
        assert_eq!(ingest.accepted(), 2);
    }

    #[test]
    fn packed_input_is_sniffed_whatever_the_dialect() {
        let mut records = sample().records().to_vec();
        records.push(parse_line("20,22,9000,9000,compute,memory", 1).unwrap());
        let trace = FailureTrace::from_records(records);
        let packed = TraceStore::to_bytes(&trace.index());
        let mut damaged = packed.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x10;
        for policy in [
            IngestPolicy::FailFast,
            IngestPolicy::Quarantine,
            IngestPolicy::Repair,
        ] {
            let ingest = read_trace(&packed, policy).unwrap();
            assert_eq!(ingest.index, trace.index());
            assert_eq!((ingest.total_rows, ingest.zero_width), (3, 1));
            assert!(ingest.quarantine.is_empty() && ingest.repaired.is_empty());
            // A damaged store stays a typed store error, never rows.
            assert!(matches!(
                read_trace(&damaged, policy),
                Err(RecordError::Store(_))
            ));
        }
    }

    #[test]
    fn strict_and_lenient_agree_on_clean_input() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let strict = strict(buf.as_slice()).unwrap();
        for policy in [
            IngestPolicy::FailFast,
            IngestPolicy::Quarantine,
            IngestPolicy::Repair,
        ] {
            let lenient = read_trace(buf.as_slice(), policy).unwrap();
            assert_eq!(lenient.index, strict.index());
            assert!(lenient.quarantine.is_empty());
            assert!(lenient.repaired.is_empty());
            assert!(lenient.is_conserved());
        }
    }
}
