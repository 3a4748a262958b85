//! The LANL dialect's header sniff and row parser (the format is
//! described in [`crate::io`]).
//!
//! The raw LANL release (LA-UR-05-7318, the data behind the paper) is a
//! spreadsheet-style CSV with named columns and `MM/DD/YYYY HH:MM`
//! timestamps. The parser is **header-driven** (columns may appear in
//! any order, extra columns are ignored) and maps LANL's root-cause
//! vocabulary onto this crate's taxonomy. The line loop around it is
//! [`crate::io::read_trace`], shared with the native dialect.

use std::collections::HashMap;

use crate::cause::DetailedCause;
use crate::error::RecordError;
use crate::ids::{NodeId, SystemId};
use crate::io::{content, Line, Row, RowError};
use crate::quality::{IngestPolicy, QualityIssue};
use crate::record::FailureRecord;
use crate::time::Timestamp;
use crate::workload::Workload;

/// Where each column sits, from the file's header line.
#[derive(Debug)]
pub(crate) struct Header {
    system: usize,
    node: usize,
    start: usize,
    end: usize,
    cause: usize,
    workload: Option<usize>,
}

/// Header names accepted for the failure-start column.
const START_COLUMNS: &[&str] = &["started", "failure start", "start", "prob started"];
/// Header names accepted for the failure-end column.
const END_COLUMNS: &[&str] = &["fixed", "failure end", "end", "problem fixed", "prob fixed"];
/// Header names accepted for the cause column.
const CAUSE_COLUMNS: &[&str] = &["cause", "root cause", "down reason", "failure type"];

impl Header {
    /// Decide the dialect from the first line that is neither blank nor
    /// a comment: it is a LANL header when one of its fields names a
    /// failure-start, failure-end or cause column. No native header or
    /// data row holds one of those names, so every other input, one with
    /// no content line or an undecodable first line included, is native
    /// (`None`).
    ///
    /// # Errors
    ///
    /// A LANL header that lacks a required column fails under every
    /// policy, since no row can be interpreted without it.
    pub(crate) fn sniff<'a>(
        lines: &mut impl Iterator<Item = Line<'a>>,
    ) -> Result<Option<Header>, RecordError> {
        for (line_no, line) in lines {
            let Ok(line) = line else { break };
            let Some(line) = content(line) else { continue };
            let lanl = line.split(',').any(|field| {
                let field = field.trim().to_ascii_lowercase();
                [START_COLUMNS, END_COLUMNS, CAUSE_COLUMNS]
                    .iter()
                    .any(|names| names.contains(&field.as_str()))
            });
            return if lanl {
                Header::parse(line, line_no).map(Some)
            } else {
                Ok(None)
            };
        }
        Ok(None)
    }

    fn parse(line: &str, line_no: usize) -> Result<Header, RecordError> {
        let mut index: HashMap<String, usize> = HashMap::new();
        for (i, name) in line.split(',').enumerate() {
            index.insert(name.trim().to_ascii_lowercase(), i);
        }
        let find =
            |names: &[&str]| -> Option<usize> { names.iter().find_map(|n| index.get(*n).copied()) };
        let missing = |what: &str| RecordError::MalformedLine {
            line: line_no,
            reason: format!("header is missing a {what} column"),
        };
        Ok(Header {
            system: find(&["system", "system number"]).ok_or_else(|| missing("system"))?,
            node: find(&["node", "nodenum", "node number"]).ok_or_else(|| missing("node"))?,
            start: find(START_COLUMNS).ok_or_else(|| missing("failure-start"))?,
            end: find(END_COLUMNS).ok_or_else(|| missing("failure-end"))?,
            cause: find(CAUSE_COLUMNS).ok_or_else(|| missing("cause"))?,
            workload: find(&["workload", "node purpose", "nodepurpose"]),
        })
    }

    /// Parse one row. Field order and error values match the historical
    /// strict reader exactly; the policy only decides what happens to
    /// inverted intervals and unknown cause words. Inverted rows are set
    /// aside (never fatal) outside [`IngestPolicy::Repair`], which swaps
    /// their endpoints instead.
    pub(crate) fn parse_row(
        &self,
        line: &str,
        line_no: usize,
        policy: IngestPolicy,
    ) -> Result<Row, RowError> {
        let malformed = |e: RecordError| {
            let issue = QualityIssue::MalformedField {
                reason: e.to_string(),
            };
            (e, issue)
        };
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let get = |i: usize, what: &str| -> Result<&str, RowError> {
            fields.get(i).copied().ok_or_else(|| {
                malformed(RecordError::MalformedLine {
                    line: line_no,
                    reason: format!("row is missing the {what} column"),
                })
            })
        };
        let system: SystemId = get(self.system, "system")?
            .parse()
            .map_err(wrap(line_no))
            .map_err(malformed)?;
        let node: NodeId = get(self.node, "node")?
            .parse()
            .map_err(wrap(line_no))
            .map_err(malformed)?;
        let start =
            parse_datetime(get(self.start, "failure start")?, line_no).map_err(malformed)?;
        let end = parse_datetime(get(self.end, "failure end")?, line_no).map_err(malformed)?;
        let inverted = end < start;
        if inverted && policy != IngestPolicy::Repair {
            // Raw-data glitch; quarantined (the strict reader's skip
            // class), before the cause is even inspected — historically
            // an inverted row with a garbage cause was still skipped,
            // not an error.
            return Ok(Row::Skipped(QualityIssue::InvertedInterval));
        }
        let raw_cause = get(self.cause, "cause")?;
        let (detail, drift) = match parse_lanl_cause(raw_cause, line_no) {
            Ok(d) => (d, None),
            Err(_) if policy == IngestPolicy::Repair => (
                DetailedCause::Undetermined,
                Some(QualityIssue::VocabularyDrift {
                    raw: raw_cause.to_string(),
                }),
            ),
            Err(e) => {
                let issue = QualityIssue::VocabularyDrift {
                    raw: raw_cause.to_string(),
                };
                return Err((e, issue));
            }
        };
        let workload = match self.workload {
            Some(i) => fields
                .get(i)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse())
                .transpose()
                .map_err(wrap(line_no))
                .map_err(malformed)?
                .unwrap_or(Workload::Compute),
            None => Workload::Compute,
        };
        let (start, end) = if inverted { (end, start) } else { (start, end) };
        let record = FailureRecord::new(system, node, start, end, workload, detail)
            .map_err(wrap(line_no))
            .map_err(malformed)?;
        if inverted {
            Ok(Row::Repaired(record, QualityIssue::InvertedInterval))
        } else if let Some(issue) = drift {
            Ok(Row::Repaired(record, issue))
        } else {
            Ok(Row::Clean(record))
        }
    }
}

fn wrap(line: usize) -> impl Fn(RecordError) -> RecordError {
    move |e| RecordError::MalformedLine {
        line,
        reason: e.to_string(),
    }
}

/// Parse `MM/DD/YYYY HH:MM[:SS]` or `YYYY-MM-DD HH:MM[:SS]`.
fn parse_datetime(text: &str, line_no: usize) -> Result<Timestamp, RecordError> {
    let bad = |reason: String| RecordError::MalformedLine {
        line: line_no,
        reason,
    };
    let mut parts = text.split_whitespace();
    let date = parts
        .next()
        .ok_or_else(|| bad(format!("empty datetime {text:?}")))?;
    let time = parts.next().unwrap_or("00:00");

    let (y, m, d) = if date.contains('/') {
        let v: Vec<&str> = date.split('/').collect();
        if v.len() != 3 {
            return Err(bad(format!("bad date {date:?}")));
        }
        (
            v[2].parse::<i64>()
                .map_err(|_| bad(format!("bad year in {date:?}")))?,
            v[0].parse::<u32>()
                .map_err(|_| bad(format!("bad month in {date:?}")))?,
            v[1].parse::<u32>()
                .map_err(|_| bad(format!("bad day in {date:?}")))?,
        )
    } else {
        let v: Vec<&str> = date.split('-').collect();
        if v.len() != 3 {
            return Err(bad(format!("bad date {date:?}")));
        }
        (
            v[0].parse::<i64>()
                .map_err(|_| bad(format!("bad year in {date:?}")))?,
            v[1].parse::<u32>()
                .map_err(|_| bad(format!("bad month in {date:?}")))?,
            v[2].parse::<u32>()
                .map_err(|_| bad(format!("bad day in {date:?}")))?,
        )
    };
    let t: Vec<&str> = time.split(':').collect();
    if t.len() < 2 || t.len() > 3 {
        return Err(bad(format!("bad time {time:?}")));
    }
    let hh = t[0]
        .parse::<u32>()
        .map_err(|_| bad(format!("bad hour in {time:?}")))?;
    let mm = t[1]
        .parse::<u32>()
        .map_err(|_| bad(format!("bad minute in {time:?}")))?;
    let ss = if t.len() == 3 {
        t[2].parse::<u32>()
            .map_err(|_| bad(format!("bad second in {time:?}")))?
    } else {
        0
    };
    Timestamp::from_civil(y, m, d, hh, mm, ss)
        .ok_or_else(|| bad(format!("date out of range: {text:?}")))
}

/// Map LANL's cause vocabulary (or this crate's detailed names) onto the
/// taxonomy.
fn parse_lanl_cause(text: &str, line_no: usize) -> Result<DetailedCause, RecordError> {
    let needle = text.trim().to_ascii_lowercase();
    let mapped = match needle.as_str() {
        "facilities" | "environment" | "facility" => Some(DetailedCause::PowerOutage),
        "hardware" => Some(DetailedCause::OtherHardware),
        "human error" | "human" => Some(DetailedCause::HumanOther),
        "network" => Some(DetailedCause::NetworkOther),
        "undetermined" | "unknown" => Some(DetailedCause::Undetermined),
        "software" => Some(DetailedCause::OtherSoftware),
        _ => None,
    };
    match mapped {
        Some(c) => Ok(c),
        None => needle.parse().map_err(|_| RecordError::MalformedLine {
            line: line_no,
            reason: format!("unknown cause {text:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::RootCause;
    use crate::io::{read_trace, write_csv};
    use crate::quality::LenientIngest;

    /// The strict read: [`IngestPolicy::FailFast`].
    fn strict(bytes: &[u8]) -> Result<LenientIngest, RecordError> {
        read_trace(bytes, IngestPolicy::FailFast)
    }

    /// Rows set aside because repair preceded failure.
    fn skipped_inverted(ingest: &LenientIngest) -> usize {
        ingest
            .quarantine
            .iter()
            .filter(|q| q.issue == QualityIssue::InvertedInterval)
            .count()
    }

    /// Records in `tests/data/lanl_fixture.csv`, and the checksum of
    /// their native rendering.
    const FIXTURE_RECORDS: usize = 363;
    const FIXTURE_CSV_CHECKSUM: u64 = 0x8ad3_bb25_e3cd_045b;

    const SAMPLE: &str = "\
system,nodenum,node purpose,started,fixed,cause
20,22,graphics,06/28/1999 14:30,06/28/1999 20:45,hardware
20,0,compute,01/02/1997 08:00,01/02/1997 09:00,software
7,100,compute,2002-06-01 03:15:30,2002-06-01 05:00:00,memory
5,3,fe,11/20/2003 23:50,11/21/2003 01:10,facilities
";

    #[test]
    fn parses_lanl_style_file() {
        let import = strict(SAMPLE.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 4);
        assert_eq!(skipped_inverted(&import), 0);
        let trace = import.index.all().to_trace();
        let records = trace.records();
        // Sorted by time: 1997 record first.
        assert_eq!(records[0].system(), SystemId::new(20));
        assert_eq!(records[0].cause(), RootCause::Software);
        // The graphics row keeps its workload and cause mapping.
        let graphics = records
            .iter()
            .find(|r| r.node() == NodeId::new(22))
            .unwrap();
        assert_eq!(graphics.workload(), Workload::Graphics);
        assert_eq!(graphics.cause(), RootCause::Hardware);
        assert_eq!(graphics.downtime_secs(), 6 * 3_600 + 15 * 60);
        // ISO datetimes and crate-native cause names work too.
        let memory = records
            .iter()
            .find(|r| r.system() == SystemId::new(7))
            .unwrap();
        assert_eq!(memory.detail(), DetailedCause::Memory);
        // Midnight-crossing repair.
        let env = records
            .iter()
            .find(|r| r.system() == SystemId::new(5))
            .unwrap();
        assert_eq!(env.cause(), RootCause::Environment);
        assert_eq!(env.downtime_secs(), 80 * 60);
        // The native rendering of the import reads back to the same trace.
        let mut native = Vec::new();
        write_csv(&import.index.all().to_trace(), &mut native).unwrap();
        assert_eq!(strict(&native).unwrap().index, import.index);
        // The bundled LANL fixture reads to the trace it always has.
        let fixture = strict(include_bytes!("../../../tests/data/lanl_fixture.csv")).unwrap();
        let mut native = Vec::new();
        write_csv(&fixture.index.all().to_trace(), &mut native).unwrap();
        assert_eq!(fixture.index.len(), FIXTURE_RECORDS);
        assert_eq!(crate::checksum(&native), FIXTURE_CSV_CHECKSUM);
    }

    #[test]
    fn header_columns_in_any_order() {
        let text = "\
cause,fixed,system,started,node
hardware,06/28/1999 20:45,20,06/28/1999 14:30,22
";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 1);
        // Missing workload column defaults to compute.
        assert_eq!(
            import.index.all().to_trace().records()[0].workload(),
            Workload::Compute
        );
    }

    #[test]
    fn extra_columns_ignored() {
        let text = "\
system,machine type,nodenum,nodenumz,started,fixed,down time,cause
20,G,22,020-022,06/28/1999 14:30,06/28/1999 20:45,375,network
";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(
            import.index.all().to_trace().records()[0].cause(),
            RootCause::Network
        );
    }

    #[test]
    fn inverted_rows_are_skipped_not_fatal() {
        let text = "\
system,node,started,fixed,cause
20,1,06/28/1999 14:30,06/28/1999 20:45,hardware
20,2,06/28/1999 14:30,06/27/1999 20:45,hardware
";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 1);
        assert_eq!(skipped_inverted(&import), 1);
    }

    #[test]
    fn missing_header_columns_rejected() {
        let text = "system,node,started,cause\n20,1,06/28/1999 14:30,hardware\n";
        match strict(text.as_bytes()) {
            Err(RecordError::MalformedLine { reason, .. }) => {
                assert!(reason.contains("failure-end"), "{reason}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(strict("".as_bytes()).unwrap().index.is_empty());
    }

    #[test]
    fn bad_rows_report_line_numbers() {
        let text = "\
system,node,started,fixed,cause
20,1,06/28/1999 14:30,06/28/1999 20:45,gremlins
";
        match strict(text.as_bytes()) {
            Err(RecordError::MalformedLine { line: 2, reason }) => {
                assert!(reason.contains("gremlins"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let bad_date = "\
system,node,started,fixed,cause
20,1,13/45/1999 14:30,06/28/1999 20:45,hardware
";
        assert!(matches!(
            strict(bad_date.as_bytes()),
            Err(RecordError::MalformedLine { line: 2, .. })
        ));
    }

    #[test]
    fn datetime_variants() {
        let t = parse_datetime("06/28/1999 14:30", 1).unwrap();
        assert_eq!(t, Timestamp::from_civil(1999, 6, 28, 14, 30, 0).unwrap());
        let iso = parse_datetime("1999-06-28 14:30:45", 1).unwrap();
        assert_eq!(iso, Timestamp::from_civil(1999, 6, 28, 14, 30, 45).unwrap());
        let date_only = parse_datetime("06/28/1999", 1).unwrap();
        assert_eq!(
            date_only,
            Timestamp::from_civil(1999, 6, 28, 0, 0, 0).unwrap()
        );
        assert!(parse_datetime("", 1).is_err());
        assert!(parse_datetime("28.06.1999 14:30", 1).is_err());
        assert!(parse_datetime("06/28/1999 25:00", 1).is_err());
    }

    #[test]
    fn zero_width_rows_counted_not_dropped() {
        let text = "\
system,node,started,fixed,cause
20,1,06/28/1999 14:30,06/28/1999 14:30,hardware
20,2,06/28/1999 14:30,06/28/1999 20:45,hardware
";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 2, "zero-width rows are kept");
        assert_eq!(import.zero_width, 1);
        assert_eq!(skipped_inverted(&import), 0);
    }

    #[test]
    fn import_display_reports_per_reason_counts() {
        let text = "\
system,node,started,fixed,cause
20,1,06/28/1999 14:30,06/28/1999 14:30,hardware
20,2,06/28/1999 14:30,06/27/1999 20:45,hardware
20,3,06/28/1999 14:30,06/28/1999 20:45,hardware
";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 2, "records imported");
        assert_eq!(skipped_inverted(&import), 1, "skipped: inverted interval");
        assert_eq!(import.zero_width, 1, "kept: zero-width interval");
    }

    #[test]
    fn lenient_quarantines_bad_rows_and_conserves() {
        let text = "\
system,node,started,fixed,cause
20,1,06/28/1999 14:30,06/28/1999 20:45,hardware
20,2,06/28/1999 14:30,06/27/1999 20:45,hardware
20,3,13/45/1999 14:30,06/28/1999 20:45,hardware
20,4,06/28/1999 14:30,06/28/1999 20:45,gremlins
";
        let ingest = read_trace(text.as_bytes(), IngestPolicy::Quarantine).unwrap();
        assert_eq!(ingest.total_rows, 4);
        assert_eq!(ingest.accepted(), 1);
        assert_eq!(ingest.quarantine.len(), 3);
        assert!(ingest.is_conserved());
        let classes: Vec<&str> = ingest.quarantine.iter().map(|q| q.issue.class()).collect();
        assert_eq!(
            classes,
            vec!["inverted-interval", "malformed-field", "vocabulary-drift"]
        );
    }

    #[test]
    fn lenient_repair_swaps_inverted_and_maps_drift() {
        let text = "\
system,node,started,fixed,cause
20,2,06/28/1999 14:30,06/27/1999 20:45,hardware
20,4,06/28/1999 14:30,06/28/1999 20:45,gremlins
";
        let ingest = read_trace(text.as_bytes(), IngestPolicy::Repair).unwrap();
        assert_eq!(ingest.accepted(), 2);
        assert!(ingest.quarantine.is_empty());
        assert!(ingest.is_conserved());
        assert_eq!(ingest.repaired.len(), 2);
        assert_eq!(ingest.repaired[0].issue, QualityIssue::InvertedInterval);
        assert!(matches!(
            ingest.repaired[1].issue,
            QualityIssue::VocabularyDrift { .. }
        ));
        // Swapped endpoints: start is the earlier instant.
        let swapped = ingest
            .index
            .all()
            .iter()
            .find(|r| r.node() == NodeId::new(2))
            .unwrap();
        assert_eq!(
            swapped.start(),
            Timestamp::from_civil(1999, 6, 27, 20, 45, 0).unwrap()
        );
        let drift = ingest
            .index
            .all()
            .iter()
            .find(|r| r.node() == NodeId::new(4))
            .unwrap();
        assert_eq!(drift.detail(), DetailedCause::Undetermined);
    }

    #[test]
    fn lanl_bom_tolerated() {
        let text = "\u{feff}system,node,started,fixed,cause\r\n20,1,06/28/1999 14:30,06/28/1999 20:45,hardware\r\n";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 1);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "\
# exported from remedy
system,node,started,fixed,cause

20,1,06/28/1999 14:30,06/28/1999 20:45,undetermined
";
        let import = strict(text.as_bytes()).unwrap();
        assert_eq!(import.index.len(), 1);
        assert_eq!(
            import.index.all().to_trace().records()[0].cause(),
            RootCause::Unknown
        );
    }
}
