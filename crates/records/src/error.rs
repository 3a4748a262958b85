//! Error types for record construction and trace ingestion.

use std::fmt;

use crate::store::StoreError;

/// Errors produced when building or parsing failure records.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordError {
    /// A record's end time precedes its start time.
    EndBeforeStart,
    /// A field failed to parse.
    ParseField {
        /// Name of the field.
        field: &'static str,
        /// The offending raw text.
        value: String,
    },
    /// A CSV line had the wrong number of fields.
    WrongFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields expected.
        expected: usize,
        /// Fields found.
        got: usize,
    },
    /// A CSV line failed to parse.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// Underlying reason.
        reason: String,
    },
    /// The referenced system is not in the catalog.
    UnknownSystem {
        /// The offending system number.
        id: u32,
    },
    /// The node index exceeds the system's node count.
    NodeOutOfRange {
        /// System number.
        system: u32,
        /// Offending node index.
        node: u32,
        /// Nodes in that system.
        nodes: u32,
    },
    /// An operation that needs records got an empty trace.
    EmptyTrace,
    /// The input carried the `.hpct` magic but is not a valid packed
    /// store.
    Store(StoreError),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::EndBeforeStart => {
                write!(f, "failure end time precedes its start time")
            }
            RecordError::ParseField { field, value } => {
                write!(f, "could not parse {field} from {value:?}")
            }
            RecordError::WrongFieldCount {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            RecordError::MalformedLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            RecordError::UnknownSystem { id } => {
                write!(f, "system {id} is not in the catalog")
            }
            RecordError::NodeOutOfRange {
                system,
                node,
                nodes,
            } => {
                write!(
                    f,
                    "node {node} out of range for system {system} ({nodes} nodes)"
                )
            }
            RecordError::EmptyTrace => write!(f, "trace contains no records"),
            RecordError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecordError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let cases: Vec<(RecordError, &str)> = vec![
            (RecordError::EndBeforeStart, "end time precedes"),
            (
                RecordError::ParseField {
                    field: "node",
                    value: "xx".into(),
                },
                "could not parse node",
            ),
            (
                RecordError::WrongFieldCount {
                    line: 3,
                    expected: 7,
                    got: 5,
                },
                "line 3",
            ),
            (RecordError::UnknownSystem { id: 99 }, "system 99"),
            (
                RecordError::NodeOutOfRange {
                    system: 20,
                    node: 50,
                    nodes: 49,
                },
                "node 50 out of range",
            ),
            (RecordError::EmptyTrace, "no records"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<RecordError>();
    }
}
