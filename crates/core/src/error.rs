//! Error type for the analysis crate.

use std::fmt;

/// Errors produced by the analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// Not enough records to run the requested analysis.
    InsufficientData {
        /// What was being analyzed.
        what: &'static str,
        /// Records required.
        needed: usize,
        /// Records available.
        got: usize,
    },
    /// A statistics routine failed.
    Stats(hpcfail_stats::StatsError),
    /// A record/catalog operation failed.
    Record(hpcfail_records::RecordError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::InsufficientData { what, needed, got } => {
                write!(f, "{what}: need at least {needed} records, got {got}")
            }
            AnalysisError::Stats(e) => write!(f, "statistics error: {e}"),
            AnalysisError::Record(e) => write!(f, "record error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Stats(e) => Some(e),
            AnalysisError::Record(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hpcfail_stats::StatsError> for AnalysisError {
    fn from(e: hpcfail_stats::StatsError) -> Self {
        AnalysisError::Stats(e)
    }
}

impl From<hpcfail_records::RecordError> for AnalysisError {
    fn from(e: hpcfail_records::RecordError) -> Self {
        AnalysisError::Record(e)
    }
}

impl AnalysisError {
    /// `Ok` when `got` reaches `needed`, else
    /// [`AnalysisError::InsufficientData`] naming `what`.
    pub(crate) fn require(what: &'static str, needed: usize, got: usize) -> Result<(), Self> {
        if got < needed {
            return Err(AnalysisError::InsufficientData { what, needed, got });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        use std::error::Error;
        let e = AnalysisError::InsufficientData {
            what: "tbf",
            needed: 10,
            got: 2,
        };
        assert!(e.to_string().contains("tbf"));
        assert!(e.source().is_none());
        let s: AnalysisError = hpcfail_stats::StatsError::EmptySample.into();
        assert!(s.source().is_some());
        let r: AnalysisError = hpcfail_records::RecordError::EmptyTrace.into();
        assert!(r.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<AnalysisError>();
    }
}
