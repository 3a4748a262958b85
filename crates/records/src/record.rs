//! The failure record — one row of the LANL "remedy" database.

use crate::cause::{DetailedCause, RootCause};
use crate::error::RecordError;
use crate::ids::{NodeId, SystemId};
use crate::time::Timestamp;
use crate::workload::Workload;

/// One failure event: the node went down at `start`, was repaired and
/// returned to the job mix at `end`.
///
/// Mirrors the fields the paper describes (Section 2.3): start time, end
/// time, system and node affected, workload, and categorized root cause.
///
/// ```
/// use hpcfail_records::{FailureRecord, SystemId, NodeId, Timestamp,
///                       RootCause, DetailedCause, Workload};
/// let rec = FailureRecord::new(
///     SystemId::new(20),
///     NodeId::new(22),
///     Timestamp::from_secs(1_000_000),
///     Timestamp::from_secs(1_021_600),
///     Workload::Compute,
///     DetailedCause::Memory,
/// )?;
/// assert_eq!(rec.cause(), RootCause::Hardware);
/// assert_eq!(rec.downtime_secs(), 21_600); // 6 hours
/// # Ok::<(), hpcfail_records::RecordError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailureRecord {
    system: SystemId,
    node: NodeId,
    start: Timestamp,
    end: Timestamp,
    workload: Workload,
    detail: DetailedCause,
}

impl FailureRecord {
    /// Create a record; validates that `end ≥ start`.
    ///
    /// # Errors
    ///
    /// [`RecordError::EndBeforeStart`] if the repair would finish before
    /// the failure began.
    pub fn new(
        system: SystemId,
        node: NodeId,
        start: Timestamp,
        end: Timestamp,
        workload: Workload,
        detail: DetailedCause,
    ) -> Result<Self, RecordError> {
        if end < start {
            return Err(RecordError::EndBeforeStart);
        }
        Ok(FailureRecord {
            system,
            node,
            start,
            end,
            workload,
            detail,
        })
    }

    /// The system the failed node belongs to.
    pub fn system(&self) -> SystemId {
        self.system
    }

    /// The failed node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// When the failure was detected.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// When the node re-entered the job mix.
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Workload the node was running.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Detailed root cause.
    pub fn detail(&self) -> DetailedCause {
        self.detail
    }

    /// High-level root-cause category (derived from the detail).
    pub fn cause(&self) -> RootCause {
        self.detail.category()
    }

    /// Downtime (time to repair) in seconds.
    pub fn downtime_secs(&self) -> u64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u64, end: u64) -> Result<FailureRecord, RecordError> {
        FailureRecord::new(
            SystemId::new(5),
            NodeId::new(3),
            Timestamp::from_secs(start),
            Timestamp::from_secs(end),
            Workload::Compute,
            DetailedCause::Memory,
        )
    }

    #[test]
    fn valid_record_accessors() {
        let r = rec(100, 160).unwrap();
        assert_eq!(r.system().get(), 5);
        assert_eq!(r.node().get(), 3);
        assert_eq!(r.downtime_secs(), 60);
        let trace = crate::FailureTrace::from_records(vec![r]);
        assert_eq!(trace.index().all().downtimes_minutes(), vec![1.0]);
        assert_eq!(r.cause(), RootCause::Hardware);
        assert_eq!(r.detail(), DetailedCause::Memory);
        assert_eq!(r.workload(), Workload::Compute);
    }

    #[test]
    fn zero_duration_allowed() {
        // Instantaneous records exist in operator data (node bounced).
        let r = rec(100, 100).unwrap();
        assert_eq!(r.downtime_secs(), 0);
    }

    #[test]
    fn end_before_start_rejected() {
        assert_eq!(rec(100, 99).unwrap_err(), RecordError::EndBeforeStart);
    }

    #[test]
    fn cause_tracks_detail() {
        let r = FailureRecord::new(
            SystemId::new(1),
            NodeId::new(0),
            Timestamp::from_secs(0),
            Timestamp::from_secs(10),
            Workload::FrontEnd,
            DetailedCause::PowerOutage,
        )
        .unwrap();
        assert_eq!(r.cause(), RootCause::Environment);
    }
}
