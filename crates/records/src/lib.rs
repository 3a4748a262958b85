//! # hpcfail-records
//!
//! The data model of the LANL failure trace studied by Schroeder & Gibson
//! (DSN 2006): typed failure records, the 22-system catalog of Table 1,
//! the root-cause taxonomy, workload classes, a simulated wall clock with
//! real calendar semantics, trace containers with the query operations the
//! paper's analyses need, one trace loader for CSV and packed input, and
//! CSV export.
//!
//! ```
//! use hpcfail_records::{Catalog, SystemId};
//!
//! let catalog = Catalog::lanl();
//! assert_eq!(catalog.total_nodes(), 4750);
//! let sys20 = catalog.system(SystemId::new(20))?;
//! assert_eq!(sys20.procs(), 6152);
//! # Ok::<(), hpcfail_records::RecordError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
mod cause;
pub mod corrupt;
mod error;
mod ids;
pub mod index;
pub mod intervals;
pub mod io;
mod io_lanl;
pub mod quality;
mod record;
pub mod store;
pub mod time;
mod trace;
mod workload;

pub use catalog::{Catalog, NodeCategory, SystemSpec};
pub use cause::{DetailedCause, RootCause};
pub use corrupt::{BinaryCorruptionPlan, BinaryFault, CorruptionPlan, Fault};
pub use error::RecordError;
pub use ids::{HardwareType, NodeId, SystemId};
pub use index::{CauseTotals, TraceIndex, TraceView};
pub use quality::{
    audit, repair, IngestPolicy, LenientIngest, QualityIssue, QualityReport, QuarantinedRow,
    RepairOutcome, Severity,
};
pub use record::FailureRecord;
pub use store::{checksum, StoreError, TraceStore, FORMAT_VERSION, HPCT_MAGIC};
pub use time::Timestamp;
pub use trace::FailureTrace;
pub use workload::Workload;
