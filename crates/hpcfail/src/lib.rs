//! # hpcfail
//!
//! A toolkit reproducing Bianca Schroeder & Garth Gibson, *A large-scale
//! study of failures in high-performance computing systems* (DSN 2006):
//! the statistics engine, the LANL data model, a calibrated synthetic
//! trace generator, the paper's analyses, and the downstream
//! checkpointing/scheduling applications the paper motivates.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof. Use [`prelude`] for the common imports.
//!
//! ```
//! use hpcfail::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = hpcfail::synth::scenario::system_trace(SystemId::new(12), 42)?;
//! let breakdown = CauseBreakdown::from_view(&trace.index().all());
//! assert_eq!(breakdown.largest_by_failures(), Some(RootCause::Hardware));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use hpcfail_checkpoint as checkpoint;
pub use hpcfail_core as analysis;
pub use hpcfail_exec as exec;
pub use hpcfail_records as records;
pub use hpcfail_scenario as scenario;
pub use hpcfail_sched as sched;
pub use hpcfail_serve as serve;
pub use hpcfail_stats as stats;
pub use hpcfail_synth as synth;

/// The most common imports for working with the toolkit.
pub mod prelude {
    pub use hpcfail_core::rootcause::CauseBreakdown;
    pub use hpcfail_core::AnalysisError;
    pub use hpcfail_exec::{FaultMix, FaultPlan, ParallelExecutor, SeedSequence};
    pub use hpcfail_records::{
        BinaryCorruptionPlan, BinaryFault, Catalog, CauseTotals, CorruptionPlan, DetailedCause,
        FailureRecord, FailureTrace, Fault, HardwareType, IngestPolicy, LenientIngest, LoadedTrace,
        NodeId, QualityIssue, QualityReport, RecordError, RepairOutcome, RootCause, StoreError,
        SystemId, Timestamp, TraceIndex, TraceParts, TraceStore, TraceView, Workload,
    };
    pub use hpcfail_scenario::{
        run_campaign, CampaignResult, CampaignSpec, CellOutcome, RunOptions,
    };
    pub use hpcfail_stats::dist::{
        Continuous, Discrete, Exponential, Gamma, LogNormal, Normal, Pareto, Poisson, Weibull,
    };
    pub use hpcfail_stats::fit::{
        fit_candidates_prepared, fit_paper_set, fit_paper_set_prepared, Criterion, Family,
    };
    pub use hpcfail_stats::prepared::PreparedSample;
    pub use hpcfail_stats::StatsError;
    pub use hpcfail_synth::{SynthError, TraceGenerator};
}
