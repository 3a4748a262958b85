//! # hpcfail-sched
//!
//! A reliability-aware node-allocation simulator — the second downstream
//! application the paper motivates: "knowledge on how failure rates vary
//! across the nodes in a system can be utilized in job scheduling, for
//! instance by assigning critical jobs or jobs with high recovery time to
//! more reliable nodes" (Section 5.1).
//!
//! * [`cluster`] — per-node reliability profiles estimated from a
//!   failure trace;
//! * [`policy`] — random, least-failure-rate, and longest-uptime
//!   placement policies (the last exploits the paper's decreasing-hazard
//!   finding);
//! * [`sim`] — an event-driven cluster simulator where node failures
//!   abort (uncheckpointed) jobs, measuring goodput and wasted work.
//!
//! ```
//! use hpcfail_sched::policy::{LeastFailureRate, RandomPlacement};
//! use hpcfail_sched::sim::{run, Job, NodeTruth, SimConfig};
//!
//! # fn main() -> Result<(), hpcfail_sched::SchedError> {
//! let nodes = vec![NodeTruth { failures_per_year: 5.0, weibull_shape: 0.75 }; 4];
//! let jobs = vec![Job { width: 2, work_secs: 3_600.0 }; 3];
//! let config = SimConfig {
//!     mean_repair_secs: 3_600.0,
//!     horizon_secs: 1e8,
//!     seed: 42,
//! };
//! let metrics = run(&nodes, &RandomPlacement, &jobs, &config)?;
//! assert_eq!(metrics.completed + metrics.unfinished, 3);
//! let _ = LeastFailureRate;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
mod error;
pub mod policy;
pub mod sim;

pub use error::SchedError;
