//! # hpcfail-core
//!
//! The analyses of Schroeder & Gibson, *A large-scale study of failures
//! in high-performance computing systems* (DSN 2006), as a reusable
//! library. Each module reproduces one artifact of the paper's
//! evaluation:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`rootcause`] | Fig. 1(a)(b) — root-cause breakdown of failures and downtime |
//! | [`rates`] | Fig. 2(a)(b) — failures/year per system, per processor |
//! | [`pernode`] | Fig. 3(a)(b) — failures per node; Poisson vs normal/lognormal |
//! | [`lifetime`] | Fig. 4(a)(b) — failure rate over system age, two shapes |
//! | [`periodic`] | Fig. 5 — hour-of-day and day-of-week patterns |
//! | [`tbf`] | Fig. 6 — time between failures, per node and system-wide, per era |
//! | [`repair`] | Table 2 + Fig. 7 — repair-time statistics and fits |
//! | [`related`] | Table 3 — related-work overview |
//! | [`availability`] | derived: per-system availability (uptime fraction) |
//! | [`findings`] | the Section-8 conclusions, checked programmatically |
//! | [`report`] | plain-text rendering for the experiment harness |
//!
//! ```
//! use hpcfail_core::{rootcause, repair};
//! use hpcfail_records::{Catalog, RootCause};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = hpcfail_synth::scenario::system_trace(
//!     hpcfail_records::SystemId::new(12), 42)?;
//! let breakdown = rootcause::CauseBreakdown::from_view(&trace.index().all());
//! assert_eq!(breakdown.largest_by_failures(), Some(RootCause::Hardware));
//! let _ = Catalog::lanl();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod availability;
pub mod daily;
mod error;
pub mod findings;
pub mod lifetime;
pub mod periodic;
pub mod pernode;
pub mod rates;
pub mod related;
pub mod repair;
pub mod report;
pub mod rootcause;
pub mod tbf;
pub mod workload;

pub use error::AnalysisError;
