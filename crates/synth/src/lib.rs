//! # hpcfail-synth
//!
//! A synthetic LANL-like failure-trace generator calibrated to every
//! statistic Schroeder & Gibson report (DSN 2006). It stands in for the
//! proprietary raw trace: per-system failure rates (Fig. 2), root-cause
//! mixes (Fig. 1 / Section 4), Weibull inter-arrivals with decreasing
//! hazard (Fig. 6), Table 2 repair times, lifecycle shapes (Fig. 4),
//! diurnal/weekly modulation (Fig. 5), per-node heterogeneity (Fig. 3),
//! and correlated early-era bursts (Fig. 6(c)).
//!
//! ```
//! use hpcfail_synth::scenario;
//! use hpcfail_records::SystemId;
//!
//! // A seeded single-system trace (system 12 is the smallest cluster).
//! let trace = scenario::system_trace(SystemId::new(12), 42)?;
//! assert!(!trace.is_empty());
//! # Ok::<(), hpcfail_synth::SynthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod causes;
pub mod config;
pub mod diurnal;
mod error;
pub mod generator;
pub mod lifecycle;
pub mod repair;
pub mod scenario;
pub mod validate;

pub use error::SynthError;
pub use generator::TraceGenerator;

use rand::{Rng, RngExt};

/// A uniform draw in the open interval (0, 1).
pub(crate) fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}
