//! # hpcfail-stats
//!
//! The statistics substrate for the `hpcfail` workspace — everything
//! Schroeder & Gibson's DSN 2006 LANL failure study needs, implemented
//! from scratch:
//!
//! * [`special`] — Lanczos `ln Γ`, digamma/trigamma, `erf`/`erfc`,
//!   regularized incomplete gamma;
//! * [`dist`] — exponential, Weibull, gamma, lognormal, normal, Pareto
//!   and Poisson distributions, each with density, CDF, quantile,
//!   hazard rate, sampling and maximum-likelihood fitting;
//! * [`fit`] — candidate fitting & ranking by negative log-likelihood /
//!   AIC / Kolmogorov–Smirnov (the paper's Section-3 methodology);
//! * [`prepared`] — one-pass sufficient-statistics kernels
//!   ([`prepared::PreparedSample`]) that the fitting stack, GoF and
//!   bootstrap share, so repeated fits never re-scan or re-sort;
//! * [`ecdf`], [`descriptive`] — empirical CDFs and the mean / median /
//!   C² summaries the paper reports;
//! * [`hazard`] — empirical hazard estimation and trend detection;
//! * [`bootstrap`] — percentile bootstrap confidence intervals;
//! * [`mixture`] — heavy-tailed mixtures used by the synthetic generator.
//!
//! ## Example: the paper's Fig. 6(b) methodology in five lines
//!
//! ```
//! use hpcfail_stats::dist::{sample_n, Weibull, Continuous};
//! use hpcfail_stats::fit::{fit_paper_set, Family};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), hpcfail_stats::StatsError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let tbf = sample_n(&Weibull::new(0.7, 86_400.0)?, 5_000, &mut rng);
//! let report = fit_paper_set(&tbf)?;
//! // Weibull or gamma wins; the memoryless exponential is the worst fit.
//! assert_eq!(report.rank_of(Family::Exponential), Some(3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod correlation;
pub mod descriptive;
pub mod dist;
pub mod ecdf;
mod error;
pub mod fit;
pub mod gof;
pub mod hazard;
pub mod mixture;
pub mod prepared;
pub mod special;

pub use error::StatsError;
