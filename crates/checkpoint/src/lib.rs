//! # hpcfail-checkpoint
//!
//! A checkpoint-strategy simulator driven by failure statistics — the
//! downstream application the paper's introduction motivates ("the design
//! and analysis of checkpoint strategies relies on certain statistical
//! properties of failures").
//!
//! * [`daly`] — Young/Daly closed-form optimal intervals (exponential
//!   assumption);
//! * [`strategies`] — periodic and hazard-aware checkpoint policies;
//! * [`sim`] — an event-driven job simulator with a conservation-law
//!   accounting of where the wall-clock time goes;
//! * [`study`] — the sweep quantifying what the paper's Weibull-with-
//!   decreasing-hazard finding costs an exponential-assuming scheduler;
//! * [`twolevel`] — Vaidya-style two-level recovery (the paper's
//!   ref \[21\]), sized by the paper's root-cause mix.
//!
//! ```
//! use hpcfail_checkpoint::daly::young_interval;
//! // 5-minute checkpoints on a node with 4-day MTBF.
//! let tau = young_interval(300.0, 4.0 * 86_400.0)?;
//! assert!(tau > 3_600.0 && tau < 10.0 * 3_600.0);
//! # Ok::<(), hpcfail_checkpoint::CheckpointError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod daly;
mod error;
pub mod sim;
pub mod strategies;
pub mod study;
pub mod twolevel;

pub use error::CheckpointError;
