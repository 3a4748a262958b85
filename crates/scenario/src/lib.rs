//! # hpcfail-scenario
//!
//! Declarative fault-injection campaigns over the Schroeder–Gibson
//! failure model: a TOML scenario spec describes a fleet (real
//! LANL systems and projected exascale fleets), a grid of perturbations
//! (rate scaling, cause-mix shifts, correlated-burst injection,
//! repair-time inflation, era stratification) and application models
//! (checkpoint strategies, scheduling policies). The spec expands into
//! a deterministic cell grid fanned out on the workspace executor. Seed
//! streams are named by axis values, not cell positions: every cell
//! with the same generation key (fleet entry, rate scale, cause mix,
//! burst mode) reads one trace, synthesized once per run (and fitted
//! once per era), so comparisons along the other axes are paired — and
//! results are a pure function of `(spec, seed)` regardless of worker
//! count.
//!
//! The campaign runner is **crash-proof and resumable**: every cell
//! runs behind its own `catch_unwind`, panics and typed cell errors
//! become [`CellOutcome::Degraded`] rows instead of aborting the
//! campaign, and completed waves checkpoint to an append-only
//! checksummed journal so an interrupted campaign resumes exactly where
//! it stopped — and never resumes the *wrong* campaign, because the
//! journal header binds the spec digest, seed, and cell count.
//!
//! ```
//! use hpcfail_scenario::{run_campaign, CampaignSpec, RunOptions};
//!
//! let spec = CampaignSpec::parse(r#"
//! [campaign]
//! name = "doc"
//! seed = 1
//! [fleet]
//! systems = [12]
//! [grid]
//! rate_scale = [1.0, 2.0]
//! "#)?;
//! let result = run_campaign(&spec, &RunOptions::default())?;
//! assert_eq!(result.total_cells, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod grid;
pub mod journal;
pub mod report;
pub mod runner;
pub mod spec;
mod value;

pub use cell::{cell_seed, evaluate, CellError, CellMetrics};
pub use grid::{expand, Cell};
pub use journal::{Journal, JournalError, JournalHeader};
pub use report::{render_plan, render_results, render_summary};
pub use runner::{run_campaign, CampaignError, CampaignResult, CellOutcome, RunOptions};
pub use spec::{
    AppParams, BurstMode, CampaignSpec, CauseMixName, CheckpointApp, Era, FleetEntry, GridAxes,
    Projection, RunnerParams, SchedApp, SpecError,
};
pub use value::ParseError;
