//! # hpcfail-exec
//!
//! The deterministic parallel execution engine shared by the whole
//! workspace: a std-only scoped-thread work pool ([`ParallelExecutor`])
//! plus the SplitMix64-style seed-stream splitter ([`SeedSequence`])
//! that makes parallel results bit-identical to serial ones. The
//! [`fault`] module is the fault-plan core (weighted mix, replayable
//! plan, seeded shuffle) that every seeded fault injector builds on.
//!
//! ## The determinism contract
//!
//! Parallelism must never change the science. Every parallel code path
//! in hpcfail follows the same recipe:
//!
//! 1. Partition work into *logical* units (replicate, node, system) whose
//!    identity is independent of the worker count.
//! 2. Give each unit its own RNG, seeded by
//!    [`derive_stream_seed`]`(root, unit_index)` — never share one RNG
//!    stream across units.
//! 3. Collect results **in unit order** ([`ParallelExecutor::map_indexed`]
//!    returns outputs at their input index, whatever the completion
//!    order was).
//!
//! Under this recipe the output is a pure function of `(root seed, unit
//! count)`, so 1, 2 or 64 workers produce byte-identical answers — the
//! property `tests/parallel_determinism.rs` locks down.
//!
//! ## Worker-count selection
//!
//! [`ParallelExecutor::from_env`] honors the `HPCFAIL_THREADS`
//! environment variable when it parses to a positive integer, and
//! otherwise autodetects via `std::thread::available_parallelism`. One
//! worker selects a no-thread serial fallback with identical results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
mod pool;
mod seed;

pub use fault::{FaultKind, FaultMix, FaultPlan};
pub use pool::{ExecError, ParallelExecutor, THREADS_ENV};
pub use seed::{derive_stream_seed, splitmix64, SeedSequence, GOLDEN_GAMMA};
