//! `hpcfail-serve`: a multi-tenant HTTP/JSON analysis query service.
//!
//! The batch pipeline answers one question per process run; this crate
//! keeps traces resident and answers them over HTTP. The design leans
//! on two invariants the rest of the workspace already establishes:
//!
//! * **Immutable indexes** — a loaded trace and its
//!   [`hpcfail_records::TraceIndex`] never change ([`tenant`]), so an
//!   analysis result is valid for the lifetime of a tenant generation
//!   and can be memoized forever ([`cache`]).
//! * **Deterministic rendering** — results serialize through an
//!   insertion-ordered, shortest-roundtrip JSON writer ([`json`],
//!   [`render`]), so a cache hit is byte-identical to the original
//!   computation and the integration tests can compare server bodies to
//!   direct library calls byte for byte.
//!
//! The stack, bottom to top: [`http`] (total request parser, hardened
//! against malformed input), [`router`] (dispatch + stratum
//! canonicalization + result cache), [`server`] (bounded accept queue
//! and worker pool sized like the batch engine, with overload
//! shedding, header/request deadlines, and graceful drain — counters
//! in [`metrics`]), [`load`] (the deterministic load-harness planner
//! used by `crates/bench`), and [`chaos`] (a seeded socket-level
//! fault injector, the network sibling of the ingest corruptor).
//!
//! `POST /v1/reload` rebuilds a tenant *off to the side* and swaps an
//! `Arc`, so reload never blocks in-flight readers; the generation
//! number in every cache key makes the swap race-free.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod http;
pub mod json;
pub mod load;
pub mod metrics;
pub mod render;
pub mod router;
pub mod server;
pub mod tenant;

pub use cache::{CacheKey, ResultCache};
pub use chaos::{ChaosPlan, ChaosReport, NetFault};
pub use http::{parse_request, HttpError, Method, Request, Response};
pub use json::Json;
pub use metrics::{DrainSignal, ServeMetrics};
pub use router::{respond, AppState};
pub use server::{run, spawn, ServeConfig, ServerHandle};
pub use tenant::{OwnedIndex, Tenant, TenantError, TenantRegistry, TenantSource};
