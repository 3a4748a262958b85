//! Server resilience counters and the drain signal.
//!
//! [`ServeMetrics`] is the shared scoreboard the accept loop, the
//! workers, and `/healthz` all read and write: how many connections
//! were accepted, how many were shed with `503`, how many are in
//! flight right now, and whether the server is draining. Everything is
//! a relaxed atomic — the counters order nothing, they only count —
//! and `/healthz` renders them deterministically (always the same keys,
//! always integers), so dashboards and the chaos harness can diff two
//! snapshots without worrying about shape drift.
//!
//! [`DrainSignal`] is the `POST /v1/shutdown` path: the router flips
//! it, [`crate::server::run`] wakes up, stops accepting, drains
//! in-flight requests under the drain deadline, and returns — the
//! process-level analog of [`crate::server::ServerHandle::stop`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Shared resilience counters, surfaced on `/healthz`.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted into the queue (not shed).
    pub accepted: AtomicU64,
    /// Connections shed with `503` (queue full, in-flight cap, or
    /// drain deadline exceeded).
    pub shed: AtomicU64,
    /// Connections accepted but not yet fully answered (queued +
    /// actively served). Returns to zero after a clean drain.
    pub in_flight: AtomicU64,
    /// Connections a worker is serving right now.
    pub active_connections: AtomicU64,
    /// Requests cut off by the header-read or whole-request deadline
    /// (answered `408`).
    pub deadline_hits: AtomicU64,
    /// Whether the server is draining (stop requested, in-flight
    /// requests finishing).
    pub draining: AtomicBool,
    started: OnceLock<Instant>,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub(crate) fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Mark the server start; idempotent (first call wins).
    pub(crate) fn mark_started(&self) {
        let _ = self.started.set(Instant::now());
    }

    /// Whole seconds since [`ServeMetrics::mark_started`]; 0 before a
    /// server runs. Always an integer, so `/healthz` renders it
    /// deterministically.
    pub(crate) fn uptime_ticks(&self) -> u64 {
        self.started.get().map_or(0, |t| t.elapsed().as_secs())
    }

    /// The drain state as a stable word: `"serving"` or `"draining"`.
    pub fn drain_state(&self) -> &'static str {
        if self.draining.load(Ordering::Relaxed) {
            "draining"
        } else {
            "serving"
        }
    }
}

/// A latch the router sets on `POST /v1/shutdown` and
/// [`crate::server::run`] blocks on.
#[derive(Debug, Default)]
pub struct DrainSignal {
    requested: Mutex<bool>,
    cv: Condvar,
}

impl DrainSignal {
    /// A fresh, unset signal.
    pub(crate) fn new() -> DrainSignal {
        DrainSignal::default()
    }

    /// Request a graceful drain; idempotent.
    pub(crate) fn request(&self) {
        let mut requested = self.requested.lock().expect("drain signal");
        *requested = true;
        self.cv.notify_all();
    }

    /// Block until a drain is requested.
    pub(crate) fn wait(&self) {
        let mut requested = self.requested.lock().expect("drain signal");
        while !*requested {
            requested = self.cv.wait(requested).expect("drain signal");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_start_zeroed_and_tick() {
        let m = ServeMetrics::new();
        assert_eq!(m.uptime_ticks(), 0);
        assert_eq!(m.drain_state(), "serving");
        m.mark_started();
        m.mark_started(); // idempotent
        assert!(m.uptime_ticks() < 2);
        m.draining.store(true, Ordering::Relaxed);
        assert_eq!(m.drain_state(), "draining");
    }

    #[test]
    fn drain_signal_wakes_waiters() {
        let signal = std::sync::Arc::new(DrainSignal::new());
        assert!(!*signal.requested.lock().unwrap());
        let waiter = {
            let signal = signal.clone();
            std::thread::spawn(move || signal.wait())
        };
        signal.request();
        signal.request(); // idempotent
        waiter.join().unwrap();
        assert!(*signal.requested.lock().unwrap());
    }
}
