//! The scoped-thread work pool.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Environment variable overriding the autodetected worker count.
pub const THREADS_ENV: &str = "HPCFAIL_THREADS";

/// Errors surfaced by the fallible executor entry points.
#[derive(Debug)]
pub enum ExecError {
    /// A task panicked; the panic was captured instead of hanging or
    /// poisoning the pool.
    WorkerPanic {
        /// Index of the task that panicked.
        index: usize,
        /// Stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanic { index, message } => {
                write!(f, "task {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A deterministic scoped-thread work pool.
///
/// `map_*` calls hand out task indices through a shared cursor and write
/// each result into its task's slot, so outputs always come back in input
/// order regardless of scheduling. Combined with per-task seed streams
/// ([`crate::SeedSequence`]) this makes results independent of the worker
/// count — the workspace-wide determinism contract (see the crate docs).
///
/// ```
/// use hpcfail_exec::ParallelExecutor;
/// let serial = ParallelExecutor::with_workers(1);
/// let pool = ParallelExecutor::with_workers(8);
/// let square = |i: usize| i * i;
/// assert_eq!(pool.map_range(100, square), serial.map_range(100, square));
/// ```
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    workers: usize,
}

impl ParallelExecutor {
    /// Pool with an explicit worker count (`0` is clamped to `1`).
    /// One worker means a strictly serial, thread-free fallback.
    pub fn with_workers(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
        }
    }

    /// Pool honoring the `HPCFAIL_THREADS` environment variable when set
    /// to a positive integer, else one worker per available core.
    pub fn from_env() -> Self {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let workers = from_env.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        ParallelExecutor::with_workers(workers)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `task` to every index in `0..n`, returning results in index
    /// order. A panicking task propagates its panic to the caller (after
    /// all workers have stopped — never a hang, never a detached thread).
    pub fn map_range<O, F>(&self, n: usize, task: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        match self.run(n, &task) {
            Ok(out) => out,
            Err((_, payload)) => resume_unwind(payload),
        }
    }

    /// Like [`ParallelExecutor::map_range`] but a panicking task comes
    /// back as [`ExecError::WorkerPanic`] instead of unwinding.
    pub fn try_map_range<O, F>(&self, n: usize, task: F) -> Result<Vec<O>, ExecError>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        self.run(n, &task)
            .map_err(|(index, payload)| ExecError::WorkerPanic {
                index,
                message: panic_message(payload.as_ref()),
            })
    }

    /// Apply `task` to every element of `items`, returning results in
    /// input order; panics propagate like [`ParallelExecutor::map_range`].
    pub fn map_indexed<T, O, F>(&self, items: &[T], task: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        self.map_range(items.len(), |i| task(i, &items[i]))
    }

    /// Apply `task` to every index in `0..n`, isolating each task behind
    /// its own `catch_unwind`: a panicking task settles to
    /// `Err(panic message)` in its slot while every sibling still runs to
    /// completion. This is the campaign-runner primitive — unlike
    /// [`ParallelExecutor::try_map_range`], which stops handing out work
    /// after the first panic, no task can abort the batch.
    pub fn map_range_settled<O, F>(&self, n: usize, task: F) -> Vec<Result<O, String>>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        self.map_range(n, |i| {
            catch_unwind(AssertUnwindSafe(|| task(i))).map_err(|p| panic_message(p.as_ref()))
        })
    }

    fn run<O, F>(&self, n: usize, task: &F) -> Result<Vec<O>, (usize, Box<dyn Any + Send>)>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        let workers = self.workers.min(n);
        if workers <= 1 {
            // Serial fallback: no threads at all, same catch semantics.
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                match catch_unwind(AssertUnwindSafe(|| task(i))) {
                    Ok(v) => out.push(v),
                    Err(payload) => return Err((i, payload)),
                }
            }
            return Ok(out);
        }

        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

        thread::scope(|scope| {
            let worker_loop = || {
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| task(i))) {
                        Ok(v) => *slots[i].lock().expect("slot lock") = Some(v),
                        Err(payload) => {
                            let mut guard = first_panic.lock().expect("panic lock");
                            // Keep the lowest task index for reporting
                            // stability across schedules.
                            match &*guard {
                                Some((held, _)) if *held <= i => {}
                                _ => *guard = Some((i, payload)),
                            }
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            };
            // The calling thread is worker 0; spawn the remainder.
            for _ in 1..workers {
                scope.spawn(worker_loop);
            }
            worker_loop();
        });

        if let Some(err) = first_panic.into_inner().expect("panic lock") {
            return Err(err);
        }
        Ok(slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .expect("slot lock")
                    .unwrap_or_else(|| panic!("task {i} produced no result"))
            })
            .collect())
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_matches_serial_for_all_worker_counts() {
        let serial: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 16] {
            let pool = ParallelExecutor::with_workers(workers);
            assert_eq!(pool.map_range(257, |i| i * 3 + 1), serial);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ParallelExecutor::with_workers(8);
        assert_eq!(pool.map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_range(1, |i| i + 7), vec![7]);
        assert_eq!(
            pool.map_indexed::<u8, _, _>(&[], |_, _| 0u8),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn map_indexed_passes_elements() {
        let items = ["a", "bb", "ccc"];
        let pool = ParallelExecutor::with_workers(2);
        assert_eq!(
            pool.map_indexed(&items, |i, s| (i, s.len())),
            vec![(0, 1), (1, 2), (2, 3)]
        );
    }

    #[test]
    fn panics_surface_as_errors_not_hangs() {
        for workers in [1, 4] {
            let pool = ParallelExecutor::with_workers(workers);
            let err = pool
                .try_map_range(64, |i| {
                    if i == 13 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .unwrap_err();
            let ExecError::WorkerPanic { message, .. } = err;
            assert!(message.contains("boom"), "message {message:?}");
        }
    }

    #[test]
    fn settled_map_isolates_panics_per_task() {
        for workers in [1, 2, 8] {
            let pool = ParallelExecutor::with_workers(workers);
            let out = pool.map_range_settled(64, |i| {
                if i % 13 == 5 {
                    panic!("poisoned {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 64, "workers {workers}");
            for (i, slot) in out.iter().enumerate() {
                if i % 13 == 5 {
                    let msg = slot.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned"), "slot {i}: {msg:?}");
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 2, "slot {i}");
                }
            }
        }
    }

    #[test]
    fn map_range_propagates_panic() {
        let pool = ParallelExecutor::with_workers(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_range(32, |i| {
                if i == 5 {
                    panic!("expected");
                }
                i
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn env_override_parses() {
        // from_env reads the live environment; only check it never
        // yields zero workers (env mutation would race other tests).
        assert!(ParallelExecutor::from_env().workers() >= 1);
        assert!(ParallelExecutor::with_workers(0).workers() == 1);
    }
}
