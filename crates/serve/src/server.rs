//! The TCP accept loop, bounded worker pool, and resilience layer.
//!
//! One acceptor thread pushes connections into a bounded queue; a fixed
//! pool of workers (sized like the batch engine — `HPCFAIL_THREADS` or
//! the CPU count, via [`hpcfail_exec::ParallelExecutor::from_env`])
//! pops, reads one request under a deadline, answers through the
//! router, and closes. The failure modes the paper studies are designed
//! out rather than hoped away:
//!
//! * **Overload sheds, never queues unboundedly.** Connections arriving
//!   while the queue is full or the in-flight cap is reached get an
//!   immediate `503` with a `retry-after` hint, counted on
//!   [`crate::metrics::ServeMetrics::shed`].
//! * **Every request runs on a budget.** A short header-read deadline
//!   defeats slow-loris clients trickling bytes to hold a worker
//!   hostage; a whole-request deadline spans header read, body read,
//!   compute, and write. Both answer `408` and count as
//!   `deadline_hits`.
//! * **Shutdown drains.** [`ServerHandle::stop`] stops accepting,
//!   serves everything already accepted to completion under the drain
//!   deadline (queued connections past the deadline are shed with
//!   `503`, never silently dropped), then joins every thread — a client
//!   that got a status line always gets the whole body.
//!
//! `tests/serve_chaos.rs` certifies all three under a seeded
//! socket-level fault injector ([`crate::chaos`]).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpcfail_exec::ParallelExecutor;

use crate::http::{self, parse_request, HttpError, Response, MAX_HEAD};
use crate::router::{respond, AppState};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads; `None` sizes like the batch engine
    /// (`HPCFAIL_THREADS` or the CPU count).
    pub workers: Option<usize>,
    /// Pending-connection queue bound; beyond it new connections are
    /// shed with `503`.
    pub queue_depth: usize,
    /// Per-I/O-chunk read/write timeout (one `read`/`write` call).
    pub io_timeout: Duration,
    /// Deadline for the complete request head to arrive. Short by
    /// design: a slow-loris client trickling header bytes is cut off
    /// with `408` when this expires.
    pub header_deadline: Duration,
    /// Whole-request budget spanning header read, body read, compute,
    /// and response write.
    pub request_deadline: Duration,
    /// On [`ServerHandle::stop`], how long queued connections may keep
    /// being served; past it they are shed with `503`. In-flight
    /// requests always run to completion.
    pub drain_deadline: Duration,
    /// Cap on connections accepted but not yet answered (queued +
    /// actively served); beyond it new connections are shed.
    pub max_in_flight: usize,
    /// `retry-after` value (seconds) sent with shed responses.
    pub retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            queue_depth: 256,
            io_timeout: Duration::from_secs(10),
            header_deadline: Duration::from_secs(2),
            request_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_in_flight: 1024,
            retry_after_secs: 1,
        }
    }
}

struct Queue {
    deque: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    /// Set by `stop()`: the instant past which queued (not yet started)
    /// connections are shed instead of served.
    drain_until: Mutex<Option<Instant>>,
}

/// A running server: bound address plus a handle to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Queue>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    panicked: usize,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Threads that panicked during serve or drain (chaos harness
    /// acceptance: must stay 0). Populated by [`ServerHandle::stop`].
    pub fn panicked(&self) -> usize {
        self.panicked
    }

    /// Signal shutdown, drain, and join every thread. Idempotent.
    ///
    /// Accepting stops immediately; connections already accepted keep
    /// being served until the drain deadline, after which queued ones
    /// are shed with `503`. In-flight requests always complete — their
    /// own request deadline bounds how long that takes — so no client
    /// ever sees a truncated body on a clean shutdown.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.metrics.draining.store(true, Ordering::SeqCst);
        *self.queue.drain_until.lock().expect("drain deadline") =
            Some(Instant::now() + self.config.drain_deadline);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            if acceptor.join().is_err() {
                self.panicked += 1;
            }
        }
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                self.panicked += 1;
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start serving `state` in background threads.
///
/// # Errors
///
/// Propagates the bind error.
pub fn spawn(state: Arc<AppState>, config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config
        .workers
        .unwrap_or_else(|| ParallelExecutor::from_env().workers())
        .max(1);
    let shutdown = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(Queue {
        deque: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        drain_until: Mutex::new(None),
    });
    state.metrics.mark_started();

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let state = state.clone();
        let queue = queue.clone();
        let shutdown = shutdown.clone();
        let config = config.clone();
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("hpcfail-serve-{i}"))
                .spawn(move || worker_loop(&state, &queue, &shutdown, &config))
                .expect("spawn worker"),
        );
    }

    let acceptor = {
        let state = state.clone();
        let queue = queue.clone();
        let shutdown = shutdown.clone();
        let config = config.clone();
        std::thread::Builder::new()
            .name("hpcfail-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let metrics = &state.metrics;
                    let in_flight = metrics.in_flight.load(Ordering::Relaxed) as usize;
                    let mut deque = queue.deque.lock().expect("accept queue");
                    if deque.len() >= config.queue_depth || in_flight >= config.max_in_flight {
                        drop(deque);
                        metrics.shed.fetch_add(1, Ordering::Relaxed);
                        shed(stream, &config);
                        continue;
                    }
                    metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                    deque.push_back(stream);
                    drop(deque);
                    queue.ready.notify_one();
                }
                // Unblock every worker so they see the shutdown flag.
                queue.ready.notify_all();
            })
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        state,
        config: config.clone(),
        shutdown,
        queue,
        acceptor: Some(acceptor),
        workers: worker_handles,
        panicked: 0,
    })
}

/// Bind and serve until a graceful drain is requested — `POST
/// /v1/shutdown` flips [`AppState::drain`] — then drain, join, and
/// return (the CLI entry point). Calls `on_bind` with the bound address
/// before accepting.
///
/// # Errors
///
/// Propagates the bind error.
pub fn run(
    state: Arc<AppState>,
    config: &ServeConfig,
    on_bind: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let mut handle = spawn(state.clone(), config)?;
    on_bind(handle.addr());
    state.drain.wait();
    handle.stop();
    Ok(())
}

/// Answer a shed connection with `503` + `retry-after` and close. The
/// write and the close share one short budget: a shed peer never gets to
/// block the acceptor.
fn shed(mut stream: TcpStream, config: &ServeConfig) {
    let budget = close_budget(config);
    let deadline = Instant::now() + budget;
    let _ = stream.set_write_timeout(Some(budget));
    let resp = Response::overloaded(config.retry_after_secs, "server overloaded; retry");
    let _ = stream.write_all(&resp.to_bytes());
    close_after_reply(&mut stream, deadline);
}

/// Time allowed for answering and closing a connection whose request
/// was never (or only partly) read.
fn close_budget(config: &ServeConfig) -> Duration {
    config.io_timeout.min(Duration::from_millis(250))
}

/// Half-close after a reply, then discard what the peer sends until it
/// closes. Dropping a socket with unread request bytes makes the kernel
/// send RST, which can destroy the reply before the peer reads it;
/// reading to the peer's EOF first keeps the close an orderly FIN.
/// Bounded by `deadline` and 4 MiB.
fn close_after_reply(stream: &mut TcpStream, deadline: Instant) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 4 * 1024 * 1024 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let _ = stream.set_read_timeout(Some(left));
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop(state: &AppState, queue: &Queue, shutdown: &AtomicBool, config: &ServeConfig) {
    loop {
        let stream = {
            let mut deque = queue.deque.lock().expect("accept queue");
            loop {
                if let Some(stream) = deque.pop_front() {
                    break stream;
                }
                // Drain contract: exit only once the queue is empty, so
                // every accepted connection gets an answer.
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = queue
                    .ready
                    .wait_timeout(deque, Duration::from_millis(50))
                    .expect("accept queue");
                deque = guard;
            }
        };
        let drain_expired = queue
            .drain_until
            .lock()
            .expect("drain deadline")
            .is_some_and(|until| Instant::now() >= until);
        if drain_expired {
            state.metrics.shed.fetch_add(1, Ordering::Relaxed);
            shed(stream, config);
        } else {
            state
                .metrics
                .active_connections
                .fetch_add(1, Ordering::Relaxed);
            serve_connection(state, stream, config);
            state
                .metrics
                .active_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
        state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The per-request budget: one clock spanning header read, body read,
/// compute, and write, with the stricter header deadline layered on
/// top while the head is still arriving.
struct Budget {
    start: Instant,
    header_deadline: Duration,
    request_deadline: Duration,
}

impl Budget {
    fn new(config: &ServeConfig) -> Budget {
        Budget {
            start: Instant::now(),
            header_deadline: config.header_deadline,
            request_deadline: config.request_deadline,
        }
    }

    /// Remaining whole-request budget; `None` once exhausted.
    fn remaining_total(&self) -> Option<Duration> {
        self.request_deadline.checked_sub(self.start.elapsed())
    }

    /// Remaining header budget (the tighter of the two while the head
    /// is still arriving); `None` once exhausted.
    fn remaining_header(&self) -> Option<Duration> {
        let header = self.header_deadline.checked_sub(self.start.elapsed())?;
        Some(header.min(self.remaining_total()?))
    }
}

/// Read one request off `stream`, answer it, close. All I/O errors are
/// swallowed (the peer is gone); parse errors map to their 4xx;
/// deadline hits map to 408.
fn serve_connection(state: &AppState, mut stream: TcpStream, config: &ServeConfig) {
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let _ = stream.set_nodelay(true);
    let budget = Budget::new(config);

    let mut drain = false;
    let response = match read_request(&mut stream, &budget, config.io_timeout) {
        Ok(buf) => match parse_request(&buf) {
            Ok(req) => respond(state, &req),
            Err(err) => Response::error(err.status(), &err.to_string()),
        },
        Err(ReadOutcome::TooLarge) => {
            // The peer is still mid-send; drain before closing so the
            // rejection isn't lost to a connection reset.
            drain = true;
            Response::error(431, &HttpError::RequestLineTooLong.to_string())
        }
        Err(ReadOutcome::HeaderDeadline) => {
            state.metrics.deadline_hits.fetch_add(1, Ordering::Relaxed);
            Response::error_kind(408, "deadline", "header read deadline exceeded")
        }
        Err(ReadOutcome::RequestDeadline) => {
            state.metrics.deadline_hits.fetch_add(1, Ordering::Relaxed);
            Response::error_kind(408, "deadline", "request deadline exceeded")
        }
        Err(ReadOutcome::Io) => return, // peer vanished; nothing to say
    };
    // The write budget is whatever the request deadline left over, with
    // a floor so a response we started is never truncated by our own
    // clock — only the peer going away can cut it short.
    let write_budget = budget
        .remaining_total()
        .unwrap_or(Duration::ZERO)
        .max(Duration::from_millis(250))
        .min(config.io_timeout);
    let _ = stream.set_write_timeout(Some(write_budget));
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.flush();
    if drain {
        close_after_reply(&mut stream, Instant::now() + close_budget(config));
    }
}

enum ReadOutcome {
    TooLarge,
    Io,
    HeaderDeadline,
    RequestDeadline,
}

/// Read until the end of headers (plus any `content-length` body up to
/// the parser's limits). Bounded three ways: by [`MAX_HEAD`] + body cap
/// in bytes, by the header deadline while the head is arriving, and by
/// the whole-request deadline throughout.
fn read_request(
    stream: &mut TcpStream,
    budget: &Budget,
    io_timeout: Duration,
) -> Result<Vec<u8>, ReadOutcome> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        // Find the end of head; then read the declared body if any.
        if let Some((head_end, _)) = http::find_head_end(&buf) {
            let declared = declared_body_len(&buf[..head_end]);
            let want = head_end + declared.min(http::MAX_BODY + 1);
            while buf.len() < want {
                let Some(remaining) = budget.remaining_total() else {
                    return Err(ReadOutcome::RequestDeadline);
                };
                match read_chunk(stream, &mut chunk, remaining.min(io_timeout))? {
                    None => continue,          // chunk timeout; deadline re-checked above
                    Some(0) => return Ok(buf), // truncated body: parser rejects it
                    Some(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
            return Ok(buf);
        }
        if buf.len() > MAX_HEAD {
            return Err(ReadOutcome::TooLarge);
        }
        let Some(remaining) = budget.remaining_header() else {
            return Err(ReadOutcome::HeaderDeadline);
        };
        match read_chunk(stream, &mut chunk, remaining.min(io_timeout))? {
            None => continue,          // chunk timeout; header deadline re-checked above
            Some(0) => return Ok(buf), // EOF before end of head: parser rejects it
            Some(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// One bounded read. `Ok(None)` is a chunk timeout — not an error and
/// not EOF; the caller loops and re-checks its deadline, which is what
/// finally cuts a trickling peer off.
fn read_chunk(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    timeout: Duration,
) -> Result<Option<usize>, ReadOutcome> {
    // set_read_timeout(Some(ZERO)) is an invalid argument; clamp up.
    let _ = stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
    match stream.read(chunk) {
        Ok(n) => Ok(Some(n)),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Err(_) => Err(ReadOutcome::Io),
    }
}

/// Best-effort `content-length` scan of the raw head (the real parse
/// happens later; this only sizes the read loop).
fn declared_body_len(head: &[u8]) -> usize {
    let text = String::from_utf8_lossy(head);
    for line in text.lines() {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                return value.trim().parse::<usize>().unwrap_or(0);
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantSource;
    use hpcfail_records::{
        DetailedCause, FailureRecord, FailureTrace, NodeId, SystemId, Timestamp, Workload,
    };

    fn tiny_state() -> Arc<AppState> {
        let records = (0..64u64)
            .map(|i| {
                let at = Timestamp::from_secs(1_000 + i * 3_600);
                FailureRecord::new(
                    SystemId::new(20),
                    NodeId::new((i % 8) as u32),
                    at,
                    at + 900,
                    Workload::Compute,
                    DetailedCause::Memory,
                )
                .unwrap()
            })
            .collect();
        let state = AppState::new();
        state
            .registry
            .insert(
                "t",
                TenantSource::Static(Arc::new(FailureTrace::from_records(records))),
            )
            .unwrap();
        Arc::new(state)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_stops() {
        let mut handle = spawn(
            tiny_state(),
            &ServeConfig {
                workers: Some(2),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let reply = roundtrip(handle.addr(), "GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""));
        let reply = roundtrip(handle.addr(), "BROKEN\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        handle.stop();
        handle.stop(); // idempotent
        assert_eq!(handle.panicked(), 0);
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let mut handle = spawn(tiny_state(), &ServeConfig::default()).unwrap();
        // Terminated head with an oversized request line: rejected by
        // the parser (414).
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD + 10));
        let reply = roundtrip(handle.addr(), &huge);
        assert!(reply.starts_with("HTTP/1.1 414"), "{reply}");
        // A head that never terminates: rejected by the bounded read
        // loop (431) as soon as it crosses MAX_HEAD.
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.write_all("GET /".as_bytes()).unwrap();
        conn.write_all("y".repeat(MAX_HEAD + 8192).as_bytes())
            .unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        handle.stop();
    }

    #[test]
    fn slow_loris_is_cut_off_with_408() {
        let state = tiny_state();
        let mut handle = spawn(
            state.clone(),
            &ServeConfig {
                workers: Some(2),
                header_deadline: Duration::from_millis(80),
                request_deadline: Duration::from_millis(400),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        // Trickle one header byte at a time, slower than the deadline
        // allows the head to complete.
        let started = Instant::now();
        for b in b"GET /healthz HTTP/1.1\r\nhost: loris\r\n" {
            if conn.write_all(&[*b]).is_err() {
                break; // server already cut us off
            }
            std::thread::sleep(Duration::from_millis(10));
            if started.elapsed() > Duration::from_secs(2) {
                break;
            }
        }
        let mut out = String::new();
        let _ = conn.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        assert!(out.contains("\"kind\":\"deadline\""), "{out}");
        assert!(state.metrics.deadline_hits.load(Ordering::Relaxed) >= 1);
        handle.stop();
        assert_eq!(handle.panicked(), 0);
    }

    #[test]
    fn in_flight_cap_sheds_with_retry_after() {
        let state = tiny_state();
        // One worker and an in-flight cap of one: a second concurrent
        // connection must be shed, not queued.
        let mut handle = spawn(
            state.clone(),
            &ServeConfig {
                workers: Some(1),
                queue_depth: 1,
                max_in_flight: 1,
                header_deadline: Duration::from_millis(300),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Occupy the only worker with a connection that never finishes
        // its head.
        let holder = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let reply = roundtrip(handle.addr(), "GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        assert!(reply.contains("retry-after: 1"), "{reply}");
        assert!(reply.contains("\"kind\":\"overloaded\""), "{reply}");
        assert!(state.metrics.shed.load(Ordering::Relaxed) >= 1);
        drop(holder);
        handle.stop();
        assert_eq!(handle.panicked(), 0);
        assert_eq!(state.metrics.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drain_completes_in_flight_and_zeroes_counters() {
        let state = tiny_state();
        let mut handle = spawn(
            state.clone(),
            &ServeConfig {
                workers: Some(2),
                drain_deadline: Duration::from_millis(500),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        // A request already in flight when stop() lands must still get
        // its complete body.
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(b"GET /v1/t/findings HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).unwrap();
            out
        });
        std::thread::sleep(Duration::from_millis(20));
        handle.stop();
        let reply = client.join().unwrap();
        let (head, body) = reply.split_once("\r\n\r\n").expect("head/body");
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(body.len(), declared, "drained response was truncated");
        assert_eq!(handle.panicked(), 0);
        assert_eq!(state.metrics.in_flight.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.active_connections.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.drain_state(), "draining");
    }
}
