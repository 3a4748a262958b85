//! `serve_mixed`: hot and cold GETs plus reloads against `hpcfail serve`.
//!
//! The server runs in this process with a fixed worker count. Two
//! tenants, `hot` and `cold`, load the same packed site trace. A schedule
//! planned from the seed drives an open loop from two client threads: one
//! sends hot-class GETs (the 10-path `serve::load::stratum_pool`, always
//! cached after warm-up), the other sends cold-class GETs drawn from the
//! full stratum space and, about every 20 cold requests, a
//! `POST /v1/reload?trace=cold` that empties the cold tenant's cache, so
//! most cold GETs recompute. Every request is timed from when it was due,
//! not from when it was sent. A closed-loop window of hot GETs after each
//! open-loop segment measures capacity over HTTP, and an in-process window
//! after that times a fixed hot/cold/reload mix through `parse_request`
//! and `router::respond` without sockets. Every 200 or 422 body must equal
//! `router::respond` on a fresh state.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcfail_core::tbf::{self, View};
use hpcfail_core::{availability, findings, pernode, rates, repair};
use hpcfail_exec::{derive_stream_seed, splitmix64};
use hpcfail_records::store::checksum;
use hpcfail_records::{Catalog, RootCause, SystemId, TraceIndex, TraceStore};
use hpcfail_serve::load::stratum_pool;
use hpcfail_serve::router::respond;
use hpcfail_serve::{
    parse_request, render, spawn, AppState, ServeConfig, ServerHandle, TenantSource,
};
use hpcfail_synth::builder::ScenarioBuilder;

use crate::span::Tracer;
use crate::stats::{self, median_secs};
use crate::{repeated_setup, workers, Report, WorkDir};

/// Hot-class GETs per second in the open loop. One client thread carries
/// them over one connection at a time; above about 5k/s that thread, not
/// the server, becomes the bottleneck, so the rate stays well below the
/// closed-loop capacity (17k-28k/s on 2 cores).
pub const HOT_RATE: f64 = 3_000.0;
/// Cold-class GETs per second in the open loop: enough that even the
/// traced half of a 20 s run has over 1000, so its p99 has ten beyond it.
pub const COLD_RATE: f64 = 200.0;
/// A cold-stream arrival is a reload with probability 1 / this.
pub const RELOAD_EVERY: u64 = 20;
/// Hot GETs per cold GET in an in-process pass: the open loop's ratio.
const HOT_PER_COLD: usize = (HOT_RATE / COLD_RATE) as usize;
/// Share of `--seconds` spent in the open loop.
const OPEN_SHARE: f64 = 0.6;
/// Share of `--seconds` spent in closed-loop windows; in-process windows
/// get the rest.
const CLOSED_SHARE: f64 = 0.15;
/// Open-loop segments, each on a freshly started server and followed by
/// one closed-loop window; the capacity figure is the windows' median.
const SEGMENTS: usize = 10;

const HOT: &str = "hot";
const COLD: &str = "cold";

/// One cold-class stratum.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cold {
    Tbf {
        system: u32,
        pooled: bool,
        era: &'static str,
    },
    PerNode(u32),
    Rates(u32),
    Availability(u32),
    Repair(RootCause),
}

impl Cold {
    fn target(&self) -> String {
        match self {
            Cold::Tbf {
                system,
                pooled,
                era,
            } => format!(
                "/v1/{COLD}/tbf?system={system}&view={}&era={era}",
                if *pooled { "pooled" } else { "systemwide" }
            ),
            Cold::PerNode(s) => format!("/v1/{COLD}/pernode?system={s}"),
            Cold::Rates(s) => format!("/v1/{COLD}/rates?system={s}"),
            Cold::Availability(s) => format!("/v1/{COLD}/availability?system={s}"),
            Cold::Repair(c) => format!("/v1/{COLD}/repair?cause={}", c.name()),
        }
    }
}

/// The full cold stratum space: tbf over every system x view x era,
/// per-system pernode, rates and availability, and repair per cause.
fn cold_strata(catalog: &Catalog) -> Vec<Cold> {
    let mut out = Vec::new();
    for spec in catalog.systems() {
        let system = spec.id().get();
        for pooled in [false, true] {
            for era in ["all", "early", "late"] {
                out.push(Cold::Tbf {
                    system,
                    pooled,
                    era,
                });
            }
        }
        out.extend([
            Cold::PerNode(system),
            Cold::Rates(system),
            Cold::Availability(system),
        ]);
    }
    out.extend(RootCause::ALL.map(Cold::Repair));
    out
}

/// Request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
    Reload,
}

/// One planned request: when it is due (microseconds after the loop
/// starts), its class, and its index into the plan's target list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    pub due_us: u64,
    pub kind: Kind,
    pub target: usize,
}

/// The open-loop schedule: one stream per client thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Request targets; `Planned::target` indexes this.
    pub targets: Vec<String>,
    /// Hot-class stream.
    pub hot: Vec<Planned>,
    /// Cold-class and reload stream.
    pub cold: Vec<Planned>,
}

/// A uniform draw in (0, 1] from a SplitMix64 stream.
fn unit(stream: &mut u64) -> f64 {
    ((splitmix64(stream) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Poisson arrivals at `rate` per second over `seconds`, in microseconds.
fn arrivals(stream: &mut u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -unit(stream).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e6) as u64);
    }
}

/// Plan the open loop: a pure function of `(seed, seconds)`.
pub fn plan(seed: u64, seconds: f64) -> Plan {
    let hot_pool = stratum_pool(HOT);
    let cold = cold_strata(&Catalog::lanl());
    let mut targets = hot_pool.clone();
    targets.extend(cold.iter().map(Cold::target));
    targets.push(format!("/v1/reload?trace={COLD}"));
    let reload = targets.len() - 1;

    let mut s = derive_stream_seed(seed, 1);
    let hot = arrivals(&mut s, HOT_RATE, seconds)
        .into_iter()
        .map(|due_us| Planned {
            due_us,
            kind: Kind::Hot,
            target: (splitmix64(&mut s) % hot_pool.len() as u64) as usize,
        })
        .collect();
    let mut s = derive_stream_seed(seed, 2);
    let cold = arrivals(&mut s, COLD_RATE, seconds)
        .into_iter()
        .map(|due_us| {
            if splitmix64(&mut s).is_multiple_of(RELOAD_EVERY) {
                Planned {
                    due_us,
                    kind: Kind::Reload,
                    target: reload,
                }
            } else {
                Planned {
                    due_us,
                    kind: Kind::Cold,
                    target: hot_pool.len() + (splitmix64(&mut s) % cold.len() as u64) as usize,
                }
            }
        })
        .collect();
    Plan { targets, hot, cold }
}

/// Deterministic bytes of a plan.
pub fn plan_bytes(plan: &Plan) -> Vec<u8> {
    let mut out = Vec::new();
    for (stream, reqs) in [("hot", &plan.hot), ("cold", &plan.cold)] {
        for r in reqs.iter() {
            out.extend_from_slice(
                format!(
                    "{stream}\t{}\t{:?}\t{}\n",
                    r.due_us, r.kind, plan.targets[r.target]
                )
                .as_bytes(),
            );
        }
    }
    out
}

/// The bytes the generator sends for one request.
fn request_bytes(kind: Kind, target: &str) -> Vec<u8> {
    match kind {
        Kind::Reload => {
            format!("POST {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n")
        }
        _ => format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n"),
    }
    .into_bytes()
}

/// Send one request on a fresh connection; returns the status, 0 on a
/// socket error, and the body's checksum.
fn call(addr: SocketAddr, bytes: &[u8]) -> (u16, u64) {
    match exchange(addr, bytes) {
        Ok((status, body)) => (status, checksum(body.as_bytes())),
        Err(_) => (0, 0),
    }
}

fn exchange(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    conn.set_read_timeout(Some(Duration::from_secs(15)))?;
    conn.set_write_timeout(Some(Duration::from_secs(5)))?;
    conn.set_nodelay(true)?;
    conn.write_all(bytes)?;
    let mut raw = Vec::with_capacity(4096);
    conn.read_to_end(&mut raw)?;
    reset_on_close(&conn);
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no head/body split")
    })?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    Ok((status, body.to_string()))
}

/// Make dropping `conn` send a reset rather than a FIN. The server has
/// already closed its side, so the reset ends the connection without the
/// server socket entering TIME_WAIT; otherwise the tens of thousands of
/// connections one run makes would linger for a minute and slow the port
/// searches of every run that follows.
#[cfg(target_os = "linux")]
fn reset_on_close(conn: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is an open socket owned by `conn`, which
    // outlives the call, and `value` points to a live `struct linger` of
    // the length passed.
    unsafe {
        setsockopt(
            conn.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_conn: &TcpStream) {}

/// One completed request.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    target: usize,
    /// Send time minus due time, ms.
    lag_ms: f64,
    /// Completion minus due time, ms.
    latency_ms: f64,
    /// HTTP status, or 0 on a socket error.
    status: u16,
    body: u64,
}

impl Sample {
    fn ok(&self) -> bool {
        ok_status(self.status)
    }
}

/// Whether a status is an answer rather than a failure.
fn ok_status(status: u16) -> bool {
    status == 200 || status == 422
}

/// The request bytes of every plan target, by target index.
fn target_bytes(plan: &Plan) -> Vec<Vec<u8>> {
    plan.targets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            request_bytes(
                if i + 1 == plan.targets.len() {
                    Kind::Reload
                } else {
                    Kind::Hot
                },
                t,
            )
        })
        .collect()
}

/// The class of a plan target.
fn kind_of(plan: &Plan, target: usize) -> Kind {
    if target + 1 == plan.targets.len() {
        Kind::Reload
    } else if target < stratum_pool(HOT).len() {
        Kind::Hot
    } else {
        Kind::Cold
    }
}

/// Replay one stream of the plan against the server.
fn replay(
    addr: SocketAddr,
    plan: &Plan,
    stream: &[Planned],
    start: Instant,
    offset_us: u64,
    tracer: &Tracer,
) -> Vec<Sample> {
    let bytes = target_bytes(plan);
    let mut out = Vec::with_capacity(stream.len());
    for req in stream {
        let due = start + Duration::from_micros(req.due_us - offset_us);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (status, body) = call(addr, &bytes[req.target]);
        let done = Instant::now();
        let name = match req.kind {
            Kind::Hot => "serve.hot",
            Kind::Cold => "serve.cold",
            Kind::Reload => "serve.reload",
        };
        let request = req.due_us * 4 + req.kind as u64;
        tracer.record(name, request, due, done);
        out.push(Sample {
            kind: req.kind,
            target: req.target,
            lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
            status,
            body,
        });
    }
    out
}

/// Answers counted by (plan target, status, body checksum), so that a
/// window's checks cost memory per distinct answer, not per request.
type Tally = BTreeMap<(usize, u16, u64), u64>;

/// What one segmented phase measured.
struct Phase {
    /// Open-loop samples.
    open: Vec<Sample>,
    /// Closed-loop answers.
    closed: Tally,
    /// Completed requests per second of each closed-loop window.
    window_rates: Vec<f64>,
    /// Cache hits and misses during the open loop.
    open_hits: u64,
    open_misses: u64,
    /// In-process answers.
    inproc: Tally,
    /// Parse and respond seconds of each in-process pass.
    inproc_passes: Vec<f64>,
}

/// Seconds of one phase spent in each part, summed over its segments.
#[derive(Debug, Clone, Copy)]
struct Split {
    open: f64,
    closed: f64,
    inproc: f64,
}

/// Run the open loop in [`SEGMENTS`] consecutive segments, each on a
/// freshly started server over the same state, with both streams at once,
/// one client thread each. After each segment, when `split.closed` is
/// positive, one closed-loop window of `split.closed / SEGMENTS` runs on
/// the same server, and then, with the server stopped, one in-process
/// window of `split.inproc / SEGMENTS` repeats `pass`. Restarting the
/// server re-draws which cores its threads share with the clients, which
/// otherwise holds for a whole run; spreading the windows over the run
/// keeps a host stall of a few seconds from moving most of them.
fn segments(
    state: &Arc<AppState>,
    plan: &Plan,
    pass: &[usize],
    split: Split,
    tracer: &Tracer,
    seed: u64,
) -> Result<Phase, String> {
    let segment_us = (split.open * 1e6 / SEGMENTS as f64).ceil() as u64;
    let mut phase = Phase {
        open: Vec::with_capacity(plan.hot.len() + plan.cold.len()),
        closed: Tally::new(),
        window_rates: Vec::with_capacity(SEGMENTS),
        open_hits: 0,
        open_misses: 0,
        inproc: Tally::new(),
        inproc_passes: Vec::new(),
    };
    let cache = &state.cache;
    for k in 0..SEGMENTS as u64 {
        let (from, to) = (k * segment_us, (k + 1) * segment_us);
        let part = |stream: &'_ [Planned]| {
            let lo = stream.partition_point(|r| r.due_us < from);
            let hi = stream.partition_point(|r| r.due_us < to);
            stream[lo..hi].to_vec()
        };
        let (hot, cold) = (part(&plan.hot), part(&plan.cold));
        let server = start(state)?;
        let addr = server.addr();
        let (h0, m0) = (cache.hits(), cache.misses());
        let start = Instant::now() + Duration::from_millis(20);
        std::thread::scope(|scope| {
            let h = scope.spawn(|| replay(addr, plan, &hot, start, from, tracer));
            let c = scope.spawn(|| replay(addr, plan, &cold, start, from, tracer));
            phase.open.extend(h.join().expect("hot client thread"));
            phase.open.extend(c.join().expect("cold client thread"));
        });
        phase.open_hits += cache.hits() - h0;
        phase.open_misses += cache.misses() - m0;
        if split.closed > 0.0 {
            let t0 = Instant::now();
            let got = closed_loop(
                addr,
                plan,
                split.closed / SEGMENTS as f64,
                derive_stream_seed(seed, 100 + k),
            );
            let ok: u64 = got
                .iter()
                .filter(|((_, status, _), _)| ok_status(*status))
                .map(|(_, n)| n)
                .sum();
            phase
                .window_rates
                .push(ok as f64 / t0.elapsed().as_secs_f64());
            merge(&mut phase.closed, got);
        }
        drop(server);
        if split.inproc > 0.0 {
            phase.inproc_passes.extend(inproc_window(
                state,
                plan,
                pass,
                split.inproc / SEGMENTS as f64,
                &mut phase.inproc,
            ));
        }
    }
    Ok(phase)
}

/// Add the counts of `from` to `into`.
fn merge(into: &mut Tally, from: Tally) {
    for (key, n) in from {
        *into.entry(key).or_default() += n;
    }
}

/// Closed loop: `workers()` clients send hot GETs back to back for
/// `seconds`; returns their answers.
fn closed_loop(addr: SocketAddr, plan: &Plan, seconds: f64, stream: u64) -> Tally {
    let hot = stratum_pool(HOT).len() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers() as u64)
            .map(|client| {
                scope.spawn(move || {
                    let mut s = derive_stream_seed(stream, client);
                    let mut out = Tally::new();
                    while Instant::now() < deadline {
                        let target = (splitmix64(&mut s) % hot) as usize;
                        let (status, body) =
                            call(addr, &request_bytes(Kind::Hot, &plan.targets[target]));
                        *out.entry((target, status, body)).or_default() += 1;
                    }
                    out
                })
            })
            .collect();
        let mut all = Tally::new();
        for h in handles {
            merge(&mut all, h.join().expect("closed-loop client thread"));
        }
        all
    })
}

/// One in-process pass: every cold stratum once, in an order shuffled by
/// the seed, each after [`HOT_PER_COLD`] hot GETs cycling through the hot
/// pool, and a reload after every [`RELOAD_EVERY`] cold GETs. Only the
/// order depends on the seed, so every seed times the same mix.
pub fn inproc_pass(plan: &Plan, seed: u64) -> Vec<usize> {
    let hot = stratum_pool(HOT).len();
    let reload = plan.targets.len() - 1;
    let mut cold: Vec<usize> = (hot..reload).collect();
    let mut s = derive_stream_seed(seed, 3);
    for i in (1..cold.len()).rev() {
        cold.swap(i, (splitmix64(&mut s) % (i as u64 + 1)) as usize);
    }
    let mut out = Vec::with_capacity(cold.len() * (HOT_PER_COLD + 2));
    for (i, target) in cold.into_iter().enumerate() {
        out.extend((0..HOT_PER_COLD).map(|h| (i * HOT_PER_COLD + h) % hot));
        out.push(target);
        if (i + 1) % RELOAD_EVERY as usize == 0 {
            out.push(reload);
        }
    }
    out
}

/// In-process window: whole passes of `pass`, each request parsed with
/// `parse_request` and answered with `router::respond` on `state` from one
/// thread, with no sockets, until `seconds` have passed (at least one
/// pass). Returns each pass's time spent in those two calls, in seconds;
/// checksumming the answers is not timed.
fn inproc_window(
    state: &AppState,
    plan: &Plan,
    pass: &[usize],
    seconds: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let bytes = target_bytes(plan);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        let mut busy = Duration::ZERO;
        for &target in pass {
            let t0 = Instant::now();
            let answer = parse_request(&bytes[target]).map(|req| respond(state, &req));
            busy += t0.elapsed();
            let key = match answer {
                Ok(resp) => (target, resp.status, checksum(resp.body.as_bytes())),
                Err(_) => (target, 0, 0),
            };
            *tally.entry(key).or_default() += 1;
        }
        passes.push(busy.as_secs_f64());
    }
    passes
}

/// A served site: the packed trace file and the live state.
struct Served {
    hpct: PathBuf,
    state: Arc<AppState>,
}

/// Start a server over `state` with the fixed worker count.
fn start(state: &Arc<AppState>) -> Result<ServerHandle, String> {
    spawn(
        state.clone(),
        &ServeConfig {
            workers: Some(workers()),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("spawn: {e}"))
}

fn load_state(hpct: &Path) -> Result<Arc<AppState>, String> {
    let state = AppState::new();
    for name in [HOT, COLD] {
        state
            .registry
            .insert(name, TenantSource::File(hpct.to_path_buf()))
            .map_err(|e| format!("tenant {name}: {e}"))?;
    }
    Ok(Arc::new(state))
}

/// Synthesize and pack the site, load both tenants, spawn the server,
/// and warm the hot pool.
fn setup(seed: u64, work: &WorkDir) -> Result<Served, String> {
    let trace = ScenarioBuilder::lanl()
        .seed(seed)
        .build_site()
        .map_err(|e| format!("site synthesis: {e}"))?;
    let hpct = work.path("site.hpct");
    TraceStore::write(&trace.index(), &hpct).map_err(|e| format!("pack: {e}"))?;
    let state = load_state(&hpct)?;
    let server = start(&state)?;
    for target in stratum_pool(HOT) {
        let (status, _) = call(server.addr(), &request_bytes(Kind::Hot, &target));
        if status != 200 && status != 422 {
            return Err(format!("warm-up {target}: status {status}"));
        }
    }
    drop(server);
    Ok(Served { hpct, state })
}

/// Reference answers: plan target index -> (status, body checksum).
type Answers = BTreeMap<usize, (u16, u64)>;

/// Reference answers from `router::respond` on a fresh state, with the
/// time each cold one took (every call is a cache miss).
fn reference(hpct: &Path, plan: &Plan, tracer: &Tracer) -> Result<(Answers, Vec<f64>), String> {
    let fresh = load_state(hpct)?;
    let mut answers = BTreeMap::new();
    let mut miss_ms = Vec::new();
    let hot = stratum_pool(HOT).len();
    for (i, target) in plan.targets.iter().enumerate().take(plan.targets.len() - 1) {
        let req = parse_request(&request_bytes(Kind::Hot, target)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let resp = tracer.span("serve.respond_miss", i as u64, || respond(&fresh, &req));
        if i >= hot {
            miss_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        answers.insert(i, (resp.status, checksum(resp.body.as_bytes())));
    }
    Ok((answers, miss_ms))
}

/// Check answers against the reference; count attempts and failures.
/// `seen` yields (plan target, status, body checksum, times answered).
fn check(
    seen: impl IntoIterator<Item = (usize, u16, u64, u64)>,
    answers: &Answers,
    plan: &Plan,
    phase: &str,
    report: &mut Report,
) {
    for (target, got_status, got_body, n) in seen {
        report.attempted += n;
        let kind = kind_of(plan, target);
        if !ok_status(got_status) || (kind == Kind::Reload && got_status != 200) {
            report.failed += n;
            continue;
        }
        if kind == Kind::Reload {
            continue;
        }
        match answers.get(&target) {
            Some(&(status, body)) if status == got_status && body == got_body => {}
            _ => report.mismatch(format!(
                "{phase}: {} answered {got_status} with a body that differs from router::respond",
                plan.targets[target]
            )),
        }
    }
}

/// Open-loop samples as [`check`] items.
fn samples_seen(samples: &[Sample]) -> impl Iterator<Item = (usize, u16, u64, u64)> + '_ {
    samples.iter().map(|s| (s.target, s.status, s.body, 1))
}

/// A tally as [`check`] items.
fn tally_seen(tally: &Tally) -> impl Iterator<Item = (usize, u16, u64, u64)> + '_ {
    tally.iter().map(|(&(target, status, body), &n)| (target, status, body, n))
}

/// Latencies of one class, failed requests counting as infinitely slow.
fn latencies(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| if s.ok() { s.latency_ms } else { f64::INFINITY })
        .collect()
}

/// Summary of one open loop.
struct LoopFigures {
    hot_p50: f64,
    hot_p99: f64,
    cold_p50: f64,
    cold_p99: f64,
    reload_p50: f64,
    lag_p99: f64,
    counts: [usize; 3],
    cold_misses: u64,
    hits: u64,
}

fn summarize(samples: &[Sample], hits: u64, misses: u64) -> LoopFigures {
    let hot = latencies(samples, Kind::Hot);
    let cold = latencies(samples, Kind::Cold);
    let reload = latencies(samples, Kind::Reload);
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    let nan = f64::NAN;
    LoopFigures {
        hot_p50: stats::median(&hot).unwrap_or(nan),
        hot_p99: stats::tail(&hot, 0.99).unwrap_or(nan),
        cold_p50: stats::median(&cold).unwrap_or(nan),
        cold_p99: stats::tail(&cold, 0.99).unwrap_or(nan),
        reload_p50: stats::median(&reload).unwrap_or(nan),
        lag_p99: stats::tail(&lag, 0.99).unwrap_or(nan),
        counts: [hot.len(), cold.len(), reload.len()],
        cold_misses: misses,
        hits,
    }
}

/// Run one segmented phase on `served` and summarize its open loop.
fn measured_phase(
    served: &Served,
    plan: &Plan,
    pass: &[usize],
    split: Split,
    tracer: &Tracer,
    seed: u64,
) -> Result<(Phase, LoopFigures), String> {
    let phase = segments(&served.state, plan, pass, split, tracer, seed)?;
    let figures = summarize(&phase.open, phase.open_hits, phase.open_misses);
    Ok((phase, figures))
}



/// Run the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    work: &WorkDir,
    tracer: &Tracer,
) -> Result<(Report, f64), String> {
    let (served, setup_s) = repeated_setup(|| setup(seed, work))?;
    let mut report = Report::default();
    let open_seconds = seconds * OPEN_SHARE;
    let open = if tracer.enabled() {
        open_seconds / 2.0
    } else {
        open_seconds
    };
    let plan = plan(seed, open);
    let plan_digest = checksum(&plan_bytes(&plan));
    println!(
        "plan {} hot + {} cold/reload requests over {open:.1} s, digest {plan_digest:016x}",
        plan.hot.len(),
        plan.cold.len()
    );
    let untraced = Tracer::new(false);
    let pass = inproc_pass(&plan, seed);
    let split = Split {
        open,
        closed: seconds * CLOSED_SHARE,
        inproc: seconds * (1.0 - OPEN_SHARE - CLOSED_SHARE),
    };
    let (base_phase, base) = measured_phase(&served, &plan, &pass, split, &untraced, seed)?;
    let traced = if tracer.enabled() {
        let open_only = Split {
            closed: 0.0,
            inproc: 0.0,
            ..split
        };
        Some(measured_phase(&served, &plan, &pass, open_only, tracer, seed)?)
    } else {
        None
    };
    let shown: Vec<String> = base_phase
        .window_rates
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("capacity windows (1/s): {}", shown.join(" "));
    let shown: Vec<String> = base_phase
        .inproc_passes
        .iter()
        .map(|p| format!("{:.1}", p * 1e3))
        .collect();
    println!("inproc passes (ms): {}", shown.join(" "));
    let capacity_rps = stats::median(&base_phase.window_rates).expect("windows ran");
    let passes = &base_phase.inproc_passes;
    let best_s = passes.iter().copied().fold(f64::INFINITY, f64::min);
    let inproc_rps = pass.len() as f64 / best_s;
    let samples = base_phase.open;
    let shed = served.state.metrics.shed.load(Ordering::Relaxed);
    let deadline_hits = served.state.metrics.deadline_hits.load(Ordering::Relaxed);

    let (answers, miss_ms) = reference(&served.hpct, &plan, tracer)?;
    check(samples_seen(&samples), &answers, &plan, "open loop", &mut report);
    if let Some((traced_phase, _)) = &traced {
        check(
            samples_seen(&traced_phase.open),
            &answers,
            &plan,
            "traced open loop",
            &mut report,
        );
    }
    check(
        tally_seen(&base_phase.closed),
        &answers,
        &plan,
        "closed loop",
        &mut report,
    );
    check(
        tally_seen(&base_phase.inproc),
        &answers,
        &plan,
        "in-process",
        &mut report,
    );

    let [hot_n, cold_n, reload_n] = base.counts;
    report.figure("serve.workers", workers() as f64, "count", 1);
    report.figure("serve.hot_rate", HOT_RATE, "1/s", 1);
    report.figure("serve.cold_rate", COLD_RATE, "1/s", 1);
    report.figure("serve.hot_p50_ms", base.hot_p50, "ms", hot_n);
    report.figure("serve.hot_p99_ms", base.hot_p99, "ms", hot_n);
    report.figure("serve.cold_p50_ms", base.cold_p50, "ms", cold_n);
    report.figure("serve.cold_p99_ms", base.cold_p99, "ms", cold_n);
    report.figure("serve.reload_p50_ms", base.reload_p50, "ms", reload_n);
    report.figure("serve.hot_capacity_rps", capacity_rps, "1/s", SEGMENTS);
    report.figure("serve.inproc_rps", inproc_rps, "1/s", passes.len());
    report.figure("bench.gen_lag_p99_ms", base.lag_p99, "ms", samples.len());
    report.figure(
        "serve.cold_miss_ratio",
        base.cold_misses as f64 / cold_n.max(1) as f64,
        "ratio",
        cold_n,
    );
    report.figure("serve.shed", shed as f64, "count", 1);
    report.figure("serve.deadline_hits", deadline_hits as f64, "count", 1);

    if let Some((_, t)) = traced {
        report.layer(
            "trace.overhead_share",
            t.cold_p50 / base.cold_p50 - 1.0,
            t.counts[1],
        );
        report.layer("serve.hot_p99_ms", t.hot_p99, t.counts[0]);
        report.layer("serve.cold_p99_ms", t.cold_p99, t.counts[1]);
        report.layer("bench.gen_lag_p99_ms", t.lag_p99, t.counts.iter().sum());
        report.layer("serve.cache_hits", t.hits as f64, 1);
        report.layer("serve.cache_misses", t.cold_misses as f64, 1);
        report.layer(
            "serve.cold_miss_ratio",
            t.cold_misses as f64 / t.counts[1].max(1) as f64,
            t.counts[1],
        );
        report.layer("serve.shed", shed as f64, 1);
        report.layer("serve.deadline_hits", deadline_hits as f64, 1);
        report.layer(
            "serve.respond_miss_ms",
            stats::median(&miss_ms).unwrap_or(0.0),
            miss_ms.len(),
        );
        layers(&served, &plan, t.hot_p50, tracer, &mut report)?;
    }
    Ok((report, setup_s))
}

/// Direct calls into the layers a request passes through.
fn layers(
    served: &Served,
    plan: &Plan,
    hot_p50_ms: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let hot_targets = &plan.targets[..stratum_pool(HOT).len()];
    let mut i = 0;
    let parse_us = 1e6
        * median_secs(2_000, || {
            let bytes = request_bytes(Kind::Hot, &hot_targets[i % hot_targets.len()]);
            i += 1;
            std::hint::black_box(parse_request(std::hint::black_box(&bytes)).ok());
        });
    report.layer("serve.http_parse_us", parse_us, 2_000);

    let requests: Vec<_> = hot_targets
        .iter()
        .map(|t| parse_request(&request_bytes(Kind::Hot, t)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut i = 0;
    let hit_us = 1e6
        * median_secs(2_000, || {
            let req = &requests[i % requests.len()];
            i += 1;
            std::hint::black_box(
                tracer.span("serve.respond_hit", 0, || respond(&served.state, req)),
            );
        });
    report.layer("serve.respond_hit_us", hit_us, 2_000);
    report.layer("serve.net_overhead_ms", hot_p50_ms - hit_us / 1e3, 1);

    // The cold analyses, called directly on the cold tenant's index, and
    // their rendering.
    let tenant = served
        .state
        .registry
        .get(COLD)
        .ok_or("cold tenant missing")?;
    let index = tenant.index();
    let catalog = Catalog::lanl();
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut render_ms = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Option<hpcfail_serve::Json>| {
        let t0 = Instant::now();
        let doc = tracer.span(name, 0, &mut *f);
        by_kind
            .entry(name)
            .or_default()
            .push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(doc) = doc {
            let t0 = Instant::now();
            std::hint::black_box(tracer.span("serve.render", 0, || doc.render()));
            render_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    };
    for stratum in cold_strata(&catalog) {
        match stratum {
            Cold::Tbf {
                system,
                pooled,
                era,
            } => {
                let id = SystemId::new(system);
                let view = if pooled {
                    View::PooledNodes(id)
                } else {
                    View::SystemWide(id)
                };
                let window = match era {
                    "early" => Some(tbf::paper_era_split().0),
                    "late" => Some(tbf::paper_era_split().1),
                    _ => None,
                };
                timed("core.cold.tbf", &mut || {
                    tbf::analyze_indexed(index, view, window)
                        .ok()
                        .map(|a| render::tbf_json(&a))
                });
            }
            Cold::PerNode(s) => timed("core.cold.pernode", &mut || {
                pernode::analyze_indexed(index, &catalog, SystemId::new(s))
                    .ok()
                    .map(|a| render::pernode_json(&a))
            }),
            Cold::Rates(s) => timed("core.cold.rates", &mut || {
                rates::analyze_indexed(index, &catalog)
                    .ok()
                    .and_then(|a| a.system(SystemId::new(s)).map(render::rate_system_json))
            }),
            Cold::Availability(s) => timed("core.cold.availability", &mut || {
                availability::analyze_indexed(index, &catalog)
                    .ok()
                    .and_then(|rows| {
                        rows.iter()
                            .find(|r| r.system.get() == s)
                            .map(render::availability_system_json)
                    })
            }),
            Cold::Repair(cause) => timed("core.cold.repair", &mut || {
                repair::by_cause_indexed(index)
                    .ok()
                    .map(|t| render::repair_cause_json(cause, &t))
            }),
        }
    }
    for _ in 0..5 {
        timed("core.cold.findings", &mut || {
            findings::evaluate_indexed(index, &catalog)
                .ok()
                .map(|f| render::findings_json(&f))
        });
    }
    for (span, metric) in [
        ("core.cold.tbf", "core.cold.tbf_ms"),
        ("core.cold.repair", "core.cold.repair_ms"),
        ("core.cold.rates", "core.cold.rates_ms"),
        ("core.cold.availability", "core.cold.availability_ms"),
        ("core.cold.pernode", "core.cold.pernode_ms"),
        ("core.cold.findings", "core.cold.findings_ms"),
    ] {
        let ms = by_kind.get(span).map(Vec::as_slice).unwrap_or(&[]);
        report.layer(metric, stats::median(ms).unwrap_or(0.0), ms.len());
    }
    report.layer(
        "serve.render_ms",
        stats::median(&render_ms).unwrap_or(0.0),
        render_ms.len(),
    );

    let open_ms = 1e3
        * median_secs(15, || {
            tracer.span("records.store_open", 0, || {
                let bytes = std::fs::read(&served.hpct).expect("packed site written in setup");
                let loaded = TraceStore::from_bytes(&bytes).expect("packed site reopens");
                let (trace, parts) = loaded.into_parts();
                std::hint::black_box(TraceIndex::from_parts(&trace, parts).len());
            });
        });
    report.layer("records.store_open_ms", open_ms, 15);
    let fresh = load_state(&served.hpct)?;
    let reload_ms = 1e3
        * median_secs(15, || {
            std::hint::black_box(tracer.span("serve.registry_reload", 0, || {
                fresh.registry.reload(COLD).is_ok()
            }));
        });
    report.layer("serve.reload_ms", reload_ms, 15);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        let a = plan(42, 2.0);
        assert_eq!(plan_bytes(&a), plan_bytes(&plan(42, 2.0)));
        assert_ne!(plan_bytes(&a), plan_bytes(&plan(43, 2.0)));
        // Rates land near their targets and due times are ordered.
        let hot = a.hot.len() as f64 / 2.0;
        assert!((hot / HOT_RATE - 1.0).abs() < 0.1, "hot rate {hot}");
        let cold = a.cold.len() as f64 / 2.0;
        assert!((cold / COLD_RATE - 1.0).abs() < 0.25, "cold rate {cold}");
        for stream in [&a.hot, &a.cold] {
            assert!(stream.windows(2).all(|w| w[0].due_us <= w[1].due_us));
            assert!(stream.iter().all(|r| r.due_us < 2_000_000));
        }
        let reloads = a.cold.iter().filter(|r| r.kind == Kind::Reload).count();
        assert!(
            reloads > 0 && reloads < a.cold.len() / 5,
            "{reloads} reloads"
        );
        assert!(a.hot.iter().all(|r| r.kind == Kind::Hot && r.target < 10));
    }

    #[test]
    fn inproc_passes_time_the_same_mix_for_every_seed() {
        let p = plan(1, 1.0);
        let (a, b) = (inproc_pass(&p, 1), inproc_pass(&p, 2));
        assert_ne!(a, b);
        let sorted = |v: &[usize]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&b));
        let count = |kind| a.iter().filter(|&&t| kind_of(&p, t) == kind).count();
        let strata = cold_strata(&Catalog::lanl()).len();
        let cold: std::collections::BTreeSet<usize> = a
            .iter()
            .copied()
            .filter(|&t| kind_of(&p, t) == Kind::Cold)
            .collect();
        assert_eq!((cold.len(), count(Kind::Cold)), (strata, strata));
        assert_eq!(count(Kind::Hot), strata * HOT_PER_COLD);
        assert_eq!(count(Kind::Reload), strata / RELOAD_EVERY as usize);
    }

    #[test]
    fn cold_space_covers_every_stratum_once() {
        let strata = cold_strata(&Catalog::lanl());
        let targets: std::collections::BTreeSet<String> = strata.iter().map(Cold::target).collect();
        assert_eq!(targets.len(), strata.len());
        assert_eq!(strata.len(), 22 * 9 + 6);
    }

    #[test]
    fn request_bytes_parse_back() {
        let get = parse_request(&request_bytes(Kind::Cold, "/v1/cold/pernode?system=20")).unwrap();
        assert_eq!(get.path, ["v1", "cold", "pernode"]);
        let post = parse_request(&request_bytes(Kind::Reload, "/v1/reload?trace=cold")).unwrap();
        assert_eq!(post.query, [("trace".to_string(), "cold".to_string())]);
    }
}
