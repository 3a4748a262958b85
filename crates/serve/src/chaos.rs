//! Deterministic socket-level fault injection for the serve layer.
//!
//! The network-facing sibling of `records::corrupt`: where the ingest
//! corruptor mutates CSV bytes, this module drives *real TCP
//! connections* at a live server with a weighted mix of the client
//! behaviors that wedge naive servers — connect-then-idle holds,
//! byte-at-a-time slow-loris trickles, partial requests followed by an
//! abrupt reset, mid-response aborts, oversized header floods, and
//! corrupted request bytes.
//!
//! The plan is the shared [`hpcfail_exec::fault`] core (seed, rate,
//! weighted mix, shuffle) plus an op count; this module keeps only the
//! socket vocabulary and how each fault is thrown. Every decision
//! (fault vs. control, fault kind, cut points, flip positions) is drawn
//! from SplitMix64 seed streams, so a [`ChaosPlan`] is exactly
//! replayable: `(plan, control count)` fully determines the op
//! sequence [`plan_ops`] emits. Execution timing is
//! real wall clock — what stays deterministic is *what* is thrown at
//! the server and the acceptance contract checked afterwards:
//!
//! * the server never panics and never leaks a worker,
//! * shedding stays bounded and typed (`503` + `retry-after`),
//! * clean control requests keep being answered with bodies
//!   byte-identical to the fault-free responses, throughout.
//!
//! `tests/serve_chaos.rs` sweeps fault rates × mixes × shuffle over
//! this harness.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hpcfail_exec::fault::{shuffle, unit_f64};
use hpcfail_exec::{derive_stream_seed, splitmix64, FaultKind, FaultMix, FaultPlan};

/// One socket-level fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Connect, send nothing, hold the socket open, close.
    ConnectIdle,
    /// Slow-loris: send a valid request one byte at a time, usually
    /// giving up partway through.
    Trickle,
    /// Send a partial request, then drop the connection abruptly.
    PartialThenReset,
    /// Send a full request, read a few response bytes, drop.
    MidResponseAbort,
    /// Flood an oversized, never-terminating header.
    Flood,
    /// Send a valid request with seeded byte flips.
    CorruptBytes,
}

impl FaultKind for NetFault {
    const ALL: &'static [NetFault] = &[
        NetFault::ConnectIdle,
        NetFault::Trickle,
        NetFault::PartialThenReset,
        NetFault::MidResponseAbort,
        NetFault::Flood,
        NetFault::CorruptBytes,
    ];

    fn name(self) -> &'static str {
        match self {
            NetFault::ConnectIdle => "connect_idle",
            NetFault::Trickle => "trickle",
            NetFault::PartialThenReset => "partial_reset",
            NetFault::MidResponseAbort => "mid_response_abort",
            NetFault::Flood => "flood",
            NetFault::CorruptBytes => "corrupt_bytes",
        }
    }
}

/// Worker-hostage mix: idles and trickles dominate.
pub fn trickle_heavy() -> FaultMix<NetFault> {
    FaultMix::uniform()
        .with(NetFault::ConnectIdle, 3)
        .with(NetFault::Trickle, 4)
        .with(NetFault::Flood, 0)
}

/// Byte-pressure mix: floods and corruption dominate.
pub fn flood_heavy() -> FaultMix<NetFault> {
    FaultMix::uniform()
        .with(NetFault::ConnectIdle, 0)
        .with(NetFault::Flood, 4)
        .with(NetFault::CorruptBytes, 3)
}

/// A complete, replayable description of one chaos run: `(plan,
/// control-target count)` fully determines the op sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Root seed, per-op fault probability, fault mix, and whether the
    /// op order is shuffled.
    pub faults: FaultPlan<NetFault>,
    /// Total ops (faults + clean control requests).
    pub ops: usize,
}

impl ChaosPlan {
    /// A uniform-mix, unshuffled plan of 32 ops.
    pub fn new(seed: u64, rate: f64) -> ChaosPlan {
        ChaosPlan {
            faults: FaultPlan::new(seed, rate),
            ops: 32,
        }
    }
}

/// Renders `seed=… rate=… mix=[…] shuffle=… ops=…`.
impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ops={}", self.faults, self.ops)
    }
}

/// One planned op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosOp {
    /// A clean control request against `controls[pick]`; its body must
    /// be byte-identical to the recorded fault-free response.
    Control {
        /// Index into the control-target slice.
        pick: usize,
    },
    /// One injected fault with its own derived seed.
    Fault {
        /// The fault kind.
        fault: NetFault,
        /// Seed for the fault's internal decisions (cut points, flips).
        seed: u64,
    },
}

const PLAN_STREAM: u64 = 0xC4A0_57A6;
const SHUFFLE_STREAM: u64 = 0x5EED_F1A7;

/// Expand a plan into its op sequence — a pure function of `(plan,
/// controls)`, replayable forever.
pub fn plan_ops(plan: &ChaosPlan, controls: usize) -> Vec<ChaosOp> {
    let faults = &plan.faults;
    let mut stream = derive_stream_seed(faults.seed, PLAN_STREAM);
    let mut ops: Vec<ChaosOp> = (0..plan.ops)
        .map(|_| {
            let roll = unit_f64(splitmix64(&mut stream));
            // An all-zero mix spends no pick draw on the stream.
            let fault = if roll < faults.rate && faults.mix.total_weight() > 0 {
                faults.mix.pick(splitmix64(&mut stream))
            } else {
                None
            };
            match fault {
                Some(fault) => ChaosOp::Fault {
                    fault,
                    seed: splitmix64(&mut stream),
                },
                None => ChaosOp::Control {
                    pick: splitmix64(&mut stream) as usize % controls.max(1),
                },
            }
        })
        .collect();
    if faults.shuffle {
        let mut s = derive_stream_seed(faults.seed, SHUFFLE_STREAM);
        shuffle(&mut ops, |_| splitmix64(&mut s));
    }
    ops
}

/// Client-side timing knobs for a chaos run. All holds and gaps are
/// bounded, so a whole run's wall clock is bounded too.
#[derive(Debug, Clone)]
pub struct ChaosTiming {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-socket read/write timeout.
    pub io_timeout: Duration,
    /// How long a `ConnectIdle` fault holds its silent socket.
    pub idle_hold: Duration,
    /// Gap between bytes in a `Trickle` fault.
    pub trickle_gap: Duration,
    /// Max bytes a `Trickle` fault sends before giving up.
    pub trickle_max_bytes: usize,
    /// Control-request retry budget (shed/error → backoff → retry).
    pub retry_limit: u32,
    /// Cap on one backoff sleep (keeps tests fast while
    /// still honoring `retry-after` as the base).
    pub backoff_cap: Duration,
}

impl Default for ChaosTiming {
    fn default() -> Self {
        ChaosTiming {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(2),
            idle_hold: Duration::from_millis(100),
            trickle_gap: Duration::from_millis(2),
            trickle_max_bytes: 48,
            retry_limit: 8,
            backoff_cap: Duration::from_millis(50),
        }
    }
}

/// One clean-request target with its recorded fault-free body.
#[derive(Debug, Clone)]
pub struct ControlTarget {
    /// Request target (path + query), e.g. `/v1/synth/tbf`.
    pub target: String,
    /// The body a fault-free server returns for it, byte-exact.
    pub expected: String,
}

/// What one chaos run observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Clean control requests attempted.
    pub controls: u64,
    /// Controls answered 200 + byte-identical on the first try.
    pub ok_first_try: u64,
    /// Retry attempts spent across all controls.
    pub retries: u64,
    /// `503` sheds observed on the control path.
    pub shed_seen: u64,
    /// Controls whose 200 body differed from the fault-free body.
    pub mismatches: Vec<String>,
    /// Controls that never got a good answer within the retry budget.
    pub failures: Vec<String>,
    /// Faults injected.
    pub faults: u64,
    /// Injected-fault counts, indexed like [`FaultKind::ALL`].
    pub fault_counts: [u64; 6],
    /// End-to-end latency (ms, including retries) of every control
    /// that eventually succeeded.
    pub control_latencies_ms: Vec<f64>,
}

impl ChaosReport {
    /// First-try availability of clean requests: `ok_first_try /
    /// controls` (1.0 when no controls ran).
    pub fn availability(&self) -> f64 {
        if self.controls == 0 {
            return 1.0;
        }
        self.ok_first_try as f64 / self.controls as f64
    }

    /// Fold another report (a worker thread's share) into this one.
    pub(crate) fn merge(&mut self, other: ChaosReport) {
        self.controls += other.controls;
        self.ok_first_try += other.ok_first_try;
        self.retries += other.retries;
        self.shed_seen += other.shed_seen;
        self.mismatches.extend(other.mismatches);
        self.failures.extend(other.failures);
        self.faults += other.faults;
        for (into, from) in self.fault_counts.iter_mut().zip(other.fault_counts) {
            *into += from;
        }
        self.control_latencies_ms.extend(other.control_latencies_ms);
    }
}

/// Jittered exponential backoff honoring a server `retry-after` hint.
///
/// The delay doubles with `attempt`, never undercuts the hint (both
/// clamped to `cap` — tests cap at tens of milliseconds,
/// production clients can pass seconds), and jitters uniformly in
/// `[half, full]` off a SplitMix64 stream so replayed schedules are
/// deterministic and synchronized clients don't stampede in phase.
pub(crate) fn backoff_delay(
    attempt: u32,
    retry_after_secs: Option<u64>,
    cap: Duration,
    stream: &mut u64,
) -> Duration {
    let cap_ms = cap.as_millis().max(1) as u64;
    let hint_ms = retry_after_secs
        .map(|s| s.saturating_mul(1_000))
        .unwrap_or(0)
        .min(cap_ms);
    let exp_ms = 2u64
        .saturating_pow(attempt.min(16))
        .saturating_mul(2)
        .min(cap_ms);
    let full = hint_ms.max(exp_ms).max(1);
    let jittered = full / 2 + splitmix64(stream) % (full - full / 2 + 1);
    Duration::from_millis(jittered)
}

/// Issue one HTTP/1.1 GET and read the whole response. Returns
/// `(status, retry_after, body)`.
///
/// # Errors
///
/// Any socket-level failure (connect, send, read, or an unparsable
/// status line) as `std::io::Error`.
pub fn fetch(
    addr: SocketAddr,
    timing: &ChaosTiming,
    target: &str,
) -> std::io::Result<(u16, Option<u64>, String)> {
    let mut conn = TcpStream::connect_timeout(&addr, timing.connect_timeout)?;
    let _ = conn.set_read_timeout(Some(timing.io_timeout));
    let _ = conn.set_write_timeout(Some(timing.io_timeout));
    conn.write_all(format!("GET {target} HTTP/1.1\r\nhost: chaos\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no head/body split")
    })?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let retry_after = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())?
    });
    Ok((status, retry_after, body.to_string()))
}

/// What the chaos client saw for one request, retries included.
#[derive(Debug)]
pub struct Retried {
    /// The last attempt: the first answer that was not a `503` shed, or
    /// the final shed or socket error once the retry budget ran out.
    pub last: std::io::Result<(u16, Option<u64>, String)>,
    /// Attempts that were shed or failed at the socket; each was
    /// followed by a backoff sleep.
    pub retries: u64,
    /// The `503` sheds among them.
    pub shed: u64,
}

/// GET `target` on `timing`'s retry budget: a `503` shed backs off
/// honoring its `retry-after` hint, a transient socket error (accept
/// backlog churn) backs off on the same budget, and any other answer
/// returns at once. Backoff jitter draws from `rng`.
pub(crate) fn fetch_retrying(
    addr: SocketAddr,
    timing: &ChaosTiming,
    target: &str,
    rng: &mut u64,
) -> Retried {
    let mut out = Retried {
        last: Err(std::io::Error::other("retry budget is zero")),
        retries: 0,
        shed: 0,
    };
    for attempt in 0..timing.retry_limit {
        out.last = fetch(addr, timing, target);
        let hint = match &out.last {
            Ok((503, hint, _)) => {
                out.shed += 1;
                *hint
            }
            Ok(_) => break,
            Err(_) => None,
        };
        out.retries += 1;
        std::thread::sleep(backoff_delay(attempt, hint, timing.backoff_cap, rng));
    }
    out
}

/// Run a chaos plan against a live server with `threads` concurrent
/// injector threads (ops are dealt round-robin, so the partition is
/// deterministic even though wall-clock interleaving is not).
pub fn run_chaos(
    addr: SocketAddr,
    timing: &ChaosTiming,
    plan: &ChaosPlan,
    controls: &[ControlTarget],
    threads: usize,
) -> ChaosReport {
    assert!(
        !controls.is_empty(),
        "chaos needs at least one control target"
    );
    let ops = plan_ops(plan, controls.len());
    let threads = threads.clamp(1, 16);
    let shares: Vec<Vec<(usize, ChaosOp)>> = (0..threads)
        .map(|t| {
            ops.iter()
                .enumerate()
                .skip(t)
                .step_by(threads)
                .map(|(i, op)| (i, *op))
                .collect()
        })
        .collect();
    let mut report = ChaosReport::default();
    let partials = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut local = ChaosReport::default();
                    for &(i, op) in share {
                        let mut rng = derive_stream_seed(plan.faults.seed, 0xBAC_C0FF ^ i as u64);
                        execute_op(addr, timing, op, controls, &mut rng, &mut local);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos injector thread"))
            .collect::<Vec<_>>()
    });
    for partial in partials {
        report.merge(partial);
    }
    report
}

fn execute_op(
    addr: SocketAddr,
    timing: &ChaosTiming,
    op: ChaosOp,
    controls: &[ControlTarget],
    rng: &mut u64,
    report: &mut ChaosReport,
) {
    match op {
        ChaosOp::Control { pick } => run_control(addr, timing, &controls[pick], rng, report),
        ChaosOp::Fault { fault, seed } => {
            report.faults += 1;
            report.fault_counts[fault.index()] += 1;
            let mut s = seed;
            inject_fault(addr, timing, fault, &mut s, controls);
        }
    }
}

fn run_control(
    addr: SocketAddr,
    timing: &ChaosTiming,
    control: &ControlTarget,
    rng: &mut u64,
    report: &mut ChaosReport,
) {
    report.controls += 1;
    let t0 = Instant::now();
    let fetched = fetch_retrying(addr, timing, &control.target, rng);
    report.retries += fetched.retries;
    report.shed_seen += fetched.shed;
    match fetched.last {
        Ok((200, _, body)) if body == control.expected => {
            if fetched.retries == 0 {
                report.ok_first_try += 1;
            }
            report
                .control_latencies_ms
                .push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok((200, _, _)) => report.mismatches.push(format!(
            "{}: body diverged from the fault-free response",
            control.target
        )),
        // The retry budget ran out on a shed or a socket error.
        Ok((503, _, _)) | Err(_) => report.failures.push(control.target.clone()),
        Ok((status, _, _)) => report
            .mismatches
            .push(format!("{}: unexpected status {status}", control.target)),
    }
}

/// A structurally valid request to maul, aimed at a seeded control
/// target.
fn valid_request(controls: &[ControlTarget], s: &mut u64) -> Vec<u8> {
    let target = &controls[splitmix64(s) as usize % controls.len()].target;
    format!("GET {target} HTTP/1.1\r\nhost: chaos\r\naccept: application/json\r\n\r\n").into_bytes()
}

/// Throw one fault at the server. Every socket error is swallowed —
/// the *server's* reaction is what the harness certifies, and a peer
/// that cut us off early is a success for the server.
fn inject_fault(
    addr: SocketAddr,
    timing: &ChaosTiming,
    fault: NetFault,
    s: &mut u64,
    controls: &[ControlTarget],
) {
    let Ok(mut conn) = TcpStream::connect_timeout(&addr, timing.connect_timeout) else {
        return;
    };
    let _ = conn.set_read_timeout(Some(timing.io_timeout));
    let _ = conn.set_write_timeout(Some(timing.io_timeout));
    match fault {
        NetFault::ConnectIdle => {
            std::thread::sleep(timing.idle_hold);
        }
        NetFault::Trickle => {
            let bytes = valid_request(controls, s);
            let cut = (splitmix64(s) as usize % (bytes.len() + 1)).min(timing.trickle_max_bytes);
            for b in &bytes[..cut] {
                if conn.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(timing.trickle_gap);
            }
            // Usually gives up mid-head; when the cut covers the whole
            // request, collect the response like a (slow) client would.
            if cut == bytes.len() {
                let mut sink = Vec::new();
                let _ = conn.read_to_end(&mut sink);
            }
        }
        NetFault::PartialThenReset => {
            let bytes = valid_request(controls, s);
            let cut = 1 + splitmix64(s) as usize % (bytes.len() - 1);
            let _ = conn.write_all(&bytes[..cut]);
            // Abrupt drop with the request half-sent.
        }
        NetFault::MidResponseAbort => {
            let bytes = valid_request(controls, s);
            if conn.write_all(&bytes).is_ok() {
                let take = 1 + splitmix64(s) as usize % 32;
                let mut sink = vec![0u8; take];
                let _ = conn.read_exact(&mut sink);
            }
            // Drop with the rest of the response unread.
        }
        NetFault::Flood => {
            let chunk = [b'x'; 8192];
            let goal = crate::http::MAX_HEAD + 16 * 1024;
            let mut sent = 0usize;
            while sent < goal {
                match conn.write(&chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => sent += n,
                }
            }
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink); // expect a 431, best-effort
        }
        NetFault::CorruptBytes => {
            let mut bytes = valid_request(controls, s);
            let flips = 1 + splitmix64(s) as usize % 8;
            for _ in 0..flips {
                let pos = splitmix64(s) as usize % bytes.len();
                bytes[pos] = (splitmix64(s) % 256) as u8;
            }
            if conn.write_all(&bytes).is_ok() {
                let mut sink = Vec::new();
                let _ = conn.read_to_end(&mut sink); // 4xx or close, either is fine
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_replayable_and_rate_monotone() {
        let plan = ChaosPlan {
            ops: 200,
            ..ChaosPlan::new(42, 0.5)
        };
        assert_eq!(plan_ops(&plan, 4), plan_ops(&plan, 4));
        let faults = |rate: f64, shuffle: bool| {
            let mut plan = ChaosPlan {
                ops: 200,
                ..ChaosPlan::new(42, rate)
            };
            plan.faults.shuffle = shuffle;
            plan_ops(&plan, 4)
                .iter()
                .filter(|op| matches!(op, ChaosOp::Fault { .. }))
                .count()
        };
        assert_eq!(faults(0.0, false), 0);
        assert_eq!(faults(1.0, false), 200);
        let mid = faults(0.5, false);
        assert!((60..=140).contains(&mid), "{mid}");
        // Shuffle permutes, never changes the op multiset.
        assert_eq!(faults(0.5, true), mid);
    }

    #[test]
    fn zero_weight_mixes_never_emit_disabled_faults() {
        let mut plan = ChaosPlan {
            ops: 300,
            ..ChaosPlan::new(7, 1.0)
        };
        plan.faults.mix = flood_heavy();
        for op in plan_ops(&plan, 2) {
            if let ChaosOp::Fault { fault, .. } = op {
                assert_ne!(fault, NetFault::ConnectIdle, "weight 0 kind injected");
            }
        }
        // An all-zero mix degenerates to pure controls even at rate 1.
        let mut plan = ChaosPlan {
            ops: 50,
            ..ChaosPlan::new(7, 1.0)
        };
        plan.faults.mix = FaultMix::only(NetFault::Flood).with(NetFault::Flood, 0);
        assert!(plan_ops(&plan, 2)
            .iter()
            .all(|op| matches!(op, ChaosOp::Control { .. })));
    }

    #[test]
    fn backoff_honors_hint_and_cap_deterministically() {
        let cap = Duration::from_millis(50);
        let mut a = 9;
        let mut b = 9;
        for attempt in 0..6 {
            let da = backoff_delay(attempt, Some(1), cap, &mut a);
            let db = backoff_delay(attempt, Some(1), cap, &mut b);
            assert_eq!(da, db, "same stream, same delay");
            assert!(da <= cap);
            assert!(
                da >= Duration::from_millis(25),
                "{da:?} undercuts the capped hint"
            );
        }
        // Without a hint the first attempts are small.
        let mut s = 1;
        assert!(backoff_delay(0, None, cap, &mut s) <= Duration::from_millis(2));
    }

    #[test]
    fn report_merge_and_availability() {
        let mut a = ChaosReport {
            controls: 10,
            ok_first_try: 9,
            faults: 3,
            ..ChaosReport::default()
        };
        a.fault_counts[NetFault::Flood.index()] = 3;
        let mut b = ChaosReport {
            controls: 10,
            ok_first_try: 10,
            ..ChaosReport::default()
        };
        b.control_latencies_ms.push(1.5);
        a.merge(b);
        assert_eq!(a.controls, 20);
        assert!((a.availability() - 0.95).abs() < 1e-12);
        assert_eq!(a.fault_counts[NetFault::Flood.index()], 3);
        assert_eq!(ChaosReport::default().availability(), 1.0);
    }
}
