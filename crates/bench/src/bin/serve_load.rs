//! Load harness for `hpcfail serve`: drives a live server over real
//! TCP with 1, 8, and 64 concurrent clients — plus an 8-client phase
//! with tenant reloads racing the queries — and records req/s and
//! p50/p95/p99 latencies to `experiments/BENCH_serve.json`.
//!
//! ```sh
//! cargo run -p hpcfail-bench --release --bin serve_load
//! ```
//!
//! The request schedule (paths *and* think times) is planned up front
//! from SplitMix64 seed streams (`hpcfail_serve::load`), so the
//! workload is a pure function of the seed no matter how many worker
//! threads (`HPCFAIL_THREADS`) serve it — only the measured latencies
//! vary run to run. Clients draw from a small fixed stratum pool, so
//! after the first computation of each stratum every response is a
//! cache hit; the run fails loudly if the hit rate lands under the 95%
//! acceptance floor.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcfail_exec::{derive_stream_seed, FaultMix, FaultPlan};
use hpcfail_records::SystemId;
use hpcfail_serve::chaos::{
    fetch, fetch_retrying, flood_heavy, run_chaos, trickle_heavy, ChaosPlan, ChaosTiming,
    ControlTarget,
};
use hpcfail_serve::load::{percentile_nearest_rank, plan_workload, PlannedRequest};
use hpcfail_serve::{spawn, AppState, Json, NetFault, ServeConfig, TenantSource};

const SEED: u64 = 42;
const TENANT: &str = "synth";
/// Stream tag for per-client backoff jitter (distinct from the
/// workload-planner streams in `hpcfail_serve::load`).
const BACKOFF_STREAM: u64 = 0xB0FF_5EED;

fn main() {
    let trace = hpcfail_synth::scenario::system_trace(SystemId::new(20), SEED)
        .expect("synthetic system 20");
    let state = AppState::new();
    state
        .registry
        .insert(TENANT, TenantSource::Static(Arc::new(trace)))
        .expect("tenant");
    let state = Arc::new(state);
    let handle = spawn(state.clone(), &ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();
    let workers = hpcfail_exec::ParallelExecutor::from_env().workers();
    eprintln!("serve_load: {addr} with {workers} server workers");

    // Warm the cache once so the steady phases measure the served path,
    // not the first computation of each stratum.
    let mut warm_rng = derive_stream_seed(SEED, BACKOFF_STREAM);
    let mut warm = ClientRun {
        latencies: Vec::new(),
        retries: 0,
        shed: 0,
    };
    for req in &plan_workload(SEED, 1, 40, TENANT)[0] {
        let _ = query(addr, &req.path, &mut warm_rng, &mut warm);
    }

    let mut rows = Vec::new();
    for clients in [1u64, 8, 64] {
        let requests = if clients == 64 { 25 } else { 100 };
        rows.push(run_phase("steady", addr, clients, requests, None));
    }

    // Reload phase: 8 clients querying while the tenant is reloaded
    // mid-run — in-flight readers keep the old index, new requests see
    // the new generation, and nobody blocks for long.
    let reload_state = state.clone();
    rows.push(run_phase(
        "reload",
        addr,
        8,
        100,
        Some(Box::new(move |stop: &AtomicBool| {
            let mut reloads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                reload_state.registry.reload(TENANT).expect("reload");
                reload_state.cache.invalidate_tenant(TENANT);
                reloads += 1;
                std::thread::sleep(Duration::from_millis(40));
            }
            reloads
        })),
    ));

    // Degraded-mode phases: a seeded socket-level fault storm
    // (`hpcfail_serve::chaos`) runs against the live server while clean
    // control requests measure first-try availability and end-to-end
    // latency (retries included, backoff honoring `retry-after`).
    for (i, (mix_name, mix, rate)) in [
        ("uniform", FaultMix::uniform(), 0.3),
        ("trickle_heavy", trickle_heavy(), 0.7),
        ("flood_heavy", flood_heavy(), 0.7),
    ]
    .into_iter()
    .enumerate()
    {
        rows.push(run_chaos_phase(addr, i as u64, mix_name, mix, rate));
    }

    let hits = state.cache.hits();
    let misses = state.cache.misses();
    let hit_rate = state.cache.hit_rate();
    assert!(
        hit_rate >= 0.95,
        "cache hit rate {hit_rate:.3} fell below the 95% acceptance floor"
    );

    let doc = Json::obj([
        ("bench", Json::str("serve_load")),
        (
            "command",
            Json::str("cargo run -p hpcfail-bench --release --bin serve_load"),
        ),
        ("recorded", Json::str(today())),
        ("seed", Json::UInt(SEED)),
        ("server_workers", Json::UInt(workers as u64)),
        ("tenant", Json::str(TENANT)),
        ("rows", Json::arr(rows)),
        (
            "cache",
            Json::obj([
                ("hits", Json::UInt(hits)),
                ("misses", Json::UInt(misses)),
                ("hit_rate", Json::Num(hit_rate)),
            ]),
        ),
        (
            "determinism",
            Json::str(
                "Request schedule is a pure function of the seed via SplitMix64 \
                 streams (locked by tests/serve_determinism.rs); only measured \
                 latencies vary run to run.",
            ),
        ),
    ]);
    let out = "experiments/BENCH_serve.json";
    std::fs::write(out, format!("{}\n", pretty(&doc.render()))).expect("write BENCH_serve.json");
    eprintln!("serve_load: wrote {out} (hit rate {hit_rate:.3})");
}

type Disruptor = Box<dyn FnOnce(&AtomicBool) -> u64 + Send>;

/// Run one phase: every client replays its planned schedule against the
/// live server; an optional disruptor thread (the reloader) runs
/// alongside. Returns the row to record.
fn run_phase(
    phase: &str,
    addr: SocketAddr,
    clients: u64,
    requests: usize,
    disruptor: Option<Disruptor>,
) -> Json {
    let plan = plan_workload(SEED, clients, requests, TENANT);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (latencies, retries, shed, reloads) = std::thread::scope(|scope| {
        let stop = &stop;
        let disruptor_handle =
            disruptor.map(|d| scope.spawn(move || d(stop)));
        let client_handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(i, schedule)| scope.spawn(move || run_client(addr, i as u64, schedule)))
            .collect();
        let mut latencies = Vec::with_capacity(clients as usize * requests);
        let (mut retries, mut shed) = (0u64, 0u64);
        for h in client_handles {
            let client = h.join().expect("client thread");
            latencies.extend(client.latencies);
            retries += client.retries;
            shed += client.shed;
        }
        stop.store(true, Ordering::Relaxed);
        let reloads = disruptor_handle.map(|h| h.join().expect("disruptor"));
        (latencies, retries, shed, reloads)
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total = clients as usize * requests;
    assert_eq!(latencies.len(), total, "{phase}: dropped requests");
    let row = [
        ("phase", Json::str(phase)),
        ("clients", Json::UInt(clients)),
        ("requests", Json::UInt(total as u64)),
        ("req_per_sec", Json::Num(total as f64 / elapsed)),
        (
            "p50_ms",
            Json::Num(percentile_nearest_rank(&latencies, 0.50)),
        ),
        (
            "p95_ms",
            Json::Num(percentile_nearest_rank(&latencies, 0.95)),
        ),
        (
            "p99_ms",
            Json::Num(percentile_nearest_rank(&latencies, 0.99)),
        ),
        ("retries", Json::UInt(retries)),
        ("shed", Json::UInt(shed)),
    ];
    let mut pairs: Vec<(&str, Json)> = row.into_iter().collect();
    if let Some(n) = reloads {
        pairs.push(("reloads", Json::UInt(n)));
    }
    eprintln!(
        "serve_load: phase={phase} clients={clients} done in {elapsed:.2}s{}",
        reloads.map_or(String::new(), |n| format!(" ({n} reloads)"))
    );
    Json::obj(pairs)
}

/// What one client observed across its schedule.
struct ClientRun {
    latencies: Vec<f64>,
    retries: u64,
    shed: u64,
}

/// Replay one client's schedule; latencies are end-to-end per planned
/// request, retries included.
fn run_client(addr: SocketAddr, client: u64, schedule: &[PlannedRequest]) -> ClientRun {
    let mut rng = derive_stream_seed(SEED, BACKOFF_STREAM ^ client);
    let mut run = ClientRun {
        latencies: Vec::with_capacity(schedule.len()),
        retries: 0,
        shed: 0,
    };
    for req in schedule {
        std::thread::sleep(Duration::from_micros(req.think_micros));
        let t0 = Instant::now();
        let status = query(addr, &req.path, &mut rng, &mut run);
        run.latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            status == 200 || status == 422,
            "{}: unexpected status {status}",
            req.path
        );
    }
    run
}

/// One HTTP GET on the chaos retry budget (`chaos::fetch_retrying`):
/// sheds and transient socket errors back off and retry; a socket
/// error on the final attempt fails the run.
fn query(addr: SocketAddr, target: &str, rng: &mut u64, run: &mut ClientRun) -> u16 {
    let fetched = fetch_retrying(addr, &ChaosTiming::default(), target, rng);
    run.retries += fetched.retries;
    run.shed += fetched.shed;
    match fetched.last {
        Ok((status, _, _)) => status,
        Err(e) => panic!("{target}: socket error on the final attempt: {e}"),
    }
}

/// Byte-stable chaos control targets: the first few distinct planned
/// paths whose fault-free answer is a 200 (422 strata answer
/// deterministically too, but the chaos harness certifies byte
/// identity on success bodies only).
fn chaos_controls(addr: SocketAddr, timing: &ChaosTiming) -> Vec<ControlTarget> {
    let mut seen = std::collections::BTreeSet::new();
    let mut controls = Vec::new();
    for req in &plan_workload(SEED, 1, 40, TENANT)[0] {
        if controls.len() >= 6 {
            break;
        }
        if !seen.insert(req.path.clone()) {
            continue;
        }
        if let Ok((200, _, body)) = fetch(addr, timing, &req.path) {
            controls.push(ControlTarget {
                target: req.path.clone(),
                expected: body,
            });
        }
    }
    controls
}

/// One degraded-mode phase: replay a seeded fault plan against the
/// live server and record what the clean control requests saw.
fn run_chaos_phase(
    addr: SocketAddr,
    index: u64,
    mix_name: &str,
    mix: FaultMix<NetFault>,
    rate: f64,
) -> Json {
    let timing = ChaosTiming::default();
    let controls = chaos_controls(addr, &timing);
    assert!(!controls.is_empty(), "no 200 control targets in the pool");
    let plan = ChaosPlan {
        faults: FaultPlan {
            seed: derive_stream_seed(SEED, 0xC4A0_5000 + index),
            rate,
            mix,
            shuffle: true,
        },
        ops: 64,
    };
    let started = Instant::now();
    let report = run_chaos(addr, &timing, &plan, &controls, 8);
    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        report.mismatches.is_empty(),
        "chaos {mix_name}: bodies bent: {:?}",
        report.mismatches
    );
    assert!(
        report.failures.is_empty(),
        "chaos {mix_name}: controls starved: {:?}",
        report.failures
    );
    assert!(
        !report.control_latencies_ms.is_empty(),
        "chaos {mix_name}: no control ever completed"
    );
    eprintln!(
        "serve_load: phase=chaos mix={mix_name} rate={rate} done in {elapsed:.2}s \
         (availability {:.3}, {} faults, {} shed)",
        report.availability(),
        report.faults,
        report.shed_seen
    );
    Json::obj([
        ("phase", Json::str("chaos")),
        ("mode", Json::str("degraded")),
        ("mix", Json::str(mix_name)),
        ("fault_rate", Json::Num(rate)),
        ("ops", Json::UInt(plan.ops as u64)),
        ("controls", Json::UInt(report.controls)),
        ("availability", Json::Num(report.availability())),
        ("faults", Json::UInt(report.faults)),
        ("shed", Json::UInt(report.shed_seen)),
        ("retries", Json::UInt(report.retries)),
        (
            "p50_ms",
            Json::Num(percentile_nearest_rank(&report.control_latencies_ms, 0.50)),
        ),
        (
            "p95_ms",
            Json::Num(percentile_nearest_rank(&report.control_latencies_ms, 0.95)),
        ),
        (
            "p99_ms",
            Json::Num(percentile_nearest_rank(&report.control_latencies_ms, 0.99)),
        ),
    ])
}

/// Current date as YYYY-MM-DD (UTC), from the system clock.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_secs() as i64;
    let days = secs / 86_400;
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Two-space indentation for the flat JSON the renderer emits, so the
/// committed file diffs readably. Only reformats between tokens — the
/// values themselves are untouched.
fn pretty(flat: &str) -> String {
    let mut out = String::with_capacity(flat.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for c in flat.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                depth += 1;
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out
}
