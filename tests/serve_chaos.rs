//! Socket-level chaos sweep against a real `hpcfail serve` instance.
//!
//! Each cell of the sweep boots a fresh server with tight deadlines and
//! a small queue, records the fault-free body of every control target,
//! then replays a seeded [`ChaosPlan`] — connect-then-idle holds,
//! trickled headers, partial requests cut with RST, mid-response
//! aborts, oversized floods, and corrupted bytes — interleaved with
//! clean control requests. The contract under fire:
//!
//! * the server never panics and never leaks a worker;
//! * shedding is bounded and typed (503 + `retry-after`), never a hang;
//! * every clean request that gets a `200` is **byte-identical** to the
//!   fault-free answer — chaos may slow the truth down, never bend it;
//! * after a graceful drain, every counter returns to zero.
//!
//! The plan expansion is a pure function of `(seed, rate, mix, ops)`,
//! so any failing cell replays exactly from its printed parameters.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hpcfail::exec::{FaultKind, FaultMix, FaultPlan};
use hpcfail::records::io::read_trace;
use hpcfail::records::{BinaryCorruptionPlan, BinaryFault, IngestPolicy, TraceStore};
use hpcfail::serve::chaos::{
    fetch, flood_heavy, plan_ops, run_chaos, trickle_heavy, ChaosOp, ChaosPlan, ChaosTiming,
    ControlTarget, NetFault,
};
use hpcfail::serve::{spawn, AppState, Json, ServeConfig, ServerHandle, TenantSource};

const SEED: u64 = 0xD5E_C0DE;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/lanl_fixture.csv")
}

/// A deliberately cramped server: two workers, a four-deep queue, and
/// deadlines short enough that every fault is cut off in milliseconds.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        workers: Some(2),
        queue_depth: 4,
        max_in_flight: 6,
        io_timeout: Duration::from_millis(150),
        header_deadline: Duration::from_millis(60),
        request_deadline: Duration::from_millis(300),
        drain_deadline: Duration::from_millis(500),
        retry_after_secs: 1,
        ..ServeConfig::default()
    }
}

fn boot() -> (Arc<AppState>, ServerHandle) {
    let state = AppState::new();
    state
        .registry
        .insert("lanl", TenantSource::File(fixture_path()))
        .expect("fixture tenant");
    let state = Arc::new(state);
    let handle = spawn(state.clone(), &chaos_config()).expect("bind ephemeral");
    (state, handle)
}

/// Byte-stable control targets (no `/healthz` here: its counters move
/// by design, so it cannot be a byte-identity control).
fn control_targets(addr: SocketAddr, timing: &ChaosTiming) -> Vec<ControlTarget> {
    [
        "/v1/traces",
        "/v1/lanl/findings",
        "/v1/lanl/tbf",
        "/v1/lanl/rates",
    ]
    .into_iter()
    .map(|target| {
        let (status, _, body) = fetch(addr, timing, target).expect("fault-free fetch");
        assert_eq!(status, 200, "fault-free {target} must be 200");
        ControlTarget {
            target: target.to_string(),
            expected: body,
        }
    })
    .collect()
}

fn assert_quiescent(state: &AppState, handle: &ServerHandle, cell: &str) {
    assert_eq!(handle.panicked(), 0, "{cell}: worker panicked");
    assert_eq!(
        state.metrics.in_flight.load(Ordering::SeqCst),
        0,
        "{cell}: in-flight requests leaked"
    );
    assert_eq!(
        state.metrics.active_connections.load(Ordering::SeqCst),
        0,
        "{cell}: active connections leaked"
    );
}

/// The full sweep: fault rates × fault mixes, shuffle alternating.
/// One test (not nine) so a single server boot amortizes per cell and
/// a failure prints the whole grid position.
#[test]
fn chaos_sweep_never_panics_and_never_bends_an_answer() {
    let timing = ChaosTiming {
        io_timeout: Duration::from_millis(500),
        retry_limit: 12,
        ..ChaosTiming::default()
    };
    let mixes: [(&str, FaultMix<NetFault>); 3] = [
        ("uniform", FaultMix::uniform()),
        ("trickle_heavy", trickle_heavy()),
        ("flood_heavy", flood_heavy()),
    ];
    for (cell_index, (rate, (mix_name, mix))) in [0.0, 0.5, 1.0]
        .into_iter()
        .flat_map(|r| mixes.into_iter().map(move |m| (r, m)))
        .enumerate()
    {
        let plan = ChaosPlan {
            faults: FaultPlan {
                seed: SEED ^ cell_index as u64,
                rate,
                mix,
                shuffle: cell_index % 2 == 1,
            },
            ops: 32,
        };
        let cell = format!("cell {cell_index} (rate {rate}, mix {mix_name})");
        let (state, mut handle) = boot();
        let controls = control_targets(handle.addr(), &timing);

        let planned_faults = plan_ops(&plan, controls.len())
            .iter()
            .filter(|op| matches!(op, ChaosOp::Fault { .. }))
            .count() as u64;
        let report = run_chaos(handle.addr(), &timing, &plan, &controls, 4);

        assert_eq!(report.faults, planned_faults, "{cell}: fault count drifted");
        assert!(
            report.mismatches.is_empty(),
            "{cell}: 200 bodies bent under chaos: {:?}",
            report.mismatches
        );
        assert!(
            report.failures.is_empty(),
            "{cell}: controls starved out: {:?}",
            report.failures
        );
        if rate == 0.0 {
            assert_eq!(report.shed_seen, 0, "{cell}: shed with no faults");
            assert!(
                (report.availability() - 1.0).abs() < f64::EPSILON,
                "{cell}: fault-free availability {}",
                report.availability()
            );
        }

        // The server must answer cleanly *after* the storm too.
        for control in &controls {
            let (status, _, body) =
                fetch(handle.addr(), &timing, &control.target).expect("post-chaos fetch");
            assert_eq!(status, 200, "{cell}: {} after chaos", control.target);
            assert_eq!(body, control.expected, "{cell}: {} drifted", control.target);
        }

        handle.stop();
        assert_quiescent(&state, &handle, &cell);
    }
}

/// POST `target` and return `(status, body)`, retrying past overload
/// sheds and socket errors: under chaos the cramped server may turn a
/// request away before the router sees it.
fn post_past_sheds(addr: SocketAddr, target: &str, context: &str) -> (u16, String) {
    for _ in 0..50 {
        let response =
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).and_then(|mut conn| {
                conn.set_read_timeout(Some(Duration::from_secs(2)))?;
                conn.write_all(format!("POST {target} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())?;
                let mut raw = String::new();
                conn.read_to_string(&mut raw)?;
                Ok(raw)
            });
        let parsed = response.ok().and_then(|raw| {
            let (head, body) = raw.split_once("\r\n\r\n")?;
            let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
            Some((status, body.to_string()))
        });
        match parsed {
            Some((_, body)) if body.contains("\"kind\":\"overloaded\"") => {}
            Some(answer) => return answer,
            None => {}
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{context}: POST {target} never got past the overload shed")
}

/// Cross-layer: a bit-flipped `.hpct` arrives on `POST /v1/reload`
/// while a uniform socket-chaos plan runs against the same server.
/// Every reload fails typed (`503 reload_failed` carrying the store's
/// own `StoreError`), the generation never moves, every control body
/// stays byte-identical, and the server ends with no panic and no leak.
#[test]
fn damaged_packed_reload_during_socket_chaos_keeps_the_old_generation() {
    let timing = ChaosTiming {
        io_timeout: Duration::from_millis(500),
        retry_limit: 12,
        ..ChaosTiming::default()
    };
    let dir = std::env::temp_dir().join(format!("hpcfail-chaos-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("lanl.hpct");
    let fixture = std::fs::read(fixture_path()).expect("fixture");
    let index = read_trace(&fixture, IngestPolicy::FailFast)
        .expect("fixture parses")
        .index;
    TraceStore::write(&index, &path).expect("pack fixture");
    let pristine = std::fs::read(&path).expect("packed bytes");

    let state = AppState::new();
    state
        .registry
        .insert("lanl", TenantSource::File(path.clone()))
        .expect("packed tenant");
    let state = Arc::new(state);
    let mut handle = spawn(state.clone(), &chaos_config()).expect("bind ephemeral");
    let addr = handle.addr();
    let controls = control_targets(addr, &timing);

    let chaos = ChaosPlan {
        ops: 48,
        ..ChaosPlan::new(SEED ^ 0xB17, 0.5)
    };
    let damage = BinaryCorruptionPlan {
        seed: SEED,
        mix: FaultMix::only(BinaryFault::BitFlips),
    };
    let plans = format!("chaos [{chaos}], damage [{damage}]");
    let dirty = damage.corrupt_bytes(&pristine);
    let store_error = TraceStore::from_bytes(&dirty).expect_err("bit flips never load");
    let rendered = Json::str(store_error.to_string()).render();
    let store_message = rendered.trim_matches('"');
    std::fs::write(&path, &dirty).expect("damage the packed file");

    let (report, reloads) = std::thread::scope(|scope| {
        let storm = scope.spawn(|| run_chaos(addr, &timing, &chaos, &controls, 4));
        let mut reloads = Vec::new();
        loop {
            reloads.push(post_past_sheds(addr, "/v1/reload?trace=lanl", &plans));
            if storm.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        (storm.join().expect("chaos injector"), reloads)
    });

    for (status, body) in &reloads {
        assert_eq!(*status, 503, "{plans}: {body}");
        assert!(
            body.contains("\"kind\":\"reload_failed\""),
            "{plans}: {body}"
        );
        assert!(
            body.contains(store_message),
            "{plans}: reload error lost the typed {store_error:?}: {body}"
        );
    }
    let generation = state.registry.get("lanl").expect("tenant").generation;
    assert_eq!(
        generation, 1,
        "{plans}: a failed reload moved the generation"
    );
    assert!(
        report.mismatches.is_empty(),
        "{plans}: 200 bodies bent: {:?}",
        report.mismatches
    );
    assert!(
        report.failures.is_empty(),
        "{plans}: controls starved out: {:?}",
        report.failures
    );
    for control in &controls {
        let (status, _, body) = fetch(addr, &timing, &control.target).expect("post-chaos fetch");
        assert_eq!(status, 200, "{plans}: {} after chaos", control.target);
        assert_eq!(
            body, control.expected,
            "{plans}: {} drifted",
            control.target
        );
    }

    handle.stop();
    assert_quiescent(&state, &handle, &plans);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same plan, same ops — the sweep is replayable from its parameters.
#[test]
fn chaos_plans_replay_deterministically() {
    let mut plan = ChaosPlan::new(SEED, 0.6);
    plan.faults.shuffle = true;
    assert_eq!(plan_ops(&plan, 4), plan_ops(&plan, 4));
    let mut unshuffled = plan;
    unshuffled.faults.shuffle = false;
    assert_ne!(
        plan_ops(&plan, 4),
        plan_ops(&unshuffled, 4),
        "shuffle must permute a mixed plan"
    );
}

/// Read one full HTTP response off an open connection; returns
/// `(status, content_length, body_len)` or `None` on connection error.
fn read_response(conn: &mut TcpStream) -> Option<(u16, usize, usize)> {
    let mut reader = BufReader::new(conn);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let content_length: usize = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, content_length, body.len()))
}

/// A graceful drain never truncates a body: clients hammering the
/// server across `stop()` see either a complete response (200 with its
/// full `content-length`, or a complete 503 shed) or a clean
/// connection error — never a partial 200.
#[test]
fn drain_never_truncates_a_response_mid_body() {
    let (state, mut handle) = boot();
    let addr = handle.addr();
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop_flag = stop_flag.clone();
            std::thread::spawn(move || {
                let mut complete = 0u64;
                while !stop_flag.load(Ordering::SeqCst) {
                    let Ok(mut conn) =
                        TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    else {
                        break;
                    };
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
                    if conn
                        .write_all(b"GET /v1/lanl/findings HTTP/1.1\r\nhost: t\r\n\r\n")
                        .is_err()
                    {
                        continue;
                    }
                    match read_response(&mut conn) {
                        Some((status, want, got)) => {
                            assert_eq!(got, want, "truncated body on a {status}");
                            complete += 1;
                        }
                        // Connection refused/reset between requests is a
                        // clean outcome; a torn body would have tripped
                        // read_response's read_exact above.
                        None => continue,
                    }
                }
                complete
            })
        })
        .collect();

    // Let the clients get in flight, then pull the plug mid-traffic.
    std::thread::sleep(Duration::from_millis(150));
    handle.stop();
    stop_flag.store(true, Ordering::SeqCst);
    let total: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(total > 0, "clients never completed a request before drain");
    assert_quiescent(&state, &handle, "drain test");
    assert_eq!(state.metrics.drain_state(), "draining");
}

/// Replay pin: a 64-bit digest of `plan_ops` over seeds × the three
/// mixes × rates × shuffle. The op sequence is what a printed plan
/// replays, so it must never move.
#[test]
fn plan_ops_replay_pin() {
    let mut bytes = Vec::new();
    for mix in [FaultMix::uniform(), trickle_heavy(), flood_heavy()] {
        for seed in 0..8u64 {
            for rate in [0.3, 1.0] {
                for shuffle in [false, true] {
                    let plan = ChaosPlan {
                        faults: FaultPlan {
                            seed,
                            rate,
                            mix,
                            shuffle,
                        },
                        ops: 64,
                    };
                    for op in plan_ops(&plan, 4) {
                        match op {
                            ChaosOp::Control { pick } => {
                                bytes.push(0);
                                bytes.extend((pick as u64).to_le_bytes());
                            }
                            ChaosOp::Fault { fault, seed } => {
                                bytes.push(1);
                                bytes.extend(fault.name().as_bytes());
                                bytes.extend(seed.to_le_bytes());
                            }
                        }
                    }
                }
            }
        }
    }
    let digest = hpcfail::records::checksum(&bytes);
    assert_eq!(
        digest, 0x3b4a_a5e7_1ae4_9a44,
        "plan_ops output moved: {digest:#x}"
    );
}
