//! End-to-end integration of `hpcfail serve`: boot a real server on an
//! ephemeral port, load the bundled LANL-style fixture as a tenant, and
//! assert that every endpoint's JSON body is **byte-identical** to
//! rendering the same analysis computed directly through the library.
//! The server can cache, shard, and reload however it likes — it must
//! never change an answer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use hpcfail::analysis::{availability, findings, pernode, rates, repair, tbf};
use hpcfail::prelude::*;
use hpcfail::records::io::{read_trace, write_csv};
use hpcfail::records::quality::repair as repair_trace;
use hpcfail::serve::{parse_request, render, respond, spawn, AppState, ServeConfig, TenantSource};

/// Every analysis route, relative to `/v1/<trace>/`.
/// A named way to damage a tenant's file on disk.
type Damage<'a> = (&'a str, Box<dyn Fn() + 'a>);

const ANALYSIS_ROUTES: [&str; 11] = [
    "tbf",
    "tbf?view=pooled",
    "tbf?era=early",
    "tbf?era=late",
    "repair",
    "repair?cause=hardware",
    "rates",
    "rates?system=20",
    "availability",
    "pernode",
    "findings",
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/lanl_fixture.csv")
}

fn fixture_trace() -> &'static FailureTrace {
    static TRACE: OnceLock<FailureTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let bytes = std::fs::read(fixture_path()).expect("fixture exists");
        read_trace(&bytes, IngestPolicy::FailFast)
            .expect("fixture parses")
            .index
            .all()
            .to_trace()
    })
}

fn booted() -> (&'static AppState, SocketAddr) {
    static SERVER: OnceLock<(Arc<AppState>, SocketAddr)> = OnceLock::new();
    let (state, addr) = SERVER.get_or_init(|| {
        let state = AppState::new();
        state
            .registry
            .insert("lanl", TenantSource::File(fixture_path()))
            .expect("fixture tenant");
        let state = Arc::new(state);
        let handle = spawn(state.clone(), &ServeConfig::default()).expect("bind ephemeral");
        let addr = handle.addr();
        // Keep the server alive for the whole test binary.
        std::mem::forget(handle);
        (state, addr)
    });
    (state, *addr)
}

/// Issue one HTTP request, return `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("{method} {target} HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes())
        .expect("send");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, "GET", target)
}

#[test]
fn tbf_bodies_match_direct_library_calls() {
    let (_, addr) = booted();
    let index = fixture_trace().index();
    type Case = (&'static str, tbf::View, Option<(Timestamp, Timestamp)>);
    let cases: [Case; 4] = [
        (
            "/v1/lanl/tbf",
            tbf::View::SystemWide(SystemId::new(20)),
            None,
        ),
        (
            "/v1/lanl/tbf?view=pooled",
            tbf::View::PooledNodes(SystemId::new(20)),
            None,
        ),
        (
            "/v1/lanl/tbf?era=early",
            tbf::View::SystemWide(SystemId::new(20)),
            Some(tbf::paper_era_split().0),
        ),
        (
            "/v1/lanl/tbf?era=late",
            tbf::View::SystemWide(SystemId::new(20)),
            Some(tbf::paper_era_split().1),
        ),
    ];
    for (target, view, window) in cases {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "{target}: {body}");
        let direct = tbf::analyze_indexed(&index, view, window).expect("direct tbf");
        assert_eq!(body, render::tbf_json(&direct).render(), "{target}");
    }
}

#[test]
fn repair_bodies_match_direct_library_calls() {
    let (_, addr) = booted();
    let index = fixture_trace().index();
    let catalog = Catalog::lanl();

    let (status, body) = get(addr, "/v1/lanl/repair");
    assert_eq!(status, 200, "{body}");
    let by_cause = repair::by_cause_indexed(&index).expect("by_cause");
    let fit = repair::fit_all_repairs_indexed(&index).expect("fit");
    let by_system = repair::by_system_indexed(&index, &catalog);
    let effect = repair::type_effect(&by_system);
    assert_eq!(
        body,
        render::repair_json(&by_cause, &fit, &by_system, &effect).render()
    );

    let (status, body) = get(addr, "/v1/lanl/repair?cause=hardware");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        render::repair_cause_json(RootCause::Hardware, &by_cause).render()
    );
}

#[test]
fn rates_availability_pernode_findings_match_direct_library_calls() {
    let (_, addr) = booted();
    let index = fixture_trace().index();
    let catalog = Catalog::lanl();

    let (status, body) = get(addr, "/v1/lanl/rates");
    assert_eq!(status, 200, "{body}");
    let rate = rates::analyze_indexed(&index, &catalog).expect("rates");
    assert_eq!(body, render::rates_json(&rate).render());

    let (status, body) = get(addr, "/v1/lanl/rates?system=20");
    assert_eq!(status, 200, "{body}");
    let row = rate.system(SystemId::new(20)).expect("system 20 row");
    assert_eq!(body, render::rate_system_json(row).render());

    let (status, body) = get(addr, "/v1/lanl/availability");
    assert_eq!(status, 200, "{body}");
    let rows = availability::analyze_indexed(&index, &catalog).expect("availability");
    let site = availability::site_availability_indexed(&index, &catalog).expect("site");
    assert_eq!(body, render::availability_json(&rows, site).render());

    let (status, body) = get(addr, "/v1/lanl/pernode");
    assert_eq!(status, 200, "{body}");
    let pn = pernode::analyze_indexed(&index, &catalog, SystemId::new(20)).expect("pernode");
    assert_eq!(body, render::pernode_json(&pn).render());

    let (status, body) = get(addr, "/v1/lanl/findings");
    assert_eq!(status, 200, "{body}");
    let f = findings::evaluate_indexed(&index, &catalog).expect("findings");
    assert_eq!(body, render::findings_json(&f).render());
}

#[test]
fn traces_and_healthz_report_the_tenant() {
    let (_, addr) = booted();
    let (status, body) = get(addr, "/v1/traces");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"lanl\""), "{body}");
    assert!(
        body.contains(&format!("\"records\":{}", fixture_trace().len())),
        "{body}"
    );
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"hit_rate\":"), "{body}");
    // The resilience counters ride along: a live server is "serving"
    // with nothing shed and no request leaked in flight.
    assert!(body.contains("\"drain\":\"serving\""), "{body}");
    assert!(body.contains("\"shed\":"), "{body}");
    assert!(body.contains("\"uptime_ticks\":"), "{body}");
}

#[test]
fn error_statuses_over_the_wire() {
    let (_, addr) = booted();
    for (target, want) in [
        ("/v1/ghost/tbf", 404),
        ("/v1/lanl/astrology", 404),
        ("/nope", 404),
        ("/v1/lanl/tbf?bogus=1", 400),
        ("/v1/lanl/tbf?view=diagonal", 400),
        ("/v1/lanl/rates?system=many", 400),
    ] {
        let (status, body) = get(addr, target);
        assert_eq!(status, want, "{target}: {body}");
        assert!(body.starts_with("{\"error\":{"), "{target}: {body}");
    }
    let (status, _) = http(addr, "POST", "/v1/lanl/tbf");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "GET", "/v1/reload");
    assert_eq!(status, 405);
}

#[test]
fn reload_over_the_wire_bumps_generation_and_keeps_answers_identical() {
    // A dedicated server so this test owns the generation counter.
    let state = AppState::new();
    state
        .registry
        .insert("lanl", TenantSource::File(fixture_path()))
        .expect("fixture tenant");
    let state = Arc::new(state);
    let mut handle = spawn(state.clone(), &ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let (_, before) = get(addr, "/v1/lanl/pernode");
    let (status, body) = http(addr, "POST", "/v1/reload?trace=lanl");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    assert_eq!(state.registry.get("lanl").unwrap().generation, 2);
    // Same source file — the reloaded tenant must give the same answer.
    let (_, after) = get(addr, "/v1/lanl/pernode");
    assert_eq!(before, after);

    // Server responses and in-process routing agree.
    let req = hpcfail::serve::parse_request(b"GET /v1/lanl/pernode HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(&*respond(&state, &req).body, after);
    handle.stop();
}

/// The regression the chaos work started from: reloading a tenant whose
/// source file turned unreadable, corrupt, or empty must keep the old
/// generation serving byte-identical answers and report a typed error —
/// never wipe a live index.
#[test]
fn reload_against_a_damaged_file_keeps_the_old_generation_serving() {
    let dir = std::env::temp_dir().join(format!("hpcfail-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tenant.csv");
    let pristine = std::fs::read(fixture_path()).expect("fixture bytes");
    std::fs::write(&path, &pristine).expect("seed tenant file");

    let state = AppState::new();
    state
        .registry
        .insert("flaky", TenantSource::File(path.clone()))
        .expect("tenant");
    let state = Arc::new(state);
    let mut handle = spawn(state.clone(), &ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let (status, before) = get(addr, "/v1/flaky/findings");
    assert_eq!(status, 200, "{before}");

    let damage: [Damage<'_>; 3] = [
        (
            "corrupt",
            Box::new(|| std::fs::write(&path, b"\xff\xfe not a csv at all\n@@@").unwrap()),
        ),
        ("empty", Box::new(|| std::fs::write(&path, b"").unwrap())),
        (
            "unreadable",
            Box::new(|| {
                let _ = std::fs::remove_file(&path);
            }),
        ),
    ];
    for (kind, inflict) in &damage {
        inflict();
        let (status, body) = http(addr, "POST", "/v1/reload?trace=flaky");
        assert_eq!(status, 503, "{kind}: {body}");
        assert!(body.starts_with("{\"error\":{"), "{kind}: {body}");
        assert!(
            body.contains("\"kind\":\"reload_failed\""),
            "{kind}: {body}"
        );
        assert_eq!(
            state.registry.get("flaky").unwrap().generation,
            1,
            "{kind}: generation must not move on a failed reload"
        );
        let (status, after) = get(addr, "/v1/flaky/findings");
        assert_eq!(status, 200, "{kind}: {after}");
        assert_eq!(before, after, "{kind}: old generation's answer drifted");
    }

    // Repair the file: the next reload succeeds and bumps the generation.
    std::fs::write(&path, &pristine).expect("restore tenant file");
    let (status, body) = http(addr, "POST", "/v1/reload?trace=flaky");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that half-closes its write side after sending a complete
/// request still gets the complete response: the server treats EOF
/// after a full head as end-of-request, not as an aborted connection.
#[test]
fn half_close_after_a_complete_request_still_gets_the_full_body() {
    let (_, addr) = booted();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"GET /v1/lanl/findings HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let want: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.parse().ok())
        .expect("content-length");
    assert_eq!(body.len(), want, "half-close truncated the body");
    let (_, direct) = get(addr, "/v1/lanl/findings");
    assert_eq!(body, direct, "half-close changed the answer");
}

/// Every response — errors included — advertises `connection: close`
/// and the server actually closes, so a client pipelining a second
/// request after an error reads EOF instead of a stale answer.
#[test]
fn connections_close_after_a_response_and_never_serve_a_second_request() {
    let (_, addr) = booted();
    for first in [
        "GET /v1/lanl/tbf HTTP/1.1\r\nhost: t\r\n\r\n", // 200
        "GET /v1/lanl/tbf?bogus=1 HTTP/1.1\r\nhost: t\r\n\r\n", // 400
        "WIBBLE / HTTP/1.1\r\nhost: t\r\n\r\n",         // parse error
    ] {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(first.as_bytes()).expect("send first");
        // Optimistically pipeline a second request; the server must
        // answer the first and close without touching the second.
        let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
        conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("timeout");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read to EOF");
        assert!(raw.contains("connection: close"), "{first:?}: {raw}");
        assert_eq!(
            raw.matches("HTTP/1.1 ").count(),
            1,
            "{first:?}: one connection must serve exactly one response"
        );
    }
}

/// Boot a second server off a packed `.hpct` image of the same fixture:
/// the binary store is sniffed by magic bytes, opens without a rebuild,
/// and every endpoint's body must be byte-identical to the CSV-booted
/// server's.
#[test]
fn packed_fixture_boot_serves_byte_identical_bodies() {
    let (_, csv_addr) = booted();

    let dir = std::env::temp_dir().join(format!("hpcfail-packed-boot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let packed = dir.join("lanl.hpct");
    TraceStore::write(&fixture_trace().index(), &packed).expect("pack fixture");

    let state = AppState::new();
    state
        .registry
        .insert("lanl", TenantSource::File(packed.clone()))
        .expect("packed tenant");
    let state = Arc::new(state);
    let mut handle = spawn(state.clone(), &ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    for route in ANALYSIS_ROUTES {
        let target = &format!("/v1/lanl/{route}");
        let (csv_status, csv_body) = get(csv_addr, target);
        let (hpct_status, hpct_body) = get(addr, target);
        assert_eq!(csv_status, 200, "{target}: {csv_body}");
        assert_eq!(hpct_status, 200, "{target}: {hpct_body}");
        assert_eq!(
            csv_body, hpct_body,
            "{target}: packed boot changed the answer"
        );
    }
    // /v1/traces agrees on the record count too.
    let (_, body) = get(addr, "/v1/traces");
    assert!(
        body.contains(&format!("\"records\":{}", fixture_trace().len())),
        "{body}"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The damaged-reload guarantee holds for packed tenants exactly as for
/// CSV ones: a bit-flipped, truncated, or version-skewed `.hpct` maps to
/// a typed `StoreError` inside `503 reload_failed`, and the old
/// generation keeps serving byte-identical answers.
#[test]
fn reload_against_a_damaged_packed_store_keeps_the_old_generation_serving() {
    let dir = std::env::temp_dir().join(format!("hpcfail-packed-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tenant.hpct");
    TraceStore::write(&fixture_trace().index(), &path).expect("pack fixture");
    let pristine = std::fs::read(&path).expect("packed bytes");

    let state = AppState::new();
    state
        .registry
        .insert("packed", TenantSource::File(path.clone()))
        .expect("tenant");
    let state = Arc::new(state);
    let mut handle = spawn(state.clone(), &ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let (status, before) = get(addr, "/v1/packed/findings");
    assert_eq!(status, 200, "{before}");

    let damage: [Damage<'_>; 3] = [
        (
            "bit-flip",
            Box::new(|| {
                let mut bytes = pristine.clone();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
                std::fs::write(&path, &bytes).unwrap();
            }),
        ),
        (
            "truncate",
            Box::new(|| std::fs::write(&path, &pristine[..pristine.len() / 3]).unwrap()),
        ),
        (
            "version-skew",
            Box::new(|| {
                let mut bytes = pristine.clone();
                bytes[4] = 0x63;
                std::fs::write(&path, &bytes).unwrap();
            }),
        ),
    ];
    for (kind, inflict) in &damage {
        inflict();
        let (status, body) = http(addr, "POST", "/v1/reload?trace=packed");
        assert_eq!(status, 503, "{kind}: {body}");
        assert!(
            body.contains("\"kind\":\"reload_failed\""),
            "{kind}: {body}"
        );
        assert_eq!(
            state.registry.get("packed").unwrap().generation,
            1,
            "{kind}: generation must not move on a failed reload"
        );
        let (status, after) = get(addr, "/v1/packed/findings");
        assert_eq!(status, 200, "{kind}: {after}");
        assert_eq!(before, after, "{kind}: old generation's answer drifted");
    }

    // Restore the packed file: reload succeeds without any rebuild.
    std::fs::write(&path, &pristine).expect("restore packed file");
    let (status, body) = http(addr, "POST", "/v1/reload?trace=packed");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Across the ingest → quality → store → serve boundaries: a damaged
/// CSV goes through Repair ingest, `quality::repair` and pack (what
/// `hpcfail quality --repair --out FILE.hpct` does), and the packed store served
/// as a tenant must answer every analysis route byte-identically to a
/// tenant loaded from the CSV of the same repaired trace.
#[test]
fn damaged_csv_repaired_and_packed_serves_like_its_csv() {
    let trace =
        hpcfail::synth::scenario::system_trace(SystemId::new(20), 42).expect("synthetic trace");
    let catalog = Catalog::lanl();
    let dir = std::env::temp_dir().join(format!("hpcfail-repair-pack-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (hpct, csv) = (dir.join("repaired.hpct"), dir.join("repaired.csv"));
    for (seed, rate, truncate_file) in [(1, 0.0, false), (2, 0.05, false), (3, 0.3, true)] {
        let mut plan = CorruptionPlan::new(seed, rate);
        plan.faults.shuffle = true;
        plan.truncate_file = truncate_file;
        let dirty = plan.corrupt_trace(&trace);
        let ingest = read_trace(dirty.as_bytes(), IngestPolicy::Repair)
            .unwrap_or_else(|e| panic!("repair ingest failed under {plan}: {e}"));
        let repaired = repair_trace(&ingest.index.all().to_trace(), &catalog).trace;
        TraceStore::write(&repaired.index(), &hpct).expect("pack");
        write_csv(&repaired, std::fs::File::create(&csv).expect("csv")).expect("write csv");

        let tenant = |source: TenantSource| {
            let state = AppState::new();
            state
                .registry
                .insert("t", source)
                .unwrap_or_else(|e| panic!("tenant load failed under {plan}: {e}"));
            state
        };
        let packed = tenant(TenantSource::File(hpct.clone()));
        let text = tenant(TenantSource::File(csv.clone()));
        assert_eq!(
            packed.registry.get("t").unwrap().len(),
            repaired.len(),
            "{plan}"
        );
        for route in ANALYSIS_ROUTES {
            let target = format!("/v1/t/{route}");
            let raw = format!("GET {target} HTTP/1.1\r\nhost: test\r\n\r\n");
            let request = parse_request(raw.as_bytes()).expect("request parses");
            let (a, b) = (respond(&packed, &request), respond(&text, &request));
            assert_eq!(a.status, 200, "{target} under {plan}: {}", a.body);
            assert_eq!(
                (a.status, &*a.body),
                (b.status, &*b.body),
                "{target}: packed tenant differs from its CSV under {plan}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
