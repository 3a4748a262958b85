//! The serve-layer concurrency/caching battery.
//!
//! Locks down the cache contract end to end:
//!
//! * **exactly-one-compute** — 16 threads hammering one cold key run
//!   the compute exactly once; everyone shares the result;
//! * **byte-identical hits** — a hit is a clone of the same `Arc<str>`
//!   body the miss produced, verified by pointer identity *and* bytes;
//! * **counter integrity** — hits/misses surface on `/healthz` and add
//!   up across a concurrent hammer;
//! * **tenant-scoped invalidation** — reloading one tenant purges only
//!   its keys, and the generation bump keeps racing readers safe;
//! * **hit-rate floor** — 8 clients drawing seeded paths from the
//!   fixed stratum pool meet the ≥95% hit-rate acceptance bar.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use hpcfail::exec::{derive_stream_seed, splitmix64};
use hpcfail::prelude::*;
use hpcfail::serve::cache::CacheKey;
use hpcfail::serve::load::stratum_pool;
use hpcfail::serve::{parse_request, respond, AppState, Response, ResultCache, TenantSource};

const HAMMER_THREADS: usize = 16;

fn key(tenant: &str, stratum: &str) -> CacheKey {
    CacheKey {
        tenant: tenant.to_string(),
        generation: 1,
        analysis: "tbf",
        stratum: stratum.to_string(),
    }
}

#[test]
fn sixteen_threads_one_key_computes_exactly_once() {
    let cache = Arc::new(ResultCache::new());
    let computes = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(HAMMER_THREADS));
    let bodies: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HAMMER_THREADS)
            .map(|_| {
                let cache = cache.clone();
                let computes = computes.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    cache.get_or_compute(key("t", "s"), || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // A slow compute widens the race window: every
                        // other thread must block on the entry, not
                        // recompute.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Response::json(200, "{\"answer\":42}")
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(computes.load(Ordering::SeqCst), 1);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), (HAMMER_THREADS - 1) as u64);
    let first = &bodies[0];
    for other in &bodies[1..] {
        assert_eq!(first.body, other.body);
        assert!(Arc::ptr_eq(&first.body, &other.body), "hits share one Arc");
    }
}

fn synth_state() -> Arc<AppState> {
    let trace = hpcfail::synth::scenario::system_trace(SystemId::new(20), 42).expect("synth trace");
    let state = AppState::new();
    state
        .registry
        .insert("synth", TenantSource::Static(Arc::new(trace)))
        .expect("tenant");
    Arc::new(state)
}

fn do_get(state: &AppState, target: &str) -> Response {
    let raw = format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n");
    respond(state, &parse_request(raw.as_bytes()).expect("well-formed"))
}

#[test]
fn concurrent_requests_share_one_compute_and_healthz_reports_it() {
    let state = synth_state();
    let barrier = Arc::new(Barrier::new(HAMMER_THREADS));
    let bodies: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HAMMER_THREADS)
            .map(|_| {
                let state = state.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    do_get(&state, "/v1/synth/pernode")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(state.cache.misses(), 1);
    assert_eq!(state.cache.hits(), (HAMMER_THREADS - 1) as u64);
    for resp in &bodies {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, bodies[0].body);
        assert!(Arc::ptr_eq(&resp.body, &bodies[0].body));
    }
    let health = do_get(&state, "/healthz");
    assert!(health.body.contains("\"misses\":1"), "{}", health.body);
    assert!(
        health
            .body
            .contains(&format!("\"hits\":{}", HAMMER_THREADS - 1)),
        "{}",
        health.body
    );
}

#[test]
fn reload_invalidates_only_the_reloaded_tenant() {
    let state = synth_state();
    let other = hpcfail::synth::scenario::system_trace(SystemId::new(19), 42).expect("synth trace");
    state
        .registry
        .insert("other", TenantSource::Static(Arc::new(other)))
        .expect("tenant");

    // Warm several strata on both tenants.
    for target in [
        "/v1/synth/pernode",
        "/v1/synth/rates",
        "/v1/synth/findings",
        "/v1/other/rates",
        "/v1/other/findings?",
    ] {
        assert_eq!(do_get(&state, target).status, 200);
    }
    assert_eq!(state.cache.len(), 5);
    let warm_other = do_get(&state, "/v1/other/rates");

    let req = parse_request(b"POST /v1/reload?trace=synth HTTP/1.1\r\n\r\n").unwrap();
    let resp = respond(&state, &req);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"invalidated\":3"), "{}", resp.body);
    // synth keys purged, other keys untouched.
    assert_eq!(state.cache.len(), 2);
    let hits_before = state.cache.hits();
    let still_warm = do_get(&state, "/v1/other/rates");
    assert_eq!(state.cache.hits(), hits_before + 1, "other stayed cached");
    assert!(Arc::ptr_eq(&still_warm.body, &warm_other.body));

    // The reloaded tenant recomputes under its new generation and, with
    // an identical source, reproduces the identical body.
    let misses_before = state.cache.misses();
    let recomputed = do_get(&state, "/v1/synth/pernode");
    assert_eq!(state.cache.misses(), misses_before + 1);
    assert_eq!(recomputed.status, 200);
    assert_eq!(state.registry.get("synth").unwrap().generation, 2);
}

#[test]
fn stale_generation_entries_cannot_poison_a_reload() {
    // Simulate a request racing a reload: a result computed against
    // generation 1 lands in the cache *after* the reload purge. Its key
    // still carries generation 1, so generation-2 lookups miss it.
    let cache = ResultCache::new();
    cache.invalidate_tenant("t"); // purge (no-op, reload just happened)
    cache.get_or_compute(key("t", "s"), || Response::json(200, "{\"stale\":1}"));
    let mut fresh = key("t", "s");
    fresh.generation = 2;
    let resp = cache.get_or_compute(fresh, || Response::json(200, "{\"fresh\":2}"));
    assert_eq!(&*resp.body, "{\"fresh\":2}");
}

#[test]
fn replayed_load_plan_meets_the_hit_rate_floor() {
    let state = synth_state();
    // The acceptance workload: 8 clients × 100 requests drawn from the
    // fixed stratum pool, each client on its own SplitMix64 stream.
    let pool = stratum_pool("synth");
    std::thread::scope(|scope| {
        for client in 0..8 {
            let state = state.clone();
            let pool = &pool;
            scope.spawn(move || {
                let mut stream = derive_stream_seed(42, client);
                for _ in 0..100 {
                    let path = &pool[splitmix64(&mut stream) as usize % pool.len()];
                    let resp = do_get(&state, path);
                    assert!(
                        resp.status == 200 || resp.status == 422,
                        "{path}: {}",
                        resp.body
                    );
                }
            });
        }
    });
    let total = state.cache.hits() + state.cache.misses();
    assert_eq!(total, 800);
    // At most one miss per distinct stratum in the pool.
    assert!(state.cache.misses() <= stratum_pool("synth").len() as u64);
    assert!(
        state.cache.hit_rate() >= 0.95,
        "hit rate {:.3} below the 95% floor",
        state.cache.hit_rate()
    );
}

/// The canonical rendering of `GET /v1/synth/tbf?view=pooled` against
/// the seeded scenario trace (system 20, seed 42), captured before the
/// batch distribution kernels were wired under the fit path. The batch
/// NLL/KS evaluation is required to be bit-identical to the scalar path
/// it replaced (DESIGN.md §13); any drift shows up here as a byte diff.
const GOLDEN_TBF_POOLED: &str = r#"{"view":{"kind":"pooled","system":20},"n":6044,"zero_fraction":0.002316346790205162,"c2":5.670990772744735,"mean_secs":2125488.050414594,"weibull_shape":0.46953017689963433,"hazard_trend":"decreasing","decreasing_hazard":true,"dominated_by_simultaneity":false,"gap_autocorrelation":0.058660330046631966,"fits":{"n":6030,"best":"weibull","candidates":[{"family":"weibull","nll":89836.00378367912,"aic":179676.00756735823,"bic":179689.41657193768,"ks":0.06152162592518379},{"family":"gamma","nll":89923.12314674802,"aic":179850.24629349605,"bic":179863.6552980755,"ks":0.05624088659347409},{"family":"lognormal","nll":90232.5305809366,"aic":180469.0611618732,"bic":180482.47016645264,"ks":0.10760163704225367},{"family":"exponential","nll":93884.15738866471,"aic":187770.31477732942,"bic":187777.01927961913,"ks":0.28804045674914863}],"failed":[]}}"#;

#[test]
fn cold_miss_tbf_body_matches_the_pre_kernel_golden() {
    let state = synth_state();
    let resp = do_get(&state, "/v1/synth/tbf?view=pooled");
    assert_eq!(resp.status, 200);
    assert_eq!(&*resp.body, GOLDEN_TBF_POOLED, "rendered JSON drifted");
    assert_eq!(state.cache.misses(), 1);
    assert_eq!(state.cache.hits(), 0);
    // The cache key is unchanged too: probing with the canonical key is
    // a hit sharing the miss's Arc body, never a recompute.
    let probe = state.cache.get_or_compute(
        CacheKey {
            tenant: "synth".to_string(),
            generation: 1,
            analysis: "tbf",
            stratum: "era=all&system=20&view=pooled".to_string(),
        },
        || Response::error(500, "cache key drifted: recompute reached"),
    );
    assert_eq!(state.cache.hits(), 1);
    assert!(Arc::ptr_eq(&probe.body, &resp.body));
    assert_eq!(&*probe.body, GOLDEN_TBF_POOLED);
    // /healthz smoke: the counters surface the miss and the probe hit.
    let health = do_get(&state, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"misses\":1"), "{}", health.body);
    assert!(health.body.contains("\"hits\":1"), "{}", health.body);
}

/// `store::checksum` of every `tbf` response the router gives on the
/// seed-42 site: each line is `path status body`, for 22 systems ×
/// {systemwide, pooled} × {all, early, late}, then node 22 of system 20
/// in each era. Recorded before the TBF kernel was tightened to one
/// Weibull fit and one sort per stratum; any drift in any stratum's
/// bytes or status shows up here.
const GOLDEN_TBF_ALL_STRATA_DIGEST: u64 = 0xDDD6_7BD2_554B_B98C;

#[test]
fn every_tbf_stratum_on_the_site_matches_the_recorded_digest() {
    use std::fmt::Write as _;
    let trace = hpcfail::synth::scenario::site_trace(42).expect("site trace");
    let systems: Vec<u32> = trace.index().systems().map(|s| s.get()).collect();
    assert_eq!(systems.len(), 22);
    let state = AppState::new();
    state
        .registry
        .insert("site", TenantSource::Static(Arc::new(trace)))
        .expect("tenant");
    let mut paths = Vec::new();
    for system in systems {
        for view in ["systemwide", "pooled"] {
            for era in ["all", "early", "late"] {
                paths.push(format!(
                    "/v1/site/tbf?view={view}&system={system}&era={era}"
                ));
            }
        }
    }
    for era in ["all", "early", "late"] {
        paths.push(format!(
            "/v1/site/tbf?view=node&system=20&node=22&era={era}"
        ));
    }
    let mut transcript = String::new();
    for path in &paths {
        let resp = do_get(&state, path);
        writeln!(transcript, "{path} {} {}", resp.status, resp.body).unwrap();
    }
    assert_eq!(state.cache.misses(), paths.len() as u64);
    assert_eq!(
        hpcfail::records::store::checksum(transcript.as_bytes()),
        GOLDEN_TBF_ALL_STRATA_DIGEST,
        "a tbf body drifted"
    );
}
