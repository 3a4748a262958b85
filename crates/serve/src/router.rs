//! Request routing and analysis handlers.
//!
//! [`respond`] is a total function from a parsed [`Request`] to a
//! [`Response`] — it never panics and never returns a malformed body,
//! whatever the router proptests throw at it. Analysis endpoints go
//! through the [`ResultCache`]; `/healthz`, `/v1/traces`, and
//! `/v1/reload` are uncached control-plane routes.
//!
//! Endpoint map (all under `/v1/<trace>/…` except the first two):
//!
//! | route                       | method | stratum params                |
//! |-----------------------------|--------|-------------------------------|
//! | `/healthz`                  | GET    | —                             |
//! | `/v1/traces`                | GET    | —                             |
//! | `/v1/reload`                | POST   | `trace` (optional: all)       |
//! | `/v1/<trace>/tbf`           | GET    | `system`, `view`, `node`, `era` |
//! | `/v1/<trace>/repair`        | GET    | `cause` (optional)            |
//! | `/v1/<trace>/rates`         | GET    | `system` (optional)           |
//! | `/v1/<trace>/availability`  | GET    | `system` (optional)           |
//! | `/v1/<trace>/pernode`       | GET    | `system`                      |
//! | `/v1/<trace>/findings`      | GET    | —                             |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpcfail_core::tbf::View;
use hpcfail_core::{availability, findings, pernode, rates, repair, tbf, AnalysisError};
use hpcfail_records::{Catalog, NodeId, RootCause, SystemId};

use crate::cache::{CacheKey, ResultCache};
use crate::http::{Method, Request, Response};
use crate::json::Json;
use crate::metrics::{DrainSignal, ServeMetrics};
use crate::render;
use crate::tenant::{Tenant, TenantError, TenantRegistry};

/// Shared server state: tenants, cache, catalog, request counter,
/// resilience metrics, and the graceful-drain latch.
#[derive(Debug)]
pub struct AppState {
    /// Named tenants.
    pub registry: TenantRegistry,
    /// The sharded result cache.
    pub cache: ResultCache,
    /// The system catalog used by catalog-dependent analyses.
    pub catalog: Catalog,
    /// Total requests answered (including errors).
    pub requests: AtomicU64,
    /// Resilience counters (in-flight, shed, deadlines, drain state).
    pub metrics: ServeMetrics,
    /// Graceful-drain latch; `POST /v1/shutdown` sets it and
    /// [`crate::server::run`] waits on it.
    pub drain: DrainSignal,
}

impl AppState {
    /// Fresh state with an empty registry and the LANL catalog.
    pub fn new() -> AppState {
        AppState {
            registry: TenantRegistry::new(),
            cache: ResultCache::new(),
            catalog: Catalog::lanl(),
            requests: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
            drain: DrainSignal::new(),
        }
    }
}

impl Default for AppState {
    fn default() -> Self {
        AppState::new()
    }
}

/// A stratum error carrying the HTTP response to send.
struct BadQuery(Response);

fn bad(msg: &str) -> BadQuery {
    BadQuery(Response::error(400, msg))
}

/// Parsed + canonicalized query parameters for one analysis.
///
/// Canonicalization fills defaults and fixes alphabetical `k=v&…`
/// order, so `?view=systemwide&system=20`, `?system=20`, and the bare
/// path all share one cache key.
struct Params {
    pairs: Vec<(String, String)>,
}

impl Params {
    fn parse(query: &[(String, String)], allowed: &[&str]) -> Result<Params, BadQuery> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for (k, v) in query {
            if !allowed.contains(&k.as_str()) {
                return Err(bad(&format!("unknown query parameter {k:?}")));
            }
            if pairs.iter().any(|(seen, _)| seen == k) {
                return Err(bad(&format!("duplicate query parameter {k:?}")));
            }
            pairs.push((k.clone(), v.clone()));
        }
        Ok(Params { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn u32_or(&self, key: &str, default: u32) -> Result<u32, BadQuery> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<u32>()
                .map_err(|_| bad(&format!("{key:?} must be an unsigned integer, got {v:?}"))),
        }
    }

    fn u32_opt(&self, key: &str) -> Result<Option<u32>, BadQuery> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<u32>()
                .map(Some)
                .map_err(|_| bad(&format!("{key:?} must be an unsigned integer, got {v:?}"))),
        }
    }
}

/// Canonical `k=v&…` stratum string from already-validated pairs,
/// sorted by key.
fn canonical(pairs: &[(&str, String)]) -> String {
    let mut sorted: Vec<&(&str, String)> = pairs.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

fn analysis_error(err: &AnalysisError) -> Response {
    let status = match err {
        AnalysisError::InsufficientData { .. } => 422,
        AnalysisError::Record(_) => 404,
        _ => 500,
    };
    Response::error(status, &err.to_string())
}

fn ok_json(doc: &Json) -> Response {
    Response::json(200, doc.render())
}

/// The tbf stratum: view/system/node/era, with the paper's defaults.
struct TbfStratum {
    view: View,
    era: &'static str,
}

fn parse_tbf(params: &Params) -> Result<(TbfStratum, String), BadQuery> {
    let system = params.u32_or("system", 20)?;
    let view_name = params.get("view").unwrap_or("systemwide");
    let node = params.u32_opt("node")?;
    let view = match (view_name, node) {
        ("systemwide", None) => View::SystemWide(SystemId::new(system)),
        ("pooled", None) => View::PooledNodes(SystemId::new(system)),
        ("node", Some(n)) => View::Node(SystemId::new(system), NodeId::new(n)),
        ("node", None) => return Err(bad("view=node requires a \"node\" parameter")),
        ("systemwide" | "pooled", Some(_)) => {
            return Err(bad("\"node\" is only valid with view=node"))
        }
        (other, _) => {
            return Err(bad(&format!(
                "\"view\" must be systemwide, pooled, or node; got {other:?}"
            )))
        }
    };
    let era = match params.get("era").unwrap_or("all") {
        "all" => "all",
        "early" => "early",
        "late" => "late",
        other => {
            return Err(bad(&format!(
                "\"era\" must be all, early, or late; got {other:?}"
            )))
        }
    };
    let mut pairs = vec![
        ("era", era.to_string()),
        ("system", system.to_string()),
        ("view", view_name.to_string()),
    ];
    if let Some(n) = node {
        pairs.push(("node", n.to_string()));
    }
    Ok((TbfStratum { view, era }, canonical(&pairs)))
}

fn handle_tbf(tenant: &Tenant, stratum: &TbfStratum) -> Response {
    let window = match stratum.era {
        "early" => Some(tbf::paper_era_split().0),
        "late" => Some(tbf::paper_era_split().1),
        _ => None,
    };
    match tbf::analyze_indexed(tenant.index(), stratum.view, window) {
        Ok(a) => ok_json(&render::tbf_json(&a)),
        Err(e) => analysis_error(&e),
    }
}

fn handle_repair(state: &AppState, tenant: &Tenant, cause: Option<RootCause>) -> Response {
    let index = tenant.index();
    match repair::by_cause_indexed(index) {
        Err(e) => analysis_error(&e),
        Ok(by_cause) => match cause {
            Some(c) => ok_json(&render::repair_cause_json(c, &by_cause)),
            None => match repair::fit_all_repairs_indexed(index) {
                Err(e) => analysis_error(&e),
                Ok(fit) => {
                    let by_system = repair::by_system_indexed(index, &state.catalog);
                    let effect = repair::type_effect(&by_system);
                    ok_json(&render::repair_json(&by_cause, &fit, &by_system, &effect))
                }
            },
        },
    }
}

fn handle_rates(state: &AppState, tenant: &Tenant, system: Option<u32>) -> Response {
    match rates::analyze_indexed(tenant.index(), &state.catalog) {
        Err(e) => analysis_error(&e),
        Ok(a) => match system {
            None => ok_json(&render::rates_json(&a)),
            Some(id) => match a.system(SystemId::new(id)) {
                Some(r) => ok_json(&render::rate_system_json(r)),
                None => Response::error(404, &format!("no rate row for system {id}")),
            },
        },
    }
}

fn handle_availability(state: &AppState, tenant: &Tenant, system: Option<u32>) -> Response {
    let index = tenant.index();
    match availability::analyze_indexed(index, &state.catalog) {
        Err(e) => analysis_error(&e),
        Ok(rows) => match system {
            Some(id) => match rows.iter().find(|r| r.system.get() == id) {
                Some(r) => ok_json(&render::availability_system_json(r)),
                None => Response::error(404, &format!("no availability row for system {id}")),
            },
            None => match availability::site_availability_indexed(index, &state.catalog) {
                Err(e) => analysis_error(&e),
                Ok(site) => ok_json(&render::availability_json(&rows, site)),
            },
        },
    }
}

fn handle_pernode(state: &AppState, tenant: &Tenant, system: u32) -> Response {
    match pernode::analyze_indexed(tenant.index(), &state.catalog, SystemId::new(system)) {
        Ok(a) => ok_json(&render::pernode_json(&a)),
        Err(e) => analysis_error(&e),
    }
}

fn handle_findings(state: &AppState, tenant: &Tenant) -> Response {
    match findings::evaluate_indexed(tenant.index(), &state.catalog) {
        Ok(f) => ok_json(&render::findings_json(&f)),
        Err(e) => analysis_error(&e),
    }
}

fn healthz(state: &AppState) -> Response {
    let m = &state.metrics;
    let doc = Json::obj([
        ("status", Json::str("ok")),
        ("tenants", Json::UInt(state.registry.names().len() as u64)),
        (
            "requests",
            Json::UInt(state.requests.load(Ordering::Relaxed)),
        ),
        (
            "server",
            Json::obj([
                ("in_flight", Json::UInt(m.in_flight.load(Ordering::Relaxed))),
                (
                    "active_connections",
                    Json::UInt(m.active_connections.load(Ordering::Relaxed)),
                ),
                ("accepted", Json::UInt(m.accepted.load(Ordering::Relaxed))),
                ("shed", Json::UInt(m.shed.load(Ordering::Relaxed))),
                (
                    "deadline_hits",
                    Json::UInt(m.deadline_hits.load(Ordering::Relaxed)),
                ),
                ("drain", Json::str(m.drain_state())),
                ("uptime_ticks", Json::UInt(m.uptime_ticks())),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("entries", Json::UInt(state.cache.len() as u64)),
                ("hits", Json::UInt(state.cache.hits())),
                ("misses", Json::UInt(state.cache.misses())),
                ("hit_rate", Json::Num(state.cache.hit_rate())),
            ]),
        ),
    ]);
    ok_json(&doc)
}

/// `POST /v1/shutdown`: request a graceful drain. The response goes out
/// before the drain begins — the in-flight contract applies to this
/// request too.
fn shutdown(state: &AppState) -> Response {
    state.drain.request();
    ok_json(&Json::obj([("draining", Json::Bool(true))]))
}

fn traces(state: &AppState) -> Response {
    let doc = Json::obj([(
        "traces",
        Json::arr(state.registry.snapshot().iter().map(|t| {
            Json::obj([
                ("name", Json::str(t.name.clone())),
                ("generation", Json::UInt(t.generation)),
                ("records", Json::UInt(t.len() as u64)),
            ])
        })),
    )]);
    ok_json(&doc)
}

fn reload(state: &AppState, req: &Request) -> Response {
    let params = match Params::parse(&req.query, &["trace"]) {
        Ok(p) => p,
        Err(BadQuery(resp)) => return resp,
    };
    let names = match params.get("trace") {
        Some(name) => vec![name.to_string()],
        None => state.registry.names(),
    };
    let mut reloaded = Vec::new();
    for name in &names {
        match state.registry.reload(name) {
            Ok(tenant) => {
                let invalidated = state.cache.invalidate_tenant(name);
                reloaded.push(Json::obj([
                    ("name", Json::str(name.clone())),
                    ("generation", Json::UInt(tenant.generation)),
                    ("invalidated", Json::UInt(invalidated as u64)),
                ]));
            }
            Err(TenantError::UnknownTenant(n)) => {
                return Response::error(404, &format!("no such trace {n:?}"))
            }
            // The old generation stays live and keeps serving (the
            // registry never swapped); report a typed, retryable error.
            Err(e @ (TenantError::Load(_) | TenantError::EmptyReload { .. })) => {
                let generation = state.registry.get(name).map_or(0, |t| t.generation);
                return Response::error_kind(
                    503,
                    "reload_failed",
                    &format!("{e}; generation {generation} still serving"),
                );
            }
            Err(e) => return Response::error(500, &e.to_string()),
        }
    }
    ok_json(&Json::obj([("reloaded", Json::Arr(reloaded))]))
}

/// Route one parsed request to its handler. Total: every input maps to
/// a well-formed JSON response.
pub fn respond(state: &AppState, req: &Request) -> Response {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let segs: Vec<&str> = req.path.iter().map(String::as_str).collect();
    match (&req.method, segs.as_slice()) {
        (Method::Get, ["healthz"]) => healthz(state),
        (Method::Get, ["v1", "traces"]) => traces(state),
        (Method::Post, ["v1", "reload"]) => reload(state, req),
        (Method::Post, ["v1", "shutdown"]) => shutdown(state),
        (Method::Post, ["healthz"] | ["v1", "traces"]) => {
            Response::error(405, "method not allowed; use GET")
        }
        (Method::Get, ["v1", "reload" | "shutdown"]) => {
            Response::error(405, "method not allowed; use POST")
        }
        (Method::Get, ["v1", trace, analysis]) => analyze(state, trace, analysis, req),
        (_, ["v1", _, _]) => Response::error(405, "method not allowed; use GET"),
        (Method::Other(_), _) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

const ANALYSES: [&str; 6] = [
    "tbf",
    "repair",
    "rates",
    "availability",
    "pernode",
    "findings",
];

fn analyze(state: &AppState, trace: &str, analysis: &str, req: &Request) -> Response {
    if !ANALYSES.contains(&analysis) {
        return Response::error(404, &format!("no such analysis {analysis:?}"));
    }
    let Some(tenant) = state.registry.get(trace) else {
        return Response::error(404, &format!("no such trace {trace:?}"));
    };
    // Parse and canonicalize the stratum before touching the cache so
    // bad queries are rejected (and never cached) up front.
    let parsed = match analysis {
        "tbf" => Params::parse(&req.query, &["system", "view", "node", "era"])
            .and_then(|p| parse_tbf(&p).map(|(s, canon)| (canon, Strat::Tbf(s)))),
        "repair" => Params::parse(&req.query, &["cause"]).and_then(|p| {
            let cause = match p.get("cause") {
                None => None,
                Some(v) => Some(
                    v.parse::<RootCause>()
                        .map_err(|_| bad(&format!("unknown cause {v:?}")))?,
                ),
            };
            let canon = canonical(&[(
                "cause",
                cause.map_or_else(|| "all".to_string(), |c| c.name().to_string()),
            )]);
            Ok((canon, Strat::Repair(cause)))
        }),
        "rates" | "availability" => Params::parse(&req.query, &["system"]).and_then(|p| {
            let system = p.u32_opt("system")?;
            let canon = canonical(&[(
                "system",
                system.map_or_else(|| "all".to_string(), |s| s.to_string()),
            )]);
            Ok((
                canon,
                if analysis == "rates" {
                    Strat::Rates(system)
                } else {
                    Strat::Availability(system)
                },
            ))
        }),
        "pernode" => Params::parse(&req.query, &["system"]).and_then(|p| {
            let system = p.u32_or("system", 20)?;
            Ok((
                canonical(&[("system", system.to_string())]),
                Strat::PerNode(system),
            ))
        }),
        _ => Params::parse(&req.query, &[]).map(|_| (String::new(), Strat::Findings)),
    };
    let (stratum, strat) = match parsed {
        Ok(x) => x,
        Err(BadQuery(resp)) => return resp,
    };
    let key = CacheKey {
        tenant: tenant.name.clone(),
        generation: tenant.generation,
        analysis: match analysis {
            "tbf" => "tbf",
            "repair" => "repair",
            "rates" => "rates",
            "availability" => "availability",
            "pernode" => "pernode",
            _ => "findings",
        },
        stratum,
    };
    let tenant: Arc<Tenant> = tenant;
    state.cache.get_or_compute(key, || match &strat {
        Strat::Tbf(s) => handle_tbf(&tenant, s),
        Strat::Repair(cause) => handle_repair(state, &tenant, *cause),
        Strat::Rates(system) => handle_rates(state, &tenant, *system),
        Strat::Availability(system) => handle_availability(state, &tenant, *system),
        Strat::PerNode(system) => handle_pernode(state, &tenant, *system),
        Strat::Findings => handle_findings(state, &tenant),
    })
}

enum Strat {
    Tbf(TbfStratum),
    Repair(Option<RootCause>),
    Rates(Option<u32>),
    Availability(Option<u32>),
    PerNode(u32),
    Findings,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use crate::tenant::TenantSource;
    use hpcfail_records::FailureTrace;

    fn state_with_synth() -> AppState {
        let state = AppState::new();
        let trace = hpcfail_synth::scenario::system_trace(
            SystemId::new(20),
            hpcfail_synth::scenario::DEFAULT_SEED,
        )
        .unwrap();
        state
            .registry
            .insert("synth", TenantSource::Static(Arc::new(trace)))
            .unwrap();
        state
    }

    fn get(state: &AppState, target: &str) -> Response {
        let raw = format!("GET {target} HTTP/1.1\r\nhost: x\r\n\r\n");
        respond(state, &parse_request(raw.as_bytes()).unwrap())
    }

    #[test]
    fn healthz_and_traces() {
        let state = state_with_synth();
        let h = get(&state, "/healthz");
        assert_eq!(h.status, 200);
        assert!(h.body.contains("\"status\":\"ok\""));
        let t = get(&state, "/v1/traces");
        assert_eq!(t.status, 200);
        assert!(t.body.contains("\"name\":\"synth\""));
    }

    #[test]
    fn equivalent_queries_share_a_cache_key() {
        let state = state_with_synth();
        let a = get(&state, "/v1/synth/tbf");
        let b = get(&state, "/v1/synth/tbf?view=systemwide&system=20&era=all");
        let c = get(&state, "/v1/synth/tbf?system=20");
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body);
        assert_eq!(a.body, c.body);
        assert_eq!(state.cache.misses(), 1);
        assert_eq!(state.cache.hits(), 2);
    }

    #[test]
    fn bad_queries_are_400_and_uncached() {
        let state = state_with_synth();
        for target in [
            "/v1/synth/tbf?bogus=1",
            "/v1/synth/tbf?view=sideways",
            "/v1/synth/tbf?view=node",
            "/v1/synth/tbf?system=abc",
            "/v1/synth/tbf?system=1&system=2",
            "/v1/synth/repair?cause=gremlins",
            "/v1/synth/pernode?system=-3",
        ] {
            let resp = get(&state, target);
            assert_eq!(resp.status, 400, "{target}");
            assert!(resp.body.starts_with("{\"error\":"), "{target}");
        }
        assert_eq!(state.cache.len(), 0);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let state = state_with_synth();
        assert_eq!(get(&state, "/nope").status, 404);
        assert_eq!(get(&state, "/v1/ghost/tbf").status, 404);
        assert_eq!(get(&state, "/v1/synth/astrology").status, 404);
        let post = parse_request(b"POST /v1/synth/tbf HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(respond(&state, &post).status, 405);
        let put = parse_request(b"PUT /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(respond(&state, &put).status, 405);
    }

    #[test]
    fn reload_bumps_generation_and_purges_only_that_tenant() {
        let state = state_with_synth();
        state
            .registry
            .insert(
                "other",
                TenantSource::Static(Arc::new(FailureTrace::from_records(Vec::new()))),
            )
            .unwrap();
        get(&state, "/v1/synth/pernode");
        get(&state, "/v1/other/rates"); // errors are cached too
        assert_eq!(state.cache.len(), 2);
        let req = parse_request(b"POST /v1/reload?trace=synth HTTP/1.1\r\n\r\n").unwrap();
        let resp = respond(&state, &req);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"generation\":2"));
        assert_eq!(state.cache.len(), 1);
        assert_eq!(state.registry.get("synth").unwrap().generation, 2);
        assert_eq!(state.registry.get("other").unwrap().generation, 1);
    }

    #[test]
    fn analysis_errors_map_to_4xx() {
        let state = AppState::new();
        state
            .registry
            .insert(
                "empty",
                TenantSource::Static(Arc::new(FailureTrace::from_records(Vec::new()))),
            )
            .unwrap();
        let resp = get(&state, "/v1/empty/tbf");
        assert_eq!(resp.status, 422);
        let resp = get(&state, "/v1/empty/availability");
        assert_eq!(resp.status, 422);
    }
}
