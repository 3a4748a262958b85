//! JSON renderers for the analysis result types.
//!
//! These are pure functions from `hpcfail-core` result structs to
//! [`Json`] documents. The server and `tests/serve_integration.rs` call
//! the *same* renderers — the test computes each analysis directly via
//! the library and byte-compares its rendering to the HTTP body, which
//! pins the contract that the server never changes an answer.

use hpcfail_core::availability::SystemAvailability;
use hpcfail_core::findings::Findings;
use hpcfail_core::pernode::PerNodeAnalysis;
use hpcfail_core::rates::{RateAnalysis, SystemRate};
use hpcfail_core::repair::{RepairByCause, RepairRow, SystemRepair, TypeEffect};
use hpcfail_core::tbf::{TbfAnalysis, View};
use hpcfail_stats::descriptive::Summary;
use hpcfail_stats::fit::FitReport;

use crate::json::Json;

/// Render a descriptive summary.
pub(crate) fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("mean", Json::Num(s.mean)),
        ("median", Json::Num(s.median)),
        ("std_dev", Json::Num(s.std_dev)),
        ("c2", Json::Num(s.c2)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("count", Json::UInt(s.count as u64)),
    ])
}

/// Render a fit report: ranked candidates with their GoF metrics plus
/// the families that failed to fit.
pub(crate) fn fit_report_json(r: &FitReport) -> Json {
    Json::obj([
        ("n", Json::UInt(r.n as u64)),
        (
            "best",
            Json::opt(r.best().map(|c| Json::str(c.family.name()))),
        ),
        (
            "candidates",
            Json::arr(r.candidates.iter().map(|c| {
                Json::obj([
                    ("family", Json::str(c.family.name())),
                    ("nll", Json::Num(c.nll)),
                    ("aic", Json::Num(c.aic)),
                    ("bic", Json::Num(c.bic)),
                    ("ks", Json::Num(c.ks)),
                ])
            })),
        ),
        (
            "failed",
            Json::arr(r.failures.iter().map(|(fam, err)| {
                Json::obj([
                    ("family", Json::str(fam.name())),
                    ("error", Json::str(err.to_string())),
                ])
            })),
        ),
    ])
}

fn view_json(view: &View) -> Json {
    match view {
        View::Node(system, node) => Json::obj([
            ("kind", Json::str("node")),
            ("system", Json::UInt(system.get() as u64)),
            ("node", Json::UInt(node.get() as u64)),
        ]),
        View::SystemWide(system) => Json::obj([
            ("kind", Json::str("systemwide")),
            ("system", Json::UInt(system.get() as u64)),
        ]),
        View::PooledNodes(system) => Json::obj([
            ("kind", Json::str("pooled")),
            ("system", Json::UInt(system.get() as u64)),
        ]),
    }
}

/// Render the Fig. 6 time-between-failures analysis.
pub fn tbf_json(a: &TbfAnalysis) -> Json {
    Json::obj([
        ("view", view_json(&a.view)),
        ("n", Json::UInt(a.n as u64)),
        ("zero_fraction", Json::Num(a.zero_fraction)),
        ("c2", Json::Num(a.c2)),
        ("mean_secs", Json::Num(a.mean_secs)),
        ("weibull_shape", Json::opt_num(a.weibull_shape)),
        ("hazard_trend", Json::str(a.hazard_trend.to_string())),
        ("decreasing_hazard", Json::Bool(a.has_decreasing_hazard())),
        (
            "dominated_by_simultaneity",
            Json::Bool(a.dominated_by_simultaneity()),
        ),
        ("gap_autocorrelation", Json::opt_num(a.gap_autocorrelation)),
        ("fits", fit_report_json(&a.fits)),
    ])
}

fn repair_row_json(row: &RepairRow) -> Json {
    Json::obj([
        ("cause", Json::opt(row.cause.map(|c| Json::str(c.name())))),
        ("summary", summary_json(&row.summary)),
    ])
}

fn system_repair_json(r: &SystemRepair) -> Json {
    Json::obj([
        ("system", Json::UInt(r.system.get() as u64)),
        ("hardware", Json::str(r.hardware.to_string())),
        ("count", Json::UInt(r.count as u64)),
        ("mean_minutes", Json::Num(r.mean_minutes)),
        ("median_minutes", Json::Num(r.median_minutes)),
    ])
}

/// Render the full repair analysis: Table 2 by cause, the Fig. 7(a)
/// fits, the Fig. 7(b)(c) per-system rows, and the type effect.
pub fn repair_json(
    by_cause: &RepairByCause,
    fit: &FitReport,
    by_system: &[SystemRepair],
    effect: &TypeEffect,
) -> Json {
    Json::obj([
        (
            "by_cause",
            Json::arr(by_cause.rows.iter().map(repair_row_json)),
        ),
        ("all", repair_row_json(&by_cause.all)),
        ("fit", fit_report_json(fit)),
        (
            "by_system",
            Json::arr(by_system.iter().map(system_repair_json)),
        ),
        (
            "type_effect",
            Json::obj([
                (
                    "max_within_type_spread",
                    Json::Num(effect.max_within_type_spread),
                ),
                ("across_all_spread", Json::Num(effect.across_all_spread)),
            ]),
        ),
    ])
}

/// Render the single-cause repair stratum.
pub fn repair_cause_json(cause: hpcfail_records::RootCause, by_cause: &RepairByCause) -> Json {
    Json::obj([
        ("cause", Json::str(cause.name())),
        ("row", Json::opt(by_cause.row(cause).map(repair_row_json))),
        ("all", repair_row_json(&by_cause.all)),
    ])
}

/// Render the one-system rate stratum (also each row of [`rates_json`]).
pub fn rate_system_json(r: &SystemRate) -> Json {
    Json::obj([
        ("system", Json::UInt(r.system.get() as u64)),
        ("hardware", Json::str(r.hardware.to_string())),
        ("failures", Json::UInt(r.failures)),
        ("years", Json::Num(r.years)),
        ("procs", Json::UInt(r.procs as u64)),
        ("nodes", Json::UInt(r.nodes as u64)),
        ("per_year", Json::Num(r.per_year)),
        ("per_proc_year", Json::Num(r.per_proc_year)),
    ])
}

/// Render the Fig. 2 rate analysis (all systems).
pub fn rates_json(a: &RateAnalysis) -> Json {
    let (min, max) = a.per_year_range();
    Json::obj([
        ("rates", Json::arr(a.rates.iter().map(rate_system_json))),
        (
            "per_year_range",
            Json::arr([Json::Num(min), Json::Num(max)]),
        ),
        ("raw_variability", Json::Num(a.raw_variability())),
        (
            "normalized_variability",
            Json::Num(a.normalized_variability()),
        ),
    ])
}

/// Render the one-system availability stratum (also each row of
/// [`availability_json`]).
pub fn availability_system_json(r: &SystemAvailability) -> Json {
    Json::obj([
        ("system", Json::UInt(r.system.get() as u64)),
        ("hardware", Json::str(r.hardware.to_string())),
        ("downtime_node_hours", Json::Num(r.downtime_node_hours)),
        ("capacity_node_hours", Json::Num(r.capacity_node_hours)),
        ("availability", Json::Num(r.availability)),
        ("nines", Json::Num(r.nines)),
    ])
}

/// Render per-system availability plus the site aggregate.
pub fn availability_json(rows: &[SystemAvailability], site: f64) -> Json {
    Json::obj([
        (
            "systems",
            Json::arr(rows.iter().map(availability_system_json)),
        ),
        ("site", Json::Num(site)),
    ])
}

/// Render the Fig. 3 per-node analysis.
pub fn pernode_json(a: &PerNodeAnalysis) -> Json {
    Json::obj([
        ("system", Json::UInt(a.system.get() as u64)),
        ("counts", Json::arr(a.counts.iter().map(|&c| Json::UInt(c)))),
        (
            "graphics_nodes",
            Json::arr(a.graphics_nodes.iter().map(|&n| Json::UInt(n as u64))),
        ),
        (
            "graphics_failure_share",
            Json::Num(a.graphics_failure_share),
        ),
        ("graphics_node_share", Json::Num(a.graphics_node_share)),
        (
            "compute_fits",
            Json::obj([
                ("poisson_nll", Json::opt_num(a.compute_fits.poisson_nll)),
                ("normal_nll", Json::opt_num(a.compute_fits.normal_nll)),
                ("lognormal_nll", Json::opt_num(a.compute_fits.lognormal_nll)),
                (
                    "negative_binomial_nll",
                    Json::opt_num(a.compute_fits.negative_binomial_nll),
                ),
                (
                    "dispersion_index",
                    Json::Num(a.compute_fits.dispersion_index),
                ),
                ("best", Json::opt(a.compute_fits.best().map(Json::str))),
                (
                    "poisson_is_worst",
                    Json::Bool(a.compute_fits.poisson_is_worst()),
                ),
            ]),
        ),
    ])
}

/// Render the Section-8 findings summary.
pub fn findings_json(f: &Findings) -> Json {
    Json::obj([
        (
            "findings",
            Json::arr(f.findings.iter().map(|x| {
                Json::obj([
                    ("id", Json::str(x.id)),
                    ("claim", Json::str(x.claim)),
                    ("holds", Json::Bool(x.holds)),
                    ("evidence", Json::str(x.evidence.clone())),
                ])
            })),
        ),
        (
            "degraded",
            Json::arr(f.degraded.iter().map(|d| {
                Json::obj([
                    ("experiment", Json::str(d.experiment)),
                    ("cause", Json::str(d.cause.clone())),
                ])
            })),
        ),
        ("all_hold", Json::Bool(f.all_hold())),
    ])
}
