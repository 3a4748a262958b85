//! The paper's Section-8 summary, checked programmatically.
//!
//! [`evaluate_indexed`] runs every analysis over a trace and reduces the
//! results to the paper's bullet-point conclusions, each with the
//! measured value attached — the one-call acceptance check for any
//! trace (synthetic or a real ingested log).

use hpcfail_records::{Catalog, RootCause, SystemId, TraceIndex};
use hpcfail_stats::fit::Family;

use crate::error::AnalysisError;
use crate::{periodic, rates, repair, rootcause, tbf};

/// One checked conclusion.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Short identifier (e.g. "weibull-tbf").
    pub id: &'static str,
    /// The paper's claim, paraphrased.
    pub claim: &'static str,
    /// Whether the trace supports the claim.
    pub holds: bool,
    /// The measured evidence, human-readable.
    pub evidence: String,
}

/// A sub-analysis that failed during evaluation.
///
/// Rather than aborting the whole summary, [`evaluate_indexed`] records
/// the failure here and marks the affected findings as not evaluable.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded {
    /// Which sub-analysis failed (e.g. "rates").
    pub experiment: &'static str,
    /// The rendered error.
    pub cause: String,
}

/// The full Section-8 summary over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Findings {
    /// Individual conclusions, in the paper's order.
    pub findings: Vec<Finding>,
    /// Sub-analyses that failed; their findings are present but marked
    /// not evaluable (`holds == false`).
    pub degraded: Vec<Degraded>,
}

impl Findings {
    /// Whether every conclusion holds.
    pub fn all_hold(&self) -> bool {
        self.findings.iter().all(|f| f.holds)
    }
}

/// A finding whose sub-analysis failed: present, not holding, with the
/// error as evidence.
fn not_evaluable(id: &'static str, claim: &'static str, cause: &str) -> Finding {
    Finding {
        id,
        claim,
        holds: false,
        evidence: format!("not evaluable: {cause}"),
    }
}

/// Evaluate the paper's summary conclusions against a trace.
///
/// Uses system 20 for the TBF-era conclusions (the paper's running
/// example); a trace without enough system-20 data records those findings
/// as not holding rather than erroring.
///
/// A failing sub-analysis (e.g. an empty trace starves the rate
/// analysis) no longer aborts the evaluation: the affected findings are
/// reported as not evaluable and the failure is recorded in
/// [`Findings::degraded`]. All seven findings are always present.
///
/// One [`TraceIndex`] serves every sub-analysis instead of each building
/// (or scanning) its own.
///
/// # Errors
///
/// Reserved for future fatal conditions; sub-analysis failures degrade
/// instead of erroring.
pub fn evaluate_indexed(index: &TraceIndex, catalog: &Catalog) -> Result<Findings, AnalysisError> {
    let mut findings = Vec::new();
    let mut degraded = Vec::new();

    // "Failure rates vary widely across systems, 20 to >1000 per year."
    // "Failure rate roughly proportional to number of processors."
    const RATE_RANGE_CLAIM: &str =
        "failure rates vary widely across systems (paper: ~20 to >1000/year)";
    const RATE_LINEAR_CLAIM: &str = "failure rate grows roughly linearly with processor count";
    match rates::analyze_indexed(index, catalog) {
        Ok(rate_analysis) => {
            let (min, max) = rate_analysis.per_year_range();
            findings.push(Finding {
                id: "rate-range",
                claim: RATE_RANGE_CLAIM,
                holds: max / min.max(1.0) > 10.0 && max > 500.0,
                evidence: format!("{min:.0} to {max:.0} failures/year"),
            });
            let raw = rate_analysis.raw_variability();
            let norm = rate_analysis.normalized_variability();
            findings.push(Finding {
                id: "rate-linear-in-size",
                claim: RATE_LINEAR_CLAIM,
                holds: norm < raw,
                evidence: format!("C² across systems {raw:.2} raw vs {norm:.2} per-processor"),
            });
        }
        Err(e) => {
            let cause = e.to_string();
            findings.push(not_evaluable("rate-range", RATE_RANGE_CLAIM, &cause));
            findings.push(not_evaluable(
                "rate-linear-in-size",
                RATE_LINEAR_CLAIM,
                &cause,
            ));
            degraded.push(Degraded {
                experiment: "rates",
                cause,
            });
        }
    }

    // "Correlation between failure rate and workload type/intensity."
    const WORKLOAD_CLAIM: &str =
        "failure rate correlates with workload intensity (daily/weekly rhythm)";
    match periodic::analyze_indexed(index) {
        Ok(pattern) => {
            let hour = pattern.hourly_peak_to_trough();
            let week = pattern.weekday_to_weekend();
            findings.push(Finding {
                id: "workload-correlation",
                claim: WORKLOAD_CLAIM,
                holds: hour > 1.3 && week > 1.3,
                evidence: format!("hourly peak/trough {hour:.2}, weekday/weekend {week:.2}"),
            });
        }
        Err(e) => {
            let cause = e.to_string();
            findings.push(not_evaluable(
                "workload-correlation",
                WORKLOAD_CLAIM,
                &cause,
            ));
            degraded.push(Degraded {
                experiment: "periodic",
                cause,
            });
        }
    }

    // "TBF not exponential; Weibull/gamma with decreasing hazard."
    let sys20 = SystemId::new(20);
    let (_, late) = tbf::paper_era_split();
    let tbf_finding = match tbf::analyze_indexed(index, tbf::View::SystemWide(sys20), Some(late)) {
        Ok(a) => {
            let best = a.fits.best().map(|c| c.family);
            let weibull_like = best == Some(Family::Weibull) || best == Some(Family::Gamma);
            Finding {
                id: "weibull-tbf",
                claim: "time between failures is Weibull/gamma with decreasing hazard, \
                        not exponential",
                holds: weibull_like && a.has_decreasing_hazard(),
                evidence: format!(
                    "best fit {:?}, weibull shape {:?}, hazard {}",
                    best, a.weibull_shape, a.hazard_trend
                ),
            }
        }
        Err(e) => {
            degraded.push(Degraded {
                experiment: "tbf",
                cause: e.to_string(),
            });
            Finding {
                id: "weibull-tbf",
                claim: "time between failures is Weibull/gamma with decreasing hazard, \
                        not exponential",
                holds: false,
                evidence: format!("not evaluable: {e}"),
            }
        }
    };
    findings.push(tbf_finding);

    // "Mean repair times vary widely across systems, driven by type."
    const TYPE_EFFECT_CLAIM: &str = "mean repair time varies widely across systems and \
                                     depends on hardware type, not size";
    let per_system = repair::by_system_indexed(index, catalog);
    let effect = repair::type_effect(&per_system);
    let starved = if effect.across_all_spread.is_nan() {
        Some("fewer than 2 systems with at least 30 repairs")
    } else if effect.max_within_type_spread.is_nan() {
        Some("no hardware type with 2 systems of at least 30 repairs")
    } else {
        None
    };
    match starved {
        None => findings.push(Finding {
            id: "repair-type-effect",
            claim: TYPE_EFFECT_CLAIM,
            holds: effect.across_all_spread > 2.0
                && effect.max_within_type_spread < effect.across_all_spread,
            evidence: format!(
                "{:.1}x across systems, ≤{:.1}x within a type",
                effect.across_all_spread, effect.max_within_type_spread
            ),
        }),
        Some(cause) => {
            findings.push(not_evaluable(
                "repair-type-effect",
                TYPE_EFFECT_CLAIM,
                cause,
            ));
            degraded.push(Degraded {
                experiment: "repair-type-effect",
                cause: cause.to_string(),
            });
        }
    }

    // "Repair times lognormal, extremely variable."
    const LOGNORMAL_CLAIM: &str = "repair times are better modeled by a lognormal than an \
                                   exponential and are extremely variable";
    let repair_result = repair::fit_all_repairs_indexed(index)
        .and_then(|fit| Ok((fit, repair::by_cause_indexed(index)?)));
    match repair_result {
        Ok((fit, table)) => {
            let lognormal_best = fit.best().map(|c| c.family) == Some(Family::LogNormal);
            findings.push(Finding {
                id: "lognormal-repair",
                claim: LOGNORMAL_CLAIM,
                holds: lognormal_best && table.all.summary.c2 > 3.0,
                evidence: format!(
                    "best fit {:?}, aggregate C² {:.1}",
                    fit.best().map(|c| c.family),
                    table.all.summary.c2
                ),
            });
        }
        Err(e) => {
            let cause = e.to_string();
            findings.push(not_evaluable("lognormal-repair", LOGNORMAL_CLAIM, &cause));
            degraded.push(Degraded {
                experiment: "repair",
                cause,
            });
        }
    }

    // "Hardware and software are the largest contributors."
    const CAUSE_LEAD_CLAIM: &str =
        "hardware and software are among the largest contributors to failures";
    if index.is_empty() {
        let cause = "no failure records";
        findings.push(not_evaluable(
            "hardware-software-lead",
            CAUSE_LEAD_CLAIM,
            cause,
        ));
        degraded.push(Degraded {
            experiment: "rootcause",
            cause: cause.to_string(),
        });
    } else {
        let breakdown = rootcause::CauseBreakdown::from_view(&index.all());
        let hw = breakdown.fraction_of_failures(RootCause::Hardware);
        let sw = breakdown.fraction_of_failures(RootCause::Software);
        findings.push(Finding {
            id: "hardware-software-lead",
            claim: CAUSE_LEAD_CLAIM,
            holds: hw > 0.25 && hw + sw > 0.4,
            evidence: format!("hardware {:.0}%, software {:.0}%", hw * 100.0, sw * 100.0),
        });
    }

    Ok(Findings { findings, degraded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::FailureTrace;

    fn finding<'a>(findings: &'a Findings, id: &str) -> Option<&'a Finding> {
        findings.findings.iter().find(|f| f.id == id)
    }

    #[test]
    fn all_findings_hold_on_calibrated_trace() {
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let findings = evaluate_indexed(&trace.index(), &catalog).unwrap();
        assert_eq!(findings.findings.len(), 7);
        for f in &findings.findings {
            assert!(f.holds, "{}: {}", f.id, f.evidence);
        }
        assert!(findings.all_hold());
        assert!(findings.degraded.is_empty(), "{:?}", findings.degraded);
        assert!(finding(&findings, "weibull-tbf").is_some());
        assert!(finding(&findings, "nonexistent").is_none());
    }

    #[test]
    fn failed_sub_analyses_degrade_instead_of_erroring() {
        // A trace too small for any analysis: evaluation must still
        // return all seven findings, with the starved ones marked not
        // evaluable and the failures recorded.
        use hpcfail_records::{DetailedCause, FailureRecord, NodeId, Timestamp, Workload};
        let catalog = Catalog::lanl();
        let at = Timestamp::from_civil(2003, 5, 1, 12, 0, 0).unwrap();
        let rec = FailureRecord::new(
            SystemId::new(20),
            NodeId::new(0),
            at,
            at + 3_600,
            Workload::Compute,
            DetailedCause::Memory,
        )
        .unwrap();
        // The one-record trace and the empty trace.
        for trace in [
            FailureTrace::from_records(vec![rec]),
            FailureTrace::default(),
        ] {
            let findings = evaluate_indexed(&trace.index(), &catalog).unwrap();
            assert_eq!(findings.findings.len(), 7);
            assert!(!findings.degraded.is_empty());
            assert!(!findings.all_hold());
            let tbf = finding(&findings, "weibull-tbf").unwrap();
            assert!(tbf.evidence.contains("not evaluable"), "{}", tbf.evidence);
            for f in &findings.findings {
                assert!(!f.evidence.contains("NaN"), "{}: {}", f.id, f.evidence);
            }
            for d in &findings.degraded {
                assert!(!d.cause.is_empty(), "{}: empty cause", d.experiment);
            }
        }
    }

    #[test]
    fn exponential_world_fails_the_weibull_finding() {
        // A memoryless, homogeneous, flat-rate synthetic world should
        // violate several of the paper's conclusions — evidence that the
        // checker actually discriminates.
        use hpcfail_records::{DetailedCause, FailureRecord, NodeId, Timestamp, Workload};
        use hpcfail_stats::dist::{Continuous, Exponential};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let catalog = Catalog::lanl();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let gap = Exponential::from_mean(6.0 * 3_600.0).unwrap();
        let mut t = spec.production_start().as_secs() as f64;
        let mut records = Vec::new();
        let end = spec.production_end().as_secs() as f64;
        let mut node = 0u32;
        while t < end {
            t += gap.sample(&mut rng);
            if t >= end {
                break;
            }
            let at = Timestamp::from_secs(t as u64);
            records.push(
                FailureRecord::new(
                    SystemId::new(20),
                    NodeId::new(node % spec.nodes()),
                    at,
                    at + 3_600,
                    Workload::Compute,
                    DetailedCause::Memory,
                )
                .unwrap(),
            );
            node += 1;
        }
        let trace = hpcfail_records::FailureTrace::from_records(records);
        let findings = evaluate_indexed(&trace.index(), &catalog).unwrap();
        // The flat exponential world has no daily rhythm and (being
        // memoryless) no decreasing hazard...
        assert!(!finding(&findings, "workload-correlation").unwrap().holds);
        // ...and constant-duration repairs are not lognormal-ish.
        assert!(!finding(&findings, "lognormal-repair").unwrap().holds);
        assert!(!findings.all_hold());
    }
}
