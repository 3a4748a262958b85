//! The paper's Section-8 conclusions, checked against any trace
//! (synthetic or a real ingested log) from its [`Analyses`] memo, each
//! with the measured value attached.

use hpcfail_records::{Catalog, RootCause, TraceIndex};
use hpcfail_stats::fit::Family;

use crate::error::AnalysisError;
use crate::paper::Analyses;
use crate::repair;

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

/// A sub-analysis that failed during evaluation: rather than abort,
/// [`evaluate`] records it here and marks its findings not evaluable.
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

/// What a claim's check finds: whether the claim holds and the
/// evidence, or why its experiment could not run.
type Check = fn(&Analyses) -> Result<(bool, String), String>;

/// An analysis result, or its error as a finding's cause.
fn ran<T>(result: &Result<T, AnalysisError>) -> Result<&T, String> {
    result.as_ref().map_err(ToString::to_string)
}

/// The Section-8 conclusions in the paper's order: id, claim, the
/// experiment whose failure leaves the claim not evaluable, and its check.
const CLAIMS: [(&str, &str, &str, Check); 7] = [
    (
        "rate-range",
        "failure rates vary widely across systems (paper: ~20 to >1000/year)",
        "rates",
        |a| {
            let (min, max) = ran(a.rates())?.per_year_range();
            let holds = max / min.max(1.0) > 10.0 && max > 500.0;
            Ok((holds, format!("{min:.0} to {max:.0} failures/year")))
        },
    ),
    (
        "rate-linear-in-size",
        "failure rate grows roughly linearly with processor count",
        "rates",
        |a| {
            let rates = ran(a.rates())?;
            let (raw, norm) = (rates.raw_variability(), rates.normalized_variability());
            let evidence = format!("C² across systems {raw:.2} raw vs {norm:.2} per-processor");
            Ok((norm < raw, evidence))
        },
    ),
    (
        "workload-correlation",
        "failure rate correlates with workload intensity (daily/weekly rhythm)",
        "periodic",
        |a| {
            let p = ran(a.periodic())?;
            let (hour, week) = (p.hourly_peak_to_trough(), p.weekday_to_weekend());
            let evidence = format!("hourly peak/trough {hour:.2}, weekday/weekend {week:.2}");
            Ok((hour > 1.3 && week > 1.3, evidence))
        },
    ),
    (
        "weibull-tbf",
        "time between failures is Weibull/gamma with decreasing hazard, not exponential",
        "tbf",
        |a| {
            let t = ran(a.fig6(3))?; // Fig. 6(d): system 20 as a whole, late era
            let best = t.fits.best().map(|c| c.family);
            let weibull_like = matches!(best, Some(Family::Weibull | Family::Gamma));
            let (shape, hazard) = (t.weibull_shape, t.hazard_trend);
            let evidence = format!("best fit {best:?}, weibull shape {shape:?}, hazard {hazard}");
            Ok((weibull_like && t.has_decreasing_hazard(), evidence))
        },
    ),
    (
        "repair-type-effect",
        "mean repair time varies widely across systems and depends on hardware type, not size",
        "repair-type-effect",
        |a| {
            let effect = repair::type_effect(a.repair_by_system());
            let (across, within) = (effect.across_all_spread, effect.max_within_type_spread);
            if across.is_nan() {
                return Err("fewer than 2 systems with at least 30 repairs".into());
            } else if within.is_nan() {
                return Err("no hardware type with 2 systems of at least 30 repairs".into());
            }
            let evidence = format!("{across:.1}x across systems, ≤{within:.1}x within a type");
            Ok((across > 2.0 && within < across, evidence))
        },
    ),
    (
        "lognormal-repair",
        "repair times are better modeled by a lognormal than an exponential and are \
         extremely variable",
        "repair",
        |a| {
            let best = ran(a.repair_fit())?.best().map(|c| c.family);
            let c2 = ran(a.repair_by_cause())?.all.summary.c2;
            let evidence = format!("best fit {best:?}, aggregate C² {c2:.1}");
            Ok((best == Some(Family::LogNormal) && c2 > 3.0, evidence))
        },
    ),
    (
        "hardware-software-lead",
        "hardware and software are among the largest contributors to failures",
        "rootcause",
        |a| {
            if a.index().is_empty() {
                return Err("no failure records".into());
            }
            let all = &a.rootcause().all;
            let hw = all.fraction_of_failures(RootCause::Hardware);
            let sw = all.fraction_of_failures(RootCause::Software);
            let evidence = format!("hardware {:.0}%, software {:.0}%", hw * 100.0, sw * 100.0);
            Ok((hw > 0.25 && hw + sw > 0.4, evidence))
        },
    ),
];

/// Check the Section-8 conclusions against one trace's analyses. A
/// failed analysis (an empty trace starves the rates, say) leaves its
/// findings not evaluable, holding `false`, and is recorded once in
/// [`Findings::degraded`]; all seven findings are always present.
///
/// # Errors
///
/// Reserved for future fatal conditions; failed analyses degrade instead.
pub fn evaluate(analyses: &Analyses) -> Result<Findings, AnalysisError> {
    let (mut findings, mut degraded) = (Vec::new(), Vec::<Degraded>::new());
    for (id, claim, experiment, check) in CLAIMS {
        let (holds, evidence) = check(analyses).unwrap_or_else(|cause| {
            let evidence = format!("not evaluable: {cause}");
            if !degraded.iter().any(|d| d.experiment == experiment) {
                degraded.push(Degraded { experiment, cause });
            }
            (false, evidence)
        });
        findings.push(Finding {
            id,
            claim,
            holds,
            evidence,
        });
    }
    Ok(Findings { findings, degraded })
}

/// [`evaluate`] over a fresh memo of `index`, with the same errors.
pub fn evaluate_indexed(index: &TraceIndex, catalog: &Catalog) -> Result<Findings, AnalysisError> {
    evaluate(&Analyses::new(index, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{FailureTrace, SystemId};

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
