//! `hpcfail ablations`: checks of the design choices DESIGN.md §6 calls
//! out, on the seeded site trace.
//!
//! 1. **Fit-selection criterion**: does the winner of the Fig 6/7 fits
//!    change if we rank by AIC or Kolmogorov–Smirnov distance instead of
//!    raw negative log-likelihood (the paper's criterion)?
//! 2. **Bootstrap stability of the decreasing-hazard claim**: a 95%
//!    percentile CI on the fitted Weibull shape — is it strictly below 1?
//! 3. **Pareto, considered and rejected**: the paper's footnote 1; we add
//!    the Pareto to the candidate set and confirm it never wins.
//! 4. **Aftershock ablation**: regenerate system 20 with failure
//!    clustering switched off and show the system-wide TBF collapses
//!    toward exponential (why the generator needs the mechanism).

use std::fmt::Write as _;

use hpcfail_core::report::{fmt_num, TextTable};
use hpcfail_core::{paper, tbf};
use hpcfail_records::FailureTrace;
use hpcfail_stats::bootstrap::bootstrap_ci;
use hpcfail_stats::dist::Weibull;
use hpcfail_stats::fit::{fit_candidates, Criterion, Family};
use hpcfail_synth::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the four ablations on the seeded site trace. The text carries no
/// trailing newline.
pub(crate) fn render(site: &FailureTrace) -> Result<String, String> {
    let index = site.index();
    let (_, late) = tbf::paper_era_split();
    let gaps: Vec<f64> = index
        .system(paper::SYSTEM)
        .window(late.0, late.1)
        .interarrival_secs()
        .map_err(|e| format!("late-era gaps: {e}"))?
        .into_iter()
        .filter(|&g| g > 0.0)
        .collect();
    let repairs = index.all().downtimes_minutes();

    let mut out = String::new();
    criterion_ablation(&mut out, &gaps, &repairs);
    bootstrap_shape_ci(&mut out, &gaps);
    pareto_rejection(&mut out, &gaps, &repairs);
    aftershock_ablation(&mut out)?;
    out.pop();
    Ok(out)
}

/// Ablation 1: criterion choice.
fn criterion_ablation(out: &mut String, gaps: &[f64], repairs: &[f64]) {
    let _ = writeln!(
        out,
        "=== ablation 1: fit-selection criterion (NLL vs AIC vs KS) ==="
    );
    let mut t = TextTable::new(&["data", "NLL winner", "AIC winner", "KS winner"]);
    for (label, data) in [("TBF (fig 6d)", gaps), ("repairs (fig 7a)", repairs)] {
        let winner = |criterion: Criterion| {
            fit_candidates(data, &Family::PAPER_SET, criterion)
                .ok()
                .and_then(|r| r.best().map(|c| c.family.name()))
                .unwrap_or("-")
        };
        t.row(&[
            label,
            winner(Criterion::NegLogLikelihood),
            winner(Criterion::Aic),
            winner(Criterion::KolmogorovSmirnov),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "(the paper's conclusions are criterion-robust when the same family wins all three)\n"
    );
}

/// Ablation 2: bootstrap CI of the Weibull shape.
fn bootstrap_shape_ci(out: &mut String, gaps: &[f64]) {
    let _ = writeln!(
        out,
        "=== ablation 2: bootstrap CI of the fitted Weibull shape ==="
    );
    let mut rng = StdRng::seed_from_u64(7);
    match bootstrap_ci(
        gaps,
        |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
        400,
        0.95,
        &mut rng,
    ) {
        Ok(ci) => {
            let _ = writeln!(
                out,
                "shape point estimate {:.3}, 95% CI [{:.3}, {:.3}] over {} gaps",
                ci.point,
                ci.lo,
                ci.hi,
                gaps.len()
            );
            let _ = writeln!(
                out,
                "decreasing-hazard claim (shape < 1) is {} under resampling\n",
                if ci.hi < 1.0 { "STABLE" } else { "NOT stable" }
            );
        }
        Err(e) => {
            let _ = writeln!(out, "bootstrap failed: {e}\n");
        }
    }
}

/// Ablation 3: Pareto considered and rejected (paper footnote 1).
fn pareto_rejection(out: &mut String, gaps: &[f64], repairs: &[f64]) {
    let _ = writeln!(
        out,
        "=== ablation 3: the Pareto never wins (paper footnote 1) ==="
    );
    for (label, data) in [("TBF", gaps), ("repairs", repairs)] {
        match fit_candidates(data, &Family::ALL, Criterion::NegLogLikelihood) {
            Ok(report) => {
                let rank = report
                    .rank_of(Family::Pareto)
                    .map(|r| (r + 1).to_string())
                    .unwrap_or_else(|| "did not fit".into());
                let _ = writeln!(
                    out,
                    "  {label}: pareto rank {rank} of {} (best: {})",
                    report.candidates.len(),
                    report.best().map(|c| c.family.name()).unwrap_or("-")
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {label}: {e}");
            }
        }
    }
    let _ = writeln!(out);
}

/// Ablation 4: switch aftershocks off and watch the system-wide process
/// drift toward Poisson (Palm–Khintchine).
fn aftershock_ablation(out: &mut String) -> Result<(), String> {
    let _ = writeln!(
        out,
        "=== ablation 4: generator without failure clustering ==="
    );
    let sys = paper::SYSTEM;
    let no_shock = hpcfail_synth::builder::ScenarioBuilder::lanl()
        .without_aftershocks()
        .build_system(sys)
        .map_err(|e| format!("system {sys} without aftershocks: {e}"))?;
    let with_shock = scenario::system_trace(sys, scenario::DEFAULT_SEED)
        .map_err(|e| format!("system {sys}: {e}"))?;
    let (_, late) = tbf::paper_era_split();
    let mut t = TextTable::new(&["generator", "C^2", "weibull shape", "exp NLL - best NLL"]);
    for (label, trace) in [("with aftershocks", &with_shock), ("without", &no_shock)] {
        match tbf::analyze_indexed(&trace.index(), tbf::View::SystemWide(sys), Some(late)) {
            Ok(a) => {
                let best_nll = a.fits.best().map(|c| c.nll).unwrap_or(f64::NAN);
                let exp_nll = a
                    .fits
                    .candidate(Family::Exponential)
                    .map(|c| c.nll)
                    .unwrap_or(f64::NAN);
                t.row(&[
                    label,
                    &fmt_num(a.c2),
                    &a.weibull_shape
                        .map(|s| format!("{s:.2}"))
                        .unwrap_or_default(),
                    &fmt_num(exp_nll - best_nll),
                ]);
            }
            Err(e) => {
                t.row(&[label, "-", "-", &e.to_string()]);
            }
        }
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "without clustering the superposition of ~50 node processes converges toward \
         Poisson: the exponential penalty shrinks and the fitted shape moves toward 1 — \
         the paper's shape-0.78 system-wide finding needs correlated failures."
    );
    Ok(())
}
