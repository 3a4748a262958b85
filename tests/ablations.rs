//! Acceptance tests for the ablation studies (the claims EXPERIMENTS.md
//! makes about `hpcfail ablations`).

use hpcfail::analysis::tbf;
use hpcfail::prelude::*;
use hpcfail::stats::bootstrap::bootstrap_ci;
use hpcfail::stats::fit::fit_candidates;
use hpcfail::synth::builder::ScenarioBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn late_gaps() -> &'static Vec<f64> {
    static GAPS: OnceLock<Vec<f64>> = OnceLock::new();
    GAPS.get_or_init(|| {
        let trace = hpcfail::synth::scenario::system_trace(SystemId::new(20), 42).expect("trace");
        let (_, late) = tbf::paper_era_split();
        trace
            .index()
            .all()
            .window(late.0, late.1)
            .interarrival_secs()
            .expect("gaps")
            .into_iter()
            .filter(|&g| g > 0.0)
            .collect()
    })
}

#[test]
fn ablation1_winner_is_criterion_robust() {
    let gaps = late_gaps();
    let mut winners = Vec::new();
    for criterion in [
        Criterion::NegLogLikelihood,
        Criterion::Aic,
        Criterion::KolmogorovSmirnov,
    ] {
        let report = fit_candidates(gaps, &Family::PAPER_SET, criterion).unwrap();
        winners.push(report.best().unwrap().family);
    }
    // Weibull or gamma under every criterion, never exponential/lognormal.
    for w in &winners {
        assert!(
            *w == Family::Weibull || *w == Family::Gamma,
            "winner {w:?} under some criterion"
        );
    }
}

#[test]
fn ablation2_shape_ci_excludes_one() {
    let gaps = late_gaps();
    let mut rng = StdRng::seed_from_u64(7);
    let ci = bootstrap_ci(
        gaps,
        |d| Weibull::fit_mle(d).ok().map(|w| w.shape()),
        200,
        0.95,
        &mut rng,
    )
    .unwrap();
    assert!(ci.hi < 1.0, "95% CI [{}, {}] must exclude 1", ci.lo, ci.hi);
    // And it brackets the paper's 0.78.
    assert!(ci.lo < 0.82 && ci.hi > 0.72, "CI [{}, {}]", ci.lo, ci.hi);
}

#[test]
fn ablation3_pareto_never_wins() {
    let gaps = late_gaps();
    let report = fit_candidates(gaps, &Family::ALL, Criterion::NegLogLikelihood).unwrap();
    let pareto_rank = report.rank_of(Family::Pareto).expect("pareto fits");
    assert!(
        pareto_rank >= report.candidates.len() - 2,
        "pareto rank {pareto_rank} of {}",
        report.candidates.len()
    );
    assert_ne!(report.best().unwrap().family, Family::Pareto);
}

#[test]
fn ablation4_clustering_is_load_bearing() {
    // Without aftershocks the system-wide process must drift toward
    // Poisson: higher fitted shape, smaller exponential penalty.
    let sys = SystemId::new(20);
    let (_, late) = tbf::paper_era_split();
    let with = hpcfail::synth::scenario::system_trace(sys, 42).unwrap();
    let without = ScenarioBuilder::lanl()
        .without_aftershocks()
        .build_system(sys)
        .unwrap();
    let analyze = |trace: &FailureTrace| {
        let a = tbf::analyze(trace, tbf::View::SystemWide(sys), Some(late)).unwrap();
        let best = a.fits.best().map(|c| c.nll).unwrap();
        let exp = a
            .fits
            .candidate(Family::Exponential)
            .map(|c| c.nll)
            .unwrap();
        (a.weibull_shape.unwrap(), exp - best)
    };
    let (shape_with, penalty_with) = analyze(&with);
    let (shape_without, penalty_without) = analyze(&without);
    assert!(
        shape_without > shape_with,
        "shape without clustering {shape_without} must exceed with {shape_with}"
    );
    assert!(shape_without > 0.85, "near-Poisson shape {shape_without}");
    assert!(
        penalty_without < penalty_with / 3.0,
        "exp penalty {penalty_without} vs {penalty_with}"
    );
}
