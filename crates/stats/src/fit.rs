//! Candidate-distribution fitting and ranking — the paper's methodology
//! (Section 3): fit by maximum likelihood, compare by negative
//! log-likelihood, prefer the simplest adequate standard distribution.

use crate::dist::{Continuous, Exponential, Gamma, LogNormal, Normal, Pareto, Weibull};
use crate::error::StatsError;
use crate::gof::ks_statistic_sorted;
use crate::prepared::PreparedSample;

/// The candidate families the paper fits to continuous data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Family {
    /// Memoryless baseline; the paper's strawman.
    Exponential,
    /// The paper's best TBF model (shape 0.7–0.8).
    Weibull,
    /// Fits TBF as well as the Weibull per the paper.
    Gamma,
    /// The paper's best repair-time model.
    LogNormal,
    /// Used only for per-node count data (Fig. 3(b)).
    Normal,
    /// Considered and rejected by the paper (footnote 1).
    Pareto,
}

impl Family {
    /// The four families the paper fits to TBF and repair-time data
    /// (Figs. 6 and 7(a)).
    pub const PAPER_SET: [Family; 4] = [
        Family::Exponential,
        Family::Weibull,
        Family::Gamma,
        Family::LogNormal,
    ];

    /// All supported continuous families.
    pub const ALL: [Family; 6] = [
        Family::Exponential,
        Family::Weibull,
        Family::Gamma,
        Family::LogNormal,
        Family::Normal,
        Family::Pareto,
    ];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Exponential => "exponential",
            Family::Weibull => "weibull",
            Family::Gamma => "gamma",
            Family::LogNormal => "lognormal",
            Family::Normal => "normal",
            Family::Pareto => "pareto",
        }
    }

    /// Number of free parameters (for AIC).
    pub(crate) fn param_count(self) -> usize {
        match self {
            Family::Exponential => 1,
            Family::Weibull
            | Family::Gamma
            | Family::LogNormal
            | Family::Normal
            | Family::Pareto => 2,
        }
    }

    /// Fit this family to data by maximum likelihood.
    ///
    /// # Errors
    ///
    /// Degenerate samples are rejected up front with a typed error —
    /// never a NaN fit: [`StatsError::EmptySample`] for no data,
    /// [`StatsError::NonFinite`] for NaN/infinite observations,
    /// [`StatsError::SampleTooSmall`] for n < 2, and
    /// [`StatsError::DegenerateSample`] for all-equal data (under which
    /// no two-parameter MLE is identified; the one-parameter exponential
    /// is rejected too, for a uniform contract across families).
    /// Otherwise propagates the per-family fitter errors (out of
    /// support, no convergence).
    pub fn fit(self, data: &[f64]) -> Result<Box<dyn Continuous>, StatsError> {
        guard_slice(data)?;
        Ok(match self {
            Family::Exponential => Box::new(Exponential::fit_mle(data)?),
            Family::Weibull => Box::new(Weibull::fit_mle(data)?),
            Family::Gamma => Box::new(Gamma::fit_mle(data)?),
            Family::LogNormal => Box::new(LogNormal::fit_mle(data)?),
            Family::Normal => Box::new(Normal::fit_mle(data)?),
            Family::Pareto => Box::new(Pareto::fit_mle(data)?),
        })
    }

    /// Fit this family off a [`PreparedSample`]'s cached sufficient
    /// statistics. Bit-identical to [`Family::fit`] on the same data, but
    /// O(1) after preparation for the exponential and gamma and
    /// allocation-free for every family.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Family::fit`] (preparation already rules out
    /// empty and non-finite samples).
    pub fn fit_prepared(self, sample: &PreparedSample) -> Result<Box<dyn Continuous>, StatsError> {
        if sample.len() < 2 {
            return Err(StatsError::SampleTooSmall {
                needed: 2,
                got: sample.len(),
            });
        }
        if sample.is_degenerate() {
            return Err(StatsError::DegenerateSample);
        }
        Ok(match self {
            Family::Exponential => Box::new(Exponential::fit_prepared(sample)?),
            Family::Weibull => Box::new(Weibull::fit_prepared(sample)?),
            Family::Gamma => Box::new(Gamma::fit_prepared(sample)?),
            Family::LogNormal => Box::new(LogNormal::fit_prepared(sample)?),
            Family::Normal => Box::new(Normal::fit_prepared(sample)?),
            Family::Pareto => Box::new(Pareto::fit_prepared(sample)?),
        })
    }
}

/// The slice-path degenerate-input guard behind [`Family::fit`].
fn guard_slice(data: &[f64]) -> Result<(), StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    if data.len() < 2 {
        return Err(StatsError::SampleTooSmall {
            needed: 2,
            got: data.len(),
        });
    }
    if data.iter().all(|&x| x == data[0]) {
        return Err(StatsError::DegenerateSample);
    }
    Ok(())
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fitted candidate with its goodness-of-fit metrics.
#[derive(Debug)]
pub struct FittedCandidate {
    /// Which family this is.
    pub family: Family,
    /// The fitted distribution.
    pub dist: Box<dyn Continuous>,
    /// Negative log-likelihood on the data (the paper's criterion; lower
    /// is better).
    pub nll: f64,
    /// Akaike information criterion: `2k + 2·NLL`.
    pub aic: f64,
    /// Bayesian information criterion: `k·ln n + 2·NLL`.
    pub bic: f64,
    /// Kolmogorov–Smirnov distance between fitted CDF and the ECDF.
    pub ks: f64,
}

/// How to rank fitted candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Criterion {
    /// Raw negative log-likelihood (paper's choice).
    #[default]
    NegLogLikelihood,
    /// AIC — penalizes the extra parameter of two-parameter families.
    Aic,
    /// Kolmogorov–Smirnov distance.
    KolmogorovSmirnov,
}

/// The outcome of fitting several candidate families to one data set.
#[derive(Debug)]
pub struct FitReport {
    /// Successfully fitted candidates, sorted by the chosen criterion
    /// (best first).
    pub candidates: Vec<FittedCandidate>,
    /// Families that failed to fit, with the reason (e.g. Weibull on data
    /// containing zeros).
    pub failures: Vec<(Family, StatsError)>,
    /// The criterion used for the ordering.
    pub criterion: Criterion,
    /// Number of observations fitted.
    pub n: usize,
}

impl FitReport {
    /// The best-fitting candidate, if any family fitted successfully.
    pub fn best(&self) -> Option<&FittedCandidate> {
        self.candidates.first()
    }

    /// Look up a fitted candidate by family.
    pub fn candidate(&self, family: Family) -> Option<&FittedCandidate> {
        self.candidates.iter().find(|c| c.family == family)
    }

    /// The rank (0 = best) of a family, if it fitted.
    pub fn rank_of(&self, family: Family) -> Option<usize> {
        self.candidates.iter().position(|c| c.family == family)
    }
}

/// Fit all `families` to `data` by maximum likelihood and rank them.
///
/// Families that fail to fit (out-of-support data, degenerate samples) are
/// recorded in [`FitReport::failures`] rather than aborting the whole
/// comparison — exactly what an analyst wants when, say, the exponential
/// fits but the Pareto does not.
///
/// # Errors
///
/// [`StatsError::EmptySample`] / [`StatsError::NonFinite`] if the data
/// itself is unusable; [`StatsError::SampleTooSmall`] for fewer than 2
/// observations.
pub fn fit_candidates(
    data: &[f64],
    families: &[Family],
    criterion: Criterion,
) -> Result<FitReport, StatsError> {
    let sample = PreparedSample::new(data)?;
    fit_candidates_prepared(&sample, families, criterion)
}

/// [`fit_candidates`] off a [`PreparedSample`]: every family fits from the
/// cached sufficient statistics and all KS distances share the sample's
/// single lazily-sorted view. Callers that fit the same data repeatedly
/// (bootstrap, multi-criterion ranking) should prepare once and call this
/// directly.
///
/// NLL is each family's hoisted scalar [`Continuous::nll`] over the
/// sample's original-order values; KS is the branch-and-bound
/// [`ks_statistic_sorted`] — DESIGN.md §13.
///
/// # Errors
///
/// [`StatsError::SampleTooSmall`] for fewer than 2 observations; otherwise
/// per-family failures are recorded in [`FitReport::failures`].
pub fn fit_candidates_prepared(
    sample: &PreparedSample,
    families: &[Family],
    criterion: Criterion,
) -> Result<FitReport, StatsError> {
    if sample.len() < 2 {
        return Err(StatsError::SampleTooSmall {
            needed: 2,
            got: sample.len(),
        });
    }
    let sorted = sample.sorted();
    let mut candidates = Vec::new();
    let mut failures = Vec::new();
    for &family in families {
        match family.fit_prepared(sample) {
            Ok(dist) => {
                let nll = dist.nll(sample.values());
                let k = family.param_count() as f64;
                let aic = 2.0 * k + 2.0 * nll;
                let bic = k * (sample.len() as f64).ln() + 2.0 * nll;
                let ks = ks_statistic_sorted(sorted, dist.as_ref());
                candidates.push(FittedCandidate {
                    family,
                    dist,
                    nll,
                    aic,
                    bic,
                    ks,
                });
            }
            Err(e) => failures.push((family, e)),
        }
    }
    let key = |c: &FittedCandidate| match criterion {
        Criterion::NegLogLikelihood => c.nll,
        Criterion::Aic => c.aic,
        Criterion::KolmogorovSmirnov => c.ks,
    };
    candidates.sort_by(|a, b| key(a).total_cmp(&key(b)));
    Ok(FitReport {
        candidates,
        failures,
        criterion,
        n: sample.len(),
    })
}

/// Convenience: fit the paper's four standard families ranked by NLL.
///
/// # Errors
///
/// See [`fit_candidates`].
pub fn fit_paper_set(data: &[f64]) -> Result<FitReport, StatsError> {
    fit_candidates(data, &Family::PAPER_SET, Criterion::NegLogLikelihood)
}

/// [`fit_paper_set`] off an already-prepared sample: exactly one sort and
/// one log-transform pass serve all four families and their KS distances.
///
/// # Errors
///
/// See [`fit_candidates_prepared`].
pub fn fit_paper_set_prepared(sample: &PreparedSample) -> Result<FitReport, StatsError> {
    fit_candidates_prepared(sample, &Family::PAPER_SET, Criterion::NegLogLikelihood)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weibull_data_is_won_by_weibull_like_families() {
        // Paper Fig 6(b)(d): Weibull/gamma beat exponential & lognormal on
        // late-era TBF data (shape ~0.7).
        let truth = Weibull::new(0.7, 50_000.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = sample_n(&truth, 10_000, &mut rng);
        let report = fit_paper_set(&data).unwrap();
        let best = report.best().unwrap();
        assert!(
            best.family == Family::Weibull || best.family == Family::Gamma,
            "best was {:?}",
            best.family
        );
        // Exponential must be last of the four.
        assert_eq!(report.rank_of(Family::Exponential), Some(3));
    }

    #[test]
    fn lognormal_data_is_won_by_lognormal() {
        // Paper Fig 7(a): repair times are lognormal-best.
        let truth = LogNormal::new(4.0, 1.8).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let data = sample_n(&truth, 10_000, &mut rng);
        let report = fit_paper_set(&data).unwrap();
        assert_eq!(report.best().unwrap().family, Family::LogNormal);
        assert_eq!(report.rank_of(Family::Exponential), Some(3));
    }

    #[test]
    fn exponential_data_with_aic_prefers_exponential() {
        let truth = Exponential::new(0.001).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data = sample_n(&truth, 10_000, &mut rng);
        let report = fit_candidates(&data, &Family::PAPER_SET, Criterion::Aic).unwrap();
        // With AIC the 1-parameter exponential should be competitive with
        // the Weibull/gamma that nest it: the likelihood-ratio statistic
        // 2(NLL_e - NLL_w) is ~chi-square(1), so the AIC gap stays small.
        let best = report.best().unwrap();
        let exp = report.candidate(Family::Exponential).unwrap();
        assert!(
            exp.aic <= best.aic + 8.0,
            "exponential should be competitive: {} vs {}",
            exp.aic,
            best.aic
        );
    }

    #[test]
    fn failures_are_recorded_not_fatal() {
        // Data containing zeros: positive-support families fail, normal fits.
        let data = [0.0, 0.0, 1.0, 2.0, 3.0, 4.0];
        let report = fit_candidates(&data, &Family::ALL, Criterion::NegLogLikelihood).unwrap();
        assert!(report.candidate(Family::Normal).is_some());
        assert!(report.candidate(Family::Weibull).is_none());
        assert!(report
            .failures
            .iter()
            .any(|(f, e)| *f == Family::Weibull && matches!(e, StatsError::OutOfSupport { .. })));
    }

    #[test]
    fn empty_and_tiny_samples_error() {
        assert!(matches!(fit_paper_set(&[]), Err(StatsError::EmptySample)));
        assert!(matches!(
            fit_paper_set(&[1.0]),
            Err(StatsError::SampleTooSmall { .. })
        ));
        assert!(matches!(
            fit_paper_set(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        ));
    }

    #[test]
    fn degenerate_inputs_give_typed_errors_for_every_family() {
        // Every family, every degenerate class: a typed error, never a
        // NaN fit or a panic.
        for family in Family::ALL {
            assert!(
                matches!(family.fit(&[]), Err(StatsError::EmptySample)),
                "{family}: empty"
            );
            assert!(
                matches!(
                    family.fit(&[3.0]),
                    Err(StatsError::SampleTooSmall { needed: 2, got: 1 })
                ),
                "{family}: n=1"
            );
            assert!(
                matches!(
                    family.fit(&[2.5, 2.5, 2.5, 2.5]),
                    Err(StatsError::DegenerateSample)
                ),
                "{family}: all-identical"
            );
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(
                    matches!(family.fit(&[1.0, bad, 3.0]), Err(StatsError::NonFinite)),
                    "{family}: non-finite {bad}"
                );
            }
        }
    }

    #[test]
    fn degenerate_prepared_samples_give_typed_errors() {
        // Preparation itself rejects empty/non-finite; the fit layer
        // guards the remaining classes.
        let single = PreparedSample::new(&[3.0]).unwrap();
        let flat = PreparedSample::new(&[2.5, 2.5, 2.5]).unwrap();
        for family in Family::ALL {
            assert!(
                matches!(
                    family.fit_prepared(&single),
                    Err(StatsError::SampleTooSmall { needed: 2, got: 1 })
                ),
                "{family}: prepared n=1"
            );
            assert!(
                matches!(
                    family.fit_prepared(&flat),
                    Err(StatsError::DegenerateSample)
                ),
                "{family}: prepared all-identical"
            );
        }
        // An all-equal sample fails every family in a ranked comparison
        // but is recorded, not fatal.
        let report =
            fit_candidates_prepared(&flat, &Family::ALL, Criterion::NegLogLikelihood).unwrap();
        assert!(report.candidates.is_empty());
        assert_eq!(report.failures.len(), Family::ALL.len());
        assert!(report
            .failures
            .iter()
            .all(|(_, e)| *e == StatsError::DegenerateSample));
    }

    #[test]
    fn ks_ranking_orders_by_cdf_distance() {
        let truth = Weibull::new(0.78, 3600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let data = sample_n(&truth, 5_000, &mut rng);
        let report =
            fit_candidates(&data, &Family::PAPER_SET, Criterion::KolmogorovSmirnov).unwrap();
        for w in report.candidates.windows(2) {
            assert!(w[0].ks <= w[1].ks);
        }
        // The exponential's KS distance should be clearly worst.
        let exp_ks = report.candidate(Family::Exponential).unwrap().ks;
        let best_ks = report.best().unwrap().ks;
        assert!(exp_ks > 2.0 * best_ks, "exp {exp_ks} vs best {best_ks}");
    }

    #[test]
    fn bic_and_akaike_weights() {
        let truth = Weibull::new(0.7, 1_000.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let data = sample_n(&truth, 5_000, &mut rng);
        let report = fit_paper_set(&data).unwrap();
        // BIC penalizes parameters more than AIC for n > e².
        for c in &report.candidates {
            assert!(
                c.bic > c.aic,
                "{}: bic {} vs aic {}",
                c.family,
                c.bic,
                c.aic
            );
        }
    }

    #[test]
    fn family_metadata() {
        assert_eq!(Family::Weibull.name(), "weibull");
        assert_eq!(Family::Exponential.param_count(), 1);
        assert_eq!(Family::LogNormal.param_count(), 2);
        assert_eq!(Family::PAPER_SET.len(), 4);
        assert_eq!(format!("{}", Family::Gamma), "gamma");
    }

    #[test]
    fn report_lookup_helpers() {
        let truth = Gamma::new(2.0, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = sample_n(&truth, 2_000, &mut rng);
        let report = fit_paper_set(&data).unwrap();
        assert_eq!(report.n, 2_000);
        assert!(report.candidate(Family::Gamma).is_some());
        assert!(report.rank_of(Family::Gamma).unwrap() <= 1);
        assert!(report.candidate(Family::Pareto).is_none());
    }
}
