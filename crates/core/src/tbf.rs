//! Time-between-failures analysis — Fig. 6 and Section 5.3.
//!
//! Two views of the failure process: per node (gaps between failures of
//! one node) and system-wide (gaps between any two consecutive failures
//! in the system). Each is studied per era — early production
//! (1996–1999) versus the remaining life (2000–2005) — and fitted with
//! the four standard distributions. The paper's findings this module
//! reproduces:
//!
//! * late era: Weibull/gamma fit best, exponential worst; Weibull shape
//!   0.7 (node view) to 0.78 (system view) → decreasing hazard;
//! * early era, node view: lognormal best, higher variability (C² 3.9);
//! * early era, system view: >30% of gaps are exactly zero (correlated
//!   simultaneous failures) and no standard distribution fits.
//!
//! [`analyze_indexed`] is the one kernel behind `serve`'s `tbf` misses,
//! repro's Fig. 6 panels, the findings and the scenario campaign's era
//! fits, and it does each step once. The positive gaps are prepared once
//! ([`PreparedSample`]): the four fits share its `ln x` pass, and the KS
//! distances and hazard bins share its one sort. The Weibull shape is
//! read off the fit report's Weibull candidate, not fitted a second time.

use std::any::Any;

use hpcfail_records::{FailureTrace, NodeId, SystemId, Timestamp, TraceIndex};
use hpcfail_stats::descriptive;
use hpcfail_stats::dist::Weibull;
use hpcfail_stats::fit::{fit_paper_set_prepared, Family, FitReport};
use hpcfail_stats::hazard::{EmpiricalHazard, HazardTrend};
use hpcfail_stats::prepared::PreparedSample;

use crate::error::AnalysisError;

/// Which failure process to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Gaps between failures of one specific node (Fig. 6(a)(b)).
    Node(SystemId, NodeId),
    /// Gaps between consecutive failures anywhere in one system
    /// (Fig. 6(c)(d)).
    SystemWide(SystemId),
    /// Gaps pooled across every node of one system (each node's own
    /// inter-arrival sequence, concatenated) — more data than a single
    /// node, same per-node statistics.
    PooledNodes(SystemId),
}

/// The Fig. 6 analysis of one view over one time window.
#[derive(Debug)]
pub struct TbfAnalysis {
    /// The analyzed view.
    pub view: View,
    /// Number of gaps.
    pub n: usize,
    /// Fraction of gaps that are exactly zero (simultaneous failures).
    pub zero_fraction: f64,
    /// Squared coefficient of variation of the positive gaps.
    pub c2: f64,
    /// Mean gap (seconds) over positive gaps.
    pub mean_secs: f64,
    /// Four-family fit report over the positive gaps.
    pub fits: FitReport,
    /// Shape of the fitted Weibull, if it fitted.
    pub weibull_shape: Option<f64>,
    /// Empirical hazard trend of the positive gaps.
    pub hazard_trend: HazardTrend,
    /// Lag-1 autocorrelation of consecutive gaps (`None` when not
    /// estimable). Near zero for a renewal process; positive when
    /// failures cluster — the serial-dependence evidence behind the
    /// early-era correlations of Fig. 6(c).
    pub gap_autocorrelation: Option<f64>,
}

impl TbfAnalysis {
    /// Whether the Weibull fit implies a decreasing hazard (shape < 1).
    pub fn has_decreasing_hazard(&self) -> bool {
        self.weibull_shape.map(|k| k < 1.0).unwrap_or(false)
    }

    /// Whether the data's zero-gap mass makes every standard fit suspect
    /// (the Fig. 6(c) situation): the fits only saw the positive gaps.
    pub fn dominated_by_simultaneity(&self) -> bool {
        self.zero_fraction > 0.3
    }
}

/// Analyze the time between failures for a view, over an optional time
/// window `[from, to)`.
///
/// Fits are computed on the strictly positive gaps; the zero-gap
/// fraction is reported separately (the paper's Fig. 6(c) finding is
/// exactly that this fraction is large early on).
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] when fewer than 30 gaps exist in
/// the window; propagates fitting errors.
pub fn analyze(
    trace: &FailureTrace,
    view: View,
    window: Option<(Timestamp, Timestamp)>,
) -> Result<TbfAnalysis, AnalysisError> {
    analyze_indexed(&trace.index(), view, window)
}

/// [`analyze`] off a prebuilt [`TraceIndex`] — callers running several
/// views/windows over one trace (the Fig. 6 grid) build the index once
/// and fan the analyses off borrowed views instead of cloning per group.
///
/// # Errors
///
/// Same as [`analyze`].
pub fn analyze_indexed(
    index: &TraceIndex,
    view: View,
    window: Option<(Timestamp, Timestamp)>,
) -> Result<TbfAnalysis, AnalysisError> {
    let rows = match view {
        View::Node(system, node) => index.node(system, node),
        View::SystemWide(system) | View::PooledNodes(system) => index.system(system),
    };
    let rows = match window {
        Some((from, to)) => rows.window(from, to),
        None => rows,
    };
    let gaps: Vec<f64> = match view {
        View::PooledNodes(_) => rows.per_node_interarrival_secs(),
        View::Node(..) | View::SystemWide(_) => rows.interarrival_secs().unwrap_or_default(),
    };
    const MIN_GAPS: usize = 30;
    AnalysisError::require("time between failures", MIN_GAPS, gaps.len())?;
    let zero_fraction = gaps.iter().filter(|&&g| g == 0.0).count() as f64 / gaps.len() as f64;
    let positive: Vec<f64> = gaps.iter().copied().filter(|&g| g > 0.0).collect();
    AnalysisError::require(
        "positive time-between-failure gaps",
        MIN_GAPS / 2,
        positive.len(),
    )?;
    // Prepare the positive gaps once: the paper-set fits and the hazard
    // bins share its one scan and one sort, and the Weibull shape is read
    // off the report's own Weibull fit.
    let positive = PreparedSample::from_vec(positive)?;
    let fits = fit_paper_set_prepared(&positive)?;
    let weibull_shape = fits.candidate(Family::Weibull).and_then(|c| {
        let dist: &dyn Any = c.dist.as_ref();
        dist.downcast_ref::<Weibull>().map(Weibull::shape)
    });
    let hazard_trend = EmpiricalHazard::from_sample(&positive, 8)
        .map(|h| h.trend())
        .unwrap_or(HazardTrend::Flat);
    let gap_autocorrelation = hpcfail_stats::correlation::autocorrelation(&gaps, 1).ok();
    Ok(TbfAnalysis {
        view,
        n: gaps.len(),
        zero_fraction,
        c2: descriptive::squared_cv(positive.values()),
        mean_secs: descriptive::mean(positive.values()),
        fits,
        weibull_shape,
        hazard_trend,
        gap_autocorrelation,
    })
}

/// The paper's era split for system 20: early production 1996–1999 and
/// the remaining life 2000–2005.
pub fn paper_era_split() -> ((Timestamp, Timestamp), (Timestamp, Timestamp)) {
    let t = |y| Timestamp::from_civil(y, 1, 1, 0, 0, 0).expect("valid year");
    ((t(1996), t(2000)), (t(2000), t(2006)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system20() -> FailureTrace {
        hpcfail_synth::scenario::system_trace(SystemId::new(20), 42).unwrap()
    }

    #[test]
    fn insufficient_data() {
        let t = FailureTrace::new();
        assert!(matches!(
            analyze(&t, View::SystemWide(SystemId::new(20)), None),
            Err(AnalysisError::InsufficientData { .. })
        ));
    }

    #[test]
    fn fig6d_system_wide_late_era() {
        let trace = system20();
        let (_, late) = paper_era_split();
        let a = analyze(&trace, View::SystemWide(SystemId::new(20)), Some(late)).unwrap();
        // Weibull or gamma best; exponential worst (rank 3).
        let best = a.fits.best().unwrap().family;
        assert!(
            best == Family::Weibull || best == Family::Gamma,
            "best {best:?}"
        );
        // Lognormal and exponential are both "significantly worse"
        // (the paper's wording): neither may beat Weibull or gamma.
        assert!(a.fits.rank_of(Family::Exponential).unwrap() >= 2);
        assert!(a.fits.rank_of(Family::LogNormal).unwrap() >= 2);
        // Decreasing hazard with shape in the paper's band.
        assert!(a.has_decreasing_hazard(), "shape {:?}", a.weibull_shape);
        let shape = a.weibull_shape.unwrap();
        assert!((0.55..0.95).contains(&shape), "shape {shape}");
        // Not dominated by simultaneous failures late in life.
        assert!(
            !a.dominated_by_simultaneity(),
            "zero fraction {}",
            a.zero_fraction
        );
        assert_eq!(a.hazard_trend, HazardTrend::Decreasing);
    }

    #[test]
    fn fig6c_system_wide_early_era_zero_gaps() {
        let trace = system20();
        let (early, _) = paper_era_split();
        let a = analyze(&trace, View::SystemWide(SystemId::new(20)), Some(early)).unwrap();
        assert!(
            a.zero_fraction > 0.3,
            "paper: >30% simultaneous failures early; got {}",
            a.zero_fraction
        );
        assert!(a.dominated_by_simultaneity());
    }

    #[test]
    fn fig6b_node_view_late_era() {
        let trace = system20();
        let (_, late) = paper_era_split();
        // Node 22 is one of the busy graphics nodes — the paper's example.
        let a = analyze(
            &trace,
            View::Node(SystemId::new(20), NodeId::new(22)),
            Some(late),
        )
        .unwrap();
        let best = a.fits.best().unwrap().family;
        assert!(
            best == Family::Weibull || best == Family::Gamma || best == Family::LogNormal,
            "best {best:?}"
        );
        // Exponential is a poor fit: its C² of 1 is well under the data's.
        assert!(a.c2 > 1.2, "node-level C² {} should exceed 1", a.c2);
        assert_eq!(a.fits.rank_of(Family::Exponential), Some(3));
        assert!(a.has_decreasing_hazard());
    }

    #[test]
    fn fig6a_node_view_early_era() {
        // Early node-level TBF: highly variable, lognormal competitive
        // (the paper's best fit there), exponential clearly worst.
        let trace = system20();
        let (early, _) = paper_era_split();
        let a = analyze(
            &trace,
            View::Node(SystemId::new(20), NodeId::new(22)),
            Some(early),
        )
        .unwrap();
        assert!(
            a.fits.rank_of(Family::LogNormal).unwrap() <= 2,
            "lognormal competitive"
        );
        assert_eq!(
            a.fits.rank_of(Family::Exponential),
            Some(3),
            "exponential worst"
        );
        assert!(a.c2 > 2.5, "early C² {} (paper: 3.9)", a.c2);
    }

    #[test]
    fn early_era_is_more_variable_than_late() {
        // Fig 6(a) vs (b): C² 3.9 early vs 1.9 late at node 22. The ramping
        // failure rate makes early gaps more variable.
        let trace = system20();
        let (early, late) = paper_era_split();
        let view = View::Node(SystemId::new(20), NodeId::new(22));
        let a_early = analyze(&trace, view, Some(early)).unwrap();
        let a_late = analyze(&trace, view, Some(late)).unwrap();
        assert!(
            a_early.c2 > 1.15 * a_late.c2,
            "early C² {} must clearly exceed late C² {}",
            a_early.c2,
            a_late.c2
        );
        // Same magnitudes as the paper's 3.9 vs 1.9 contrast.
        assert!(a_early.c2 > 2.3, "early C² {}", a_early.c2);
        assert!((1.2..3.5).contains(&a_late.c2), "late C² {}", a_late.c2);
    }

    #[test]
    fn pooled_nodes_has_more_data_than_single_node() {
        let trace = system20();
        let single = analyze(&trace, View::Node(SystemId::new(20), NodeId::new(22)), None).unwrap();
        let pooled = analyze(&trace, View::PooledNodes(SystemId::new(20)), None).unwrap();
        assert!(pooled.n > single.n);
    }

    #[test]
    fn early_gaps_are_serially_dependent() {
        // Bursts make consecutive early-era zero gaps cluster: the
        // probability that a zero gap follows a zero gap must exceed the
        // unconditional zero-gap fraction. The lag-1 autocorrelation is
        // also estimable (and not meaningfully negative).
        let trace = system20();
        let (early, _) = paper_era_split();
        let index = trace.index();
        let gaps = index
            .system(SystemId::new(20))
            .window(early.0, early.1)
            .interarrival_secs()
            .unwrap();
        let zero_frac = gaps.iter().filter(|&&g| g == 0.0).count() as f64 / gaps.len() as f64;
        let (mut after_zero, mut zero_then_zero) = (0u64, 0u64);
        for w in gaps.windows(2) {
            if w[0] == 0.0 {
                after_zero += 1;
                if w[1] == 0.0 {
                    zero_then_zero += 1;
                }
            }
        }
        let conditional = zero_then_zero as f64 / after_zero as f64;
        assert!(
            conditional > 1.1 * zero_frac,
            "P(0|0) = {conditional} vs unconditional {zero_frac}"
        );
        let a = analyze(&trace, View::SystemWide(SystemId::new(20)), Some(early)).unwrap();
        let r = a.gap_autocorrelation.expect("estimable");
        assert!(r > -0.02, "lag-1 gap autocorrelation {r}");
    }

    #[test]
    fn weibull_shape_is_the_standalone_fit_on_the_site() {
        // The shape is read off the report's Weibull candidate; it must be
        // what a fit of the positive gaps on their own gives, to the bit.
        let trace = hpcfail_synth::scenario::site_trace(42).unwrap();
        let index = trace.index();
        let (early, late) = paper_era_split();
        let system = SystemId::new(20);
        for view in [
            View::SystemWide(system),
            View::PooledNodes(system),
            View::Node(system, NodeId::new(22)),
        ] {
            for window in [None, Some(early), Some(late)] {
                let a = analyze_indexed(&index, view, window).unwrap();
                let rows = match view {
                    View::Node(s, n) => index.node(s, n),
                    View::SystemWide(s) | View::PooledNodes(s) => index.system(s),
                };
                let rows = match window {
                    Some((from, to)) => rows.window(from, to),
                    None => rows,
                };
                let gaps = match view {
                    View::PooledNodes(_) => rows.per_node_interarrival_secs(),
                    View::Node(..) | View::SystemWide(_) => rows.interarrival_secs().unwrap(),
                };
                let positive: Vec<f64> = gaps.into_iter().filter(|&g| g > 0.0).collect();
                let fit = Weibull::fit_prepared(&PreparedSample::from_vec(positive).unwrap());
                assert_eq!(
                    a.weibull_shape.map(f64::to_bits),
                    Some(fit.unwrap().shape().to_bits()),
                    "{view:?} {window:?}"
                );
            }
        }
    }

    #[test]
    fn window_filters_records() {
        let trace = system20();
        let (early, late) = paper_era_split();
        let sys = View::SystemWide(SystemId::new(20));
        let a_early = analyze(&trace, sys, Some(early)).unwrap();
        let a_late = analyze(&trace, sys, Some(late)).unwrap();
        let a_all = analyze(&trace, sys, None).unwrap();
        assert!(a_all.n > a_early.n);
        assert!(a_all.n > a_late.n);
        // Mean gaps are positive and finite everywhere.
        for a in [&a_early, &a_late, &a_all] {
            assert!(a.mean_secs > 0.0 && a.mean_secs.is_finite());
        }
    }
}
