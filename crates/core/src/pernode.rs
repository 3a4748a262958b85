//! Failures per node — Fig. 3.
//!
//! Fig. 3(a): the per-node failure counts of system 20, where the three
//! graphics nodes (21–23, 6% of nodes) take ~20% of failures.
//! Fig. 3(b): the CDF of counts over compute-only nodes, fitted with
//! Poisson, normal and lognormal — the Poisson loses because real
//! per-node rates are heterogeneous (overdispersed).

use hpcfail_records::{Catalog, NodeId, SystemId, SystemSpec, TraceIndex, Workload};
use hpcfail_stats::dist::{Continuous, Discrete, LogNormal, NegativeBinomial, Normal, Poisson};
use hpcfail_stats::prepared::PreparedSample;

use crate::error::AnalysisError;

/// Goodness of fit of the three Fig. 3(b) candidates on per-node counts.
///
/// The Poisson is evaluated by its exact PMF; normal and lognormal by
/// their densities at the integer counts — the same likelihood comparison
/// the paper's fits imply.
#[derive(Debug, Clone, PartialEq)]
pub struct CountFits {
    /// NLL of the Poisson MLE fit (`None` if the fit failed).
    pub poisson_nll: Option<f64>,
    /// NLL of the normal MLE fit.
    pub normal_nll: Option<f64>,
    /// NLL of the lognormal MLE fit (requires strictly positive counts).
    pub lognormal_nll: Option<f64>,
    /// NLL of the negative-binomial MLE fit — the toolkit's extension
    /// beyond the paper's three candidates: the gamma-Poisson mixture is
    /// the theoretically natural model for counts with heterogeneous
    /// per-node rates.
    pub negative_binomial_nll: Option<f64>,
    /// Sample dispersion index (variance/mean); 1 for Poisson data,
    /// ≫ 1 in the paper's data.
    pub dispersion_index: f64,
}

impl CountFits {
    /// Name of the best-fitting candidate by NLL.
    pub fn best(&self) -> Option<&'static str> {
        let mut best: Option<(&'static str, f64)> = None;
        for (name, nll) in [
            ("poisson", self.poisson_nll),
            ("normal", self.normal_nll),
            ("lognormal", self.lognormal_nll),
            ("negative-binomial", self.negative_binomial_nll),
        ] {
            if let Some(v) = nll {
                if best.map(|(_, b)| v < b).unwrap_or(true) {
                    best = Some((name, v));
                }
            }
        }
        best.map(|(n, _)| n)
    }

    /// Whether the Poisson is the *worst* of the fitted candidates — the
    /// paper's Fig. 3(b) conclusion.
    pub fn poisson_is_worst(&self) -> bool {
        match self.poisson_nll {
            None => true,
            Some(p) => [
                self.normal_nll,
                self.lognormal_nll,
                self.negative_binomial_nll,
            ]
            .iter()
            .flatten()
            .all(|&other| other <= p),
        }
    }
}

/// The full Fig. 3 analysis for one system.
#[derive(Debug, Clone, PartialEq)]
pub struct PerNodeAnalysis {
    /// Which system.
    pub system: SystemId,
    /// Failure count per node, indexed by node id (Fig. 3(a)).
    pub counts: Vec<u64>,
    /// Node ids classified as graphics nodes.
    pub graphics_nodes: Vec<u32>,
    /// Fraction of all failures on graphics nodes (paper: ~20% from 6% of
    /// nodes on system 20).
    pub graphics_failure_share: f64,
    /// Fraction of nodes that are graphics nodes.
    pub graphics_node_share: f64,
    /// Fits over compute-only node counts (Fig. 3(b)).
    pub compute_fits: CountFits,
    /// Compute-only counts (the Fig. 3(b) sample).
    pub compute_counts: Vec<u64>,
}

/// Run the Fig. 3 analysis. Per-node counts are read from the
/// [`TraceIndex`] node-run offsets instead of scanning the trace.
///
/// # Errors
///
/// [`AnalysisError::InsufficientData`] if the system has fewer than 3
/// compute nodes with at least one failure; propagates catalog errors for
/// unknown systems.
pub fn analyze_indexed(
    index: &TraceIndex,
    catalog: &Catalog,
    system: SystemId,
) -> Result<PerNodeAnalysis, AnalysisError> {
    let spec = catalog.system(system)?;
    let counts = index.failures_per_node(system, spec.nodes());
    analyze_counts(counts, spec, system)
}

fn analyze_counts(
    counts: Vec<u64>,
    spec: &SystemSpec,
    system: SystemId,
) -> Result<PerNodeAnalysis, AnalysisError> {
    let total: u64 = counts.iter().sum();
    AnalysisError::require("per-node analysis", 3, total as usize)?;

    let graphics_nodes: Vec<u32> = (0..spec.nodes())
        .filter(|&n| spec.workload_of(NodeId::new(n)) == Workload::Graphics)
        .collect();
    let graphics_failures: u64 = graphics_nodes.iter().map(|&n| counts[n as usize]).sum();

    let compute_counts: Vec<u64> = (0..spec.nodes())
        .filter(|&n| spec.workload_of(NodeId::new(n)) == Workload::Compute)
        .map(|n| counts[n as usize])
        .collect();

    let compute_fits = fit_counts(&compute_counts);

    Ok(PerNodeAnalysis {
        system,
        graphics_failure_share: graphics_failures as f64 / total as f64,
        graphics_node_share: graphics_nodes.len() as f64 / spec.nodes() as f64,
        graphics_nodes,
        compute_fits,
        compute_counts,
        counts,
    })
}

/// Fit the three Fig. 3(b) candidates to a sample of per-node counts.
pub(crate) fn fit_counts(counts: &[u64]) -> CountFits {
    let as_f: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let poisson_nll = Poisson::fit_mle(counts).ok().map(|d| d.nll(counts));
    // One shared scan serves both continuous candidates.
    let prepared = PreparedSample::from_vec(as_f).ok();
    let normal_nll = prepared
        .as_ref()
        .and_then(|p| Normal::fit_prepared(p).ok().map(|d| d.nll(p.values())));
    let lognormal_nll = prepared
        .as_ref()
        .and_then(|p| LogNormal::fit_prepared(p).ok().map(|d| d.nll(p.values())));
    let negative_binomial_nll = NegativeBinomial::fit_mle(counts)
        .ok()
        .map(|d| d.nll(counts));
    CountFits {
        poisson_nll,
        normal_nll,
        lognormal_nll,
        negative_binomial_nll,
        dispersion_index: Poisson::dispersion_index(counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::FailureTrace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn insufficient_data_rejected() {
        let catalog = Catalog::lanl();
        let trace = FailureTrace::new();
        assert!(matches!(
            analyze_indexed(&trace.index(), &catalog, SystemId::new(20)),
            Err(AnalysisError::InsufficientData { .. })
        ));
    }

    #[test]
    fn unknown_system_rejected() {
        let catalog = Catalog::lanl();
        let trace = FailureTrace::new();
        assert!(matches!(
            analyze_indexed(&trace.index(), &catalog, SystemId::new(50)),
            Err(AnalysisError::Record(_))
        ));
    }

    #[test]
    fn poisson_counts_fit_poisson() {
        // Homogeneous rates → Poisson wins (the hypothetical world the
        // paper's checkpointing strawman assumes).
        let d = Poisson::new(60.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let counts: Vec<u64> = (0..500).map(|_| d.sample(&mut rng)).collect();
        let fits = fit_counts(&counts);
        assert!(!fits.poisson_is_worst());
        assert!((fits.dispersion_index - 1.0).abs() < 0.3);
    }

    #[test]
    fn heterogeneous_counts_reject_poisson() {
        // Heterogeneous rates (the paper's reality) → Poisson loses.
        let mut rng = StdRng::seed_from_u64(2);
        let rate_dist = LogNormal::new(4.0, 0.5).unwrap();
        let counts: Vec<u64> = (0..500)
            .map(|_| {
                let rate = rate_dist.sample(&mut rng);
                Poisson::new(rate).unwrap().sample(&mut rng)
            })
            .collect();
        let fits = fit_counts(&counts);
        assert!(fits.poisson_is_worst(), "fits: {fits:?}");
        assert!(fits.dispersion_index > 2.0);
        let best = fits.best().unwrap();
        assert!(best == "lognormal" || best == "normal");
    }

    #[test]
    fn fig3_shape_on_synthetic_system20() {
        let catalog = Catalog::lanl();
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(20), 42).unwrap();
        let analysis = analyze_indexed(&trace.index(), &catalog, SystemId::new(20)).unwrap();
        // 3 of 49 nodes are graphics ≈ 6%.
        assert_eq!(analysis.graphics_nodes, vec![21, 22, 23]);
        assert!((analysis.graphics_node_share - 3.0 / 49.0).abs() < 1e-9);
        // Graphics nodes take a disproportionate share (paper: ~20%).
        assert!(
            analysis.graphics_failure_share > 2.0 * analysis.graphics_node_share,
            "graphics share {} vs node share {}",
            analysis.graphics_failure_share,
            analysis.graphics_node_share
        );
        // Poisson must lose on the compute-only counts.
        assert!(analysis.compute_fits.poisson_is_worst());
        assert!(analysis.compute_fits.dispersion_index > 1.5);
        // Counts vector covers all 49 nodes.
        assert_eq!(analysis.counts.len(), 49);
    }

    #[test]
    fn count_fits_handles_zeros() {
        // Lognormal cannot fit zero counts but the comparison survives.
        let counts = [0u64, 0, 3, 5, 9, 12, 2, 4];
        let fits = fit_counts(&counts);
        assert!(fits.lognormal_nll.is_none());
        assert!(fits.poisson_nll.is_some());
        assert!(fits.normal_nll.is_some());
        assert!(fits.best().is_some());
    }

    #[test]
    fn best_of_empty_fits() {
        let fits = CountFits {
            poisson_nll: None,
            normal_nll: None,
            lognormal_nll: None,
            negative_binomial_nll: None,
            dispersion_index: f64::NAN,
        };
        assert_eq!(fits.best(), None);
        assert!(fits.poisson_is_worst());
    }
}
