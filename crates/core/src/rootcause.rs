//! Root-cause breakdowns — Fig. 1(a) (fraction of failures per category)
//! and Fig. 1(b) (fraction of downtime per category), per hardware type
//! and across all systems, plus the Section-4 detailed-cause statistics.

use std::collections::BTreeMap;

use hpcfail_records::{
    Catalog, CauseTotals, DetailedCause, HardwareType, RootCause, TraceIndex, TraceView,
};

/// Counts and downtime per high-level root cause for one slice of the
/// data (one hardware type, or everything).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CauseBreakdown {
    counts: [u64; 6],
    downtime_secs: [u64; 6],
}

impl CauseBreakdown {
    /// Accumulate a breakdown over a borrowed [`TraceView`] (the whole
    /// trace, one system, one era, ...) in one pass over its columns.
    pub fn from_view(view: &TraceView<'_>) -> Self {
        let mut b = CauseBreakdown::default();
        for totals in view.counts_by_cause_per_system().values() {
            b.add_totals(totals);
        }
        b
    }

    fn add_totals(&mut self, totals: &CauseTotals) {
        for i in 0..6 {
            self.counts[i] += totals.count[i];
            self.downtime_secs[i] += totals.downtime_secs[i];
        }
    }

    /// Total failure count.
    pub fn total_failures(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total downtime in seconds.
    pub fn total_downtime_secs(&self) -> u64 {
        self.downtime_secs.iter().sum()
    }

    /// Failure count for a category.
    pub fn count(&self, cause: RootCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Downtime (seconds) for a category.
    pub fn downtime_secs(&self, cause: RootCause) -> u64 {
        self.downtime_secs[cause.index()]
    }

    /// Fig. 1(a): the fraction of failures attributed to a category.
    /// NaN when the slice is empty.
    pub fn fraction_of_failures(&self, cause: RootCause) -> f64 {
        let total = self.total_failures();
        if total == 0 {
            f64::NAN
        } else {
            self.count(cause) as f64 / total as f64
        }
    }

    /// Fig. 1(b): the fraction of downtime attributed to a category.
    /// NaN when the slice is empty.
    pub fn fraction_of_downtime(&self, cause: RootCause) -> f64 {
        let total = self.total_downtime_secs();
        if total == 0 {
            f64::NAN
        } else {
            self.downtime_secs(cause) as f64 / total as f64
        }
    }

    /// The category with the largest failure count (the paper: hardware,
    /// everywhere). `None` for an empty slice.
    pub fn largest_by_failures(&self) -> Option<RootCause> {
        if self.total_failures() == 0 {
            return None;
        }
        RootCause::ALL
            .iter()
            .copied()
            .max_by_key(|c| self.count(*c))
    }
}

/// The full Fig. 1 analysis: one breakdown per hardware type (D–H in the
/// figure) plus the all-systems aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootCauseAnalysis {
    /// Per-hardware-type breakdowns (only types present in the trace).
    pub by_type: BTreeMap<HardwareType, CauseBreakdown>,
    /// Aggregate across all records.
    pub all: CauseBreakdown,
}

/// Run the Fig. 1 analysis: group records by the hardware type of their
/// system and compute count/downtime breakdowns. One pass over the
/// [`TraceIndex`] system/cause/downtime columns produces per-system
/// totals, which fold into hardware types with a single catalog lookup
/// per system instead of one per record. All accumulation is integer, so the fold order
/// cannot change the result.
pub fn analyze_indexed(index: &TraceIndex, catalog: &Catalog) -> RootCauseAnalysis {
    let totals = index.all().counts_by_cause_per_system();
    let mut by_type: BTreeMap<HardwareType, CauseBreakdown> = BTreeMap::new();
    let mut all = CauseBreakdown::default();
    for (&system, t) in &totals {
        all.add_totals(t);
        if let Ok(spec) = catalog.system(system) {
            by_type.entry(spec.hardware()).or_default().add_totals(t);
        }
    }
    RootCauseAnalysis { by_type, all }
}

/// Section 4's detailed-cause statistic: the fraction of the view's
/// failures attributed to each detailed cause, sorted descending (ties
/// keep detailed-cause order).
pub fn detailed_fractions(view: &TraceView<'_>) -> Vec<(DetailedCause, f64)> {
    let total = view.len() as f64;
    if total == 0.0 {
        return Vec::new();
    }
    let mut counts: BTreeMap<DetailedCause, u64> = BTreeMap::new();
    for r in view.iter() {
        *counts.entry(r.detail()).or_insert(0) += 1;
    }
    let mut out: Vec<(DetailedCause, f64)> = counts
        .into_iter()
        .map(|(c, n)| (c, n as f64 / total))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{FailureRecord, FailureTrace, NodeId, SystemId, Timestamp, Workload};

    fn breakdown(trace: &FailureTrace) -> CauseBreakdown {
        CauseBreakdown::from_view(&trace.index().all())
    }

    fn rec(system: u32, start: u64, dur: u64, detail: DetailedCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(system),
            NodeId::new(0),
            Timestamp::from_secs(start),
            Timestamp::from_secs(start + dur),
            Workload::Compute,
            detail,
        )
        .unwrap()
    }

    fn mixed_trace() -> FailureTrace {
        FailureTrace::from_records(vec![
            rec(7, 100, 100, DetailedCause::Memory), // E, hardware
            rec(7, 200, 50, DetailedCause::Cpu),     // E, hardware
            rec(7, 300, 400, DetailedCause::OperatingSystem), // E, software
            rec(20, 400, 1000, DetailedCause::Memory), // G, hardware
            rec(20, 500, 10, DetailedCause::Undetermined), // G, unknown
        ])
    }

    #[test]
    fn breakdown_counts_and_downtime() {
        let b = breakdown(&mixed_trace());
        assert_eq!(b.total_failures(), 5);
        assert_eq!(b.count(RootCause::Hardware), 3);
        assert_eq!(b.count(RootCause::Software), 1);
        assert_eq!(b.count(RootCause::Unknown), 1);
        assert_eq!(b.downtime_secs(RootCause::Hardware), 1150);
        assert!((b.fraction_of_failures(RootCause::Hardware) - 0.6).abs() < 1e-12);
        assert!((b.fraction_of_downtime(RootCause::Hardware) - 1150.0 / 1560.0).abs() < 1e-12);
        assert_eq!(b.largest_by_failures(), Some(RootCause::Hardware));
    }

    #[test]
    fn empty_breakdown_is_nan() {
        let b = breakdown(&FailureTrace::new());
        assert!(b.fraction_of_failures(RootCause::Hardware).is_nan());
        assert!(b.fraction_of_downtime(RootCause::Hardware).is_nan());
        assert_eq!(b.largest_by_failures(), None);
    }

    #[test]
    fn per_type_grouping() {
        let catalog = Catalog::lanl();
        let analysis = analyze_indexed(&mixed_trace().index(), &catalog);
        assert_eq!(analysis.by_type.len(), 2);
        let e = &analysis.by_type[&HardwareType::E];
        assert_eq!(e.total_failures(), 3);
        let g = &analysis.by_type[&HardwareType::G];
        assert_eq!(g.total_failures(), 2);
        assert_eq!(analysis.all.total_failures(), 5);
    }

    #[test]
    fn unknown_system_records_skipped_in_type_grouping() {
        let t = FailureTrace::from_records(vec![rec(99, 0, 1, DetailedCause::Memory)]);
        let catalog = Catalog::lanl();
        let analysis = analyze_indexed(&t.index(), &catalog);
        assert!(analysis.by_type.is_empty());
        // …but still counted in the aggregate.
        assert_eq!(analysis.all.total_failures(), 1);
    }

    #[test]
    fn detailed_fraction_ordering() {
        let trace = mixed_trace();
        let fr = detailed_fractions(&trace.index().all());
        assert_eq!(fr[0].0, DetailedCause::Memory);
        assert!((fr[0].1 - 0.4).abs() < 1e-12);
        // Sorted descending.
        for w in fr.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Fractions sum to 1.
        let total: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(detailed_fractions(&FailureTrace::new().index().all()).is_empty());
        // On a system view the fractions are of that system's failures.
        let index = trace.index();
        let sys20 = detailed_fractions(&index.system(SystemId::new(20)));
        assert_eq!(
            sys20,
            vec![
                (DetailedCause::Memory, 0.5),
                (DetailedCause::Undetermined, 0.5)
            ]
        );
    }

    #[test]
    fn paper_shape_on_synthetic_system() {
        // A type-E system trace must satisfy Fig 1's qualitative claims.
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(7), 42).unwrap();
        let b = breakdown(&trace);
        assert_eq!(b.largest_by_failures(), Some(RootCause::Hardware));
        let hw = b.fraction_of_failures(RootCause::Hardware);
        assert!((0.30..=0.70).contains(&hw), "hardware fraction {hw}");
        let sw = b.fraction_of_failures(RootCause::Software);
        assert!(hw > sw, "hardware must beat software");
        assert!(
            b.fraction_of_failures(RootCause::Unknown) < 0.05,
            "type E unknown < 5%"
        );
    }
}
