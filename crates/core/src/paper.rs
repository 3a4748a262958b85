//! One memo per trace index of the analyses several of the paper's
//! artifacts read (its Section-8 findings restate Figs. 1, 2, 5, 6(d), 7
//! and Table 2), so each runs once; and the paper's system 20, node 22.

use std::cell::OnceCell;

use hpcfail_records::{Catalog, NodeId, SystemId, TraceIndex};
use hpcfail_stats::fit::FitReport;

use crate::error::AnalysisError;
use crate::{periodic, rates, repair, rootcause, tbf};

/// The paper's running example, system 20 (Figs. 3 and 6).
pub const SYSTEM: SystemId = SystemId::new(20);

/// The node of [`SYSTEM`] whose failures Fig. 6(a)(b) follow.
pub const NODE: NodeId = NodeId::new(22);

type Memo<T> = OnceCell<Result<T, AnalysisError>>;

/// The shared analyses of one [`TraceIndex`], each run on first use and kept.
#[derive(Debug)]
pub struct Analyses<'a> {
    index: &'a TraceIndex,
    catalog: &'a Catalog,
    rootcause: OnceCell<rootcause::RootCauseAnalysis>,
    rates: Memo<rates::RateAnalysis>,
    periodic: Memo<periodic::PeriodicPattern>,
    fig6: [Memo<tbf::TbfAnalysis>; 4],
    repair_by_cause: Memo<repair::RepairByCause>,
    repair_fit: Memo<FitReport>,
    repair_by_system: OnceCell<Vec<repair::SystemRepair>>,
}

impl<'a> Analyses<'a> {
    /// A memo over `index` and its systems' `catalog`, nothing computed.
    pub fn new(index: &'a TraceIndex, catalog: &'a Catalog) -> Self {
        Analyses {
            index,
            catalog,
            rootcause: OnceCell::new(),
            rates: OnceCell::new(),
            periodic: OnceCell::new(),
            fig6: Default::default(),
            repair_by_cause: OnceCell::new(),
            repair_fit: OnceCell::new(),
            repair_by_system: OnceCell::new(),
        }
    }

    /// The trace index every analysis reads.
    pub fn index(&self) -> &'a TraceIndex {
        self.index
    }

    /// The catalog of the trace's systems.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// [`rootcause::analyze_indexed`] (Fig. 1).
    pub fn rootcause(&self) -> &rootcause::RootCauseAnalysis {
        self.rootcause
            .get_or_init(|| rootcause::analyze_indexed(self.index, self.catalog))
    }

    /// [`rates::analyze_indexed`] (Fig. 2).
    pub fn rates(&self) -> &Result<rates::RateAnalysis, AnalysisError> {
        self.rates
            .get_or_init(|| rates::analyze_indexed(self.index, self.catalog))
    }

    /// [`periodic::analyze_indexed`] (Fig. 5).
    pub fn periodic(&self) -> &Result<periodic::PeriodicPattern, AnalysisError> {
        self.periodic
            .get_or_init(|| periodic::analyze_indexed(self.index))
    }

    /// [`tbf::analyze_indexed`] for Fig. 6 panel 0 to 3, (a) to (d):
    /// [`NODE`] then all of [`SYSTEM`], each over the early then the late
    /// era of [`tbf::paper_era_split`].
    pub fn fig6(&self, panel: usize) -> &Result<tbf::TbfAnalysis, AnalysisError> {
        self.fig6[panel].get_or_init(|| {
            let view = [tbf::View::Node(SYSTEM, NODE), tbf::View::SystemWide(SYSTEM)][panel / 2];
            let (early, late) = tbf::paper_era_split();
            tbf::analyze_indexed(self.index, view, Some([early, late][panel % 2]))
        })
    }

    /// [`repair::by_cause_indexed`] (Table 2).
    pub fn repair_by_cause(&self) -> &Result<repair::RepairByCause, AnalysisError> {
        self.repair_by_cause
            .get_or_init(|| repair::by_cause_indexed(self.index))
    }

    /// [`repair::fit_all_repairs_indexed`] (Fig. 7(a)).
    pub fn repair_fit(&self) -> &Result<FitReport, AnalysisError> {
        self.repair_fit
            .get_or_init(|| repair::fit_all_repairs_indexed(self.index))
    }

    /// [`repair::by_system_indexed`] (Fig. 7(b)(c)).
    pub fn repair_by_system(&self) -> &[repair::SystemRepair] {
        self.repair_by_system
            .get_or_init(|| repair::by_system_indexed(self.index, self.catalog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings;
    use hpcfail_records::{DetailedCause, FailureRecord, FailureTrace, Timestamp, Workload};

    /// The seed-42 site, a one-record trace and the empty trace.
    fn traces() -> [FailureTrace; 3] {
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
        [
            hpcfail_synth::scenario::site_trace(42).unwrap(),
            FailureTrace::from_records(vec![rec]),
            FailureTrace::default(),
        ]
    }

    /// Equality by `{:?}`: fit reports hold boxed distributions, which
    /// have no `PartialEq`, and a NaN statistic must equal itself.
    fn assert_same<T: std::fmt::Debug + ?Sized>(memo: &T, direct: &T, what: &str) {
        assert_eq!(format!("{memo:?}"), format!("{direct:?}"), "{what}");
    }

    /// Every cell, read through its accessor (which fills it), with the
    /// address of the value it holds.
    fn cells(memo: &Analyses) -> Vec<String> {
        fn cell<T: std::fmt::Debug + ?Sized>(value: &T) -> String {
            format!("{:p} {value:?}", value as *const T as *const ())
        }
        let mut out = vec![
            cell(memo.rootcause()),
            cell(memo.rates()),
            cell(memo.periodic()),
            cell(memo.repair_by_cause()),
            cell(memo.repair_fit()),
            cell(memo.repair_by_system()),
        ];
        out.extend((0..4).map(|panel| cell(memo.fig6(panel))));
        out
    }

    #[test]
    fn accessors_equal_the_direct_kernel_calls() {
        let catalog = Catalog::lanl();
        let (early, late) = tbf::paper_era_split();
        let node = tbf::View::Node(SystemId::new(20), NodeId::new(22));
        let system = tbf::View::SystemWide(SystemId::new(20));
        for trace in traces() {
            let index = trace.index();
            let memo = Analyses::new(&index, &catalog);
            let what = format!("{} records", index.len());
            assert_same(
                memo.rootcause(),
                &rootcause::analyze_indexed(&index, &catalog),
                &what,
            );
            assert_same(
                memo.rates(),
                &rates::analyze_indexed(&index, &catalog),
                &what,
            );
            assert_same(memo.periodic(), &periodic::analyze_indexed(&index), &what);
            for (panel, view, era) in [
                (0, node, early),
                (1, node, late),
                (2, system, early),
                (3, system, late),
            ] {
                let direct = tbf::analyze_indexed(&index, view, Some(era));
                assert_same(memo.fig6(panel), &direct, &format!("{what}, panel {panel}"));
            }
            assert_same(
                memo.repair_by_cause(),
                &repair::by_cause_indexed(&index),
                &what,
            );
            assert_same(
                memo.repair_fit(),
                &repair::fit_all_repairs_indexed(&index),
                &what,
            );
            assert_same(
                memo.repair_by_system(),
                &repair::by_system_indexed(&index, &catalog)[..],
                &what,
            );
        }
    }

    #[test]
    fn findings_read_the_memo_and_leave_filled_cells_alone() {
        let catalog = Catalog::lanl();
        for trace in traces() {
            let index = trace.index();
            // Filled first, as a whole repro report fills it before its
            // findings section.
            let filled = Analyses::new(&index, &catalog);
            let before = cells(&filled);
            let from_filled = findings::evaluate(&filled).unwrap();
            assert_eq!(cells(&filled), before, "{} records", index.len());
            let fresh = Analyses::new(&index, &catalog);
            assert_eq!(findings::evaluate(&fresh).unwrap(), from_filled);
        }
        // On the site every check runs, and the findings read their
        // analyses from the memo: exactly the cells they need are filled.
        let site = hpcfail_synth::scenario::site_trace(42).unwrap().index();
        let memo = Analyses::new(&site, &catalog);
        findings::evaluate(&memo).unwrap();
        assert!(memo.rootcause.get().is_some());
        assert!(memo.rates.get().is_some());
        assert!(memo.periodic.get().is_some());
        assert!(memo.repair_by_cause.get().is_some());
        assert!(memo.repair_fit.get().is_some());
        assert!(memo.repair_by_system.get().is_some());
        let panels: Vec<bool> = memo.fig6.iter().map(|c| c.get().is_some()).collect();
        assert_eq!(panels, [false, false, false, true]);
    }
}
