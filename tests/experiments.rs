//! Per-experiment shape assertions: one test per table/figure of the
//! paper, checking the qualitative result ("who wins, by roughly what
//! factor") on the seeded synthetic site trace. These are the acceptance
//! tests behind EXPERIMENTS.md.

use hpcfail::analysis::{
    availability, daily, findings, lifetime, periodic, pernode, rates, related, repair, rootcause,
    tbf, workload,
};
use hpcfail::prelude::*;
use std::sync::OnceLock;

fn site() -> &'static FailureTrace {
    static TRACE: OnceLock<FailureTrace> = OnceLock::new();
    TRACE.get_or_init(|| hpcfail::synth::scenario::site_trace(42).expect("site trace"))
}

fn catalog() -> Catalog {
    Catalog::lanl()
}

#[test]
fn table1_system_overview() {
    let catalog = catalog();
    assert_eq!(catalog.systems().len(), 22);
    assert_eq!(catalog.total_nodes(), 4750);
    // Paper: 24101 processors; our Table 1 reconstruction reaches 24092
    // (see DESIGN.md §4).
    assert!((24_000..=24_101).contains(&catalog.total_procs()));
    // SMP systems 1-18, NUMA systems 19-22 (table caption).
    for spec in catalog.systems() {
        assert_eq!(spec.hardware().is_numa(), spec.id().get() >= 19);
    }
}

#[test]
fn fig1a_root_cause_breakdown_of_failures() {
    let analysis = rootcause::analyze_indexed(&site().index(), &catalog());
    // Hardware is the single largest category, 30-60%+ per type — except
    // type D, where the paper says hardware and software are "almost
    // equally frequent" (either may lead after sampling noise).
    for hw in HardwareType::FIGURE1_SET {
        let b = &analysis.by_type[&hw];
        let largest = b.largest_by_failures();
        if hw == HardwareType::D {
            assert!(
                largest == Some(RootCause::Hardware) || largest == Some(RootCause::Software),
                "{hw}: {largest:?}"
            );
        } else {
            assert_eq!(largest, Some(RootCause::Hardware), "{hw}");
        }
        let frac = b.fraction_of_failures(RootCause::Hardware);
        assert!((0.28..0.70).contains(&frac), "{hw}: hardware {frac}");
        let sw = b.fraction_of_failures(RootCause::Software);
        assert!((0.04..0.32).contains(&sw), "{hw}: software {sw}");
    }
    // Type D: hardware and software almost equally frequent.
    let d = &analysis.by_type[&HardwareType::D];
    let gap =
        d.fraction_of_failures(RootCause::Hardware) - d.fraction_of_failures(RootCause::Software);
    assert!(gap.abs() < 0.08, "type D hw-sw gap {gap}");
    // Type E: unknown < 5%.
    let e = &analysis.by_type[&HardwareType::E];
    assert!(e.fraction_of_failures(RootCause::Unknown) < 0.05);
}

#[test]
fn fig1b_root_cause_breakdown_of_downtime() {
    let analysis = rootcause::analyze_indexed(&site().index(), &catalog());
    // Downtime, like counts, is dominated by hardware then software.
    let all = &analysis.all;
    let hw = all.fraction_of_downtime(RootCause::Hardware);
    let sw = all.fraction_of_downtime(RootCause::Software);
    assert!(hw > sw, "hardware downtime {hw} vs software {sw}");
    for cause in [RootCause::Network, RootCause::Human] {
        assert!(hw > all.fraction_of_downtime(cause));
    }
}

#[test]
fn fig1_detailed_causes_memory_everywhere() {
    // Section 4: memory >10% of all failures in every system type; >25%
    // for F and H; type E is CPU-dominated.
    let index = site().index();
    let catalog = catalog();
    for hw in HardwareType::FIGURE1_SET {
        let pool: FailureTrace = catalog
            .systems()
            .iter()
            .filter(|s| s.hardware() == hw)
            .flat_map(|s| index.system(s.id()).iter())
            .collect();
        let fractions = rootcause::detailed_fractions(&pool.index().all());
        let memory = fractions
            .iter()
            .find(|(c, _)| *c == DetailedCause::Memory)
            .map(|&(_, f)| f)
            .unwrap_or(0.0);
        assert!(memory > 0.10, "{hw}: memory fraction {memory}");
        if matches!(hw, HardwareType::F | HardwareType::H) {
            assert!(memory > 0.25, "{hw}: memory fraction {memory}");
        }
        if hw == HardwareType::E {
            let cpu = fractions
                .iter()
                .find(|(c, _)| *c == DetailedCause::Cpu)
                .map(|&(_, f)| f)
                .unwrap_or(0.0);
            assert!(cpu > 0.45, "type E cpu fraction {cpu} (paper: >50%)");
        }
    }
}

#[test]
fn fig2a_failure_rates_span_paper_range() {
    let analysis = rates::analyze_indexed(&site().index(), &catalog()).unwrap();
    let (min, max) = analysis.per_year_range();
    // Paper: 17 (system 2) to 1159 (system 7) failures/year.
    assert!(min < 40.0, "min {min}");
    assert!((800.0..1_600.0).contains(&max), "max {max}");
    let sys7 = analysis.system(SystemId::new(7)).unwrap();
    assert!(
        (900.0..1_500.0).contains(&sys7.per_year),
        "system 7 rate {}",
        sys7.per_year
    );
}

#[test]
fn fig2b_normalization_removes_most_variability() {
    let analysis = rates::analyze_indexed(&site().index(), &catalog()).unwrap();
    assert!(analysis.normalized_variability() < 0.8 * analysis.raw_variability());
    // Within-type normalized rates are consistent (paper's type E claim).
    let within_type = |hw| {
        let v: Vec<f64> = analysis
            .rates
            .iter()
            .filter(|r| r.hardware == hw)
            .map(|r| r.per_proc_year)
            .collect();
        hpcfail::stats::descriptive::squared_cv(&v)
    };
    assert!(within_type(HardwareType::E) < 0.6);
    assert!(within_type(HardwareType::F) < 0.6);
}

#[test]
fn fig3a_graphics_nodes_take_outsized_share() {
    let analysis =
        pernode::analyze_indexed(&site().index(), &catalog(), SystemId::new(20)).unwrap();
    // Paper: nodes 21-23 are 6% of nodes but ~20% of failures.
    assert!((analysis.graphics_node_share - 0.061).abs() < 0.01);
    assert!(
        analysis.graphics_failure_share > 0.12,
        "graphics share {}",
        analysis.graphics_failure_share
    );
}

#[test]
fn fig3b_poisson_loses_to_normal_and_lognormal() {
    let analysis =
        pernode::analyze_indexed(&site().index(), &catalog(), SystemId::new(20)).unwrap();
    assert!(analysis.compute_fits.poisson_is_worst());
    assert!(analysis.compute_fits.dispersion_index > 1.5);
}

#[test]
fn fig4a_type_e_failure_rate_drops_early() {
    let catalog = catalog();
    let spec = catalog.system(SystemId::new(5)).unwrap();
    let curve = lifetime::analyze_indexed(&site().index(), spec).unwrap();
    assert_eq!(curve.classify(), lifetime::CurveShape::EarlyPeak);
}

#[test]
fn fig4b_type_g_failure_rate_ramps_twenty_months() {
    let catalog = catalog();
    let spec = catalog.system(SystemId::new(19)).unwrap();
    let curve = lifetime::analyze_indexed(&site().index(), spec).unwrap();
    assert_eq!(curve.classify(), lifetime::CurveShape::LatePeak);
    assert!(
        (10..=30).contains(&curve.peak_month()),
        "peak {}",
        curve.peak_month()
    );
    // System 21 (two years later) behaves like Fig 4(a) — Section 5.2.
    let s21 = catalog.system(SystemId::new(21)).unwrap();
    let c21 = lifetime::analyze_indexed(&site().index(), s21).unwrap();
    assert_eq!(c21.classify(), lifetime::CurveShape::EarlyPeak);
}

#[test]
fn fig5_daily_and_weekly_patterns() {
    let pattern = periodic::analyze_indexed(&site().index()).unwrap();
    let hour_ratio = pattern.hourly_peak_to_trough();
    assert!(
        (1.5..2.8).contains(&hour_ratio),
        "hour ratio {hour_ratio} (paper ~2)"
    );
    let week_ratio = pattern.weekday_to_weekend();
    assert!(
        (1.4..2.4).contains(&week_ratio),
        "weekday ratio {week_ratio} (paper ~2)"
    );
    // No Monday detection artifact (the paper's delayed-detection check).
    assert!((0.85..1.15).contains(&pattern.monday_excess()));
}

#[test]
fn fig6_time_between_failures() {
    let index = site().index();
    let (early, late) = tbf::paper_era_split();
    let sys = SystemId::new(20);

    // (c): early system-wide view dominated by simultaneous failures.
    let c = tbf::analyze_indexed(&index, tbf::View::SystemWide(sys), Some(early)).unwrap();
    assert!(c.zero_fraction > 0.3, "zero fraction {}", c.zero_fraction);

    // (d): late system-wide view — Weibull/gamma win, shape ~0.78,
    // decreasing hazard.
    let d = tbf::analyze_indexed(&index, tbf::View::SystemWide(sys), Some(late)).unwrap();
    let best = d.fits.best().unwrap().family;
    assert!(
        best == Family::Weibull || best == Family::Gamma,
        "best {best:?}"
    );
    let shape = d.weibull_shape.unwrap();
    assert!((0.55..0.95).contains(&shape), "shape {shape} (paper 0.78)");
    assert!(d.has_decreasing_hazard());

    // (a)/(b): node 22 — early era much more variable than late era
    // (paper C² 3.9 vs 1.9), exponential always worst.
    let a =
        tbf::analyze_indexed(&index, tbf::View::Node(sys, NodeId::new(22)), Some(early)).unwrap();
    let b =
        tbf::analyze_indexed(&index, tbf::View::Node(sys, NodeId::new(22)), Some(late)).unwrap();
    assert!(a.c2 > b.c2, "early C² {} vs late C² {}", a.c2, b.c2);
    assert_eq!(a.fits.rank_of(Family::Exponential), Some(3));
    assert_eq!(b.fits.rank_of(Family::Exponential), Some(3));
}

#[test]
fn table2_repair_time_statistics() {
    let table = repair::by_cause_indexed(&site().index()).unwrap();
    // Environment repairs: slowest median, least variable (paper: median
    // 269 min, C² 2 — smallest of all categories).
    let env = table.row(RootCause::Environment).unwrap().summary;
    for cause in [RootCause::Software, RootCause::Hardware, RootCause::Unknown] {
        let row = table.row(cause).unwrap().summary;
        assert!(row.c2 > env.c2, "{cause}: C² {} vs env {}", row.c2, env.c2);
        assert!(
            env.median > row.median,
            "{cause}: median {} vs env {}",
            row.median,
            env.median
        );
    }
    // Software: median ~10× below mean (paper: 33 vs 369).
    let sw = table.row(RootCause::Software).unwrap().summary;
    assert!(
        sw.mean / sw.median > 4.0,
        "sw mean/median {}",
        sw.mean / sw.median
    );
    // Aggregate mean within 2x of the paper's ~6 hours.
    assert!((150.0..800.0).contains(&table.all.summary.mean));
}

#[test]
fn fig7a_lognormal_wins_repair_fit() {
    let report = repair::fit_all_repairs_indexed(&site().index()).unwrap();
    assert_eq!(report.best().unwrap().family, Family::LogNormal);
    assert_eq!(report.rank_of(Family::Exponential), Some(3));
}

#[test]
fn fig7bc_repair_time_depends_on_type_not_size() {
    let rows = repair::by_system_indexed(&site().index(), &catalog());
    let effect = repair::type_effect(&rows);
    assert!(effect.across_all_spread > 2.5);
    assert!(effect.max_within_type_spread < effect.across_all_spread);
    // Means span under-an-hour to several-hours+ across systems.
    let means: Vec<f64> = rows.iter().map(|r| r.mean_minutes).collect();
    let min = means.iter().cloned().fold(f64::MAX, f64::min);
    let max = means.iter().cloned().fold(f64::MIN, f64::max);
    assert!(min < 250.0, "fastest system mean {min}");
    assert!(max > 500.0, "slowest system mean {max}");
}

#[test]
fn derived_workload_rates() {
    // Section 5.1: graphics and front-end nodes fail more per node.
    let a = workload::analyze_indexed(&site().index(), &catalog()).unwrap();
    assert!(a.multiplier_vs_compute(Workload::Graphics) > 2.0);
    assert!(a.multiplier_vs_compute(Workload::FrontEnd) > 1.5);
    let within = workload::within_system_multipliers_indexed(
        &site().index(),
        &catalog(),
        Workload::Graphics,
    );
    assert_eq!(within.len(), 1, "graphics only on system 20");
    assert!(
        (2.0..6.0).contains(&within[0].1),
        "multiplier {}",
        within[0].1
    );
}

#[test]
fn derived_daily_burstiness() {
    let a = daily::analyze_indexed(&site().index()).unwrap();
    assert!(a.dispersion_index > 1.5);
    assert!(a.lag1_autocorrelation > 0.1);
    assert!(a.negative_binomial_wins());
}

#[test]
fn derived_availability() {
    let rows = availability::analyze_indexed(&site().index(), &catalog()).unwrap();
    assert_eq!(rows.len(), 22);
    let site_avail = availability::site_availability(&rows);
    assert!(
        (0.99..1.0).contains(&site_avail),
        "site availability {site_avail}"
    );
}

#[test]
fn derived_findings_all_hold() {
    let result = findings::evaluate_indexed(&site().index(), &catalog()).unwrap();
    assert!(result.all_hold(), "{:#?}", result.findings);
}

#[test]
fn table3_related_work() {
    let studies = related::table3();
    assert_eq!(studies.len(), 13);
    let (lanl, largest) = related::lanl_advantage();
    assert!(lanl >= 7 * largest);
}
