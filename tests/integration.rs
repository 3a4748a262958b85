//! Cross-crate integration tests: end-to-end workflows spanning the
//! generator, the record store, the statistics engine, the analyses, and
//! the application simulators.

use hpcfail::analysis::{pernode, rates, repair, rootcause, tbf};
use hpcfail::checkpoint::sim::{simulate, JobConfig};
use hpcfail::checkpoint::strategies::Periodic;
use hpcfail::prelude::*;
use hpcfail::records::io::{read_trace, write_csv};
use hpcfail::sched::cluster::profiles_from_index;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn site_trace() -> FailureTrace {
    hpcfail::synth::scenario::site_trace(42).expect("site trace generates")
}

#[test]
fn site_trace_matches_paper_scale() {
    let trace = site_trace();
    // The paper's data set: ~23000 failures over 22 systems.
    assert!(
        (12_000..50_000).contains(&trace.len()),
        "trace has {} records",
        trace.len()
    );
    assert_eq!(trace.index().all().count_by_system().len(), 22);
    // Records are sorted and well-formed.
    let mut last = Timestamp::EPOCH;
    for r in trace.iter() {
        assert!(r.start() >= last);
        assert!(r.end() >= r.start());
        last = r.start();
    }
}

#[test]
fn csv_round_trip_preserves_full_site_trace() {
    let trace = site_trace();
    let mut buf: Vec<u8> = Vec::new();
    write_csv(&trace, &mut buf).expect("write succeeds");
    let parsed = read_trace(&buf, IngestPolicy::FailFast)
        .expect("parse succeeds")
        .index
        .all()
        .to_trace();
    assert_eq!(parsed, trace);
}

#[test]
fn analyses_compose_on_one_trace() {
    // All the paper's analyses should run off the same trace without
    // interfering with each other.
    let trace = site_trace();
    let catalog = Catalog::lanl();

    let rc = rootcause::analyze_indexed(&trace.index(), &catalog);
    assert_eq!(rc.by_type.len(), 8, "all hardware types present");

    let rt = rates::analyze_indexed(&trace.index(), &catalog).expect("rates");
    assert_eq!(rt.rates.len(), 22);

    let pn =
        pernode::analyze_indexed(&trace.index(), &catalog, SystemId::new(20)).expect("per-node");
    assert_eq!(pn.counts.len(), 49);

    let tb = tbf::analyze(&trace, tbf::View::SystemWide(SystemId::new(20)), None).expect("tbf");
    assert!(tb.n > 1_000);

    let rp = repair::by_cause_indexed(&trace.index()).expect("repairs");
    assert_eq!(rp.rows.len(), 6);
}

#[test]
fn fitted_statistics_feed_the_checkpoint_simulator() {
    // The workflow the paper's intro motivates: measure TBF on real
    // records, fit a distribution, use it to plan checkpoints.
    let trace = site_trace();
    let index = trace.index();
    let gaps: Vec<f64> = index
        .system(SystemId::new(7))
        .per_node_interarrival_secs()
        .into_iter()
        .filter(|&g| g > 0.0)
        .collect();
    let weibull = Weibull::fit_mle(&gaps).expect("weibull fits");
    assert!(weibull.has_decreasing_hazard());

    let job = JobConfig {
        total_work_secs: 10.0 * 86_400.0,
        checkpoint_cost_secs: 300.0,
        restart_cost_secs: 300.0,
    };
    let tau = hpcfail::checkpoint::daly::young_interval(300.0, weibull.mean()).expect("interval");
    let strategy = Periodic::new(tau).expect("strategy");
    let repair_dist = LogNormal::from_median_mean(54.0 * 60.0, 355.0 * 60.0).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let outcome = simulate(&job, &strategy, &weibull, &repair_dist, &mut rng).expect("simulates");
    assert!(outcome.conserves_time());
    assert!((outcome.useful_secs - job.total_work_secs).abs() < 1e-6);
}

#[test]
fn trace_profiles_feed_the_scheduler() {
    let trace = site_trace();
    let catalog = Catalog::lanl();
    let spec = catalog.system(SystemId::new(20)).unwrap();
    let profiles = profiles_from_index(
        &trace.index(),
        SystemId::new(20),
        spec.nodes(),
        spec.production_years(),
    )
    .expect("profiles");
    assert_eq!(profiles.len(), 49);
    // Graphics nodes must rank among the flakiest.
    let ranking = hpcfail::sched::cluster::reliability_ranking(&profiles);
    let worst5: Vec<u32> = ranking[ranking.len() - 5..].to_vec();
    let graphics_in_worst = [21u32, 22, 23]
        .iter()
        .filter(|n| worst5.contains(n))
        .count();
    assert!(
        graphics_in_worst >= 2,
        "graphics nodes should be among the flakiest; worst5 = {worst5:?}"
    );
}

#[test]
fn generator_is_deterministic_end_to_end() {
    let a = hpcfail::synth::scenario::site_trace(7).unwrap();
    let b = hpcfail::synth::scenario::site_trace(7).unwrap();
    assert_eq!(a, b);
    let c = hpcfail::synth::scenario::site_trace(8).unwrap();
    assert_ne!(a, c);
}

#[test]
fn catalog_invariants_hold() {
    let catalog = Catalog::lanl();
    assert_eq!(catalog.total_nodes(), 4750);
    assert_eq!(catalog.systems().len(), 22);
    // Every generated record references a valid node of its system.
    let trace = site_trace();
    for r in trace.iter() {
        let spec = catalog.system(r.system()).expect("known system");
        assert!(
            spec.contains_node(r.node()),
            "system {} node {}",
            r.system(),
            r.node()
        );
        assert!(r.start() >= spec.production_start());
        assert!(r.start() < spec.production_end());
    }
}

#[test]
fn filters_partition_the_trace() {
    let trace = site_trace();
    let index = trace.index();
    // Cause filters partition records.
    let total: usize = RootCause::ALL.iter().map(|&c| index.cause(c).len()).sum();
    assert_eq!(total, trace.len());
    // System filters partition records.
    let by_system: usize = (1..=22)
        .map(|id| index.system(SystemId::new(id)).len())
        .sum();
    assert_eq!(by_system, trace.len());
    // Era windows partition records that fall inside the data period.
    let t0 = Timestamp::EPOCH;
    let t1 = Timestamp::from_civil(2000, 1, 1, 0, 0, 0).unwrap();
    let t2 = Timestamp::from_civil(2006, 1, 1, 0, 0, 0).unwrap();
    let early = trace.filter_window(t0, t1).len();
    let late = trace.filter_window(t1, t2).len();
    assert_eq!(early + late, trace.len());
}
