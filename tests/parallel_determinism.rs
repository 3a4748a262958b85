//! The determinism contract of the parallel execution engine, plus the
//! golden statistical regressions it must never disturb.
//!
//! Four families of checks:
//!
//! 1. **Worker-count independence** — synthetic traces and rendered
//!    analysis tables are
//!    byte-identical for 1, 2, and 8 workers across several seeds. This
//!    is the property that makes `HPCFAIL_THREADS` a pure performance
//!    knob: parallelism can never change the science.
//! 2. **Golden pins** — headline results of the paper reproduction
//!    (Weibull TBF shape in the 0.7–0.8 band, lognormal winning the
//!    repair-time fit, per-node counts overdispersed versus Poisson) on
//!    the default seeded site trace, so a stream-layout regression that
//!    shifts the statistics is caught here even if every equality test
//!    still passes.
//! 3. **Output checksum pins** — `records::store::checksum` of the full
//!    CSV bytes of seeded site traces and of a perturbed system trace,
//!    and of the rendered bundled campaign. A cost optimisation in the
//!    generator or the scenario engine must leave every one of them
//!    bit-for-bit unchanged.
//! 4. **Seed-stream hygiene** — the SplitMix64 stream splitter produces
//!    collision-free, uniform-looking seeds.

use std::collections::HashSet;
use std::sync::OnceLock;

use hpcfail::analysis::report::{fmt_num, TextTable};
use hpcfail::analysis::{pernode, rates, repair, tbf};
use hpcfail::exec::derive_stream_seed;
use hpcfail::prelude::*;
use hpcfail::records::io::write_csv;
use hpcfail::records::store::checksum;
use hpcfail::stats::gof::chi_squared_uniform;
use hpcfail::synth::builder::ScenarioBuilder;
use hpcfail::synth::config::BurstConfig;

const SEEDS: [u64; 3] = [1, 42, 2026];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn catalog() -> Catalog {
    Catalog::lanl()
}

fn site() -> &'static FailureTrace {
    static TRACE: OnceLock<FailureTrace> = OnceLock::new();
    TRACE.get_or_init(|| hpcfail::synth::scenario::site_trace(42).expect("site trace"))
}

/// The full CSV serialization — byte-level equality, not just `PartialEq`.
fn trace_bytes(trace: &FailureTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_csv(trace, &mut buf).expect("csv to memory");
    buf
}

// ---------------------------------------------------------------------
// 1. Worker-count independence
// ---------------------------------------------------------------------

#[test]
fn system_traces_byte_identical_across_worker_counts() {
    let catalog = catalog();
    let calibration = hpcfail::synth::config::Calibration::lanl();
    for &seed in &SEEDS {
        for system in [SystemId::new(12), SystemId::new(20)] {
            let reference = TraceGenerator::new(&catalog, &calibration)
                .unwrap()
                .with_executor(ParallelExecutor::with_workers(1))
                .system_trace(system, seed)
                .unwrap();
            let reference_bytes = trace_bytes(&reference);
            for &workers in &WORKER_COUNTS[1..] {
                let parallel = TraceGenerator::new(&catalog, &calibration)
                    .unwrap()
                    .with_executor(ParallelExecutor::with_workers(workers))
                    .system_trace(system, seed)
                    .unwrap();
                assert_eq!(parallel, reference, "seed {seed} workers {workers}");
                assert_eq!(
                    trace_bytes(&parallel),
                    reference_bytes,
                    "seed {seed} workers {workers}: CSV bytes differ"
                );
            }
        }
    }
}

#[test]
fn site_trace_byte_identical_serial_vs_parallel() {
    let catalog = catalog();
    let calibration = hpcfail::synth::config::Calibration::lanl();
    let serial = TraceGenerator::new(&catalog, &calibration)
        .unwrap()
        .with_executor(ParallelExecutor::with_workers(1))
        .site_trace(42)
        .unwrap();
    let parallel = TraceGenerator::new(&catalog, &calibration)
        .unwrap()
        .with_executor(ParallelExecutor::with_workers(8))
        .site_trace(42)
        .unwrap();
    assert_eq!(trace_bytes(&serial), trace_bytes(&parallel));
}

/// The Fig. 2 / Fig. 7(b)(c) tables exactly as the repro harness renders
/// them, from a trace generated with the given worker count.
fn rendered_analysis_tables(workers: usize, seed: u64) -> String {
    let catalog = catalog();
    let calibration = hpcfail::synth::config::Calibration::lanl();
    let trace = TraceGenerator::new(&catalog, &calibration)
        .unwrap()
        .with_executor(ParallelExecutor::with_workers(workers))
        .site_trace(seed)
        .unwrap();
    let mut out = String::new();
    let analysis = rates::analyze_indexed(&trace.index(), &catalog).unwrap();
    let mut t = TextTable::new(&["system", "failures/yr", "per proc/yr"]);
    for r in &analysis.rates {
        t.row(&[
            &r.system.to_string(),
            &fmt_num(r.per_year),
            &fmt_num(r.per_proc_year),
        ]);
    }
    out.push_str(&t.render());
    let mut t = TextTable::new(&["system", "repairs", "mean (min)", "median (min)"]);
    for row in repair::by_system_indexed(&trace.index(), &catalog) {
        t.row(&[
            &row.system.to_string(),
            &row.count.to_string(),
            &fmt_num(row.mean_minutes),
            &fmt_num(row.median_minutes),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[test]
fn repro_table_text_byte_identical_across_worker_counts() {
    let reference = rendered_analysis_tables(1, 42);
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            rendered_analysis_tables(workers, 42),
            reference,
            "workers {workers}"
        );
    }
}

#[test]
fn scenario_campaigns_identical_across_worker_counts() {
    // The scenario engine rides on the same executor; a whole campaign
    // (trace generation, era filters, checkpoint/sched sims, degraded
    // cells) must be a pure function of (spec, seed) with the worker
    // count a pure performance knob — same contract as the generator.
    for &seed in &SEEDS {
        let spec = hpcfail::scenario::CampaignSpec::parse(&format!(
            "[campaign]\nname = \"determinism\"\nseed = {seed}\n\
             [fleet]\nsystems = [12]\n\
             [grid]\nera = [\"full\", \"late\"]\nrate_scale = [1.0, 2.0]\n\
             checkpoint = [\"none\", \"hazard\"]\n[runner]\ncheckpoint_every = 3\n"
        ))
        .unwrap();
        let reference = hpcfail::scenario::run_campaign(
            &spec,
            &hpcfail::scenario::RunOptions {
                workers: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let reference_text = hpcfail::scenario::render_results(&spec, &reference);
        for &workers in &WORKER_COUNTS[1..] {
            let parallel = hpcfail::scenario::run_campaign(
                &spec,
                &hpcfail::scenario::RunOptions {
                    workers: Some(workers),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                parallel.outcomes, reference.outcomes,
                "seed {seed} workers {workers}"
            );
            assert_eq!(
                hpcfail::scenario::render_results(&spec, &parallel),
                reference_text,
                "seed {seed} workers {workers}: rendered campaign bytes differ"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. Golden statistical pins on the default seeded site trace
// ---------------------------------------------------------------------

#[test]
fn golden_weibull_tbf_shape_in_paper_band() {
    // Paper Fig. 6(d): the mature-era time between failures of system 20
    // fits a Weibull with shape 0.7–0.8 (the paper reports 0.78, hence a
    // decreasing hazard). Pin the fit to that band.
    let (_, late) = tbf::paper_era_split();
    let analysis =
        tbf::analyze(site(), tbf::View::SystemWide(SystemId::new(20)), Some(late)).unwrap();
    let shape = analysis.weibull_shape.expect("Weibull fits");
    assert!(
        (0.7..=0.8).contains(&shape),
        "late-era Weibull shape {shape} left the paper's 0.7–0.8 band"
    );
    assert!(analysis.has_decreasing_hazard());
}

#[test]
fn golden_lognormal_best_repair_fit() {
    // Paper §6 / Fig. 7(a): the lognormal is the best of the four
    // candidate families for repair times.
    let report = repair::fit_all_repairs_indexed(&site().index()).unwrap();
    assert_eq!(
        report.best().expect("some family fits").family,
        Family::LogNormal,
        "lognormal must win the repair-time fit"
    );
}

#[test]
fn golden_per_node_counts_overdispersed_vs_poisson() {
    // Paper Fig. 3(b): per-node failure counts are far more variable
    // than Poisson; the Poisson is the worst of the candidate fits.
    let analysis =
        pernode::analyze_indexed(&site().index(), &catalog(), SystemId::new(20)).unwrap();
    let dispersion = analysis.compute_fits.dispersion_index;
    assert!(
        dispersion > 1.5,
        "dispersion index {dispersion} — counts should be overdispersed"
    );
    assert!(
        analysis.compute_fits.poisson_is_worst(),
        "Poisson must be the worst per-node count fit: {:?}",
        analysis.compute_fits
    );
}

// ---------------------------------------------------------------------
// 3. Output checksum pins
// ---------------------------------------------------------------------

fn assert_checksum(what: &str, bytes: &[u8], want: u64) {
    let got = checksum(bytes);
    assert_eq!(
        got, want,
        "{what}: checksum {got:#018x}, pinned {want:#018x} — the output changed"
    );
}

#[test]
fn site_trace_csv_checksums_pinned() {
    for (seed, want) in [
        (1, 0xf9b3_6fb2_5477_67da),
        (42, 0x33bc_0f40_f4ca_72d1),
        (2006, 0x8314_a7c0_70eb_74f0),
    ] {
        let trace = hpcfail::synth::scenario::site_trace(seed).unwrap();
        assert_checksum(
            &format!("site trace seed {seed}"),
            &trace_bytes(&trace),
            want,
        );
    }
}

#[test]
fn storm_burst_scaled_trace_checksum_pinned() {
    // The bundled campaign's `burst = "storm"`, `rate_scale = 2.0` cell
    // shape on system 14: bursts on every system and doubled rates
    // stress the clustering paths and the horizon-crossing gaps.
    let storm = BurstConfig {
        probability: 0.5,
        min_extra: 2,
        max_extra: 6,
        until_month: 600.0,
    };
    let trace = ScenarioBuilder::lanl()
        .seed(2006)
        .scale_rates(2.0)
        .with_bursts_everywhere(storm)
        .build_system(SystemId::new(14))
        .unwrap();
    assert_checksum(
        "storm sys14 rate x2",
        &trace_bytes(&trace),
        0x44eb_3ecf_c206_72b6,
    );
}

#[test]
fn bundled_campaign_render_checksum_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../experiments/scenarios/lanl_whatif.toml"
    );
    let spec = CampaignSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let result = hpcfail::scenario::run_campaign(&spec, &Default::default()).unwrap();
    let text = hpcfail::scenario::render_results(&spec, &result);
    assert_checksum(
        "bundled campaign render",
        text.as_bytes(),
        0xfc4f_dffd_eef3_0518,
    );
}

// ---------------------------------------------------------------------
// 4. Seed-stream hygiene
// ---------------------------------------------------------------------

#[test]
fn seed_streams_collision_free_over_10k_indices() {
    for root in [0u64, 42, u64::MAX] {
        let mut seen = HashSet::with_capacity(10_000);
        for index in 0..10_000u64 {
            assert!(
                seen.insert(derive_stream_seed(root, index)),
                "collision at root {root} index {index}"
            );
        }
    }
    // Streams also stay distinct from the root itself shifted across
    // indices of a *different* root (spot check, not exhaustive).
    let a: HashSet<u64> = (0..10_000).map(|i| derive_stream_seed(1, i)).collect();
    let b: HashSet<u64> = (0..10_000).map(|i| derive_stream_seed(2, i)).collect();
    assert!(a.intersection(&b).count() < 3, "roots 1 and 2 overlap");
}

#[test]
fn seed_streams_look_uniform() {
    // Map each derived seed to [0, 1) with the standard 53-bit fraction
    // and run the chi-squared uniformity test from hpcfail-stats.
    let samples: Vec<f64> = (0..20_000u64)
        .map(|i| (derive_stream_seed(42, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        .collect();
    let result = chi_squared_uniform(&samples, 64).unwrap();
    assert!(
        result.p_value > 0.001,
        "stream seeds rejected as uniform: {result:?}"
    );
}
