//! `scenario_campaign`: the bundled 1296-cell LANL what-if campaign.
//!
//! Each timed repeat runs the whole campaign through
//! `scenario::run_campaign` with a fixed worker count and a fresh journal.
//! The campaign keeps the bundled spec's own seed: the split of 972
//! completed and 324 `invalid-composition` cells that the check pins
//! holds for that seed, while other campaign seeds leave some sparse
//! early-era cells degraded. Per-layer figures come from a
//! serial `scenario::evaluate` of every cell, a replay of the first two
//! calls of the plainest system cells, class differences between cells
//! that differ in one application axis only, and direct journal and
//! render calls.

use std::time::Instant;

use hpcfail_core::tbf::{self, View};
use hpcfail_exec::SeedSequence;
use hpcfail_records::store::checksum;
use hpcfail_records::time::MONTH;
use hpcfail_records::Catalog;
use hpcfail_scenario::cell::EARLY_ERA_MONTHS;
use hpcfail_scenario::{
    cell_seed, evaluate, expand, render_results, run_campaign, BurstMode, CampaignResult,
    CampaignSpec, CauseMixName, Cell, CellOutcome, CheckpointApp, Era, FleetEntry, Journal,
    JournalHeader, RunOptions, SchedApp,
};
use hpcfail_synth::builder::ScenarioBuilder;

use crate::span::Tracer;
use crate::stats::{self, class_difference, median_secs};
use crate::{repeated_setup, workers, Report, WorkDir};

/// The bundled campaign, compiled in.
const SPEC: &str = include_str!("../../experiments/scenarios/lanl_whatif.toml");

/// Cells the bundled campaign must complete and degrade by design.
const EXPECTED_COMPLETED: u64 = 972;
const EXPECTED_INVALID: u64 = 324;

/// Minimum campaign repeats per measurement.
const MIN_REPEATS: usize = 3;

/// Cells of the warm-up campaign run during setup.
const WARMUP_CELLS: u64 = 64;

/// Parse, expand, and run the first waves once so lazy set-up is done
/// before any campaign is timed.
fn setup() -> Result<CampaignSpec, String> {
    let spec = CampaignSpec::parse(SPEC).map_err(|e| format!("campaign spec: {e}"))?;
    let cells = expand(&spec).len() as u64;
    if cells != EXPECTED_COMPLETED + EXPECTED_INVALID {
        return Err(format!("campaign expands to {cells} cells"));
    }
    run_campaign(
        &spec,
        &RunOptions {
            workers: Some(workers()),
            max_cells: Some(WARMUP_CELLS),
            ..RunOptions::default()
        },
    )
    .map_err(|e| format!("warm-up campaign: {e}"))?;
    Ok(spec)
}

/// Check one finished campaign and count its cells.
fn check(result: &CampaignResult, repeat: u64, report: &mut Report) {
    report.attempted += result.total_cells;
    let mut invalid = 0;
    for outcome in &result.outcomes {
        if let CellOutcome::Degraded { cause, .. } = outcome {
            if cause.kind_name() == "invalid-composition" {
                invalid += 1;
            } else {
                report.failed += 1;
            }
        }
    }
    if result.completed() != EXPECTED_COMPLETED || invalid != EXPECTED_INVALID {
        report.mismatch(format!(
            "campaign {repeat}: {} completed and {invalid} invalid-composition, \
             expected {EXPECTED_COMPLETED} and {EXPECTED_INVALID}",
            result.completed()
        ));
    }
}

/// Timed campaign repeats for `seconds`; returns the wall times and the
/// last result.
fn measure(
    spec: &CampaignSpec,
    seconds: f64,
    work: &WorkDir,
    tracer: &Tracer,
    report: &mut Report,
    digest: &mut Option<u64>,
) -> Result<(Vec<f64>, CampaignResult), String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < seconds {
        let repeat = walls.len() as u64;
        let journal = work.path(&format!("campaign-{repeat}.journal"));
        let t0 = Instant::now();
        let result = tracer.span("scenario.campaign", repeat, || {
            run_campaign(
                spec,
                &RunOptions {
                    workers: Some(workers()),
                    journal: Some(&journal),
                    ..RunOptions::default()
                },
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&journal);
        let result = result.map_err(|e| format!("campaign {repeat}: {e}"))?;
        check(&result, repeat, report);
        let d = checksum(render_results(spec, &result).as_bytes());
        match *digest {
            None => *digest = Some(d),
            Some(first) if first != d => report.mismatch(format!(
                "campaign {repeat}: results digest {d:016x} != {first:016x}"
            )),
            Some(_) => {}
        }
        walls.push(wall);
        last = Some(result);
    }
    Ok((walls, last.expect("at least one campaign ran")))
}

/// Run the workload.
pub fn run(seconds: f64, work: &WorkDir, tracer: &Tracer) -> Result<(Report, f64), String> {
    let (spec, setup_s) = repeated_setup(setup)?;
    let mut report = Report::default();
    let mut digest = None;
    let untraced = Tracer::new(false);
    let base_seconds = if tracer.enabled() {
        seconds / 2.0
    } else {
        seconds
    };
    let (walls, result) = measure(
        &spec,
        base_seconds,
        work,
        &untraced,
        &mut report,
        &mut digest,
    )?;
    let shown: Vec<String> = walls.iter().map(|w| format!("{:.0}", w * 1e3)).collect();
    println!("campaign walls (ms): {}", shown.join(" "));
    let wall = stats::median(&walls).expect("campaigns ran");
    let cells = result.total_cells as f64;
    report.figure("scenario.cells", cells, "count", 1);
    report.figure("scenario.cells_per_s", cells / wall, "1/s", walls.len());
    report.figure("scenario.campaign_p50_ms", wall * 1e3, "ms", walls.len());
    report.figure("scenario.workers", workers() as f64, "count", 1);
    if tracer.enabled() {
        let (traced, _) = measure(&spec, seconds / 4.0, work, tracer, &mut report, &mut digest)?;
        let traced_wall = stats::median(&traced).expect("campaigns ran");
        report.layer(
            "trace.overhead_share",
            traced_wall / wall - 1.0,
            traced.len(),
        );
        layers(&spec, &result, traced_wall, work, tracer, &mut report)?;
    }
    Ok((report, setup_s))
}

/// The class of a cell with one axis left out, as a sortable key.
fn class_without(cell: &Cell, axis: &str) -> String {
    let checkpoint = if axis == "checkpoint" {
        "*".into()
    } else {
        cell.checkpoint.to_string()
    };
    let sched = if axis == "sched" {
        "*".into()
    } else {
        cell.sched.to_string()
    };
    format!(
        "{}|{}|{}|{}|{}|{}|{checkpoint}|{sched}",
        cell.fleet, cell.era, cell.rate_scale, cell.repair_scale, cell.cause_mix, cell.burst
    )
}

fn layers(
    spec: &CampaignSpec,
    result: &CampaignResult,
    campaign_wall: f64,
    work: &WorkDir,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    report.layer(
        "scenario.spec_parse_ms",
        1e3 * median_secs(21, || {
            std::hint::black_box(CampaignSpec::parse(std::hint::black_box(SPEC)).ok());
        }),
        21,
    );
    report.layer(
        "scenario.expand_ms",
        1e3 * median_secs(21, || {
            std::hint::black_box(expand(spec));
        }),
        21,
    );

    // Serial evaluation of every cell; each must settle as the campaign did.
    let cells = expand(spec);
    let mut timed = Vec::with_capacity(cells.len());
    for (cell, outcome) in cells.iter().zip(&result.outcomes) {
        let t0 = Instant::now();
        let got = tracer.span("scenario.cell", cell.index, || evaluate(spec, cell));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let same = match (&got, outcome) {
            (Ok(m), CellOutcome::Completed { metrics, .. }) => m == metrics,
            (Err(e), CellOutcome::Degraded { cause, .. }) => e == cause,
            _ => false,
        };
        if !same {
            report.mismatch(format!(
                "cell {}: serial evaluation differs from the campaign",
                cell.index
            ));
        }
        timed.push((cell, got.is_ok(), ms));
    }
    let all: Vec<f64> = timed.iter().map(|t| t.2).collect();
    report.layer(
        "scenario.cell_p50_ms",
        stats::median(&all).unwrap_or(0.0),
        all.len(),
    );
    report.layer(
        "scenario.cell_p99_ms",
        stats::tail(&all, 0.99).unwrap_or(0.0),
        all.len(),
    );
    for (label, metric) in [
        ("sys12", "scenario.cell_p50_ms.sys12"),
        ("sys14", "scenario.cell_p50_ms.sys14"),
        ("exascale_100k", "scenario.cell_p50_ms.exascale_100k"),
    ] {
        let ms: Vec<f64> = timed
            .iter()
            .filter(|t| t.0.fleet_entry(spec).label() == label)
            .map(|t| t.2)
            .collect();
        report.layer(metric, stats::median(&ms).unwrap_or(0.0), ms.len());
    }
    let serial_s: f64 = all.iter().sum::<f64>() / 1e3;
    report.layer(
        "exec.parallel_efficiency",
        serial_s / (workers() as f64 * campaign_wall),
        1,
    );

    // Application cost by class difference over completed cells.
    for (axis, base, variant, metric) in [
        (
            "checkpoint",
            CheckpointApp::None.to_string(),
            CheckpointApp::Young.to_string(),
            "checkpoint.young_ms",
        ),
        (
            "checkpoint",
            CheckpointApp::None.to_string(),
            CheckpointApp::Hazard.to_string(),
            "checkpoint.hazard_ms",
        ),
        (
            "sched",
            SchedApp::None.to_string(),
            SchedApp::LongestUptime.to_string(),
            "sched.longest_uptime_ms",
        ),
    ] {
        let rows: Vec<(String, String, f64)> = timed
            .iter()
            .filter(|t| t.1)
            .map(|t| {
                let value = if axis == "checkpoint" {
                    t.0.checkpoint.to_string()
                } else {
                    t.0.sched.to_string()
                };
                (class_without(t.0, axis), value, t.2)
            })
            .collect();
        let (ms, n) = class_difference(&rows, &base, &variant).unwrap_or((0.0, 0));
        report.layer(metric, ms, n);
    }

    replay_first_calls(spec, &cells, tracer, report)?;

    // Journal writes, wave by wave as the runner makes them.
    let path = work.path("layers.journal");
    let header = JournalHeader {
        spec_digest: spec.digest,
        seed: spec.seed,
        n_cells: result.total_cells,
    };
    let mut journal = Journal::create(&path, header).map_err(|e| e.to_string())?;
    let wave = spec.runner.checkpoint_every.max(1);
    let t0 = Instant::now();
    for chunk in result.outcomes.chunks(wave) {
        tracer
            .span("scenario.journal_append", 0, || journal.append(chunk))
            .map_err(|e| e.to_string())?;
    }
    report.layer(
        "scenario.journal_append_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        result.outcomes.len().div_ceil(wave),
    );
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    report.layer("scenario.journal_bytes", bytes as f64, 1);
    let _ = std::fs::remove_file(&path);

    report.layer(
        "scenario.render_ms",
        1e3 * median_secs(5, || {
            std::hint::black_box(render_results(spec, result));
        }),
        5,
    );
    Ok(())
}

/// Replay the first two calls of every plain system cell (no cause-mix
/// shift, calibrated bursts, no repair inflation, no applications) on the
/// cell's own seed stream: trace synthesis, then the system-wide tbf fit.
fn replay_first_calls(
    spec: &CampaignSpec,
    cells: &[Cell],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let catalog = Catalog::lanl();
    let mut synth_ms = Vec::new();
    let mut tbf_ms = Vec::new();
    for cell in cells {
        let FleetEntry::System(id) = cell.fleet_entry(spec) else {
            continue;
        };
        let plain = cell.cause_mix == CauseMixName::Lanl
            && cell.burst == BurstMode::Calibrated
            && cell.repair_scale == 1.0
            && cell.checkpoint == CheckpointApp::None
            && cell.sched == SchedApp::None;
        if !plain {
            continue;
        }
        let seeds = SeedSequence::new(cell_seed(spec.seed, cell.index));
        let builder = ScenarioBuilder::lanl()
            .seed(seeds.stream(0))
            .scale_rates(cell.rate_scale);
        let t0 = Instant::now();
        let trace = tracer
            .span("synth.build_system", cell.index, || {
                builder.build_system(*id)
            })
            .map_err(|e| format!("replay cell {}: {e}", cell.index))?;
        synth_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let sys = catalog.system(*id).map_err(|e| e.to_string())?;
        let (start, end) = (sys.production_start(), sys.production_end());
        let early_end = start.saturating_add_secs(EARLY_ERA_MONTHS * MONTH);
        let (from, to) = match cell.era {
            Era::Full => (start, end),
            Era::Early => (start, if early_end < end { early_end } else { end }),
            Era::Late => (early_end, end),
        };
        let windowed = trace.filter_window(from, to);
        let t0 = Instant::now();
        let fit = tracer.span("core.tbf_analyze", cell.index, || {
            tbf::analyze(&windowed, View::SystemWide(*id), None)
        });
        tbf_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if fit.is_err() {
            report.mismatch(format!("replay cell {}: tbf fit failed", cell.index));
        }
    }
    report.layer(
        "synth.build_system_ms",
        stats::median(&synth_ms).unwrap_or(0.0),
        synth_ms.len(),
    );
    report.layer(
        "core.tbf_analyze_ms",
        stats::median(&tbf_ms).unwrap_or(0.0),
        tbf_ms.len(),
    );
    Ok(())
}
