//! Evaluation of one campaign cell.
//!
//! A **system** cell reads the synthesized trace of its *generation
//! key* — the inputs synthesis reads: fleet entry, rate scale, cause mix
//! and burst mode — windows it to the cell's era, scales the window's
//! repair times, and measures the paper's headline statistics plus the
//! configured application models. Every cell of a key sees the same
//! trace, so cells that differ in era, repair scale or an application
//! axis are paired comparisons.
//!
//! The trace is built once per key. The era window, the system's node
//! count and the window's system-wide TBF fit (Weibull shape and mean)
//! depend on the key and the era only, so they are computed once per
//! `(key, era)` — or the typed error the pair fails with is, and every
//! cell of the pair degrades with it. A **stratum** is a `(key, era,
//! repair_scale)`: its window statistics (`round(d × repair_scale)` over
//! the window's downtimes, with the count, rate, availability, median
//! and mean repair they give) are computed once per stratum, and so is
//! each application's result per axis choice, which reads only the
//! stratum and the era fit and is seeded by the stratum and the choice.
//! A cell only assembles its row from them.
//!
//! A **projection** cell (hypothetical scaled fleet) is evaluated
//! analytically from the base system's calibration — the paper's
//! Section 7 petascale extrapolation at spec-chosen scale.
//!
//! Seeds are named by values, not grid positions: a key's trace seed is
//! the campaign-seed stream named by the key's values, and each
//! application's seed is the trace-seed stream named by the era, the
//! repair scale and that application's own axis. Growing the grid moves
//! no existing key's trace, and an axis an application does not read
//! cannot move its result.
//!
//! Every failure mode is a typed [`CellError`]; evaluation itself never
//! panics. The campaign runner turns both errors and (caught) panics
//! into degraded rows.

use std::fmt;
use std::sync::OnceLock;

use hpcfail_checkpoint::daly::{expected_waste_fraction, young_interval};
use hpcfail_checkpoint::sim::JobConfig;
use hpcfail_checkpoint::strategies::{HazardAware, Periodic, Strategy};
use hpcfail_core::tbf::{self, View};
use hpcfail_exec::SeedSequence;
use hpcfail_records::time::{DAY, HOUR, MINUTE, MONTH, YEAR};
use hpcfail_records::{checksum, Catalog, RootCause, SystemId, Timestamp, TraceIndex};
use hpcfail_sched::policy;
use hpcfail_sched::sim::{Job, NodeTruth, SimConfig};
use hpcfail_stats::descriptive;
use hpcfail_stats::dist::{Exponential, Weibull};
use hpcfail_synth::builder::ScenarioBuilder;
use hpcfail_synth::causes::CauseMix;
use hpcfail_synth::config::{BurstConfig, Calibration};
use hpcfail_synth::repair::TABLE2_TARGETS;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::grid::Cell;
use crate::spec::{
    BurstMode, CampaignSpec, CauseMixName, CheckpointApp, Era, FleetEntry, SchedApp,
};

/// Months of production the paper treats as the infant-mortality era.
pub const EARLY_ERA_MONTHS: u64 = 36;

/// Nominal production life (months) used to window projection eras.
const PROJECTION_LIFE_MONTHS: f64 = 72.0;

// The application model every cell runs.
/// Checkpoint write cost δ (seconds).
const CHECKPOINT_COST_SECS: f64 = 300.0;
/// Restart cost after a failure (seconds).
const RESTART_COST_SECS: f64 = 600.0;
/// Total useful work of the checkpointed job (days).
const JOB_WORK_DAYS: f64 = 30.0;
/// Cluster size of the scheduling simulation.
const SCHED_NODES: u32 = 16;
/// Number of queued jobs in the scheduling simulation.
const SCHED_JOBS: u32 = 12;
/// Work per scheduled job (hours).
const SCHED_JOB_HOURS: f64 = 24.0;

/// The measured statistics of one completed cell.
///
/// Application metrics are `NaN` when the cell's spec turned the
/// corresponding application off — rendered as `-` in reports and
/// preserved bit-exactly by the journal. Equality is **bitwise** on the
/// float fields (so `NaN == NaN` and determinism pins can compare whole
/// outcome vectors directly).
#[derive(Debug, Clone, Copy)]
pub struct CellMetrics {
    /// Failures observed in the era window (projection: expected
    /// failures per year of the projected fleet).
    pub failures: u64,
    /// Failures per node-year.
    pub node_year_rate: f64,
    /// Fraction of node-time not lost to repair.
    pub availability: f64,
    /// Weibull shape of the system-wide time between failures.
    pub tbf_shape: f64,
    /// Median repair time, minutes.
    pub repair_median_min: f64,
    /// Checkpointed-job waste fraction (`NaN` when checkpoint = none).
    pub checkpoint_waste: f64,
    /// Scheduling efficiency (`NaN` when sched = none).
    pub sched_efficiency: f64,
}

impl PartialEq for CellMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.failures == other.failures
            && self.node_year_rate.to_bits() == other.node_year_rate.to_bits()
            && self.availability.to_bits() == other.availability.to_bits()
            && self.tbf_shape.to_bits() == other.tbf_shape.to_bits()
            && self.repair_median_min.to_bits() == other.repair_median_min.to_bits()
            && self.checkpoint_waste.to_bits() == other.checkpoint_waste.to_bits()
            && self.sched_efficiency.to_bits() == other.sched_efficiency.to_bits()
    }
}

impl Eq for CellMetrics {}

/// Why a cell degraded instead of completing. `Panic` is attached by
/// the runner (a caught unwind); the rest are evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell panicked; the campaign caught it and carried on.
    Panic(String),
    /// Trace synthesis failed.
    Generation(String),
    /// The era window holds no (or too little) data to stratify.
    EmptyStratum(String),
    /// A distribution fit was degenerate or did not converge.
    DegenerateFit(String),
    /// The perturbation combination is not defined for this fleet
    /// entry (e.g. burst injection into an analytic projection).
    InvalidComposition(String),
    /// An application simulation failed.
    App(String),
}

impl CellError {
    /// Stable one-byte discriminant (journal format).
    pub(crate) fn kind_code(&self) -> u8 {
        match self {
            CellError::Panic(_) => 0,
            CellError::Generation(_) => 1,
            CellError::EmptyStratum(_) => 2,
            CellError::DegenerateFit(_) => 3,
            CellError::InvalidComposition(_) => 4,
            CellError::App(_) => 5,
        }
    }

    /// Rebuild from a journal discriminant + detail.
    pub(crate) fn from_parts(code: u8, detail: String) -> Option<CellError> {
        Some(match code {
            0 => CellError::Panic(detail),
            1 => CellError::Generation(detail),
            2 => CellError::EmptyStratum(detail),
            3 => CellError::DegenerateFit(detail),
            4 => CellError::InvalidComposition(detail),
            5 => CellError::App(detail),
            _ => return None,
        })
    }

    /// Short kind label for reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            CellError::Panic(_) => "panic",
            CellError::Generation(_) => "generation",
            CellError::EmptyStratum(_) => "empty-stratum",
            CellError::DegenerateFit(_) => "degenerate-fit",
            CellError::InvalidComposition(_) => "invalid-composition",
            CellError::App(_) => "app",
        }
    }

    /// The human detail.
    pub(crate) fn detail(&self) -> &str {
        match self {
            CellError::Panic(d)
            | CellError::Generation(d)
            | CellError::EmptyStratum(d)
            | CellError::DegenerateFit(d)
            | CellError::InvalidComposition(d)
            | CellError::App(d) => d,
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind_name(), self.detail())
    }
}

impl std::error::Error for CellError {}

/// The seed stream of one grid position. Campaigns do not seed from it
/// (a cell's trace and applications are seeded from their inputs'
/// values); it is kept for `perfbench`, which replays cell-seeded
/// synthesis for its per-layer timings.
pub fn cell_seed(campaign_seed: u64, cell_index: u64) -> u64 {
    SeedSequence::new(campaign_seed).stream(cell_index)
}

/// What trace synthesis reads from a cell: the fleet entry, the rate
/// scale, the cause mix and the burst mode. Every cell with the same
/// key evaluates the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GenerationKey {
    fleet: usize,
    rate_bits: u64,
    cause_mix: CauseMixName,
    burst: BurstMode,
}

impl GenerationKey {
    pub(crate) fn of(cell: &Cell) -> GenerationKey {
        GenerationKey {
            fleet: cell.fleet,
            rate_bits: cell.rate_scale.to_bits(),
            cause_mix: cell.cause_mix,
            burst: cell.burst,
        }
    }
}

/// A generation key's shared work: its indexed trace and, per era, the
/// era's window and TBF fit and one [`Stratum`] per repair scale. Each
/// part is filled by whichever cell of the key (of the `(key, era)`
/// pair, of the stratum) reaches it first, with its result or the error
/// it failed with.
pub(crate) struct KeySlot {
    trace: OnceLock<Result<TraceIndex, CellError>>,
    eras: [EraSlot; Era::ALL.len()],
}

/// One era of a key: its fit, and its strata in `repair_scale` axis
/// order.
struct EraSlot {
    fit: OnceLock<Result<EraFit, CellError>>,
    strata: Box<[Stratum]>,
}

/// What every cell of one stratum — `(generation key, era, repair
/// scale)` — reads: the window statistics, and each application's
/// result per axis choice (its seed names the stratum and the choice,
/// and it reads nothing else that varies).
#[derive(Default)]
struct Stratum {
    window: OnceLock<WindowStats>,
    checkpoint: [OnceLock<Result<f64, CellError>>; CheckpointApp::ALL.len()],
    sched: [OnceLock<Result<f64, CellError>>; SchedApp::ALL.len()],
}

impl KeySlot {
    /// An empty slot with a stratum for every era and repair scale of
    /// `spec`.
    pub(crate) fn new(spec: &CampaignSpec) -> KeySlot {
        KeySlot {
            trace: OnceLock::new(),
            eras: std::array::from_fn(|_| EraSlot {
                fit: OnceLock::new(),
                strata: spec
                    .grid
                    .repair_scale
                    .iter()
                    .map(|_| Stratum::default())
                    .collect(),
            }),
        }
    }
}

/// What every cell of one `(generation key, era)` pair reads: the era
/// window, the system's node count and the window's system-wide TBF fit.
#[derive(Clone, Copy)]
struct EraFit {
    from: Timestamp,
    to: Timestamp,
    nodes: f64,
    tbf_shape: f64,
    mtbf_secs: f64,
}

/// A stratum's window statistics: its era window's failures and their
/// downtimes scaled by the repair scale.
#[derive(Clone, Copy)]
struct WindowStats {
    failures: u64,
    node_year_rate: f64,
    availability: f64,
    repair_median_min: f64,
    mean_repair_secs: f64,
}

/// The seed of a cell's generation-key trace: the stream of the campaign
/// seed named by a hash of the key's values.
fn trace_seed(spec: &CampaignSpec, cell: &Cell) -> u64 {
    let name = format!(
        "{}|{:016x}|{}|{}",
        cell.fleet_entry(spec).label(),
        cell.rate_scale.to_bits(),
        cell.cause_mix,
        cell.burst
    );
    SeedSequence::new(spec.seed).stream(checksum(name.as_bytes()))
}

/// The seed of one application run: the stream of the trace seed named
/// by the application, the era, the repair scale and the application's
/// own axis value — the inputs its result may depend on, and no others.
fn app_seed(trace_seed: u64, app: &str, cell: &Cell, choice: &str) -> u64 {
    let name = format!(
        "{app}|{}|{:016x}|{choice}",
        cell.era,
        cell.repair_scale.to_bits()
    );
    SeedSequence::new(trace_seed).stream(checksum(name.as_bytes()))
}

/// Evaluate one cell on its own: a system cell synthesizes its key's
/// trace, exactly as the campaign runner builds it once for every cell
/// of the key, so both agree bit for bit.
///
/// # Errors
///
/// A typed [`CellError`] for every failure mode; never panics (the
/// runner's `catch_unwind` is a second, outer line of defense).
pub fn evaluate(spec: &CampaignSpec, cell: &Cell) -> Result<CellMetrics, CellError> {
    evaluate_shared(spec, cell, &KeySlot::new(spec))
}

/// [`evaluate`], with a system cell's trace, era fit, window statistics
/// and application results taken from `slot` — filled by whichever cell
/// of the key, of the `(key, era)` pair and of the stratum gets there
/// first.
pub(crate) fn evaluate_shared(
    spec: &CampaignSpec,
    cell: &Cell,
    slot: &KeySlot,
) -> Result<CellMetrics, CellError> {
    match cell.fleet_entry(spec) {
        FleetEntry::System(id) => {
            let index = slot
                .trace
                .get_or_init(|| synthesize(spec, cell, *id))
                .as_ref()
                .map_err(Clone::clone)?;
            let era = &slot.eras[cell.era as usize];
            let fit = era
                .fit
                .get_or_init(|| fit_era(cell.era, *id, index))
                .as_ref()
                .map_err(Clone::clone)?;
            // The stratum is found by the repair scale's bits: expanded
            // cells always find theirs, any other cell evaluates alone.
            let unshared;
            let stratum = match spec
                .grid
                .repair_scale
                .iter()
                .position(|s| s.to_bits() == cell.repair_scale.to_bits())
                .and_then(|i| era.strata.get(i))
            {
                Some(stratum) => stratum,
                None => {
                    unshared = Stratum::default();
                    &unshared
                }
            };
            evaluate_system(spec, cell, index, fit, stratum)
        }
        FleetEntry::Projection(_) => evaluate_projection(spec, cell),
    }
}

fn preset_mix(name: CauseMixName) -> Option<CauseMix> {
    let weights = match name {
        CauseMixName::Lanl => return None,
        // RootCause::ALL order: hardware, software, network,
        // environment, human, unknown.
        CauseMixName::HardwareHeavy => [0.75, 0.10, 0.03, 0.03, 0.02, 0.07],
        CauseMixName::SoftwareHeavy => [0.20, 0.55, 0.08, 0.05, 0.04, 0.08],
        CauseMixName::Uniform => [1.0; 6],
    };
    CauseMix::new(weights)
}

/// The heavy seeded burst process of `burst = "storm"`.
fn storm_burst() -> BurstConfig {
    BurstConfig {
        probability: 0.5,
        min_extra: 2,
        max_extra: 6,
        until_month: 600.0,
    }
}

fn era_window(
    era: Era,
    start: Timestamp,
    end: Timestamp,
) -> Result<(Timestamp, Timestamp), CellError> {
    let early_end = start.saturating_add_secs(EARLY_ERA_MONTHS * MONTH);
    let (from, to) = match era {
        Era::Full => (start, end),
        Era::Early => (start, if early_end < end { early_end } else { end }),
        Era::Late => (early_end, end),
    };
    if from >= to {
        return Err(CellError::EmptyStratum(format!(
            "{era} era window is empty (production shorter than {EARLY_ERA_MONTHS} months)"
        )));
    }
    Ok((from, to))
}

/// Synthesize and index the trace of `cell`'s generation key.
fn synthesize(spec: &CampaignSpec, cell: &Cell, id: SystemId) -> Result<TraceIndex, CellError> {
    let mut builder = ScenarioBuilder::lanl()
        .seed(trace_seed(spec, cell))
        .scale_rates(cell.rate_scale);
    if let Some(mix) = preset_mix(cell.cause_mix) {
        builder = builder.with_cause_mix(mix);
    }
    builder = match cell.burst {
        BurstMode::Calibrated => builder,
        BurstMode::Off => builder.without_bursts(),
        BurstMode::Storm => builder.with_bursts_everywhere(storm_burst()),
    };
    let trace = builder
        .build_system(id)
        .map_err(|e| CellError::Generation(e.to_string()))?;
    Ok(trace.index())
}

/// Window `id`'s trace to `era` and fit the window's system-wide time
/// between failures — the work every cell of a `(key, era)` pair shares.
fn fit_era(era: Era, id: SystemId, index: &TraceIndex) -> Result<EraFit, CellError> {
    let catalog = Catalog::lanl();
    let sys = catalog
        .system(id)
        .map_err(|e| CellError::Generation(e.to_string()))?;
    let (from, to) = era_window(era, sys.production_start(), sys.production_end())?;
    if index.all().window(from, to).is_empty() {
        return Err(CellError::EmptyStratum(format!(
            "no failures in the {era} era window"
        )));
    }
    let analysis = tbf::analyze_indexed(index, View::SystemWide(id), Some((from, to)))
        .map_err(|e| CellError::DegenerateFit(e.to_string()))?;
    let tbf_shape = analysis.weibull_shape.ok_or_else(|| {
        CellError::DegenerateFit("system-wide Weibull fit did not converge".into())
    })?;
    let mtbf_secs = analysis.mean_secs;
    if !(mtbf_secs.is_finite() && mtbf_secs > 0.0) {
        return Err(CellError::DegenerateFit(format!(
            "non-positive mean time between failures ({mtbf_secs})"
        )));
    }
    Ok(EraFit {
        from,
        to,
        nodes: sys.nodes() as f64,
        tbf_shape,
        mtbf_secs,
    })
}

/// A system cell's metrics from its stratum: the window statistics and
/// the cell's two application runs, each computed by the first cell of
/// the stratum (and of the choice) that needs it.
fn evaluate_system(
    spec: &CampaignSpec,
    cell: &Cell,
    index: &TraceIndex,
    fit: &EraFit,
    stratum: &Stratum,
) -> Result<CellMetrics, CellError> {
    let window = *stratum
        .window
        .get_or_init(|| window_stats(cell.repair_scale, index, fit));
    let checkpoint_waste = stratum.checkpoint[cell.checkpoint as usize]
        .get_or_init(|| {
            run_checkpoint_app(
                cell.checkpoint,
                fit.tbf_shape,
                fit.mtbf_secs,
                window.mean_repair_secs,
                app_seed(
                    trace_seed(spec, cell),
                    "checkpoint",
                    cell,
                    cell.checkpoint.label(),
                ),
            )
        })
        .clone()?;
    let sched_efficiency = stratum.sched[cell.sched as usize]
        .get_or_init(|| {
            run_sched_app(
                cell.sched,
                fit.tbf_shape,
                window.node_year_rate,
                window.mean_repair_secs,
                app_seed(trace_seed(spec, cell), "sched", cell, cell.sched.label()),
            )
        })
        .clone()?;

    Ok(CellMetrics {
        failures: window.failures,
        node_year_rate: window.node_year_rate,
        availability: window.availability,
        tbf_shape: fit.tbf_shape,
        repair_median_min: window.repair_median_min,
        checkpoint_waste,
        sched_efficiency,
    })
}

/// The zero-copy era window's statistics with every downtime scaled by
/// `repair_scale` — the work every cell of a stratum shares.
fn window_stats(repair_scale: f64, index: &TraceIndex, fit: &EraFit) -> WindowStats {
    let EraFit {
        from, to, nodes, ..
    } = *fit;
    let view = index.all().window(from, to);

    // Repair-time inflation: scale every downtime in the window.
    let mut downtimes = view.downtimes_secs();
    for d in &mut downtimes {
        *d = (*d as f64 * repair_scale).round() as u64;
    }

    // Headline statistics.
    let window_secs = from.seconds_until(to).max(0) as f64;
    let window_years = window_secs / YEAR as f64;
    let failures = view.len() as u64;
    let node_year_rate = failures as f64 / (nodes * window_years);
    let downtime_secs: u64 = downtimes.iter().sum();
    let availability = (1.0 - downtime_secs as f64 / (nodes * window_secs)).clamp(0.0, 1.0);
    let repair_minutes: Vec<f64> = downtimes.iter().map(|&d| d as f64 / 60.0).collect();
    WindowStats {
        failures,
        node_year_rate,
        availability,
        repair_median_min: descriptive::median(&repair_minutes),
        mean_repair_secs: (downtime_secs as f64 / failures as f64).max(1.0),
    }
}

fn run_checkpoint_app(
    app: CheckpointApp,
    tbf_shape: f64,
    mtbf_secs: f64,
    mean_repair_secs: f64,
    seed: u64,
) -> Result<f64, CellError> {
    if app == CheckpointApp::None {
        return Ok(f64::NAN);
    }
    let delta = CHECKPOINT_COST_SECS;
    let job = JobConfig {
        total_work_secs: JOB_WORK_DAYS * DAY as f64,
        checkpoint_cost_secs: delta,
        restart_cost_secs: RESTART_COST_SECS,
    };
    let tbf_dist = Weibull::with_mean(tbf_shape, mtbf_secs)
        .map_err(|e| CellError::DegenerateFit(format!("TBF Weibull: {e}")))?;
    let repair_dist = Exponential::from_mean(mean_repair_secs)
        .map_err(|e| CellError::App(format!("repair distribution: {e}")))?;
    let strategy: Box<dyn Strategy> = match app {
        CheckpointApp::None => unreachable!("handled above"),
        CheckpointApp::Young => {
            let tau = young_interval(delta, mtbf_secs)
                .map_err(|e| CellError::App(format!("Young interval: {e}")))?;
            Box::new(Periodic::new(tau).map_err(|e| CellError::App(format!("interval: {e}")))?)
        }
        CheckpointApp::Hazard => Box::new(
            HazardAware::new(tbf_dist, delta)
                .map_err(|e| CellError::App(format!("hazard strategy: {e}")))?,
        ),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = hpcfail_checkpoint::sim::simulate(
        &job,
        strategy.as_ref(),
        &tbf_dist,
        &repair_dist,
        &mut rng,
    )
    .map_err(|e| CellError::App(format!("checkpoint simulation: {e}")))?;
    Ok(outcome.waste_fraction())
}

fn run_sched_app(
    app: SchedApp,
    tbf_shape: f64,
    node_year_rate: f64,
    mean_repair_secs: f64,
    seed: u64,
) -> Result<f64, CellError> {
    if app == SchedApp::None {
        return Ok(f64::NAN);
    }
    let policy = policy::by_name(app.label())
        .ok_or_else(|| CellError::App(format!("unknown policy `{app}`")))?;
    let nodes: Vec<NodeTruth> = (0..SCHED_NODES)
        .map(|_| NodeTruth {
            failures_per_year: node_year_rate.max(1e-6),
            weibull_shape: tbf_shape,
        })
        .collect();
    let jobs: Vec<Job> = (0..SCHED_JOBS)
        .map(|_| Job {
            width: 2,
            work_secs: SCHED_JOB_HOURS * HOUR as f64,
        })
        .collect();
    let config = SimConfig {
        mean_repair_secs: mean_repair_secs.max(MINUTE as f64),
        horizon_secs: YEAR as f64,
        seed,
    };
    let metrics = hpcfail_sched::sim::run(&nodes, policy.as_ref(), &jobs, &config)
        .map_err(|e| CellError::App(format!("scheduling simulation: {e}")))?;
    Ok(metrics.efficiency())
}

// ---------------------------------------------------------------------
// Projections
// ---------------------------------------------------------------------

fn evaluate_projection(spec: &CampaignSpec, cell: &Cell) -> Result<CellMetrics, CellError> {
    let FleetEntry::Projection(proj) = cell.fleet_entry(spec) else {
        unreachable!("caller matched projection");
    };
    // Analytic projections have no trace to inject bursts into or to
    // schedule against — those perturbations are undefined compositions.
    if cell.burst != BurstMode::Calibrated {
        return Err(CellError::InvalidComposition(format!(
            "burst = {} needs a trace-level fleet; projection `{}` is analytic",
            cell.burst, proj.name
        )));
    }
    if cell.sched != SchedApp::None {
        return Err(CellError::InvalidComposition(format!(
            "sched = {} needs a node-level trace; projection `{}` is analytic",
            cell.sched, proj.name
        )));
    }

    let calibration = Calibration::lanl();
    let base = calibration.system(proj.base_system).ok_or_else(|| {
        CellError::Generation(format!("no calibration for {:?}", proj.base_system))
    })?;
    let catalog = Catalog::lanl();
    let base_nodes = catalog
        .system(proj.base_system)
        .map_err(|e| CellError::Generation(e.to_string()))?
        .nodes() as f64;

    // Era: pick the calibrated shape and average the base system's
    // lifecycle intensity over the era's months of a nominal life.
    let (shape, months) = match cell.era {
        Era::Full => (base.tbf_shape, 0.0..PROJECTION_LIFE_MONTHS),
        Era::Early => (base.early_tbf_shape, 0.0..EARLY_ERA_MONTHS as f64),
        Era::Late => (
            base.tbf_shape,
            EARLY_ERA_MONTHS as f64..PROJECTION_LIFE_MONTHS,
        ),
    };
    let era_mult = mean_intensity(base, months.start, months.end);

    let per_node_rate = (base.annual_failures / base_nodes) * cell.rate_scale * era_mult;
    let fleet_failures_per_year = per_node_rate * proj.nodes as f64;

    // Cause-weighted Table 2 repair targets, inflated by the cell.
    let mix = preset_mix(cell.cause_mix);
    let prob = |cause: RootCause| match &mix {
        Some(m) => m.probability(cause),
        None => base.cause_mix.probability(cause),
    };
    let mut mean_repair_min = 0.0;
    let mut median_repair_min = 0.0;
    for &(cause, median, mean) in TABLE2_TARGETS.iter() {
        mean_repair_min += prob(cause) * mean;
        median_repair_min += prob(cause) * median;
    }
    mean_repair_min *= cell.repair_scale;
    median_repair_min *= cell.repair_scale;
    let mean_repair_secs = mean_repair_min * MINUTE as f64;

    let availability = (1.0 - per_node_rate * mean_repair_secs / YEAR as f64).clamp(0.0, 1.0);

    let checkpoint_waste = match cell.checkpoint {
        CheckpointApp::None => f64::NAN,
        // First-order closed form for both strategies: at projection
        // scale the per-interval failure probability is what matters,
        // and the hazard-aware policy reduces to Young's optimum under
        // the exponential approximation used here.
        CheckpointApp::Young | CheckpointApp::Hazard => {
            let delta = CHECKPOINT_COST_SECS;
            let fleet_mtbf_secs = YEAR as f64 / fleet_failures_per_year.max(1e-12);
            let tau = young_interval(delta, fleet_mtbf_secs)
                .map_err(|e| CellError::App(format!("Young interval: {e}")))?;
            let base_waste = expected_waste_fraction(tau, delta, fleet_mtbf_secs)
                .map_err(|e| CellError::App(format!("waste estimate: {e}")))?;
            let recovery = (RESTART_COST_SECS + mean_repair_secs) / fleet_mtbf_secs;
            (base_waste + recovery).clamp(0.0, 1.0)
        }
    };

    Ok(CellMetrics {
        failures: fleet_failures_per_year.round().min(u64::MAX as f64) as u64,
        node_year_rate: per_node_rate,
        availability,
        tbf_shape: shape,
        repair_median_min: median_repair_min,
        checkpoint_waste,
        sched_efficiency: f64::NAN,
    })
}

/// Mean lifecycle intensity over `[from, to)` months, sampled monthly.
fn mean_intensity(config: &hpcfail_synth::config::SystemConfig, from: f64, to: f64) -> f64 {
    let n = ((to - from).ceil() as usize).max(1);
    let total: f64 = (0..n)
        .map(|i| config.lifecycle.intensity(from + (i as f64 + 0.5)))
        .sum();
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::expand;
    use crate::runner::{run_campaign, CellOutcome, RunOptions};
    use crate::spec::CampaignSpec;
    use std::collections::HashMap;

    impl KeySlot {
        /// Whether the trace has been built (or failed to build).
        pub(crate) fn has_trace(&self) -> bool {
            self.trace.get().is_some()
        }

        /// The eras whose fit has been filled (or failed), in era order.
        pub(crate) fn fitted_eras(&self) -> Vec<Era> {
            Era::ALL
                .iter()
                .copied()
                .filter(|&era| self.eras[era as usize].fit.get().is_some())
                .collect()
        }

        /// The strata whose window statistics have been computed, as
        /// `(era, repair_scale axis position)`, in era then axis order.
        pub(crate) fn filled_strata(&self) -> Vec<(Era, usize)> {
            Era::ALL
                .iter()
                .flat_map(|&era| {
                    let strata = &self.eras[era as usize].strata;
                    (0..strata.len())
                        .filter(|&i| strata[i].window.get().is_some())
                        .map(move |i| (era, i))
                })
                .collect()
        }
    }

    fn spec(extra_grid: &str) -> CampaignSpec {
        CampaignSpec::parse(&format!(
            "[campaign]\nname = \"t\"\nseed = 11\n[fleet]\nsystems = [12]\n\
             [[projection]]\nname = \"exa\"\nnodes = 100000\nbase_system = 18\n\
             [grid]\n{extra_grid}"
        ))
        .unwrap()
    }

    #[test]
    fn system_cell_measures_paper_statistics() {
        let s = spec("");
        let cells = expand(&s);
        let m = evaluate(&s, &cells[0]).unwrap();
        assert!(m.failures > 50, "sys12 full era failures {}", m.failures);
        assert!(
            (0.8..1.0).contains(&m.availability),
            "avail {}",
            m.availability
        );
        assert!((0.2..1.5).contains(&m.tbf_shape), "shape {}", m.tbf_shape);
        assert!(m.repair_median_min > 1.0, "median {}", m.repair_median_min);
        assert!(m.checkpoint_waste.is_nan() && m.sched_efficiency.is_nan());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let s = spec("rate_scale = [1.0, 2.0]\nrepair_scale = [1.0, 3.0]");
        let cells = expand(&s);
        for cell in cells.iter().filter(|c| c.fleet == 0) {
            assert_eq!(
                evaluate(&s, cell),
                evaluate(&s, cell),
                "cell {}",
                cell.index
            );
        }
    }

    #[test]
    fn rate_scaling_moves_counts_and_repair_scaling_moves_medians() {
        // sys18 is large enough (~800 events) that per-cell sampling
        // noise stays well inside the ratio bounds; small systems like
        // sys12 have clustered traces whose counts vary ±40% per seed.
        let s = CampaignSpec::parse(
            "[campaign]\nname = \"t\"\nseed = 11\n[fleet]\nsystems = [18]\n\
             [grid]\nrate_scale = [1.0, 2.0]\nrepair_scale = [1.0, 3.0]",
        )
        .unwrap();
        let cells = expand(&s);
        let sys: Vec<_> = cells.iter().filter(|c| c.fleet == 0).collect();
        assert_eq!(sys.len(), 4);
        let base = evaluate(&s, sys[0]).unwrap(); // rate 1, repair 1
        let slow_repair = evaluate(&s, sys[1]).unwrap(); // rate 1, repair 3
        let hot = evaluate(&s, sys[2]).unwrap(); // rate 2, repair 1
        let ratio = hot.failures as f64 / base.failures as f64;
        assert!((1.5..2.6).contains(&ratio), "rate-doubling ratio {ratio}");
        // Repair inflation is paired: the same trace, every downtime
        // scaled, so only rounding separates the median ratio from 3.
        assert_eq!(slow_repair.failures, base.failures);
        assert_eq!(slow_repair.tbf_shape.to_bits(), base.tbf_shape.to_bits());
        let med_ratio = slow_repair.repair_median_min / base.repair_median_min;
        assert!(
            (2.99..3.01).contains(&med_ratio),
            "repair ratio {med_ratio}"
        );
        assert!(slow_repair.availability < base.availability);
    }

    #[test]
    fn apps_produce_finite_metrics() {
        let s = spec("checkpoint = [\"young\"]\nsched = [\"least-failure-rate\"]");
        let cells = expand(&s);
        let m = evaluate(&s, &cells[0]).unwrap();
        assert!(
            (0.0..1.0).contains(&m.checkpoint_waste),
            "waste {}",
            m.checkpoint_waste
        );
        assert!(
            m.sched_efficiency.is_nan() || (0.0..=1.0).contains(&m.sched_efficiency),
            "efficiency {}",
            m.sched_efficiency
        );
    }

    #[test]
    fn projection_composes_or_degrades() {
        let s = spec("burst = [\"calibrated\", \"storm\"]\nsched = [\"none\", \"random\"]");
        let cells = expand(&s);
        let proj: Vec<_> = cells.iter().filter(|c| c.fleet == 1).collect();
        assert_eq!(proj.len(), 4);
        let ok = evaluate(&s, proj[0]).unwrap(); // calibrated, none
        assert!(
            ok.failures > 10_000,
            "100k-node fleet failures {}",
            ok.failures
        );
        assert!(ok.availability > 0.5 && ok.availability < 1.0);
        match evaluate(&s, proj[1]).unwrap_err() {
            CellError::InvalidComposition(d) => assert!(d.contains("sched"), "{d}"),
            other => panic!("wanted InvalidComposition, got {other:?}"),
        }
        match evaluate(&s, proj[2]).unwrap_err() {
            CellError::InvalidComposition(d) => assert!(d.contains("burst"), "{d}"),
            other => panic!("wanted InvalidComposition, got {other:?}"),
        }
    }

    #[test]
    fn projection_checkpoint_waste_saturates_at_scale() {
        // The paper's projection conclusion: at 100k nodes with today's
        // repair times, a checkpointed petascale job wastes most of its
        // time. Our closed form must reproduce that saturation.
        let s = spec("checkpoint = [\"young\"]");
        let cells = expand(&s);
        let proj = cells.iter().find(|c| c.fleet == 1).unwrap();
        let m = evaluate(&s, proj).unwrap();
        assert!(m.checkpoint_waste > 0.5, "waste {}", m.checkpoint_waste);
    }

    #[test]
    fn late_era_on_short_lived_system_is_empty_stratum() {
        // sys14 entered production 2003-09; the trace ends 2005-11 —
        // under 36 months, so the late era holds nothing.
        let s = CampaignSpec::parse(
            "[campaign]\nname = \"t\"\n[fleet]\nsystems = [14]\n[grid]\nera = [\"late\"]",
        )
        .unwrap();
        let cells = expand(&s);
        match evaluate(&s, &cells[0]).unwrap_err() {
            CellError::EmptyStratum(_) => {}
            other => panic!("wanted EmptyStratum, got {other:?}"),
        }
    }

    #[test]
    fn shared_era_fits_equal_fresh_fits_errors_included() {
        // sys12's late era is short: too few gaps to fit. sys14's
        // production is shorter than the early era: its late era is empty.
        // Two repair scales and every application choice: each stratum
        // serves three checkpoint and four sched cells.
        let s = CampaignSpec::parse(
            "[campaign]\nname = \"t\"\nseed = 3\n[fleet]\nsystems = [12, 14]\n\
             [grid]\nera = [\"full\", \"early\", \"late\"]\nrate_scale = [1.0, 2.0]\n\
             repair_scale = [1.0, 3.0]\ncheckpoint = [\"none\", \"young\", \"hazard\"]\n\
             sched = [\"none\", \"random\", \"least-failure-rate\", \"longest-uptime\"]\n\
             [runner]\ncheckpoint_every = 5\n",
        )
        .unwrap();
        assert_eq!(s.grid.checkpoint, CheckpointApp::ALL);
        assert_eq!(s.grid.sched, SchedApp::ALL);
        let cells = expand(&s);
        let fresh: Vec<_> = cells
            .iter()
            .map(|cell| evaluate_shared(&s, cell, &KeySlot::new(&s)))
            .collect();
        let era_of = |fleet: usize, era: Era| {
            cells
                .iter()
                .zip(&fresh)
                .filter(move |(c, _)| c.fleet == fleet && c.era == era)
                .map(|(_, r)| r)
        };
        assert!(era_of(0, Era::Full).all(Result::is_ok));
        assert!(era_of(1, Era::Early).all(Result::is_ok));
        assert!(era_of(0, Era::Late).all(|r| matches!(r, Err(CellError::DegenerateFit(_)))));
        assert!(era_of(1, Era::Late).all(|r| matches!(r, Err(CellError::EmptyStratum(_)))));

        // Every cell of a key through one slot, filled first by the
        // grid's first cell of each (key, era) and stratum, then by its
        // last.
        for order in [
            cells.iter().collect::<Vec<_>>(),
            cells.iter().rev().collect(),
        ] {
            let mut slots: HashMap<GenerationKey, KeySlot> = HashMap::new();
            for cell in order {
                let slot = slots
                    .entry(GenerationKey::of(cell))
                    .or_insert_with(|| KeySlot::new(&s));
                let i = cell.index as usize;
                assert_eq!(evaluate_shared(&s, cell, slot), fresh[i], "cell {i}");
            }
            assert_eq!(slots.len(), 4);
            for slot in slots.values() {
                assert_eq!(slot.fitted_eras(), Era::ALL);
                // A stratum and every application memo in it is filled
                // exactly when its era fits.
                for era in &slot.eras {
                    let fits = matches!(era.fit.get(), Some(Ok(_)));
                    assert_eq!(era.strata.len(), 2);
                    for stratum in era.strata.iter() {
                        assert_eq!(stratum.window.get().is_some(), fits);
                        let apps = stratum.checkpoint.iter().chain(&stratum.sched);
                        assert!(apps.into_iter().all(|app| app.get().is_some() == fits));
                    }
                }
            }
        }

        for workers in [1, 8] {
            let result = run_campaign(
                &s,
                &RunOptions {
                    workers: Some(workers),
                    ..Default::default()
                },
            )
            .unwrap();
            for (outcome, alone) in result.outcomes.iter().zip(&fresh) {
                let settled = match outcome {
                    CellOutcome::Completed { metrics, .. } => Ok(*metrics),
                    CellOutcome::Degraded { cause, .. } => Err(cause.clone()),
                };
                assert_eq!(&settled, alone, "workers {workers} cell {}", outcome.cell());
            }
        }
    }

    /// Make `lock`'s fill panic under `catch_unwind` and check the lock
    /// stays empty; then check that `cell` through `slot` fills it and
    /// equals a fresh evaluation, bitwise.
    fn panicked_fill_is_retried<T>(
        s: &CampaignSpec,
        slot: &KeySlot,
        lock: &OnceLock<T>,
        cell: &Cell,
    ) {
        let fill = || {
            lock.get_or_init(|| panic!("injected fill panic"));
        };
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(fill)).is_err());
        assert!(lock.get().is_none(), "a panicked fill left its lock set");
        let shared = evaluate_shared(s, cell, slot);
        assert!(shared.is_ok(), "cell {}: {shared:?}", cell.index);
        assert_eq!(shared, evaluate(s, cell), "cell {}", cell.index);
        assert!(
            lock.get().is_some(),
            "cell {} left the lock empty",
            cell.index
        );
    }

    #[test]
    fn a_panicked_fill_leaves_its_lock_empty_for_the_next_cell() {
        let s = CampaignSpec::parse(
            "[campaign]\nname = \"t\"\nseed = 5\n[fleet]\nsystems = [12]\n\
             [grid]\nera = [\"full\", \"early\"]\nrepair_scale = [1.0, 3.0]\n\
             checkpoint = [\"none\", \"young\"]\nsched = [\"none\", \"random\"]\n",
        )
        .unwrap();
        let cells = expand(&s);
        let cell = |era: Era, repair: usize, checkpoint: CheckpointApp, sched: SchedApp| {
            cells
                .iter()
                .find(|c| {
                    c.era == era
                        && c.repair_scale.to_bits() == s.grid.repair_scale[repair].to_bits()
                        && c.checkpoint == checkpoint
                        && c.sched == sched
                })
                .unwrap()
        };
        // Each fill in turn, every other lock the cell reads already set
        // by the cells before it.
        let slot = KeySlot::new(&s);
        let full = &slot.eras[Era::Full as usize];
        let early = &slot.eras[Era::Early as usize];
        use CheckpointApp as C;
        use SchedApp as S;
        panicked_fill_is_retried(&s, &slot, &slot.trace, cell(Era::Full, 0, C::None, S::None));
        panicked_fill_is_retried(&s, &slot, &early.fit, cell(Era::Early, 0, C::None, S::None));
        panicked_fill_is_retried(
            &s,
            &slot,
            &full.strata[1].window,
            cell(Era::Full, 1, C::None, S::None),
        );
        panicked_fill_is_retried(
            &s,
            &slot,
            &full.strata[0].checkpoint[C::Young as usize],
            cell(Era::Full, 0, C::Young, S::None),
        );
        panicked_fill_is_retried(
            &s,
            &slot,
            &full.strata[0].sched[S::Random as usize],
            cell(Era::Full, 0, C::None, S::Random),
        );
    }

    #[test]
    fn cell_error_codes_round_trip() {
        let all = [
            CellError::Panic("a".into()),
            CellError::Generation("b".into()),
            CellError::EmptyStratum("c".into()),
            CellError::DegenerateFit("d".into()),
            CellError::InvalidComposition("e".into()),
            CellError::App("f".into()),
        ];
        for e in all {
            let back = CellError::from_parts(e.kind_code(), e.detail().to_string()).unwrap();
            assert_eq!(back, e);
        }
        assert!(CellError::from_parts(99, String::new()).is_none());
    }
}
