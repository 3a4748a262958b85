//! The crash-proof, resumable campaign runner.
//!
//! Cells are evaluated in **waves** of `runner.checkpoint_every` cells.
//! Within a wave the pool fans cells out to workers behind per-cell
//! `catch_unwind` isolation ([`hpcfail_exec::ParallelExecutor::map_range_settled`]):
//! a panicking cell settles into a [`CellOutcome::Degraded`] row while
//! every sibling completes. After each wave the outcomes are appended to
//! the journal *in cell order* — the wave size is a spec parameter, not
//! a function of the worker count, so the journal (and therefore every
//! derived report) is byte-identical across pool sizes, and a kill at
//! any moment loses at most one wave of work.
//!
//! System cells that share a generation key share one indexed trace;
//! cells that also share an era share that era's window and TBF fit,
//! and cells that also share a repair scale (a stratum) share its
//! window statistics and, per application choice, that application's
//! result. The runner keeps one slot per key that still has cells to
//! run; the first cell of the key to reach it synthesizes the trace, the
//! first cell of each `(key, era)` fits that era, the first cell of each
//! stratum (and choice) computes its part, and the slot — trace, era
//! fits and strata together — is dropped after the wave holding the
//! key's last cell. Each part is a function of the values that name it
//! alone, so which worker fills it, and where a resume starts, cannot
//! change any result.

use std::collections::HashMap;
use std::path::Path;

use hpcfail_exec::ParallelExecutor;

use crate::cell::{evaluate, evaluate_shared, CellError, CellMetrics, GenerationKey, KeySlot};
use crate::grid::{expand, Cell};
use crate::journal::{Journal, JournalError, JournalHeader};
use crate::spec::{CampaignSpec, FleetEntry};

/// The settled result of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell ran to completion.
    Completed {
        /// Cell index.
        cell: u64,
        /// Measured statistics.
        metrics: CellMetrics,
    },
    /// The cell failed — typed evaluation error or caught panic — and
    /// the campaign carried on without it.
    Degraded {
        /// Cell index.
        cell: u64,
        /// Why it degraded.
        cause: CellError,
    },
}

impl CellOutcome {
    /// The cell index this outcome settles.
    pub fn cell(&self) -> u64 {
        match self {
            CellOutcome::Completed { cell, .. } | CellOutcome::Degraded { cell, .. } => *cell,
        }
    }

    /// Whether the cell degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, CellOutcome::Degraded { .. })
    }
}

/// Campaign-level failures: everything that prevents the runner from
/// producing a result at all. Per-cell trouble never lands here — it
/// degrades the cell instead.
#[derive(Debug)]
pub enum CampaignError {
    /// Journal trouble (I/O, or a resume file from another campaign).
    Journal(JournalError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// How to run a campaign.
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    /// Worker count (`None` → honor `HPCFAIL_THREADS`/cores).
    pub workers: Option<usize>,
    /// Journal path for checkpoint/resume (`None` → in-memory only).
    pub journal: Option<&'a Path>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Stop (successfully) at the first wave boundary at or beyond this
    /// many settled cells — deterministic interrupt injection for
    /// resume tests.
    pub max_cells: Option<u64>,
}

/// A finished (or deliberately interrupted) campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Campaign name from the spec.
    pub name: String,
    /// Campaign seed.
    pub seed: u64,
    /// Settled outcomes, in cell order. When `interrupted`, a prefix.
    pub outcomes: Vec<CellOutcome>,
    /// Total cells in the grid.
    pub total_cells: u64,
    /// Whether `max_cells` stopped the run before the grid was done.
    pub interrupted: bool,
    /// How many cells were loaded from the journal instead of re-run.
    pub resumed_cells: u64,
}

impl CampaignResult {
    /// Completed-cell count.
    pub fn completed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.is_degraded()).count() as u64
    }

    /// Degraded-cell count.
    pub fn degraded(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.is_degraded()).count() as u64
    }

    /// Whether any cell degraded (drives the CLI's exit status 3).
    pub fn is_degraded(&self) -> bool {
        self.outcomes.iter().any(|o| o.is_degraded())
    }
}

/// The shared work of the cells a run has left: one slot per generation
/// key, holding its trace, its era fits and its strata, dropped once the
/// key's last cell has settled.
struct TraceCache {
    /// Per cell index: its key's slot number, or `None` for cells that
    /// synthesize nothing (projections) or were settled before the run.
    key_of: Vec<Option<usize>>,
    slots: Vec<Option<KeySlot>>,
    /// Cells still to settle, per slot.
    left: Vec<usize>,
}

impl TraceCache {
    fn new(spec: &CampaignSpec, cells: &[Cell], settled: usize) -> TraceCache {
        let mut ordinal: HashMap<GenerationKey, usize> = HashMap::new();
        let mut key_of = vec![None; cells.len()];
        let mut left = Vec::new();
        for cell in &cells[settled..] {
            if let FleetEntry::System(_) = cell.fleet_entry(spec) {
                let slot = *ordinal.entry(GenerationKey::of(cell)).or_insert_with(|| {
                    left.push(0);
                    left.len() - 1
                });
                left[slot] += 1;
                key_of[cell.index as usize] = Some(slot);
            }
        }
        TraceCache {
            key_of,
            slots: (0..left.len()).map(|_| Some(KeySlot::new(spec))).collect(),
            left,
        }
    }

    /// The slot `cell` reads its shared work from; `None` for a cell
    /// that synthesizes nothing.
    fn slot(&self, cell: &Cell) -> Option<&KeySlot> {
        self.key_of[cell.index as usize].and_then(|k| self.slots[k].as_ref())
    }

    /// Count `wave` as settled and drop every slot no cell still needs.
    fn settle(&mut self, wave: &[Cell]) {
        for cell in wave {
            if let Some(k) = self.key_of[cell.index as usize] {
                self.left[k] -= 1;
                if self.left[k] == 0 {
                    self.slots[k] = None;
                }
            }
        }
    }
}

/// Run a campaign to completion (or to `max_cells`).
///
/// Results are a pure function of `(spec, seed)`: value-named seed
/// streams and ordered waves make the outcome vector — and the journal
/// bytes — independent of the worker count. Every cell runs behind its
/// own `catch_unwind`; cells listed in `[chaos] panic_cells` panic
/// deliberately inside that boundary, exercising the isolation path on
/// demand.
///
/// # Errors
///
/// Only [`CampaignError`] — journal I/O or a resume-identity mismatch.
/// Cell failures degrade rows instead.
pub fn run_campaign(
    spec: &CampaignSpec,
    options: &RunOptions<'_>,
) -> Result<CampaignResult, CampaignError> {
    run_cached(spec, options).map(|(result, _)| result)
}

/// [`run_campaign`], also handing back the trace cache as the run left
/// it.
fn run_cached(
    spec: &CampaignSpec,
    options: &RunOptions<'_>,
) -> Result<(CampaignResult, TraceCache), CampaignError> {
    let cells = expand(spec);
    let total_cells = cells.len() as u64;
    let header = JournalHeader {
        spec_digest: spec.digest,
        seed: spec.seed,
        n_cells: total_cells,
    };

    let (mut journal, mut outcomes) = match (options.journal, options.resume) {
        (Some(path), true) => {
            let (journal, loaded) = Journal::open_resume(path, header)?;
            (Some(journal), loaded)
        }
        (Some(path), false) => (Some(Journal::create(path, header)?), Vec::new()),
        (None, _) => (None, Vec::new()),
    };
    let resumed_cells = outcomes.len() as u64;
    let mut cache = TraceCache::new(spec, &cells, outcomes.len());

    let pool = match options.workers {
        Some(n) => ParallelExecutor::with_workers(n),
        None => ParallelExecutor::from_env(),
    };
    let budget = options.max_cells.unwrap_or(u64::MAX);
    let wave_size = spec.runner.checkpoint_every.max(1);

    while (outcomes.len() as u64) < total_cells && (outcomes.len() as u64) < budget {
        let start = outcomes.len();
        let remaining = (total_cells as usize - start).min(wave_size);
        // The wave boundary is a function of the spec alone — never
        // shrunk to the interrupt budget, so an interrupted-then-resumed
        // journal goes through the exact same waves as an uninterrupted
        // run.
        let wave: &[Cell] = &cells[start..start + remaining];
        let settled = pool.map_range_settled(wave.len(), |i| {
            let cell = &wave[i];
            if spec.panic_cells.binary_search(&cell.index).is_ok() {
                panic!("chaos: deliberate panic in cell {}", cell.index);
            }
            match cache.slot(cell) {
                Some(slot) => evaluate_shared(spec, cell, slot),
                None => evaluate(spec, cell),
            }
        });
        cache.settle(wave);
        let wave_outcomes: Vec<CellOutcome> = settled
            .into_iter()
            .zip(wave)
            .map(|(slot, cell)| match slot {
                Ok(Ok(metrics)) => CellOutcome::Completed {
                    cell: cell.index,
                    metrics,
                },
                Ok(Err(cause)) => CellOutcome::Degraded {
                    cell: cell.index,
                    cause,
                },
                Err(panic_message) => CellOutcome::Degraded {
                    cell: cell.index,
                    cause: CellError::Panic(panic_message),
                },
            })
            .collect();
        if let Some(j) = journal.as_mut() {
            j.append(&wave_outcomes)?;
        }
        outcomes.extend(wave_outcomes);
    }

    let interrupted = (outcomes.len() as u64) < total_cells;
    let result = CampaignResult {
        name: spec.name.clone(),
        seed: spec.seed,
        outcomes,
        total_cells,
        interrupted,
        resumed_cells,
    };
    Ok((result, cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Era;
    use std::path::PathBuf;

    impl TraceCache {
        /// Traces currently held.
        fn held(&self) -> usize {
            self.slots
                .iter()
                .flatten()
                .filter(|slot| slot.has_trace())
                .count()
        }

        /// The eras fitted in each slot still held.
        fn fitted_eras(&self) -> Vec<Vec<Era>> {
            self.slots
                .iter()
                .flatten()
                .map(KeySlot::fitted_eras)
                .collect()
        }

        /// The filled strata of each slot still held.
        fn filled_strata(&self) -> Vec<Vec<(Era, usize)>> {
            self.slots
                .iter()
                .flatten()
                .map(KeySlot::filled_strata)
                .collect()
        }
    }

    const SMALL: &str = r#"
[campaign]
name = "runner-test"
seed = 5
[fleet]
systems = [12]
[grid]
era = ["full", "late"]
rate_scale = [1.0, 2.0]
[runner]
checkpoint_every = 3
"#;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpcfail_runner_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.journal", std::process::id()))
    }

    #[test]
    fn campaign_settles_every_cell_in_order() {
        let spec = CampaignSpec::parse(SMALL).unwrap();
        let result = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.total_cells, 4);
        assert!(!result.interrupted);
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.cell(), i as u64);
        }
        // sys12's late era is ~2 months: insufficient data degrades it,
        // the full-era cells complete — both kinds in one campaign.
        assert!(result.completed() >= 2, "completed {}", result.completed());
        assert!(result.degraded() >= 1, "degraded {}", result.degraded());
    }

    #[test]
    fn chaos_cells_degrade_without_aborting_siblings() {
        let src = format!("{SMALL}[chaos]\npanic_cells = [1]\n");
        let spec = CampaignSpec::parse(&src).unwrap();
        for workers in [1, 4] {
            let result = run_campaign(
                &spec,
                &RunOptions {
                    workers: Some(workers),
                    ..Default::default()
                },
            )
            .unwrap();
            match &result.outcomes[1] {
                CellOutcome::Degraded {
                    cause: CellError::Panic(msg),
                    ..
                } => assert!(msg.contains("chaos"), "{msg}"),
                other => panic!("expected panic degradation, got {other:?}"),
            }
            assert!(matches!(result.outcomes[0], CellOutcome::Completed { .. }));
            assert!(result.is_degraded());
        }
    }

    #[test]
    fn journaled_run_resumes_to_identical_outcomes() {
        let spec = CampaignSpec::parse(SMALL).unwrap();
        let baseline = run_campaign(&spec, &RunOptions::default()).unwrap();

        let path = tmp("resume");
        std::fs::remove_file(&path).ok();
        let partial = run_campaign(
            &spec,
            &RunOptions {
                journal: Some(&path),
                max_cells: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.outcomes.len(), 3);

        let resumed = run_campaign(
            &spec,
            &RunOptions {
                journal: Some(&path),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed_cells, 3);
        assert_eq!(resumed.outcomes, baseline.outcomes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traces_are_released_after_their_last_cell() {
        // Cells run (era, rate, repair) in row-major order:
        //   0 full,1,1  1 full,1,3  2 full,2,1  3 full,2,3
        //   4 late,1,1  5 late,1,3  6 late,2,1  7 late,2,3
        // Keys are the two rate scales: cells 0, 1, 4 and 5 share rate 1,
        // the rest rate 2. Waves are cells 0-2, 3-5 and 6-7.
        let src = SMALL.replace("[runner]", "repair_scale = [1.0, 3.0]\n[runner]");
        let spec = CampaignSpec::parse(&src).unwrap();
        for workers in [1, 8] {
            let (done, cache) = run_cached(
                &spec,
                &RunOptions {
                    workers: Some(workers),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(!done.interrupted);
            assert_eq!(done.total_cells, 8);
            assert_eq!(
                cache.held(),
                0,
                "workers {workers}: traces outlived the campaign"
            );
            assert!(
                cache.fitted_eras().is_empty(),
                "workers {workers}: era fits outlived the campaign"
            );
            assert!(
                cache.filled_strata().is_empty(),
                "workers {workers}: strata outlived the campaign"
            );

            // Stopped after the first wave: both keys have cells left, and
            // only the strata cells 0-2 read are filled.
            let path = tmp(&format!("release_{workers}"));
            std::fs::remove_file(&path).ok();
            let run = |max_cells: Option<u64>, resume: bool| {
                run_cached(
                    &spec,
                    &RunOptions {
                        workers: Some(workers),
                        journal: Some(&path),
                        resume,
                        max_cells,
                    },
                )
                .unwrap()
            };
            let (partial, cache) = run(Some(3), false);
            assert!(partial.interrupted);
            assert_eq!(cache.held(), 2, "workers {workers}");
            assert_eq!(
                cache.fitted_eras(),
                vec![vec![Era::Full], vec![Era::Full]],
                "workers {workers}: only the full era has run"
            );
            assert_eq!(
                cache.filled_strata(),
                vec![vec![(Era::Full, 0), (Era::Full, 1)], vec![(Era::Full, 0)]],
                "workers {workers}: only settled cells' strata are filled"
            );

            // A resume that starts mid-grid keeps slots only for the
            // cells it has left, fills only the strata it runs, and
            // releases the rate-1 key after its last cell (5).
            let (partial, cache) = run(Some(6), true);
            assert!(partial.interrupted);
            assert_eq!(partial.resumed_cells, 3);
            assert_eq!(cache.slots.len(), 2, "workers {workers}");
            assert_eq!(cache.held(), 1, "workers {workers}");
            assert_eq!(
                cache.filled_strata(),
                vec![vec![(Era::Full, 1)]],
                "workers {workers}: cell 3 is the rate-2 key's only cell run"
            );

            let (resumed, cache) = run(None, true);
            assert_eq!(resumed.resumed_cells, 6);
            assert_eq!(
                cache.slots.len(),
                1,
                "workers {workers}: one key left to run"
            );
            assert_eq!(cache.held(), 0, "workers {workers}");
            assert!(cache.fitted_eras().is_empty(), "workers {workers}");
            assert!(cache.filled_strata().is_empty(), "workers {workers}");
            assert_eq!(resumed.outcomes, done.outcomes);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn resume_refuses_a_different_spec() {
        let spec = CampaignSpec::parse(SMALL).unwrap();
        let path = tmp("refuse");
        std::fs::remove_file(&path).ok();
        run_campaign(
            &spec,
            &RunOptions {
                journal: Some(&path),
                max_cells: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let other = CampaignSpec::parse(&SMALL.replace("seed = 5", "seed = 6")).unwrap();
        let err = run_campaign(
            &other,
            &RunOptions {
                journal: Some(&path),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, CampaignError::Journal(JournalError::Mismatch { .. })),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
