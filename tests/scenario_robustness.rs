//! Robustness contract of the scenario engine: the campaign runner
//! must be crash-proof (poisoned cells degrade, siblings complete),
//! total on hostile input (any bytes → typed errors, never a panic),
//! and deterministic (results are a pure function of `(spec, seed)` —
//! independent of worker count, and invariant under kill-and-resume).
//!
//! Five families of checks:
//!
//! 1. **Panic isolation** — a `[chaos] panic_cells` spec degrades
//!    exactly the poisoned cells while every sibling completes, and the
//!    campaign reports the degradation (the CLI turns that into exit
//!    code 3).
//! 2. **Spec-parser totality** — arbitrary byte soup and corrupted
//!    variants of the bundled spec always come back as typed
//!    [`SpecError`]s; mangled resume journals (torn tails, truncations,
//!    bit flips) never resume a wrong cell: the loaded prefix is always
//!    an exact ordered prefix of the true outcome vector.
//! 3. **Determinism** — campaign outcomes and rendered reports are
//!    byte-identical across worker counts, equal to a serial
//!    `evaluate()` loop, and invariant under interrupt-and-resume.
//! 4. **The bundled 1296-cell campaign** — the shipped
//!    `experiments/scenarios/lanl_whatif.toml` runs end to end with its
//!    designed organic degradations, byte-identical journals across
//!    pool sizes, and resume-equals-uninterrupted output.
//! 5. **Shared traces** — cells of one generation key share one trace:
//!    cells that differ only in an application axis report identical
//!    trace statistics, each application ignores the other's axis, and
//!    sharing survives waves and resumes that split a key's cells.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use hpcfail::scenario::{
    evaluate, expand, render_results, run_campaign, CampaignError, CampaignSpec, CellError,
    CellMetrics, CellOutcome, Journal, JournalError, JournalHeader, RunOptions,
};
use proptest::prelude::*;

const SEEDS: [u64; 3] = [1, 42, 2026];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn bundled_spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments/scenarios/lanl_whatif.toml")
}

fn bundled_spec_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| std::fs::read_to_string(bundled_spec_path()).expect("bundled spec"))
}

/// A compact campaign exercising every evaluation path: trace
/// generation, era filtering (the late era degrades on sys12's short
/// window), and both RNG-consuming applications.
fn compact_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::parse(&compact_spec_text(seed)).expect("compact spec")
}

fn compact_spec_text(seed: u64) -> String {
    format!(
        "[campaign]\nname = \"robustness\"\nseed = {seed}\n\
         [fleet]\nsystems = [12]\n\
         [grid]\nera = [\"full\", \"late\"]\nrate_scale = [1.0, 2.0]\n\
         checkpoint = [\"none\", \"young\"]\nsched = [\"none\", \"random\"]\n\
         [runner]\ncheckpoint_every = 5\n"
    )
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpcfail_scenario_robustness");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}", std::process::id()))
}

// ---------------------------------------------------------------------
// 1. Panic isolation
// ---------------------------------------------------------------------

#[test]
fn poisoned_cells_degrade_while_every_sibling_completes() {
    // Poison two cells in different waves; all 16 cells must settle.
    let src = "[campaign]\nname = \"poisoned\"\nseed = 7\n[fleet]\nsystems = [12]\n\
         [grid]\nrate_scale = [1.0, 2.0]\ncheckpoint = [\"none\", \"young\"]\n\
         era = [\"full\", \"early\"]\nsched = [\"none\", \"random\"]\n\
         [runner]\ncheckpoint_every = 4\n[chaos]\npanic_cells = [3, 11]\n";
    let spec = CampaignSpec::parse(src).unwrap();
    for &workers in &WORKER_COUNTS {
        let result = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(workers),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.outcomes.len(), 16, "workers {workers}");
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.cell(), i as u64, "settled in cell order");
        }
        for &poisoned in &[3u64, 11] {
            match &result.outcomes[poisoned as usize] {
                CellOutcome::Degraded {
                    cause: CellError::Panic(msg),
                    ..
                } => assert!(msg.contains("chaos"), "{msg}"),
                other => panic!("cell {poisoned}: expected panic degradation, got {other:?}"),
            }
        }
        // Every non-poisoned cell settled by evaluation, not by panic.
        for o in &result.outcomes {
            if o.cell() == 3 || o.cell() == 11 {
                continue;
            }
            if let CellOutcome::Degraded {
                cause: CellError::Panic(msg),
                ..
            } = o
            {
                panic!("cell {} panicked unexpectedly: {msg}", o.cell());
            }
        }
        // The campaign reports the degradation — the CLI maps this to
        // exit code 3 (asserted in hpcfail-cli's tests).
        assert!(result.is_degraded());
        assert!(result.completed() >= 8, "siblings completed");
    }
}

// ---------------------------------------------------------------------
// 2. Totality: hostile specs and mangled journals
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any byte soup parses to a typed error or a valid spec — never a
    /// panic, never an abort.
    #[test]
    fn arbitrary_bytes_never_panic_the_spec_parser(
        bytes in prop::collection::vec(0u8..=255, 0..2048)
    ) {
        match CampaignSpec::parse_bytes(&bytes) {
            Ok(spec) => prop_assert!(spec.cell_count() >= 1),
            Err(e) => prop_assert!(!e.to_string().is_empty(), "error must render"),
        }
    }

    /// Corrupted variants of the *bundled* spec — truncations, byte
    /// flips, and random splices — also stay total.
    #[test]
    fn corrupted_bundled_specs_yield_typed_errors(
        cut in 0usize..usize::MAX,
        flip_at in 0usize..usize::MAX,
        flip_mask in 1u8..=255,
        splice_at in 0usize..usize::MAX,
        splice in prop::collection::vec(0u8..=255, 0..24),
    ) {
        let valid = bundled_spec_text().as_bytes();
        let mut mangled = valid[..cut % (valid.len() + 1)].to_vec();
        if !mangled.is_empty() {
            let i = flip_at % mangled.len();
            mangled[i] ^= flip_mask;
        }
        let at = splice_at % (mangled.len() + 1);
        mangled.splice(at..at, splice);
        match CampaignSpec::parse_bytes(&mangled) {
            Ok(spec) => prop_assert!(spec.cell_count() >= 1),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// The compact campaign with two cells poisoned by `[chaos]`, in
/// different waves.
fn panicking_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        "{}[chaos]\npanic_cells = [3, 11]\n",
        compact_spec_text(seed)
    ))
    .expect("panicking spec")
}

/// A completed campaign journal with what the uninterrupted run
/// returned — the fixture for the corruption sweeps.
struct JournalFixture {
    bytes: Vec<u8>,
    header: JournalHeader,
    outcomes: Vec<CellOutcome>,
    rendered: String,
}

fn completed_journal(spec: &CampaignSpec, name: &str) -> JournalFixture {
    let path = tmp(name);
    std::fs::remove_file(&path).ok();
    let result = run_campaign(
        spec,
        &RunOptions {
            workers: Some(2),
            journal: Some(&path),
            ..Default::default()
        },
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    JournalFixture {
        bytes,
        header: JournalHeader {
            spec_digest: spec.digest,
            seed: spec.seed,
            n_cells: result.total_cells,
        },
        rendered: render_results(spec, &result),
        outcomes: result.outcomes,
    }
}

fn journal_fixture() -> &'static JournalFixture {
    static FIXTURE: OnceLock<JournalFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| completed_journal(&compact_spec(99), "fixture.journal"))
}

fn panicking_fixture() -> &'static JournalFixture {
    static FIXTURE: OnceLock<JournalFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| completed_journal(&panicking_spec(99), "panicking.journal"))
}

/// The corruption sweep's damage: keep a prefix of `bytes`, then flip
/// the bits of `flip_mask` in one of its bytes.
fn mangle(bytes: &[u8], cut: usize, flip_at: usize, flip_mask: u8) -> Vec<u8> {
    let mut mangled = bytes[..cut % (bytes.len() + 1)].to_vec();
    if !mangled.is_empty() && flip_mask != 0 {
        let i = flip_at % mangled.len();
        mangled[i] ^= flip_mask;
    }
    mangled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A torn, truncated, or bit-flipped journal never resumes a wrong
    /// cell: whatever `open_resume` accepts is an exact ordered prefix
    /// of the true outcome vector (or a typed refusal).
    #[test]
    fn mangled_journals_never_resume_a_wrong_cell(
        case in 0u64..u64::MAX,
        cut in 0usize..usize::MAX,
        flip_at in 0usize..usize::MAX,
        flip_mask in 0u8..=255,
    ) {
        let fixture = journal_fixture();
        let path = tmp(&format!("mangled_{case}.journal"));
        std::fs::write(&path, mangle(&fixture.bytes, cut, flip_at, flip_mask)).unwrap();
        let opened = Journal::open_resume(&path, fixture.header);
        std::fs::remove_file(&path).ok();
        match opened {
            Ok((_, loaded)) => {
                prop_assert!(loaded.len() <= fixture.outcomes.len());
                for (i, o) in loaded.iter().enumerate() {
                    prop_assert!(o.cell() == i as u64, "not an ordered prefix at {}", i);
                    prop_assert!(o == &fixture.outcomes[i], "loaded outcome {} differs", i);
                }
            }
            Err(JournalError::Mismatch { .. }) | Err(JournalError::Io { .. }) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Journal damage while cells panic: resuming a poisoned campaign
    /// from a mangled journal ends in a typed error or in the
    /// uninterrupted run's outcomes and rendered bytes — never in an
    /// escaped panic or a different answer.
    #[test]
    fn damaged_journal_resume_with_panicking_cells_is_typed_or_identical(
        case in 0u64..u64::MAX,
        cut in 0usize..usize::MAX,
        flip_at in 0usize..usize::MAX,
        flip_mask in 0u8..=255,
    ) {
        let spec = panicking_spec(99);
        let fixture = panicking_fixture();
        let path = tmp(&format!("panicking_{case}.journal"));
        std::fs::write(&path, mangle(&fixture.bytes, cut, flip_at, flip_mask)).unwrap();
        let resumed = std::panic::catch_unwind(|| {
            run_campaign(
                &spec,
                &RunOptions {
                    workers: Some(2),
                    journal: Some(&path),
                    resume: true,
                    ..Default::default()
                },
            )
        });
        std::fs::remove_file(&path).ok();
        match resumed {
            Err(_) => prop_assert!(false, "a panic escaped the resume"),
            Ok(Err(e)) => prop_assert!(!e.to_string().is_empty(), "error must render"),
            Ok(Ok(result)) => {
                prop_assert!(!result.interrupted);
                prop_assert_eq!(&result.outcomes, &fixture.outcomes);
                prop_assert_eq!(&render_results(&spec, &result), &fixture.rendered);
            }
        }
    }
}

#[test]
fn resume_refuses_a_journal_from_another_campaign() {
    let spec = compact_spec(1);
    let path = tmp("foreign.journal");
    std::fs::remove_file(&path).ok();
    run_campaign(
        &spec,
        &RunOptions {
            journal: Some(&path),
            max_cells: Some(5),
            workers: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    // Same grid, different campaign seed → the journal is not ours.
    let other = compact_spec(2);
    let err = run_campaign(
        &other,
        &RunOptions {
            journal: Some(&path),
            resume: true,
            workers: Some(2),
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

// ---------------------------------------------------------------------
// 3. Determinism: workers, serial evaluation, resume
// ---------------------------------------------------------------------

#[test]
fn campaign_outcomes_byte_identical_across_seeds_and_worker_counts() {
    for &seed in &SEEDS {
        let spec = compact_spec(seed);
        let reference = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let reference_text = render_results(&spec, &reference);
        for &workers in &WORKER_COUNTS[1..] {
            let parallel = run_campaign(
                &spec,
                &RunOptions {
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
                render_results(&spec, &parallel),
                reference_text,
                "seed {seed} workers {workers}: rendered bytes differ"
            );
        }
        // The pool is pure orchestration: a plain serial loop over
        // `evaluate` produces the same completed/degraded split.
        let serial: Vec<CellOutcome> = expand(&spec)
            .iter()
            .map(|cell| match evaluate(&spec, cell) {
                Ok(metrics) => CellOutcome::Completed {
                    cell: cell.index,
                    metrics,
                },
                Err(cause) => CellOutcome::Degraded {
                    cell: cell.index,
                    cause,
                },
            })
            .collect();
        assert_eq!(serial, reference.outcomes, "seed {seed}: serial evaluate");
    }
}

#[test]
fn interrupted_then_resumed_equals_uninterrupted() {
    let spec = compact_spec(42);
    let baseline = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    // Interrupt at every wave boundary in turn; each resume must land
    // on the identical outcome vector and rendered bytes.
    for max_cells in [5u64, 10, 15] {
        let path = tmp(&format!("interrupt_{max_cells}.journal"));
        std::fs::remove_file(&path).ok();
        let partial = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(4),
                journal: Some(&path),
                max_cells: Some(max_cells),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(partial.interrupted, "max_cells {max_cells}");
        let resumed = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(2),
                journal: Some(&path),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed_cells, partial.outcomes.len() as u64);
        assert_eq!(resumed.outcomes, baseline.outcomes, "max_cells {max_cells}");
        assert_eq!(
            render_results(&spec, &resumed),
            render_results(&spec, &baseline),
            "max_cells {max_cells}: rendered bytes differ"
        );
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// 4. The bundled 1296-cell campaign
// ---------------------------------------------------------------------

#[test]
fn bundled_campaign_is_invariant_under_workers_and_resume() {
    let spec = CampaignSpec::parse(bundled_spec_text()).unwrap();
    assert!(
        spec.cell_count() >= 1000,
        "the bundled campaign must stress the runner with 1000+ cells, got {}",
        spec.cell_count()
    );

    // Reference run on the full pool.
    let ref_journal = tmp("bundled_ref.journal");
    std::fs::remove_file(&ref_journal).ok();
    let reference = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(8),
            journal: Some(&ref_journal),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(reference.total_cells, spec.cell_count());
    assert!(!reference.interrupted);
    // The projection rows degrade organically wherever the grid asks
    // for a composition the analytic model cannot honor.
    assert!(reference.is_degraded());
    assert!(
        reference.completed() > reference.degraded(),
        "most of the campaign completes: {} vs {}",
        reference.completed(),
        reference.degraded()
    );
    for o in &reference.outcomes {
        if let CellOutcome::Degraded { cause, .. } = o {
            assert!(
                matches!(cause, CellError::InvalidComposition(_)),
                "only designed degradations expected, got {cause:?}"
            );
        }
    }
    let reference_text = render_results(&spec, &reference);
    let reference_journal_bytes = std::fs::read(&ref_journal).unwrap();

    // Same campaign on a small pool: outcomes, rendered report, and the
    // journal itself are byte-identical.
    let small_journal = tmp("bundled_small.journal");
    std::fs::remove_file(&small_journal).ok();
    let small = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(2),
            journal: Some(&small_journal),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(small.outcomes, reference.outcomes);
    assert_eq!(render_results(&spec, &small), reference_text);
    assert_eq!(
        std::fs::read(&small_journal).unwrap(),
        reference_journal_bytes,
        "journal bytes must not depend on the worker count"
    );

    // Kill mid-run (deterministic interrupt just past a third of the
    // grid), resume on a different pool size: byte-identical output.
    let resume_journal = tmp("bundled_resume.journal");
    std::fs::remove_file(&resume_journal).ok();
    let partial = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(8),
            journal: Some(&resume_journal),
            max_cells: Some(spec.cell_count() / 3),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(partial.interrupted);
    let resumed = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(8),
            journal: Some(&resume_journal),
            resume: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(resumed.resumed_cells > 0);
    assert_eq!(resumed.outcomes, reference.outcomes);
    assert_eq!(render_results(&spec, &resumed), reference_text);
    assert_eq!(
        std::fs::read(&resume_journal).unwrap(),
        reference_journal_bytes,
        "a resumed journal must finish byte-identical to an uninterrupted one"
    );

    for p in [&ref_journal, &small_journal, &resume_journal] {
        std::fs::remove_file(p).ok();
    }
}

// ---------------------------------------------------------------------
// 5. Shared traces
// ---------------------------------------------------------------------

/// A campaign whose waves (4 cells) split every generation key's
/// contiguous 6-cell run (3 checkpoint apps x 2 sched policies).
fn sharing_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        "[campaign]\nname = \"sharing\"\nseed = {seed}\n\
         [fleet]\nsystems = [12]\n\
         [grid]\nera = [\"full\", \"early\"]\nrate_scale = [1.0, 2.0]\n\
         checkpoint = [\"none\", \"young\", \"hazard\"]\nsched = [\"none\", \"random\"]\n\
         [runner]\ncheckpoint_every = 4\n"
    ))
    .expect("sharing spec")
}

/// The bits of a cell's trace statistics.
fn trace_columns(m: &CellMetrics) -> (u64, [u64; 4]) {
    (
        m.failures,
        [
            m.node_year_rate.to_bits(),
            m.availability.to_bits(),
            m.tbf_shape.to_bits(),
            m.repair_median_min.to_bits(),
        ],
    )
}

/// `(cell, value)` rows keyed by the axes the value may depend on.
type Groups<T> = BTreeMap<String, Vec<(u64, T)>>;

/// Every group's values must be identical.
fn assert_uniform<T: PartialEq + std::fmt::Debug>(what: &str, groups: &Groups<T>) {
    for (key, rows) in groups {
        let (first_cell, first) = &rows[0];
        for (cell, value) in rows {
            assert_eq!(
                value, first,
                "{what}: cell {cell} vs cell {first_cell} ({key})"
            );
        }
    }
}

#[test]
fn app_axes_move_neither_the_trace_nor_the_other_app() {
    let spec = CampaignSpec::parse(bundled_spec_text()).unwrap();
    let result = run_campaign(
        &spec,
        &RunOptions {
            workers: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    let mut trace: Groups<(u64, [u64; 4])> = BTreeMap::new();
    let mut waste: Groups<u64> = BTreeMap::new();
    let mut efficiency: Groups<u64> = BTreeMap::new();
    for (cell, outcome) in expand(&spec).iter().zip(&result.outcomes) {
        let CellOutcome::Completed { metrics, .. } = outcome else {
            continue;
        };
        let base = format!(
            "{}|{}|{}|{}|{}|{}",
            cell.fleet, cell.era, cell.rate_scale, cell.repair_scale, cell.cause_mix, cell.burst
        );
        trace
            .entry(base.clone())
            .or_default()
            .push((cell.index, trace_columns(metrics)));
        waste
            .entry(format!("{base}|{}", cell.checkpoint))
            .or_default()
            .push((cell.index, metrics.checkpoint_waste.to_bits()));
        efficiency
            .entry(format!("{base}|{}", cell.sched))
            .or_default()
            .push((cell.index, metrics.sched_efficiency.to_bits()));
    }
    // 36 generation keys x 2 eras x 2 repair scales of the two systems,
    // each swept over 3 x 2 app cells, plus the projection's 36
    // calibrated-burst groups (3 checkpoint cells each).
    assert_eq!(trace.len(), 36 * 2 * 2 + 36);
    assert!(trace.values().all(|rows| rows.len() >= 3));
    assert_uniform("trace statistics moved with an app axis", &trace);
    assert_uniform("checkpoint waste moved with sched", &waste);
    assert_uniform("sched efficiency moved with checkpoint", &efficiency);
}

#[test]
fn split_keys_resume_to_identical_outcomes_and_journal_bytes() {
    let spec = sharing_spec(7);
    for workers in [1, 8] {
        let reference_path = tmp(&format!("sharing_ref_{workers}.journal"));
        std::fs::remove_file(&reference_path).ok();
        let reference = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(workers),
                journal: Some(&reference_path),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            reference.completed() >= 20,
            "workers {workers}: {}",
            reference.completed()
        );
        let reference_bytes = std::fs::read(&reference_path).unwrap();
        std::fs::remove_file(&reference_path).ok();
        // Interrupts inside and on the edges of 6-cell key runs; each
        // stops at the next 4-cell wave boundary.
        for max_cells in [1u64, 6, 10, 14, 18] {
            let path = tmp(&format!("sharing_{workers}_{max_cells}.journal"));
            std::fs::remove_file(&path).ok();
            let partial = run_campaign(
                &spec,
                &RunOptions {
                    workers: Some(workers),
                    journal: Some(&path),
                    max_cells: Some(max_cells),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                partial.interrupted,
                "workers {workers} max_cells {max_cells}"
            );
            assert_eq!(partial.outcomes.len() as u64, max_cells.div_ceil(4) * 4);
            let resumed = run_campaign(
                &spec,
                &RunOptions {
                    workers: Some(workers),
                    journal: Some(&path),
                    resume: true,
                    ..Default::default()
                },
            )
            .unwrap();
            let what = format!("workers {workers} max_cells {max_cells}");
            assert_eq!(
                resumed.resumed_cells,
                partial.outcomes.len() as u64,
                "{what}"
            );
            assert_eq!(resumed.outcomes, reference.outcomes, "{what}");
            assert_eq!(
                render_results(&spec, &resumed),
                render_results(&spec, &reference),
                "{what}: rendered bytes differ"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                reference_bytes,
                "{what}: journal bytes differ"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn standalone_evaluate_agrees_with_the_shared_campaign() {
    let spec = sharing_spec(7);
    let cells = expand(&spec);
    for workers in [1, 8] {
        let result = run_campaign(
            &spec,
            &RunOptions {
                workers: Some(workers),
                ..Default::default()
            },
        )
        .unwrap();
        for (cell, outcome) in cells.iter().zip(&result.outcomes) {
            let alone = match evaluate(&spec, cell) {
                Ok(metrics) => CellOutcome::Completed {
                    cell: cell.index,
                    metrics,
                },
                Err(cause) => CellOutcome::Degraded {
                    cell: cell.index,
                    cause,
                },
            };
            assert_eq!(&alone, outcome, "workers {workers} cell {}", cell.index);
        }
    }
}
