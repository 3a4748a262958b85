//! The never-panic harness for the hardened ingest path: drive the
//! deterministic [`CorruptionPlan`] over synthetic traces at sweep corruption
//! rates and assert that lenient ingestion survives anything the fault
//! injector produces, that row conservation holds, that repair is
//! idempotent, and that the lenient readers agree with the strict ones
//! on clean input.
//!
//! Every assertion message carries the corruption plan, so any failure
//! is replayable from `(seed, plan)` alone.

use hpcfail::exec::FaultKind;
use hpcfail::prelude::*;
use std::fmt::Write as _;

use hpcfail::records::io::{read_trace, write_csv};
use hpcfail::records::quality::{audit, repair};
use proptest::prelude::*;

fn arbitrary_record() -> impl Strategy<Value = FailureRecord> {
    (
        1u32..=22,
        0u32..64,
        0u64..300_000_000,
        0u64..1_000_000,
        0usize..hpcfail::records::Workload::ALL.len(),
        0usize..hpcfail::records::DetailedCause::ALL.len(),
    )
        .prop_map(|(sys, node, start, dur, w, d)| {
            FailureRecord::new(
                SystemId::new(sys),
                NodeId::new(node),
                Timestamp::from_secs(start),
                Timestamp::from_secs(start + dur),
                hpcfail::records::Workload::ALL[w],
                hpcfail::records::DetailedCause::ALL[d],
            )
            .expect("end >= start by construction")
        })
}

/// Render a trace to its CSV bytes (the strict writer).
fn to_csv(trace: &FailureTrace) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(trace, &mut out).expect("in-memory write cannot fail");
    out
}

/// Render a trace as a LANL export with `started`/`fixed` in columns
/// 2–3, the columns the corruptor's timestamp faults aim at.
fn to_lanl_csv(trace: &FailureTrace) -> String {
    let mut out = String::from("system,node,started,fixed,node purpose,cause\n");
    for r in trace.records() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.system(),
            r.node(),
            r.start(),
            r.end(),
            r.workload(),
            r.detail()
        );
    }
    out
}

/// The strict read: [`IngestPolicy::FailFast`].
fn strict(bytes: &[u8]) -> Result<FailureTrace, RecordError> {
    read_trace(bytes, IngestPolicy::FailFast).map(|ingest| ingest.index.all().to_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lenient ingestion must survive ANY corruption rate in [0, 1] —
    /// no panic, no error, and `accepted + quarantined == data rows` —
    /// for both CSV renderings (native and LANL, told apart by the
    /// loader), and the accepted trace must be auditable and repairable
    /// without panicking either.
    #[test]
    fn lenient_ingest_survives_any_corruption(
        records in prop::collection::vec(arbitrary_record(), 0..60),
        seed in 0u64..10_000,
        rate_millis in 0u64..=1_000,
        shuffle in prop::bool::ANY,
        truncate in prop::bool::ANY,
        lanl in prop::bool::ANY,
    ) {
        let trace = FailureTrace::from_records(records);
        let mut plan = CorruptionPlan::new(seed, rate_millis as f64 / 1_000.0);
        plan.faults.shuffle = shuffle;
        plan.truncate_file = truncate;
        let (dialect, dirty) = if lanl {
            ("LANL", plan.corrupt_csv(&to_lanl_csv(&trace)))
        } else {
            ("native", plan.corrupt_trace(&trace))
        };
        let catalog = Catalog::lanl();
        for policy in [IngestPolicy::Quarantine, IngestPolicy::Repair] {
            let ingest = read_trace(dirty.as_bytes(), policy).unwrap_or_else(|e| {
                panic!("lenient {dialect} ingest errored under {plan}: {e}")
            });
            prop_assert!(
                ingest.is_conserved(),
                "{} conservation violated under {}: {} accepted + {} quarantined != {} rows",
                dialect,
                plan,
                ingest.accepted(),
                ingest.quarantine.len(),
                ingest.total_rows
            );
            if rate_millis == 0 && !truncate {
                prop_assert!(
                    ingest.accepted() == trace.len(),
                    "{} rate 0 must accept everything under {}",
                    dialect,
                    plan
                );
            }
            // The accepted records must be clean enough for the quality
            // layer to process without panicking.
            let accepted = ingest.index.all().to_trace();
            let report = audit(&accepted, &catalog);
            prop_assert_eq!(report.total_records, accepted.len());
            let outcome = repair(&accepted, &catalog);
            prop_assert!(outcome.trace.len() <= accepted.len());
        }
    }

    /// Corruption is a pure function of the plan: the same `(seed, plan)`
    /// reproduces the same dirty file, so any harness failure is
    /// replayable from the printed plan alone.
    #[test]
    fn corruption_is_replayable_from_the_plan(
        records in prop::collection::vec(arbitrary_record(), 0..40),
        seed in 0u64..10_000,
        rate_millis in 0u64..=1_000,
    ) {
        let trace = FailureTrace::from_records(records);
        let plan = CorruptionPlan::new(seed, rate_millis as f64 / 1_000.0);
        let a = plan.corrupt_trace(&trace);
        let b = plan.corrupt_trace(&trace);
        prop_assert!(a == b, "same plan must replay identically: {}", plan);
    }

    /// `repair` is idempotent: a second pass over an already-repaired
    /// trace changes nothing, record for record.
    #[test]
    fn repair_is_idempotent(
        records in prop::collection::vec(arbitrary_record(), 0..80),
    ) {
        let trace = FailureTrace::from_records(records);
        let catalog = Catalog::lanl();
        let first = repair(&trace, &catalog);
        let second = repair(&first.trace, &catalog);
        prop_assert!(!second.changed(), "second repair still changed:\n{}", second);
        prop_assert_eq!(second.trace.records(), first.trace.records());
    }

    /// On clean input the lenient readers are invisible: every policy
    /// accepts exactly what the strict reader parses, with an empty
    /// quarantine and no repairs.
    #[test]
    fn strict_and_lenient_agree_on_clean_input(
        records in prop::collection::vec(arbitrary_record(), 0..80),
    ) {
        let trace = FailureTrace::from_records(records);
        let csv = to_csv(&trace);
        let strict = strict(&csv).expect("clean csv parses strictly");
        for policy in [
            IngestPolicy::FailFast,
            IngestPolicy::Quarantine,
            IngestPolicy::Repair,
        ] {
            let ingest = read_trace(&csv, policy).expect("clean csv");
            prop_assert_eq!(&ingest.index.all().to_trace(), &strict);
            prop_assert!(ingest.quarantine.is_empty());
            prop_assert!(ingest.repaired.is_empty());
            prop_assert!(ingest.is_conserved());
        }
    }
}

/// A deterministic corruption-rate sweep over a calibrated synthetic
/// system trace — the CI smoke for the whole pipeline. Every plan is
/// printed on failure via the assertion messages.
#[test]
fn corruption_rate_sweep_on_synthetic_trace() {
    let trace =
        hpcfail::synth::scenario::system_trace(SystemId::new(12), 7).expect("synthetic trace");
    let catalog = Catalog::lanl();
    for &rate in &[0.0, 0.05, 0.25, 0.5, 0.75, 1.0] {
        for seed in 0..3u64 {
            let mut plan = CorruptionPlan::new(seed, rate);
            plan.faults.shuffle = seed % 2 == 0;
            plan.truncate_file = seed % 3 == 0;
            let dirty = plan.corrupt_trace(&trace);
            for policy in [IngestPolicy::Quarantine, IngestPolicy::Repair] {
                let ingest = read_trace(dirty.as_bytes(), policy)
                    .unwrap_or_else(|e| panic!("ingest errored under {plan}: {e}"));
                assert!(ingest.is_conserved(), "conservation violated under {plan}");
                if rate == 0.0 && !plan.truncate_file {
                    assert_eq!(
                        ingest.accepted(),
                        trace.len(),
                        "rate 0 must accept everything ({plan})"
                    );
                    assert!(ingest.quarantine.is_empty(), "{plan}");
                }
                let outcome = repair(&ingest.index.all().to_trace(), &catalog);
                let again = repair(&outcome.trace, &catalog);
                assert!(!again.changed(), "repair not idempotent under {plan}");
            }
        }
    }
}

/// Zero corruption round-trips bit-for-bit through the lenient reader:
/// write → corrupt(rate 0) → lenient read → write is a fixed point, and
/// the LANL rendering of the same trace reads back record for record.
#[test]
fn zero_rate_corruption_round_trips() {
    let trace =
        hpcfail::synth::scenario::system_trace(SystemId::new(12), 11).expect("synthetic trace");
    let plan = CorruptionPlan::new(3, 0.0);
    let dirty = plan.corrupt_trace(&trace);
    let ingest = read_trace(dirty.as_bytes(), IngestPolicy::Quarantine).expect("clean read");
    let accepted = ingest.index.all().to_trace();
    assert_eq!(accepted.records(), trace.records());
    assert_eq!(to_csv(&accepted), to_csv(&trace));
    // The LANL rendering the corruption proptest sweeps reads back
    // exactly too, so its faults start from a fully accepted file.
    let dirty = plan.corrupt_csv(&to_lanl_csv(&trace));
    let ingest = read_trace(dirty.as_bytes(), IngestPolicy::FailFast).expect("clean read");
    assert!(ingest.quarantine.is_empty());
    assert_eq!(ingest.index.all().to_trace().records(), trace.records());
}

// ---------------------------------------------------------------------
// Binary (.hpct) fault sweep: the packed-store loader must map every
// torn, truncated, bit-flipped, or version-skewed file to a typed
// StoreError — never a panic, never a checksum-passing wrong index.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single seeded binary fault on a packed store must surface as
    /// a typed error from the loader.
    #[test]
    fn corrupted_packed_stores_always_fail_typed(
        records in prop::collection::vec(arbitrary_record(), 1..60),
        seed in 0u64..100_000,
    ) {
        let trace = FailureTrace::from_records(records);
        let clean = TraceStore::to_bytes(&trace.index());
        let plan = BinaryCorruptionPlan::new(seed);
        let dirty = plan.corrupt_bytes(&clean);
        prop_assert!(dirty != clean, "fault injection was a no-op under {}", plan);
        match TraceStore::from_bytes(&dirty) {
            Err(e) => {
                // Every error renders (typed, displayable, replayable).
                prop_assert!(!e.to_string().is_empty(), "{}", plan);
            }
            Ok(loaded) => prop_assert!(
                false,
                "corruption loaded undetected under {} ({:?}, {} records)",
                plan,
                plan.fault(),
                loaded.len()
            ),
        }
    }
}

/// Deterministic per-kind sweep: each fault kind maps to the error family
/// the DESIGN.md §14 corruption-semantics table promises.
#[test]
fn binary_fault_kinds_map_to_their_error_families() {
    let trace =
        hpcfail::synth::scenario::system_trace(SystemId::new(12), 5).expect("synthetic trace");
    let clean = TraceStore::to_bytes(&trace.index());
    for seed in 0..150u64 {
        let torn = BinaryCorruptionPlan {
            seed,
            mix: FaultMix::only(BinaryFault::TornHeader),
        };
        let err = TraceStore::from_bytes(&torn.corrupt_bytes(&clean))
            .expect_err("torn header must never load");
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::BadMagic { .. }),
            "torn header under {}: {err}",
            torn
        );

        let cut = BinaryCorruptionPlan {
            seed,
            mix: FaultMix::only(BinaryFault::MidTruncate),
        };
        let err = TraceStore::from_bytes(&cut.corrupt_bytes(&clean))
            .expect_err("mid-file truncation must never load");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }
            ),
            "mid truncation under {}: {err}",
            cut
        );

        let skew = BinaryCorruptionPlan {
            seed,
            mix: FaultMix::only(BinaryFault::VersionSkew),
        };
        let err = TraceStore::from_bytes(&skew.corrupt_bytes(&clean))
            .expect_err("version skew must never load");
        assert!(
            matches!(err, StoreError::UnsupportedVersion { .. }),
            "version skew under {}: {err}",
            skew
        );

        let flips = BinaryCorruptionPlan {
            seed,
            mix: FaultMix::only(BinaryFault::BitFlips),
        };
        TraceStore::from_bytes(&flips.corrupt_bytes(&clean))
            .expect_err("bit flips must never load");
    }
}

/// The clean bytes, untouched, keep loading — the sweep above fails
/// because of the faults, not because packing is broken.
#[test]
fn clean_packed_store_loads_after_the_sweep() {
    let trace =
        hpcfail::synth::scenario::system_trace(SystemId::new(12), 5).expect("synthetic trace");
    let clean = TraceStore::to_bytes(&trace.index());
    let loaded = TraceStore::from_bytes(&clean).expect("clean store loads");
    assert_eq!(loaded, trace.index());
}

// ---------------------------------------------------------------------
// Replay pins: 64-bit digests of what the injectors emit over fixed
// plan grids. A fault plan is only replayable if its expansion never
// moves, so any change to these numbers is a change to every recorded
// replay string's meaning.
// ---------------------------------------------------------------------

/// A fixed 48-record trace built by hand, so the pins never move with
/// the synthetic generator.
fn pin_trace() -> FailureTrace {
    FailureTrace::from_records(
        (0..48u64)
            .map(|i| {
                let start = 1_000_000 + i * 7_919;
                FailureRecord::new(
                    SystemId::new(1 + (i % 22) as u32),
                    NodeId::new((i * 5 % 64) as u32),
                    Timestamp::from_secs(start),
                    Timestamp::from_secs(start + 60 + i * 311),
                    Workload::ALL[i as usize % Workload::ALL.len()],
                    DetailedCause::ALL[i as usize % DetailedCause::ALL.len()],
                )
                .expect("end >= start by construction")
            })
            .collect(),
    )
}

/// Fold a sequence of 64-bit values into one digest.
fn digest(parts: &[u64]) -> u64 {
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
    hpcfail::records::checksum(&bytes)
}

#[test]
fn corrupt_csv_replay_pin() {
    let clean = String::from_utf8(to_csv(&pin_trace())).expect("utf-8");
    let mixes =
        std::iter::once(FaultMix::uniform()).chain(Fault::ALL.iter().map(|&f| FaultMix::only(f)));
    let mut parts = Vec::new();
    for seed in 0..4u64 {
        for rate in [0.0, 0.3, 1.0] {
            for shuffle in [false, true] {
                for truncate_file in [false, true] {
                    for mix in mixes.clone() {
                        let plan = CorruptionPlan {
                            faults: FaultPlan {
                                seed,
                                rate,
                                mix,
                                shuffle,
                            },
                            truncate_file,
                        };
                        let dirty = plan.corrupt_csv(&clean);
                        parts.push(hpcfail::records::checksum(dirty.as_bytes()));
                    }
                }
            }
        }
    }
    assert_eq!(parts.len(), 336);
    let digest = digest(&parts);
    assert_eq!(
        digest, 0xf40f_b8e3_517d_fae0,
        "corrupt_csv output moved: {digest:#x}"
    );
}

#[test]
fn corrupt_bytes_replay_pin() {
    let clean: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
    let mixes = std::iter::once(FaultMix::uniform())
        .chain(BinaryFault::ALL.iter().map(|&f| FaultMix::only(f)));
    let mut parts = Vec::new();
    for mix in mixes {
        for seed in 0..64u64 {
            let dirty = BinaryCorruptionPlan { seed, mix }.corrupt_bytes(&clean);
            parts.push(hpcfail::records::checksum(&dirty));
        }
    }
    let digest = digest(&parts);
    assert_eq!(
        digest, 0x595a_064f_6618_8cfb,
        "corrupt_bytes output moved: {digest:#x}"
    );
}
