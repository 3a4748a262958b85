//! Deterministic fault injection for ingest robustness testing.
//!
//! A [`CorruptionPlan`] takes a clean CSV (or a [`FailureTrace`] it
//! first serializes) and mutates it with a configurable mix of the
//! faults real operator-entered logs exhibit: mangled fields, duplicated
//! rows, truncated lines, BOM/CRLF/encoding junk, inverted and skewed
//! timestamps, shuffled row order, and mid-file truncation. A
//! [`BinaryCorruptionPlan`] does the same for packed `.hpct` bytes.
//!
//! Both plans are built on the shared [`hpcfail_exec::fault`] core (one
//! weighted mix, one replay-string format, one seeded shuffle); this
//! module keeps only the two fault vocabularies and how each fault is
//! applied. Every mutation is drawn from SplitMix64 seed streams (the
//! same [`SeedSequence`] derivation the parallel executor uses), so a
//! corruption is exactly replayable from its plan — the robustness
//! harness prints the plan on any failure and re-running with the same
//! plan reproduces the input byte-for-byte.

use std::fmt;

use hpcfail_exec::fault::{shuffle, unit_f64};
use hpcfail_exec::{FaultKind, FaultMix, FaultPlan, SeedSequence};

use crate::io::{is_header, write_csv};
use crate::trace::FailureTrace;

/// Garbage substituted into mangled fields — the kinds of junk that show
/// up in hand-edited spreadsheets.
const GARBAGE: [&str; 7] = [
    "",
    "???",
    "-1",
    "NaN",
    "18446744073709551617",
    "gremlins",
    "0x1f",
];

/// Valid-UTF-8 encoding junk inserted by the `EncodingJunk` fault.
const JUNK: [&str; 4] = ["\u{feff}", "\r", "\u{fffd}", "caf\u{e9}"];

/// One row-level fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Replace one field with garbage text.
    MangleField,
    /// Emit the row twice.
    DuplicateRow,
    /// Cut the line at a random character boundary.
    TruncateLine,
    /// Prepend/append BOM, stray `\r`, or other valid-UTF-8 junk.
    EncodingJunk,
    /// Swap the start and end timestamp fields.
    InvertTimestamps,
    /// Shift one timestamp field by a random offset.
    SkewTimestamp,
}

impl FaultKind for Fault {
    const ALL: &'static [Fault] = &[
        Fault::MangleField,
        Fault::DuplicateRow,
        Fault::TruncateLine,
        Fault::EncodingJunk,
        Fault::InvertTimestamps,
        Fault::SkewTimestamp,
    ];

    fn name(self) -> &'static str {
        match self {
            Fault::MangleField => "mangle",
            Fault::DuplicateRow => "dup",
            Fault::TruncateLine => "trunc",
            Fault::EncodingJunk => "junk",
            Fault::InvertTimestamps => "invert",
            Fault::SkewTimestamp => "skew",
        }
    }
}

/// A complete, replayable description of one CSV corruption: the
/// row-level fault plan plus the mid-file cut. `(seed, plan)` fully
/// determines the corrupted output, and corrupting the same input with
/// the same plan always yields the same output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionPlan {
    /// Root seed, per-row fault probability, row-level fault mix, and
    /// whether the data rows are shuffled.
    pub faults: FaultPlan<Fault>,
    /// Cut the file mid-stream: drop a random tail of the data rows and
    /// chop the last surviving row in half.
    pub truncate_file: bool,
}

impl CorruptionPlan {
    /// A plan with the uniform mix, no shuffling, and no file
    /// truncation — the common starting point.
    pub fn new(seed: u64, rate: f64) -> Self {
        CorruptionPlan {
            faults: FaultPlan::new(seed, rate),
            truncate_file: false,
        }
    }

    /// Serialize `trace` with [`write_csv`] and corrupt the result.
    pub fn corrupt_trace(&self, trace: &FailureTrace) -> String {
        let mut buf = Vec::new();
        write_csv(trace, &mut buf).expect("writing to a Vec cannot fail");
        let clean = String::from_utf8(buf).expect("write_csv emits UTF-8");
        self.corrupt_csv(&clean)
    }

    /// Corrupt CSV text. Header and comment lines pass through; each
    /// data row independently receives a fault with probability
    /// `faults.rate`; then the file-level mutations (shuffle, mid-file
    /// truncation) apply.
    pub fn corrupt_csv(&self, clean: &str) -> String {
        // Child 0 seeds the per-row faults, child 1 the file-level ones,
        // so adding rows never perturbs the file-level draws.
        let seq = SeedSequence::new(self.faults.seed);
        let row_space = seq.child(0);
        let file_space = seq.child(1);

        let mut preserved: Vec<String> = Vec::new(); // header/comments, kept in place
        let mut rows: Vec<String> = Vec::new();
        let mut row_index = 0u64;
        for line in clean.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || is_header(trimmed) {
                if rows.is_empty() {
                    preserved.push(line.to_string());
                }
                continue;
            }
            let stream = row_space.child(row_index);
            row_index += 1;
            let fault = if unit_f64(stream.stream(0)) < self.faults.rate {
                self.faults.mix.pick(stream.stream(1))
            } else {
                None
            };
            match fault {
                Some(fault) => apply_fault(fault, line, &stream, &mut rows),
                None => rows.push(line.to_string()),
            }
        }

        if self.faults.shuffle {
            // One stream per position.
            let draws = file_space.child(0);
            shuffle(&mut rows, |i| draws.stream(i));
        }
        if self.truncate_file && !rows.is_empty() {
            let cut = file_space.child(1);
            let keep = 1 + (cut.stream(0) % rows.len() as u64) as usize;
            rows.truncate(keep);
            let last = rows.pop().expect("keep >= 1");
            rows.push(truncate_at_char(&last, cut.stream(1)));
        }

        let mut out = preserved;
        out.extend(rows);
        let mut text = out.join("\n");
        text.push('\n');
        text
    }
}

/// Renders `seed=… rate=… mix=[…] shuffle=… truncate_file=…`.
impl fmt::Display for CorruptionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} truncate_file={}", self.faults, self.truncate_file)
    }
}

/// Apply one row-level `fault` to `line`, drawing its parameters from
/// the row's `stream`, and push the resulting row(s) to `out`.
fn apply_fault(fault: Fault, line: &str, stream: &SeedSequence, out: &mut Vec<String>) {
    match fault {
        Fault::MangleField => {
            let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
            let idx = (stream.stream(2) % fields.len() as u64) as usize;
            let garbage = GARBAGE[(stream.stream(3) % GARBAGE.len() as u64) as usize];
            fields[idx] = garbage.to_string();
            out.push(fields.join(","));
        }
        Fault::DuplicateRow => {
            out.push(line.to_string());
            out.push(line.to_string());
        }
        Fault::TruncateLine => {
            out.push(truncate_at_char(line, stream.stream(2)));
        }
        Fault::EncodingJunk => {
            let junk = JUNK[(stream.stream(2) % JUNK.len() as u64) as usize];
            if stream.stream(3) % 2 == 0 {
                out.push(format!("{junk}{line}"));
            } else {
                out.push(format!("{line}{junk}"));
            }
        }
        Fault::InvertTimestamps => {
            let mut fields: Vec<&str> = line.split(',').collect();
            if fields.len() >= 4 {
                fields.swap(2, 3);
            }
            out.push(fields.join(","));
        }
        Fault::SkewTimestamp => {
            let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
            if fields.len() >= 4 {
                let idx = 2 + (stream.stream(2) % 2) as usize;
                if let Ok(v) = fields[idx].trim().parse::<u64>() {
                    let offset = (stream.stream(3) % 10_000) as i64 - 5_000;
                    fields[idx] = v.saturating_add_signed(offset).to_string();
                }
            }
            out.push(fields.join(","));
        }
    }
}

/// One binary-file fault kind, aimed at packed `.hpct` stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryFault {
    /// Cut the file at a random interior byte (torn write / partial
    /// download): the result is always a strict prefix.
    MidTruncate,
    /// Cut inside the first 64 bytes, tearing the header or section
    /// table itself.
    TornHeader,
    /// Flip one to four random bits anywhere in the file (bit rot,
    /// bad DMA). Flip positions are deduplicated so the output always
    /// differs from the input.
    BitFlips,
    /// Overwrite the format-version field (bytes 4..6) with a version
    /// this build does not speak — the downgrade/upgrade skew case.
    VersionSkew,
}

impl FaultKind for BinaryFault {
    const ALL: &'static [BinaryFault] = &[
        BinaryFault::MidTruncate,
        BinaryFault::TornHeader,
        BinaryFault::BitFlips,
        BinaryFault::VersionSkew,
    ];

    fn name(self) -> &'static str {
        match self {
            BinaryFault::MidTruncate => "mid_truncate",
            BinaryFault::TornHeader => "torn_header",
            BinaryFault::BitFlips => "bit_flips",
            BinaryFault::VersionSkew => "version_skew",
        }
    }
}

/// A replayable description of one binary corruption: seed plus fault
/// mix. `(seed, plan)` fully determines the corrupted bytes, exactly as
/// [`CorruptionPlan`] does for CSV. Each plan injects exactly one fault
/// (whose kind is drawn from the mix), so a sweep over seeds covers
/// every kind with every cut/flip position seeded independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryCorruptionPlan {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Relative weights of the binary fault kinds.
    pub mix: FaultMix<BinaryFault>,
}

impl BinaryCorruptionPlan {
    /// A plan with the uniform mix.
    pub fn new(seed: u64) -> Self {
        BinaryCorruptionPlan {
            seed,
            mix: FaultMix::uniform(),
        }
    }

    /// The fault kind this plan's seed selects; `None` when every
    /// weight in the mix is zero.
    pub fn fault(&self) -> Option<BinaryFault> {
        self.mix
            .pick(SeedSequence::new(self.seed).child(0).stream(0))
    }

    /// Corrupt `clean` (a packed `.hpct` image of at least 8 bytes) with
    /// one seeded fault. The output differs from the input unless every
    /// weight is zero, in which case the bytes come back unchanged.
    pub fn corrupt_bytes(&self, clean: &[u8]) -> Vec<u8> {
        assert!(clean.len() >= 8, "need at least a header prefix to corrupt");
        // Child 0 picks the fault kind, child 1 its parameters — adding
        // fault kinds never perturbs the parameter draws.
        let params = SeedSequence::new(self.seed).child(1);
        let Some(fault) = self.fault() else {
            return clean.to_vec();
        };
        match fault {
            BinaryFault::MidTruncate => {
                let keep = 1 + (params.stream(0) % (clean.len() as u64 - 1)) as usize;
                clean[..keep].to_vec()
            }
            BinaryFault::TornHeader => {
                let limit = clean.len().min(64) as u64;
                let keep = (params.stream(0) % limit) as usize;
                clean[..keep].to_vec()
            }
            BinaryFault::BitFlips => {
                let mut out = clean.to_vec();
                let flips = 1 + (params.stream(0) % 4) as usize;
                let mut done: Vec<(usize, u8)> = Vec::with_capacity(flips);
                let mut draw = 1u64;
                while done.len() < flips {
                    let byte = (params.stream(draw) % out.len() as u64) as usize;
                    let bit = (params.stream(draw + 1) % 8) as u8;
                    draw += 2;
                    if done.contains(&(byte, bit)) {
                        continue;
                    }
                    out[byte] ^= 1 << bit;
                    done.push((byte, bit));
                }
                out
            }
            BinaryFault::VersionSkew => {
                let mut out = clean.to_vec();
                let current = u16::from_le_bytes([out[4], out[5]]);
                let mut skewed = (params.stream(0) % (u16::MAX as u64 + 1)) as u16;
                if skewed == current {
                    skewed = skewed.wrapping_add(1);
                }
                out[4..6].copy_from_slice(&skewed.to_le_bytes());
                out
            }
        }
    }
}

/// Renders `seed=… mix=[…]`.
impl fmt::Display for BinaryCorruptionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={} mix={}", self.seed, self.mix)
    }
}

/// Cut `line` at a seeded character boundary (never mid-UTF-8).
fn truncate_at_char(line: &str, draw: u64) -> String {
    let boundaries: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(line.len()))
        .collect();
    let cut = boundaries[(draw % boundaries.len() as u64) as usize];
    line[..cut].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::DetailedCause;
    use crate::ids::{NodeId, SystemId};
    use crate::record::FailureRecord;
    use crate::time::Timestamp;
    use crate::workload::Workload;

    fn sample_trace(n: u64) -> FailureTrace {
        FailureTrace::from_records(
            (0..n)
                .map(|i| {
                    FailureRecord::new(
                        SystemId::new(20),
                        NodeId::new((i % 5) as u32),
                        Timestamp::from_secs(1_000 + i * 600),
                        Timestamp::from_secs(1_000 + i * 600 + 60),
                        Workload::Compute,
                        DetailedCause::Memory,
                    )
                    .unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn same_plan_same_output() {
        let trace = sample_trace(50);
        let mut plan = CorruptionPlan::new(42, 0.7);
        plan.faults.shuffle = true;
        plan.truncate_file = true;
        let a = plan.corrupt_trace(&trace);
        let b = plan.corrupt_trace(&trace);
        assert_eq!(a, b, "corruption must be replayable from (seed, plan)");
    }

    #[test]
    fn different_seeds_differ() {
        let trace = sample_trace(50);
        let a = CorruptionPlan::new(1, 0.8).corrupt_trace(&trace);
        let b = CorruptionPlan::new(2, 0.8).corrupt_trace(&trace);
        assert_ne!(a, b);
    }

    #[test]
    fn rate_zero_is_identity_on_rows() {
        let trace = sample_trace(20);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let out = CorruptionPlan::new(7, 0.0).corrupt_csv(&clean);
        assert_eq!(out, clean);
    }

    #[test]
    fn rate_one_faults_every_row() {
        let trace = sample_trace(30);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let out = CorruptionPlan::new(11, 1.0).corrupt_csv(&clean);
        assert_ne!(out, clean);
    }

    #[test]
    fn truncation_keeps_a_prefix() {
        let plan = CorruptionPlan {
            truncate_file: true,
            ..CorruptionPlan::new(3, 0.0)
        };
        let trace = sample_trace(40);
        let out = plan.corrupt_trace(&trace);
        assert!(out.lines().count() <= 41, "header + at most 40 rows");
        assert!(out.lines().count() >= 2, "keeps at least one (partial) row");
    }

    #[test]
    fn truncate_at_char_respects_boundaries() {
        let s = "caf\u{e9},mem\u{f3}ria";
        for draw in 0..64 {
            let t = truncate_at_char(s, draw);
            assert!(s.starts_with(&t));
        }
    }

    #[test]
    fn plan_display_is_replayable_documentation() {
        let plan = CorruptionPlan::new(99, 0.25);
        let text = plan.to_string();
        assert!(text.contains("seed=99"), "{text}");
        assert!(text.contains("rate=0.25"), "{text}");
        let mut plan = plan;
        plan.faults.shuffle = true;
        plan.faults.mix = plan.faults.mix.with(Fault::SkewTimestamp, 3);
        assert_eq!(
            plan.to_string(),
            "seed=99 rate=0.25 mix=[mangle:1 dup:1 trunc:1 junk:1 invert:1 skew:3] \
             shuffle=true truncate_file=false"
        );
    }

    #[test]
    fn all_zero_mixes_inject_nothing() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let none = FaultMix::only(BinaryFault::BitFlips).with(BinaryFault::BitFlips, 0);
        for seed in 0..50 {
            let plan = BinaryCorruptionPlan { seed, mix: none };
            assert_eq!(plan.fault(), None, "{plan}");
            assert_eq!(plan.corrupt_bytes(&clean), clean, "{plan}");
        }
        let mut buf = Vec::new();
        write_csv(&sample_trace(30), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut plan = CorruptionPlan::new(5, 1.0);
        plan.faults.mix = FaultMix::only(Fault::DuplicateRow).with(Fault::DuplicateRow, 0);
        assert_eq!(plan.corrupt_csv(&text), text, "{plan}");
    }

    #[test]
    fn binary_same_plan_same_output() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        for seed in 0..32 {
            let plan = BinaryCorruptionPlan::new(seed);
            let a = plan.corrupt_bytes(&clean);
            let b = plan.corrupt_bytes(&clean);
            assert_eq!(a, b, "binary corruption must replay from {plan}");
        }
    }

    #[test]
    fn binary_corruption_always_changes_the_bytes() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for seed in 0..200 {
            let c = BinaryCorruptionPlan::new(seed);
            let dirty = c.corrupt_bytes(&clean);
            assert_ne!(dirty, clean, "seed {seed} ({:?}) was a no-op", c.fault());
        }
    }

    #[test]
    fn binary_seed_sweep_covers_every_fault_kind() {
        let mut hit = [false; 4];
        for seed in 0..64 {
            let f = BinaryCorruptionPlan::new(seed).fault();
            hit[match f.expect("the uniform mix always picks") {
                BinaryFault::MidTruncate => 0,
                BinaryFault::TornHeader => 1,
                BinaryFault::BitFlips => 2,
                BinaryFault::VersionSkew => 3,
            }] = true;
        }
        assert_eq!(hit, [true; 4], "64 seeds must draw every fault kind");
    }

    #[test]
    fn binary_truncations_are_strict_prefixes() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(512).collect();
        let mix = FaultMix::only(BinaryFault::MidTruncate).with(BinaryFault::TornHeader, 1);
        for seed in 0..100 {
            let plan = BinaryCorruptionPlan { seed, mix };
            let dirty = plan.corrupt_bytes(&clean);
            assert!(dirty.len() < clean.len(), "{plan}");
            assert_eq!(&clean[..dirty.len()], &dirty[..], "{plan}");
        }
    }

    #[test]
    fn binary_version_skew_rewrites_the_version_field() {
        let clean: Vec<u8> = b"HPCT\x01\x00\x00\x00rest of header".to_vec();
        let mix = FaultMix::only(BinaryFault::VersionSkew);
        for seed in 0..50 {
            let dirty = BinaryCorruptionPlan { seed, mix }.corrupt_bytes(&clean);
            assert_eq!(dirty.len(), clean.len());
            assert_ne!(&dirty[4..6], &clean[4..6], "seed {seed}");
            assert_eq!(&dirty[..4], &clean[..4]);
            assert_eq!(&dirty[6..], &clean[6..]);
        }
    }

    #[test]
    fn binary_plan_display_documents_the_mix() {
        let text = BinaryCorruptionPlan::new(7).to_string();
        assert!(text.contains("seed=7"), "{text}");
        assert!(text.contains("bit_flips:1"), "{text}");
        assert_eq!(
            text,
            "seed=7 mix=[mid_truncate:1 torn_header:1 bit_flips:1 version_skew:1]"
        );
    }
}
