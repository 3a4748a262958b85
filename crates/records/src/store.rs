//! The binary columnar trace store (`.hpct`): a versioned, checksummed,
//! little-endian on-disk image of everything [`TraceIndex`] computes.
//!
//! CSV ingestion costs O(n log n) — parse every line, sort, rebuild every
//! posting list — and dominates process start (CLI repro, `serve` boot,
//! every reload) at large n. The store serializes the *already built*
//! index instead: the sorted record columns (start/downtime/system/node/
//! workload/detail), the per-`(system, node)` run permutation, the
//! per-system/per-cause/per-workload posting lists, and the
//! `prev_in_node` links, each as one contiguous little-endian section.
//! Opening a packed trace is then O(1) per record — read the section
//! table, verify checksums, and decode each section straight into its
//! column of the [`TraceIndex`] — no re-sort, no grouping, no
//! `BTreeMap`, and no [`crate::FailureRecord`] rows.
//!
//! # File layout (format version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "HPCT"
//! 4       2     format version (u16 LE) = 1
//! 6       2     flags (u16 LE) = 0
//! 8       8     record count n (u64 LE)
//! 16      4     section count (u32 LE) = 13
//! 20      4     reserved = 0
//! 24      28×13 section table: {id u32, offset u64, len u64, checksum u64}
//! ...           section payloads, contiguous in table order, each
//!               8-byte aligned, zero-padded
//! EOF-8   8     footer checksum (u64 LE) over the header + section table
//! ```
//!
//! Every byte is covered exactly once: the footer seals the header and
//! section table, the table's per-section checksums seal each payload,
//! and alignment padding must verify as zero. Sections must sit exactly
//! where the previous one ends (8-byte aligned) — offsets are not free
//! variables, so a shuffled or overlapping table cannot checksum clean.
//!
//! [`checksum`] is an 8-lane multiply–rotate fold: 64-byte blocks feed
//! one 8-byte LE word per lane through `(lane ^ word) * M, rol 23` (M
//! odd, so each step is a bijection of the lane state — any single
//! corrupted word is detected deterministically, not probabilistically),
//! the tail zero-padded round-robin, lanes seeded from the length and
//! combined through a SplitMix64 avalanche (the same mixer the parallel
//! executor's seed streams use — [`hpcfail_exec::splitmix64`]).
//! Order-sensitive, length-sensitive, 64-bit, and dependency-free.
//!
//! # Trust model
//!
//! A loaded file is *hostile until proven otherwise*: every torn,
//! truncated, bit-flipped, or version-skewed input must surface as a
//! typed [`StoreError`] — never a panic, never a silently wrong index.
//! The loader therefore validates in layers: structure (magic, version,
//! bounds, contiguous layout, zero padding), integrity (footer +
//! per-section checksums), and semantics (sort invariant, record ends
//! that do not overflow, run/span/posting consistency — every invariant
//! [`TraceIndex::build`] establishes is either re-checked in O(n) or
//! derived by construction) before the index is handed out.

use std::fmt;
use std::path::Path;

use hpcfail_exec::{splitmix64, GOLDEN_GAMMA};

use crate::cause::{DetailedCause, RootCause};
use crate::error::RecordError;
use crate::ids::{NodeId, SystemId};
use crate::index::{workload_slot, NodeRun, TraceIndex, NO_PREV};
use crate::time::Timestamp;
use crate::workload::Workload;

/// The 4-byte magic prefix of every `.hpct` file.
pub const HPCT_MAGIC: [u8; 4] = *b"HPCT";

/// The newest format version this build reads and the only one it
/// writes.
pub const FORMAT_VERSION: u16 = 1;

const HEADER_LEN: usize = 24;
const ENTRY_LEN: usize = 28;
const FOOTER_LEN: usize = 8;
const SECTION_COUNT: usize = 13;

/// Section ids in table order. Names double as checksum-error labels.
const SECTION_NAMES: [&str; SECTION_COUNT] = [
    "start",
    "downtime",
    "system",
    "node",
    "workload",
    "detail",
    "prev_in_node",
    "node_rows",
    "node_runs",
    "system_rows",
    "system_spans",
    "cause_rows",
    "workload_rows",
];

/// Errors surfaced by the store reader. Every malformed input maps to
/// one of these — the loader has no panic path.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The file does not begin with the `HPCT` magic.
    BadMagic {
        /// The first bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not one this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this build supports.
        supported: u16,
    },
    /// The file ends before the data it promises (torn write,
    /// mid-stream truncation).
    Truncated {
        /// Bytes the structure requires.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A stored checksum does not match the bytes (bit rot, bit flips,
    /// partial overwrite).
    ChecksumMismatch {
        /// Which checksum failed (`"footer"` or a section name).
        section: &'static str,
        /// The checksum recorded in the file.
        stored: u64,
        /// The checksum computed from the bytes.
        computed: u64,
    },
    /// The file is structurally or semantically inconsistent in some
    /// other way (bad section table, broken sort invariant, posting
    /// lists that don't describe the columns, …).
    Malformed {
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic { found } => {
                write!(f, "not an .hpct trace store (magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported .hpct format version {found} (this build reads <= {supported})"
            ),
            StoreError::Truncated { expected, got } => {
                write!(f, "truncated .hpct file: need {expected} bytes, have {got}")
            }
            StoreError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::Malformed { reason } => write!(f, "malformed .hpct file: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn malformed(reason: impl Into<String>) -> StoreError {
    StoreError::Malformed {
        reason: reason.into(),
    }
}

/// Eight-lane multiply–rotate fold over `bytes`: length-seeded,
/// word-wise, order-sensitive. The tail word is zero-padded.
///
/// Words are dealt round-robin to eight independent fold chains that
/// are combined through a SplitMix64 avalanche at the end — same
/// detection properties as a single chain (every word position feeds
/// exactly one lane, so any change or reorder perturbs the combine),
/// and the single multiply per word pipelines across the lanes instead
/// of serializing, which matters when the loader checksums tens of
/// megabytes on open.
///
/// Detection is deterministic for any corruption confined to one
/// 8-byte word (every fold step and the final combine are bijections
/// of the lane state, so a changed word can never cancel), and
/// 2^-64-probabilistic for multi-word damage; truncations additionally
/// hit the length seeding.
pub fn checksum(bytes: &[u8]) -> u64 {
    /// Odd multiplier: `(lane ^ word) * FOLD_M <<< 23` is bijective in
    /// `lane` for fixed `word` and vice versa.
    const FOLD_M: u64 = 0xA24B_AED4_963E_E407;
    #[inline(always)]
    fn fold(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(FOLD_M).rotate_left(23)
    }
    let len = bytes.len() as u64;
    let mut lanes = [0u64; 8];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = len ^ GOLDEN_GAMMA.wrapping_mul(i as u64 + 1);
    }
    let mut blocks = bytes.chunks_exact(64);
    let [mut l0, mut l1, mut l2, mut l3, mut l4, mut l5, mut l6, mut l7] = lanes;
    for block in &mut blocks {
        let b: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
        l0 = fold(l0, u64::from_le_bytes(b[0..8].try_into().expect("8")));
        l1 = fold(l1, u64::from_le_bytes(b[8..16].try_into().expect("8")));
        l2 = fold(l2, u64::from_le_bytes(b[16..24].try_into().expect("8")));
        l3 = fold(l3, u64::from_le_bytes(b[24..32].try_into().expect("8")));
        l4 = fold(l4, u64::from_le_bytes(b[32..40].try_into().expect("8")));
        l5 = fold(l5, u64::from_le_bytes(b[40..48].try_into().expect("8")));
        l6 = fold(l6, u64::from_le_bytes(b[48..56].try_into().expect("8")));
        l7 = fold(l7, u64::from_le_bytes(b[56..64].try_into().expect("8")));
    }
    lanes = [l0, l1, l2, l3, l4, l5, l6, l7];
    let rem = blocks.remainder();
    if !rem.is_empty() {
        let mut words = rem.chunks_exact(8);
        let mut i = 0;
        for c in &mut words {
            let word = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
            lanes[i] = fold(lanes[i], word);
            i += 1;
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            lanes[i] = fold(lanes[i], u64::from_le_bytes(w));
        }
    }
    // Final combine through the full SplitMix64 mix for avalanche.
    let mut h = len ^ GOLDEN_GAMMA;
    for lane in lanes {
        let mut s = h ^ lane;
        h = splitmix64(&mut s);
    }
    h
}

/// Whether `bytes` begin with the `.hpct` magic — the sniff
/// [`crate::io::read_trace`] uses to route input to the store loader
/// instead of a CSV parser.
pub(crate) fn is_packed(bytes: &[u8]) -> bool {
    bytes.len() >= HPCT_MAGIC.len() && bytes[..HPCT_MAGIC.len()] == HPCT_MAGIC
}

/// Writer/reader for the `.hpct` binary columnar trace format.
#[derive(Debug)]
pub struct TraceStore;

impl TraceStore {
    /// Serialize `index` to `path`. Returns the file size in bytes.
    ///
    /// # Errors
    ///
    /// The I/O error when the file cannot be written.
    pub fn write(index: &TraceIndex, path: impl AsRef<Path>) -> std::io::Result<u64> {
        let bytes = Self::to_bytes(index);
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Serialize `index` into an in-memory `.hpct` image.
    pub fn to_bytes(index: &TraceIndex) -> Vec<u8> {
        let n = index.len();

        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(SECTION_COUNT);
        payloads.push(encode_u64s(index.start.iter().map(|t| t.as_secs()), n));
        payloads.push(encode_u64s(index.downtime.iter().copied(), n));
        payloads.push(encode_u32s(index.system.iter().map(|s| s.get()), n));
        payloads.push(encode_u32s(index.node.iter().map(|nd| nd.get()), n));
        payloads.push(
            index
                .workload
                .iter()
                .map(|&w| workload_slot(w) as u8)
                .collect(),
        );
        payloads.push(index.detail.iter().map(|&d| detail_code(d)).collect());
        payloads.push(encode_u32s(index.prev_in_node.iter().copied(), n));
        payloads.push(encode_u32s(index.node_rows.iter().copied(), n));
        payloads.push(encode_u32s(
            index
                .node_runs
                .iter()
                .flat_map(|r| [r.system.get(), r.node.get(), r.lo, r.hi]),
            index.node_runs.len() * 4,
        ));
        payloads.push(encode_u32s(index.system_rows.iter().copied(), n));
        payloads.push(encode_u32s(
            index
                .system_spans
                .iter()
                .flat_map(|&(s, lo, hi)| [s.get(), lo, hi]),
            index.system_spans.len() * 3,
        ));
        payloads.push(encode_posting_lists(index.cause_rows.as_slice()));
        payloads.push(encode_posting_lists(index.workload_rows.as_slice()));

        let table_end = HEADER_LEN + SECTION_COUNT * ENTRY_LEN;
        let payload_start = align8(table_end);
        let mut offset = payload_start;
        let mut entries = Vec::with_capacity(SECTION_COUNT);
        for payload in &payloads {
            entries.push((offset as u64, payload.len() as u64, checksum(payload)));
            offset = align8(offset + payload.len());
        }
        let total = offset + FOOTER_LEN;

        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&HPCT_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for (id, &(off, len, sum)) in entries.iter().enumerate() {
            out.extend_from_slice(&(id as u32).to_le_bytes());
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&sum.to_le_bytes());
        }
        for payload in &payloads {
            out.resize(align8(out.len()), 0);
            out.extend_from_slice(payload);
        }
        out.resize(align8(out.len()), 0);
        // The footer seals the header and section table (which embed
        // every payload checksum), so each data byte is hashed once.
        let footer = checksum(&out[..table_end]);
        out.extend_from_slice(&footer.to_le_bytes());
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Validate and decode an in-memory `.hpct` image.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::UnsupportedVersion`] on
    /// foreign or version-skewed input, [`StoreError::Truncated`] on
    /// torn files, [`StoreError::ChecksumMismatch`] on corrupted bytes,
    /// and [`StoreError::Malformed`] when the decoded sections do not
    /// describe a consistent index.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceIndex, StoreError> {
        let min = HEADER_LEN + FOOTER_LEN;
        if bytes.len() < min {
            return Err(StoreError::Truncated {
                expected: min as u64,
                got: bytes.len() as u64,
            });
        }
        if !is_packed(bytes) {
            let mut found = [0u8; 4];
            found.copy_from_slice(&bytes[..4]);
            return Err(StoreError::BadMagic { found });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        if flags != 0 {
            return Err(malformed(format!("unknown header flags {flags:#06x}")));
        }
        let n64 = read_u64(bytes, 8);
        let n: usize = usize::try_from(n64)
            .ok()
            .filter(|&n| u32::try_from(n).is_ok())
            .ok_or_else(|| malformed(format!("record count {n64} exceeds u32 rows")))?;
        let section_count = read_u32(bytes, 16) as usize;
        if section_count != SECTION_COUNT {
            return Err(malformed(format!(
                "expected {SECTION_COUNT} sections, header declares {section_count}"
            )));
        }
        let table_end = HEADER_LEN + SECTION_COUNT * ENTRY_LEN;
        if bytes.len() < table_end + FOOTER_LEN {
            return Err(StoreError::Truncated {
                expected: (table_end + FOOTER_LEN) as u64,
                got: bytes.len() as u64,
            });
        }

        // Metadata integrity before trusting any offsets further: the
        // footer seals the header and section table, and the table in
        // turn embeds every payload checksum — each data byte is hashed
        // exactly once on open.
        let body_end = bytes.len() - FOOTER_LEN;
        let stored_footer = read_u64(bytes, body_end);
        let computed_footer = checksum(&bytes[..table_end]);
        if stored_footer != computed_footer {
            return Err(StoreError::ChecksumMismatch {
                section: "footer",
                stored: stored_footer,
                computed: computed_footer,
            });
        }

        // Section table: ids in order, payloads contiguous in id order
        // (offsets are fully determined, so no byte of the body is
        // outside a section or its checked zero padding) and verified.
        let mut sections: Vec<&[u8]> = Vec::with_capacity(SECTION_COUNT);
        let mut expected_off = align8(table_end);
        if bytes[table_end..expected_off.min(body_end)]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(malformed("nonzero padding after the section table"));
        }
        for (i, name) in SECTION_NAMES.into_iter().enumerate() {
            let base = HEADER_LEN + i * ENTRY_LEN;
            let id = read_u32(bytes, base);
            if id as usize != i {
                return Err(malformed(format!(
                    "section table entry {i} has id {id} (expected {i})"
                )));
            }
            let off = read_u64(bytes, base + 4);
            let len = read_u64(bytes, base + 12);
            let sum = read_u64(bytes, base + 20);
            if off != expected_off as u64 {
                return Err(malformed(format!(
                    "section {} at offset {off}, expected {expected_off}",
                    name
                )));
            }
            let end = off
                .checked_add(len)
                .ok_or_else(|| malformed(format!("section {i} offset overflow")))?;
            if end > body_end as u64 {
                return Err(StoreError::Truncated {
                    expected: end + FOOTER_LEN as u64,
                    got: bytes.len() as u64,
                });
            }
            let payload = &bytes[off as usize..end as usize];
            let computed = checksum(payload);
            if computed != sum {
                return Err(StoreError::ChecksumMismatch {
                    section: name,
                    stored: sum,
                    computed,
                });
            }
            let padded_end = align8(end as usize);
            if bytes[end as usize..padded_end.min(body_end)]
                .iter()
                .any(|&b| b != 0)
            {
                return Err(malformed(format!("nonzero padding after section {}", name)));
            }
            expected_off = padded_end;
            sections.push(payload);
        }
        if expected_off != body_end {
            return Err(StoreError::Truncated {
                expected: (expected_off + FOOTER_LEN) as u64,
                got: bytes.len() as u64,
            });
        }

        decode_sections(&sections, n)
    }
}

// --- encoding helpers -------------------------------------------------

fn align8(v: usize) -> usize {
    (v + 7) & !7
}

fn encode_u64s(values: impl Iterator<Item = u64>, count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(count * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_u32s(values: impl Iterator<Item = u32>, count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(count * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Fixed-arity posting-list family: per-list u64 lengths, then the
/// concatenated u32 row indices.
fn encode_posting_lists(lists: &[Vec<u32>]) -> Vec<u8> {
    let rows: usize = lists.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(lists.len() * 8 + rows * 4);
    for list in lists {
        out.extend_from_slice(&(list.len() as u64).to_le_bytes());
    }
    for list in lists {
        for &r in list {
            out.extend_from_slice(&r.to_le_bytes());
        }
    }
    out
}

fn detail_code(d: DetailedCause) -> u8 {
    DetailedCause::ALL
        .iter()
        .position(|&x| x == d)
        .expect("every detail is in ALL") as u8
}

// --- decoding helpers -------------------------------------------------

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds pre-checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds pre-checked"))
}

/// Decode a fixed-count u64 column straight into its typed form.
fn decode_u64s_map<T>(
    payload: &[u8],
    count: usize,
    name: &str,
    f: impl Fn(u64) -> T,
) -> Result<Vec<T>, StoreError> {
    if payload.len() != count * 8 {
        return Err(malformed(format!(
            "section {name}: {} bytes, expected {}",
            payload.len(),
            count * 8
        )));
    }
    Ok(payload
        .chunks_exact(8)
        .map(|c| f(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))))
        .collect())
}

/// Decode a fixed-count u32 column straight into its typed form.
fn decode_u32s_map<T>(
    payload: &[u8],
    count: usize,
    name: &str,
    f: impl Fn(u32) -> T,
) -> Result<Vec<T>, StoreError> {
    if payload.len() != count * 4 {
        return Err(malformed(format!(
            "section {name}: {} bytes, expected {}",
            payload.len(),
            count * 4
        )));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| f(u32::from_le_bytes(c.try_into().expect("chunks_exact(4)"))))
        .collect())
}

fn decode_u32s(payload: &[u8], name: &str) -> Result<Vec<u32>, StoreError> {
    if !payload.len().is_multiple_of(4) {
        return Err(malformed(format!(
            "section {name}: {} bytes is not a whole number of u32s",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
        .collect())
}

/// Decode the fixed-arity posting-list family written by
/// [`encode_posting_lists`], checking that the lengths sum to `n`.
fn decode_posting_lists<const K: usize>(
    payload: &[u8],
    n: usize,
    name: &str,
) -> Result<[Vec<u32>; K], StoreError> {
    if payload.len() < K * 8 {
        return Err(malformed(format!("section {name}: missing length prefix")));
    }
    let mut lens = [0usize; K];
    let mut total: usize = 0;
    for (i, len) in lens.iter_mut().enumerate() {
        let l = read_u64(payload, i * 8);
        *len = usize::try_from(l).ok().filter(|&l| l <= n).ok_or_else(|| {
            malformed(format!("section {name}: list {i} length {l} out of range"))
        })?;
        total += *len;
    }
    if total != n {
        return Err(malformed(format!(
            "section {name}: list lengths sum to {total}, expected {n}"
        )));
    }
    if payload.len() != K * 8 + total * 4 {
        return Err(malformed(format!(
            "section {name}: {} bytes, expected {}",
            payload.len(),
            K * 8 + total * 4
        )));
    }
    let mut out: [Vec<u32>; K] = std::array::from_fn(|_| Vec::new());
    let mut at = K * 8;
    for (i, len) in lens.iter().enumerate() {
        out[i] = decode_u32s(&payload[at..at + len * 4], name)?;
        at += len * 4;
    }
    Ok(out)
}

/// Check that a posting list ascends strictly, stays in bounds, and
/// that each row satisfies `matches`.
fn check_posting(
    rows: &[u32],
    n: u32,
    name: &str,
    list: usize,
    mut matches: impl FnMut(u32) -> bool,
) -> Result<(), StoreError> {
    let mut prev: Option<u32> = None;
    for &r in rows {
        if r >= n {
            return Err(malformed(format!(
                "section {name}: list {list} row {r} out of bounds ({n} rows)"
            )));
        }
        if let Some(p) = prev {
            if r <= p {
                return Err(malformed(format!(
                    "section {name}: list {list} rows not strictly ascending at {r}"
                )));
            }
        }
        if !matches(r) {
            return Err(malformed(format!(
                "section {name}: list {list} row {r} does not belong to this list"
            )));
        }
        prev = Some(r);
    }
    Ok(())
}

/// Decode all verified section payloads into a consistent
/// [`TraceIndex`], re-checking every invariant the in-memory builder
/// establishes.
fn decode_sections(sections: &[&[u8]], n: usize) -> Result<TraceIndex, StoreError> {
    let n32 = n as u32;
    let start: Vec<Timestamp> = decode_u64s_map(sections[0], n, "start", Timestamp::from_secs)?;
    let downtime: Vec<u64> = decode_u64s_map(sections[1], n, "downtime", |v| v)?;
    let system: Vec<SystemId> = decode_u32s_map(sections[2], n, "system", SystemId::new)?;
    let node: Vec<NodeId> = decode_u32s_map(sections[3], n, "node", NodeId::new)?;
    let workload_raw = sections[4];
    if workload_raw.len() != n {
        return Err(malformed(format!(
            "section workload: {} bytes, expected {n}",
            workload_raw.len()
        )));
    }
    let detail_raw = sections[5];
    if detail_raw.len() != n {
        return Err(malformed(format!(
            "section detail: {} bytes, expected {n}",
            detail_raw.len()
        )));
    }
    let prev_in_node = decode_u32s_map(sections[6], n, "prev_in_node", |v| v)?;
    let node_rows = decode_u32s_map(sections[7], n, "node_rows", |v| v)?;
    let node_runs_raw = decode_u32s(sections[8], "node_runs")?;
    if node_runs_raw.len() % 4 != 0 {
        return Err(malformed("section node_runs: not a whole number of runs"));
    }
    let system_rows = decode_u32s_map(sections[9], n, "system_rows", |v| v)?;
    let system_spans_raw = decode_u32s(sections[10], "system_spans")?;
    if system_spans_raw.len() % 3 != 0 {
        return Err(malformed(
            "section system_spans: not a whole number of spans",
        ));
    }
    let cause_rows: [Vec<u32>; 6] = decode_posting_lists(sections[11], n, "cause_rows")?;
    let workload_rows: [Vec<u32>; 3] = decode_posting_lists(sections[12], n, "workload_rows")?;

    // Columns: validate the enum codes with tight passes over the
    // one-byte columns, then check the sort invariant and the record
    // intervals in one pass.
    if let Some(i) = workload_raw
        .iter()
        .position(|&b| (b as usize) >= Workload::ALL.len())
    {
        return Err(malformed(format!(
            "row {i}: workload code {}",
            workload_raw[i]
        )));
    }
    if let Some(i) = detail_raw
        .iter()
        .position(|&b| (b as usize) >= DetailedCause::ALL.len())
    {
        return Err(malformed(format!("row {i}: detail code {}", detail_raw[i])));
    }
    let workload: Vec<Workload> = workload_raw
        .iter()
        .map(|&w| Workload::ALL[w as usize])
        .collect();
    let detail: Vec<DetailedCause> = detail_raw
        .iter()
        .map(|&d| DetailedCause::ALL[d as usize])
        .collect();
    let cause: Vec<RootCause> = detail.iter().map(|d| d.category()).collect();
    // Length equalities are already guaranteed by the decoders; restated
    // here so the loop below compiles without per-row bounds checks.
    assert!(start.len() == n && downtime.len() == n && system.len() == n && node.len() == n);
    // The (start, system, node) sort key packs losslessly into one
    // u128, turning the per-row invariant check into a single compare;
    // seeding with the minimum key accepts any first row.
    let pack_key = |s: u64, sys: SystemId, nd: NodeId| -> u128 {
        ((s as u128) << 64) | ((sys.get() as u128) << 32) | nd.get() as u128
    };
    let mut prev_key = 0u128;
    for i in 0..n {
        let s_secs = start[i].as_secs();
        let key = pack_key(s_secs, system[i], node[i]);
        if prev_key > key {
            return Err(malformed(format!(
                "rows {}..{i} violate the (start, system, node) sort invariant",
                i - 1
            )));
        }
        prev_key = key;
        // A record ends at `start + downtime`; a sum past `u64::MAX`
        // would wrap to an end before the start.
        if s_secs.checked_add(downtime[i]).is_none() {
            return Err(malformed(format!(
                "row {i}: {}",
                RecordError::EndBeforeStart
            )));
        }
    }

    // Node runs: a contiguous, key-ascending partition of `node_rows`
    // whose every run matches the columns, with `prev_in_node` exactly
    // the within-run predecessor links. Validated in two cache-friendly
    // passes: scatter each row's run id (catching duplicates via the
    // sentinel — the run bounds partition [0, n), so n scatter targets
    // with no repeats is a permutation), then verify columns and links
    // in one sequential sweep where every array but the tiny per-run
    // cursors streams in order.
    const NO_RUN: u32 = u32::MAX;
    let mut node_runs = Vec::with_capacity(node_runs_raw.len() / 4);
    let mut run_of_row = vec![NO_RUN; n];
    let mut expect_lo: u32 = 0;
    let mut prev_key: Option<(u32, u32)> = None;
    for (run_idx, chunk) in node_runs_raw.chunks_exact(4).enumerate() {
        let (sys, nd, lo, hi) = (chunk[0], chunk[1], chunk[2], chunk[3]);
        if lo != expect_lo || hi <= lo || hi > n32 {
            return Err(malformed(format!(
                "node run {run_idx}: bad bounds [{lo}, {hi}) (expected lo {expect_lo}, n {n})"
            )));
        }
        if let Some(pk) = prev_key {
            if pk >= (sys, nd) {
                return Err(malformed(format!(
                    "node run {run_idx}: keys not strictly ascending"
                )));
            }
        }
        let rows = &node_rows[lo as usize..hi as usize];
        let mut prev_row = NO_PREV;
        for &r in rows {
            if r >= n32 {
                return Err(malformed(format!(
                    "node run {run_idx}: row {r} out of bounds"
                )));
            }
            if prev_row != NO_PREV && r <= prev_row {
                return Err(malformed(format!(
                    "node run {run_idx}: rows not strictly ascending at {r}"
                )));
            }
            let ri = r as usize;
            if run_of_row[ri] != NO_RUN {
                return Err(malformed(format!(
                    "node run {run_idx}: row {r} appears twice in node_rows"
                )));
            }
            run_of_row[ri] = run_idx as u32;
            prev_row = r;
        }
        node_runs.push(NodeRun {
            system: SystemId::new(sys),
            node: NodeId::new(nd),
            lo,
            hi,
        });
        expect_lo = hi;
        prev_key = Some((sys, nd));
    }
    if expect_lo != n32 {
        return Err(malformed(format!(
            "node runs cover {expect_lo} of {n} node_rows entries"
        )));
    }
    let mut last_in_run = vec![NO_PREV; node_runs.len()];
    for i in 0..n {
        let k = run_of_row[i] as usize;
        // Unreachable in principle (the runs partition [0, n) with no
        // duplicate rows), kept as a typed guard rather than a panic.
        let run = node_runs
            .get(k)
            .ok_or_else(|| malformed(format!("row {i}: not covered by any node run")))?;
        if system[i] != run.system || node[i] != run.node {
            return Err(malformed(format!(
                "node run {k}: row {i} belongs to a different (system, node)"
            )));
        }
        if prev_in_node[i] != last_in_run[k] {
            return Err(malformed(format!(
                "row {i}: prev_in_node {} disagrees with its run (expected {})",
                prev_in_node[i], last_in_run[k]
            )));
        }
        last_in_run[k] = i as u32;
    }

    // System spans: same discipline over `system_rows`.
    let mut system_spans = Vec::with_capacity(system_spans_raw.len() / 3);
    let mut expect_lo: u32 = 0;
    let mut prev_sys: Option<u32> = None;
    for (span_idx, chunk) in system_spans_raw.chunks_exact(3).enumerate() {
        let (sys, lo, hi) = (chunk[0], chunk[1], chunk[2]);
        if lo != expect_lo || hi <= lo || hi > n32 {
            return Err(malformed(format!(
                "system span {span_idx}: bad bounds [{lo}, {hi})"
            )));
        }
        if let Some(p) = prev_sys {
            if p >= sys {
                return Err(malformed(format!(
                    "system span {span_idx}: ids not strictly ascending"
                )));
            }
        }
        check_posting(
            &system_rows[lo as usize..hi as usize],
            n32,
            "system_rows",
            span_idx,
            |r| system[r as usize] == SystemId::new(sys),
        )?;
        system_spans.push((SystemId::new(sys), lo, hi));
        expect_lo = hi;
        prev_sys = Some(sys);
    }
    if expect_lo != n32 {
        return Err(malformed(format!(
            "system spans cover {expect_lo} of {n} system_rows entries"
        )));
    }

    // Cause and workload posting lists must describe the columns.
    for (c, rows) in cause_rows.iter().enumerate() {
        check_posting(rows, n32, "cause_rows", c, |r| {
            cause[r as usize].index() == c
        })?;
    }
    for (w, rows) in workload_rows.iter().enumerate() {
        check_posting(rows, n32, "workload_rows", w, |r| {
            workload_slot(workload[r as usize]) == w
        })?;
    }

    Ok(TraceIndex {
        start,
        downtime,
        system,
        node,
        cause,
        detail,
        workload,
        prev_in_node,
        node_rows,
        node_runs,
        system_rows,
        system_spans,
        cause_rows,
        workload_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FailureRecord;
    use crate::trace::FailureTrace;

    fn rec(system: u32, node: u32, start: u64, dur: u64, w: usize, d: usize) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(system),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(start + dur),
            Workload::ALL[w],
            DetailedCause::ALL[d],
        )
        .unwrap()
    }

    fn sample_trace(n: u64) -> FailureTrace {
        FailureTrace::from_records(
            (0..n)
                .map(|i| {
                    rec(
                        1 + (i % 3) as u32,
                        (i % 7) as u32,
                        1_000 + i * 311 % 90_000,
                        60 + i % 900,
                        (i % 3) as usize,
                        (i % 15) as usize,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn round_trip_is_element_identical() {
        for n in [0u64, 1, 2, 50, 500] {
            let trace = sample_trace(n);
            let index = trace.index();
            let bytes = TraceStore::to_bytes(&index);
            let loaded = TraceStore::from_bytes(&bytes).unwrap();
            assert_eq!(loaded, index, "n={n}");
            assert_eq!(loaded.all().to_trace(), trace, "n={n}");
            // The benchmark's adapter pair hands back the real rows and
            // the same index.
            let (rows, parts) = loaded.into_parts();
            assert_eq!(rows, trace, "n={n}");
            assert_eq!(TraceIndex::from_parts(&rows, parts), index, "n={n}");
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let trace = sample_trace(120);
        let index = trace.index();
        assert_eq!(TraceStore::to_bytes(&index), TraceStore::to_bytes(&index));
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = TraceStore::from_bytes(b"system,node,start_secs,end_secs,workload,cause\n")
            .unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn version_skew_is_typed() {
        let trace = sample_trace(10);
        let mut bytes = TraceStore::to_bytes(&trace.index());
        bytes[4] = 0x2a;
        bytes[5] = 0x00;
        let err = TraceStore::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found: 42, .. }),
            "{err}"
        );
    }

    #[test]
    fn every_strict_prefix_fails_typed() {
        let trace = sample_trace(25);
        let bytes = TraceStore::to_bytes(&trace.index());
        for cut in 0..bytes.len() {
            let err = TraceStore::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::Malformed { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_fails_typed() {
        let trace = sample_trace(30);
        let bytes = TraceStore::to_bytes(&trace.index());
        // Exhaustive over bytes, one bit each, is plenty at this size.
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 1 << (i % 8);
            let err = TraceStore::from_bytes(&dirty)
                .err()
                .unwrap_or_else(|| panic!("bit flip at byte {i} loaded undetected"));
            let _ = err.to_string();
        }
    }

    #[test]
    fn checksum_is_order_and_length_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b"a"), checksum(b"a\0"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_eq!(checksum(b"hpct"), checksum(b"hpct"));
    }

    /// Offset and length of section `name`'s payload in a clean image.
    fn section_span(bytes: &[u8], name: &str) -> (usize, usize) {
        let i = SECTION_NAMES.iter().position(|&s| s == name).unwrap();
        let base = HEADER_LEN + i * ENTRY_LEN;
        (
            read_u64(bytes, base + 4) as usize,
            read_u64(bytes, base + 12) as usize,
        )
    }

    /// A section's payload as u32 words.
    fn section_u32s(bytes: &[u8], name: &str) -> Vec<u32> {
        let (off, len) = section_span(bytes, name);
        decode_u32s(&bytes[off..off + len], name).unwrap()
    }

    /// Rewrite section `name` of a clean image in place with `edit`, then
    /// re-seal that section's table checksum and the footer: a forged
    /// file that passes every integrity check, so only the semantic
    /// checks of the decoder stand between it and a loaded index.
    fn forge(bytes: &[u8], name: &str, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let (off, len) = section_span(&out, name);
        edit(&mut out[off..off + len]);
        let sum = checksum(&out[off..off + len]);
        let i = SECTION_NAMES.iter().position(|&s| s == name).unwrap();
        let base = HEADER_LEN + i * ENTRY_LEN;
        out[base + 20..base + 28].copy_from_slice(&sum.to_le_bytes());
        let table_end = HEADER_LEN + SECTION_COUNT * ENTRY_LEN;
        let footer = checksum(&out[..table_end]);
        let at = out.len() - FOOTER_LEN;
        out[at..].copy_from_slice(&footer.to_le_bytes());
        out
    }

    fn set_u32(payload: &mut [u8], word: usize, v: u32) {
        payload[word * 4..word * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn set_u64(payload: &mut [u8], word: usize, v: u64) {
        payload[word * 8..word * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn assert_malformed(bytes: &[u8], reason: &str) {
        match TraceStore::from_bytes(bytes) {
            Err(StoreError::Malformed { reason: got }) => {
                assert!(got.contains(reason), "{got:?} lacks {reason:?}")
            }
            other => panic!("expected Malformed({reason:?}), got {other:?}"),
        }
    }

    /// Replace one entry of a strictly ascending posting list with a row
    /// that keeps it ascending but fails `belongs`; returns the word
    /// index and the replacement.
    fn foreign_row(list: &[u32], n: u32, belongs: impl Fn(u32) -> bool) -> (usize, u32) {
        for (k, _) in list.iter().enumerate() {
            let lo = if k == 0 { 0 } else { list[k - 1] + 1 };
            let hi = list.get(k + 1).copied().unwrap_or(n);
            if let Some(r) = (lo..hi).find(|&r| !belongs(r)) {
                return (k, r);
            }
        }
        panic!("no foreign row fits the list");
    }

    #[test]
    fn forged_stores_fail_every_semantic_check() {
        let trace = sample_trace(60);
        let clean = TraceStore::to_bytes(&trace.index());
        assert!(TraceStore::from_bytes(&clean).is_ok());
        let records = trace.records();
        let n = records.len() as u32;

        // Row 5 starts before row 4.
        let early = records[4].start().as_secs() - 1;
        assert_malformed(
            &forge(&clean, "start", |p| set_u64(p, 5, early)),
            "rows 4..5 violate the (start, system, node) sort invariant",
        );
        // `start + downtime` wraps, so the end falls before the start.
        let wrap = u64::MAX - records[3].start().as_secs() + 1;
        assert_malformed(
            &forge(&clean, "downtime", |p| set_u64(p, 3, wrap)),
            "row 3: failure end time precedes its start time",
        );
        assert_malformed(
            &forge(&clean, "workload", |p| p[7] = 3),
            "row 7: workload code 3",
        );
        assert_malformed(
            &forge(&clean, "detail", |p| p[9] = 200),
            "row 9: detail code 200",
        );
        // Run 1 claims to start one entry late.
        assert_malformed(
            &forge(&clean, "node_runs", |p| {
                let lo = read_u32(p, 4 * 4 + 8);
                set_u32(p, 4 + 2, lo + 1);
            }),
            "node run 1: bad bounds",
        );
        // Row 0 is listed again as the first row of a run that does not
        // hold it (still ascending there, since nothing precedes row 0).
        let runs = section_u32s(&clean, "node_runs");
        let node_rows = section_u32s(&clean, "node_rows");
        let lo = runs
            .chunks_exact(4)
            .map(|c| c[2] as usize)
            .find(|&lo| node_rows[lo] != 0)
            .unwrap();
        assert_malformed(
            &forge(&clean, "node_rows", |p| set_u32(p, lo, 0)),
            "row 0 appears twice in node_rows",
        );
        // Row 10's predecessor link points somewhere else.
        let prev = section_u32s(&clean, "prev_in_node");
        let wrong = if prev[10] == 0 { 1 } else { 0 };
        assert_malformed(
            &forge(&clean, "prev_in_node", |p| set_u32(p, 10, wrong)),
            "row 10: prev_in_node",
        );
        // System span 0 lists a row of another system.
        let spans = section_u32s(&clean, "system_spans");
        let system_rows = section_u32s(&clean, "system_rows");
        let (sys, hi) = (SystemId::new(spans[0]), spans[2] as usize);
        let (k, r) = foreign_row(&system_rows[..hi], n, |r| {
            records[r as usize].system() == sys
        });
        assert_malformed(
            &forge(&clean, "system_rows", |p| set_u32(p, k, r)),
            &format!("section system_rows: list 0 row {r} does not belong"),
        );
        // Cause list 0 lists a row of another cause; its rows follow the
        // six u64 length words.
        let (off, len) = section_span(&clean, "cause_rows");
        let first_len = read_u64(&clean, off) as usize;
        let words = decode_u32s(&clean[off + 48..off + len], "cause_rows").unwrap();
        let (k, r) = foreign_row(&words[..first_len], n, |r| {
            records[r as usize].cause().index() == 0
        });
        assert_malformed(
            &forge(&clean, "cause_rows", |p| set_u32(p, 12 + k, r)),
            &format!("section cause_rows: list 0 row {r} does not belong"),
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("hpcfail_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.hpct");
        let trace = sample_trace(64);
        let index = trace.index();
        let size = TraceStore::write(&index, &path).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        let bytes = std::fs::read(&path).unwrap();
        let loaded = TraceStore::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.all().to_trace(), trace);
        assert!(is_packed(&bytes));
    }
}
