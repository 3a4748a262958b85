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
//! the index builder establishes is either re-checked in O(n) or
//! derived by construction) before the index is handed out.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
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
/// Header and section table, then the zero padding before the first
/// section.
const TABLE_END: usize = HEADER_LEN + SECTION_COUNT * ENTRY_LEN;
const HEAD_LEN: usize = align8(TABLE_END);

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

/// Odd multiplier: `(lane ^ word) * FOLD_M <<< 23` is bijective in
/// `lane` for fixed `word` and vice versa.
const FOLD_M: u64 = 0xA24B_AED4_963E_E407;

#[inline(always)]
fn fold(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(FOLD_M).rotate_left(23)
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
///
/// One call over all the bytes; [`Checksum`] is the same fold fed in
/// pieces.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut state = Checksum::new(bytes.len() as u64);
    state.update(bytes);
    state.finish()
}

/// The state of a [`checksum`] fed piece by piece, as the loader feeds
/// each section while its bytes stream in. The result equals
/// [`checksum`] over the concatenation of the pieces.
///
/// The total length seeds the lanes, so it is fixed up front. Every
/// piece but the last must be a whole number of 64-byte blocks; the
/// last may end anywhere.
#[derive(Debug, Clone)]
pub struct Checksum {
    len: u64,
    fed: u64,
    lanes: [u64; 8],
}

impl Checksum {
    /// A checksum over `len` bytes still to be fed.
    pub fn new(len: u64) -> Checksum {
        Checksum {
            len,
            fed: 0,
            lanes: std::array::from_fn(|i| len ^ GOLDEN_GAMMA.wrapping_mul(i as u64 + 1)),
        }
    }

    /// Fold in the next `bytes`.
    ///
    /// # Panics
    ///
    /// If an earlier piece was not a whole number of 64-byte blocks.
    pub fn update(&mut self, bytes: &[u8]) {
        assert!(
            self.fed.is_multiple_of(64),
            "only the last piece may end inside a 64-byte block"
        );
        self.fed += bytes.len() as u64;
        let mut blocks = bytes.chunks_exact(64);
        let [mut l0, mut l1, mut l2, mut l3, mut l4, mut l5, mut l6, mut l7] = self.lanes;
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
        self.lanes = [l0, l1, l2, l3, l4, l5, l6, l7];
        let rem = blocks.remainder();
        if !rem.is_empty() {
            let mut words = rem.chunks_exact(8);
            let mut i = 0;
            for c in &mut words {
                let word = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
                self.lanes[i] = fold(self.lanes[i], word);
                i += 1;
            }
            let tail = words.remainder();
            if !tail.is_empty() {
                let mut w = [0u8; 8];
                w[..tail.len()].copy_from_slice(tail);
                self.lanes[i] = fold(self.lanes[i], u64::from_le_bytes(w));
            }
        }
    }

    /// The digest of every byte fed.
    pub fn finish(self) -> u64 {
        debug_assert_eq!(self.fed, self.len, "fed a different length than declared");
        // Final combine through the full SplitMix64 mix for avalanche.
        let mut h = self.len ^ GOLDEN_GAMMA;
        for lane in self.lanes {
            let mut s = h ^ lane;
            h = splitmix64(&mut s);
        }
        h
    }
}

/// Whether `bytes` begin with the `.hpct` magic — the sniff
/// [`crate::io::read_trace`] and [`crate::io::open_trace`] use to route
/// input to the store loader instead of a CSV parser.
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

        let payload_start = HEAD_LEN;
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
        let footer = checksum(&out[..TABLE_END]);
        out.extend_from_slice(&footer.to_le_bytes());
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Validate and decode an in-memory `.hpct` image: the one decoder
    /// a file open also runs, reading the slice chunk by chunk in place.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::UnsupportedVersion`] on
    /// foreign or version-skewed input, [`StoreError::Truncated`] on
    /// torn files, [`StoreError::ChecksumMismatch`] on corrupted bytes,
    /// and [`StoreError::Malformed`] when the decoded sections do not
    /// describe a consistent index.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceIndex, StoreError> {
        let mut src = bytes;
        decode(&mut src)
    }
}

/// Open the packed store in `file` through one [`CHUNK`]-byte buffer:
/// the bytes [`TraceStore::from_bytes`] would decode, read and decoded
/// piece by piece, with no image of the whole file.
///
/// The outer error is a failed read; the inner one is the typed
/// [`StoreError`] that [`TraceStore::from_bytes`] returns for the same
/// bytes. A file that shrinks while it is read is
/// [`StoreError::Truncated`].
pub(crate) fn read_file(file: File) -> io::Result<Result<TraceIndex, StoreError>> {
    let size = file.metadata()?.len();
    let mut src = FileSource {
        file,
        size,
        pos: None,
        buf: vec![0; CHUNK],
    };
    match decode(&mut src) {
        Ok(index) => Ok(Ok(index)),
        Err(ReadError::Store(e)) => Ok(Err(e)),
        Err(ReadError::Io(e)) => Err(e),
    }
}

/// Read until `buf` is full or `r` ends; returns the bytes read.
pub(crate) fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

// --- encoding helpers -------------------------------------------------

const fn align8(v: usize) -> usize {
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

// --- decoding ---------------------------------------------------------

/// The most bytes the decoder asks its source for at once: one section
/// piece, hashed and decoded while it is in cache. A multiple of 64, so
/// every piece but a section's last is whole checksum blocks.
const CHUNK: usize = 64 * 1024;

/// Where the decoder's bytes come from. Every read lies inside
/// `[0, size)` and is at most [`CHUNK`] bytes long.
trait Source {
    /// What a failed read is: a [`StoreError`], or more.
    type Error: From<StoreError>;
    /// The total length in bytes.
    fn size(&self) -> u64;
    /// The `want` bytes at offset `at`.
    fn read_at(&mut self, at: u64, want: usize) -> Result<&[u8], Self::Error>;
}

/// An in-memory image: reads borrow it in place.
impl Source for &[u8] {
    type Error = StoreError;

    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_at(&mut self, at: u64, want: usize) -> Result<&[u8], StoreError> {
        let at = at as usize;
        Ok(&self[at..at + want])
    }
}

/// A file read through one reused chunk buffer.
struct FileSource {
    file: File,
    /// The length when opened.
    size: u64,
    /// The file cursor, when known.
    pos: Option<u64>,
    buf: Vec<u8>,
}

enum ReadError {
    Io(io::Error),
    Store(StoreError),
}

impl From<StoreError> for ReadError {
    fn from(e: StoreError) -> ReadError {
        ReadError::Store(e)
    }
}

impl Source for FileSource {
    type Error = ReadError;

    fn size(&self) -> u64 {
        self.size
    }

    fn read_at(&mut self, at: u64, want: usize) -> Result<&[u8], ReadError> {
        if self.pos != Some(at) {
            self.file.seek(SeekFrom::Start(at)).map_err(ReadError::Io)?;
        }
        let got = read_full(&mut self.file, &mut self.buf[..want]).map_err(ReadError::Io)?;
        self.pos = Some(at + got as u64);
        if got < want {
            // The file shrank after its length was taken.
            let now = self.file.metadata().map_err(ReadError::Io)?.len();
            return Err(StoreError::Truncated {
                expected: self.size,
                got: now,
            }
            .into());
        }
        Ok(&self.buf[..want])
    }
}

/// The one `.hpct` decoder. It validates in the order the module docs
/// give and decodes each section into its column as the section's
/// pieces arrive, so no byte is read twice and no image of the whole
/// input is held.
///
/// A section is decoded before its checksum is known, so a length
/// error found while decoding is held in [`Columns`] and ranks below
/// every integrity error of the sections after it: the error returned
/// is the one the checks, in order, meet first.
fn decode<S: Source>(src: &mut S) -> Result<TraceIndex, S::Error> {
    let size = src.size();
    let min = (HEADER_LEN + FOOTER_LEN) as u64;
    if size < min {
        return Err(StoreError::Truncated {
            expected: min,
            got: size,
        }
        .into());
    }
    // The header, section table and padding after it, copied out of
    // the chunk that the sections reuse.
    let mut head = [0u8; HEAD_LEN];
    let head_len = size.min(HEAD_LEN as u64) as usize;
    head[..head_len].copy_from_slice(src.read_at(0, head_len)?);
    if head[..4] != HPCT_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&head[..4]);
        return Err(StoreError::BadMagic { found }.into());
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        }
        .into());
    }
    let flags = u16::from_le_bytes([head[6], head[7]]);
    if flags != 0 {
        return Err(malformed(format!("unknown header flags {flags:#06x}")).into());
    }
    let n64 = read_u64(&head, 8);
    let n: usize = usize::try_from(n64)
        .ok()
        .filter(|&n| u32::try_from(n).is_ok())
        .ok_or_else(|| malformed(format!("record count {n64} exceeds u32 rows")))?;
    let section_count = read_u32(&head, 16) as usize;
    if section_count != SECTION_COUNT {
        return Err(malformed(format!(
            "expected {SECTION_COUNT} sections, header declares {section_count}"
        ))
        .into());
    }
    if size < (TABLE_END + FOOTER_LEN) as u64 {
        return Err(StoreError::Truncated {
            expected: (TABLE_END + FOOTER_LEN) as u64,
            got: size,
        }
        .into());
    }

    // Metadata integrity before trusting any offsets further: the
    // footer seals the header and section table, and the table in
    // turn embeds every payload checksum — each data byte is hashed
    // exactly once on open.
    let body_end = size - FOOTER_LEN as u64;
    let stored_footer = read_u64(src.read_at(body_end, FOOTER_LEN)?, 0);
    let computed_footer = checksum(&head[..TABLE_END]);
    if stored_footer != computed_footer {
        return Err(StoreError::ChecksumMismatch {
            section: "footer",
            stored: stored_footer,
            computed: computed_footer,
        }
        .into());
    }

    // Section table: ids in order, payloads contiguous in id order
    // (offsets are fully determined, so no byte of the body is
    // outside a section or its checked zero padding) and verified.
    let mut expected_off = HEAD_LEN as u64;
    if head[TABLE_END..expected_off.min(body_end) as usize]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(malformed("nonzero padding after the section table").into());
    }
    let mut columns = Columns::new(n);
    for (i, name) in SECTION_NAMES.into_iter().enumerate() {
        let base = HEADER_LEN + i * ENTRY_LEN;
        let id = read_u32(&head, base);
        if id as usize != i {
            return Err(malformed(format!(
                "section table entry {i} has id {id} (expected {i})"
            ))
            .into());
        }
        let off = read_u64(&head, base + 4);
        let len = read_u64(&head, base + 12);
        let sum = read_u64(&head, base + 20);
        if off != expected_off {
            return Err(malformed(format!(
                "section {name} at offset {off}, expected {expected_off}"
            ))
            .into());
        }
        let end = off
            .checked_add(len)
            .ok_or_else(|| malformed(format!("section {i} offset overflow")))?;
        if end > body_end {
            return Err(StoreError::Truncated {
                expected: end.saturating_add(FOOTER_LEN as u64),
                got: size,
            }
            .into());
        }
        // Stream the payload and its padding: each piece is hashed and
        // decoded while it is in cache.
        let padded_end = (end + 7) & !7;
        let stop = padded_end.min(body_end);
        columns.begin(i, name, len);
        let mut state = Checksum::new(len);
        let mut dirty_padding = false;
        let mut at = off;
        while at < stop {
            let want = (stop - at).min(CHUNK as u64) as usize;
            let piece = src.read_at(at, want)?;
            let (payload, padding) = piece.split_at((end.max(at) - at).min(want as u64) as usize);
            state.update(payload);
            columns.feed(i, payload);
            dirty_padding |= padding.iter().any(|&b| b != 0);
            at += want as u64;
        }
        let computed = state.finish();
        if computed != sum {
            return Err(StoreError::ChecksumMismatch {
                section: name,
                stored: sum,
                computed,
            }
            .into());
        }
        if dirty_padding {
            return Err(malformed(format!("nonzero padding after section {name}")).into());
        }
        expected_off = padded_end;
    }
    if expected_off != body_end {
        return Err(StoreError::Truncated {
            expected: expected_off + FOOTER_LEN as u64,
            got: size,
        }
        .into());
    }
    Ok(columns.finish()?)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds pre-checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds pre-checked"))
}

/// A little-endian word of a `chunks_exact(4)` piece.
fn le32(word: &[u8]) -> u32 {
    u32::from_le_bytes(word.try_into().expect("chunks_exact(4)"))
}

/// A little-endian word of a `chunks_exact(8)` piece.
fn le64(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"))
}

/// The index's columns, filled section by section as the pieces
/// stream in. Each section's length is checked before its first
/// piece, so a piece of a section that passed always holds whole
/// words. The first length error is held, not returned, and decoding
/// stops there: it is reported only once every section has verified.
#[derive(Default)]
struct Columns {
    n: usize,
    start: Vec<Timestamp>,
    downtime: Vec<u64>,
    system: Vec<SystemId>,
    node: Vec<NodeId>,
    workload: Vec<Workload>,
    detail: Vec<DetailedCause>,
    cause: Vec<RootCause>,
    prev_in_node: Vec<u32>,
    node_rows: Vec<u32>,
    node_runs: Vec<u32>,
    system_rows: Vec<u32>,
    system_spans: Vec<u32>,
    cause_rows: [Vec<u32>; 6],
    workload_rows: [Vec<u32>; 3],
    /// The current section's name and byte length.
    name: &'static str,
    len: u64,
    /// The current posting-list section's list lengths, once its
    /// prefix has been read.
    list_lens: Option<[usize; 6]>,
    /// The first out-of-range workload and detail codes, as
    /// `(row, code)`.
    bad_workload: Option<(usize, u8)>,
    bad_detail: Option<(usize, u8)>,
    error: Option<StoreError>,
    /// Whether the current section is past decoding.
    skip: bool,
}

impl Columns {
    fn new(n: usize) -> Columns {
        Columns {
            n,
            ..Columns::default()
        }
    }

    /// Check section `i`'s byte length and size its column.
    fn begin(&mut self, i: usize, name: &'static str, len: u64) {
        (self.name, self.len, self.list_lens) = (name, len, None);
        self.skip = self.error.is_some();
        if !self.skip {
            if let Err(e) = self.size_column(i) {
                self.error = Some(e);
                self.skip = true;
            }
        }
    }

    fn size_column(&mut self, i: usize) -> Result<(), StoreError> {
        let (n, name, len) = (self.n, self.name, self.len);
        let fixed = |width: usize| {
            if len == (n * width) as u64 {
                Ok(())
            } else {
                Err(malformed(format!(
                    "section {name}: {len} bytes, expected {}",
                    n * width
                )))
            }
        };
        let words = |per: u64, what: &str| {
            if !len.is_multiple_of(4) {
                Err(malformed(format!(
                    "section {name}: {len} bytes is not a whole number of u32s"
                )))
            } else if !(len / 4).is_multiple_of(per) {
                Err(malformed(format!(
                    "section {name}: not a whole number of {what}"
                )))
            } else {
                Ok(len as usize / 4)
            }
        };
        let prefix = |lists: usize| {
            if len < (lists * 8) as u64 {
                Err(malformed(format!("section {name}: missing length prefix")))
            } else {
                Ok(())
            }
        };
        match i {
            0 => fixed(8).map(|()| self.start.reserve_exact(n)),
            1 => fixed(8).map(|()| self.downtime.reserve_exact(n)),
            2 => fixed(4).map(|()| self.system.reserve_exact(n)),
            3 => fixed(4).map(|()| self.node.reserve_exact(n)),
            4 => fixed(1).map(|()| self.workload.reserve_exact(n)),
            5 => fixed(1).map(|()| {
                self.detail.reserve_exact(n);
                self.cause.reserve_exact(n);
            }),
            6 => fixed(4).map(|()| self.prev_in_node.reserve_exact(n)),
            7 => fixed(4).map(|()| self.node_rows.reserve_exact(n)),
            8 => words(4, "runs").map(|w| self.node_runs.reserve_exact(w)),
            9 => fixed(4).map(|()| self.system_rows.reserve_exact(n)),
            10 => words(3, "spans").map(|w| self.system_spans.reserve_exact(w)),
            11 => prefix(6),
            _ => prefix(3),
        }
    }

    /// Decode the next piece of section `i`.
    fn feed(&mut self, i: usize, piece: &[u8]) {
        if self.skip {
            return;
        }
        let u32s = |out: &mut Vec<u32>| out.extend(piece.chunks_exact(4).map(le32));
        match i {
            0 => self
                .start
                .extend(piece.chunks_exact(8).map(|w| Timestamp::from_secs(le64(w)))),
            1 => self.downtime.extend(piece.chunks_exact(8).map(le64)),
            2 => self
                .system
                .extend(piece.chunks_exact(4).map(|w| SystemId::new(le32(w)))),
            3 => self
                .node
                .extend(piece.chunks_exact(4).map(|w| NodeId::new(le32(w)))),
            4 => {
                if let Some(k) = piece
                    .iter()
                    .position(|&b| b as usize >= Workload::ALL.len())
                {
                    self.bad_workload = Some((self.workload.len() + k, piece[k]));
                    self.skip = true;
                    return;
                }
                self.workload
                    .extend(piece.iter().map(|&b| Workload::ALL[b as usize]));
            }
            5 => {
                if let Some(k) = piece
                    .iter()
                    .position(|&b| b as usize >= DetailedCause::ALL.len())
                {
                    self.bad_detail = Some((self.detail.len() + k, piece[k]));
                    self.skip = true;
                    return;
                }
                let from = self.detail.len();
                self.detail
                    .extend(piece.iter().map(|&b| DetailedCause::ALL[b as usize]));
                self.cause
                    .extend(self.detail[from..].iter().map(|d| d.category()));
            }
            6 => u32s(&mut self.prev_in_node),
            7 => u32s(&mut self.node_rows),
            8 => u32s(&mut self.node_runs),
            9 => u32s(&mut self.system_rows),
            10 => u32s(&mut self.system_spans),
            _ => {
                let lists: &mut [Vec<u32>] = if i == 11 {
                    &mut self.cause_rows
                } else {
                    &mut self.workload_rows
                };
                let (n, len, name) = (self.n, self.len, self.name);
                let dealt = deal_postings(lists, &mut self.list_lens, piece, n, len, name);
                if let Err(e) = dealt {
                    self.error = Some(e);
                    self.skip = true;
                }
            }
        }
    }
}

/// Deal a piece of a posting-list section out to its `lists`: a `u64`
/// length per list, then the lists' `u32` rows concatenated. The first
/// piece holds the whole length prefix, which `lens` keeps once it is
/// read and checked against `n` and the section's byte length `len`.
fn deal_postings(
    lists: &mut [Vec<u32>],
    lens: &mut Option<[usize; 6]>,
    piece: &[u8],
    n: usize,
    len: u64,
    name: &str,
) -> Result<(), StoreError> {
    let k = lists.len();
    let mut rows = piece;
    let lens = match *lens {
        Some(known) => known,
        None => {
            let mut read = [0usize; 6];
            let mut total: usize = 0;
            for (i, slot) in read.iter_mut().take(k).enumerate() {
                let l = read_u64(piece, i * 8);
                *slot = usize::try_from(l).ok().filter(|&l| l <= n).ok_or_else(|| {
                    malformed(format!("section {name}: list {i} length {l} out of range"))
                })?;
                total += *slot;
            }
            if total != n {
                return Err(malformed(format!(
                    "section {name}: list lengths sum to {total}, expected {n}"
                )));
            }
            if len != (k * 8 + total * 4) as u64 {
                return Err(malformed(format!(
                    "section {name}: {len} bytes, expected {}",
                    k * 8 + total * 4
                )));
            }
            for (list, &l) in lists.iter_mut().zip(&read) {
                list.reserve_exact(l);
            }
            rows = &piece[k * 8..];
            *lens = Some(read);
            read
        }
    };
    for (list, &l) in lists.iter_mut().zip(&lens) {
        let take = (l - list.len()).min(rows.len() / 4);
        list.extend(rows[..take * 4].chunks_exact(4).map(le32));
        rows = &rows[take * 4..];
    }
    Ok(())
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

impl Columns {
    /// Hand out the index once every section has verified: the held
    /// length error first, then the enum codes, then every invariant
    /// the in-memory builder establishes.
    fn finish(self) -> Result<TraceIndex, StoreError> {
        let Columns {
            n,
            start,
            downtime,
            system,
            node,
            workload,
            detail,
            cause,
            prev_in_node,
            node_rows,
            node_runs: node_runs_raw,
            system_rows,
            system_spans: system_spans_raw,
            cause_rows,
            workload_rows,
            bad_workload,
            bad_detail,
            error,
            ..
        } = self;
        if let Some(e) = error {
            return Err(e);
        }
        if let Some((i, code)) = bad_workload {
            return Err(malformed(format!("row {i}: workload code {code}")));
        }
        if let Some((i, code)) = bad_detail {
            return Err(malformed(format!("row {i}: detail code {code}")));
        }
        let n32 = n as u32;
        // Then check the sort invariant and the record intervals in one
        // pass.
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

    /// Pins the exact error, not only its family, for every strict
    /// prefix and every single-bit flip of one store: one digest over
    /// the `Debug` rendering of each result, in order. Any change to
    /// which check fires first, or to a message or computed checksum,
    /// moves it.
    #[test]
    fn prefix_and_bit_flip_errors_are_pinned() {
        let bytes = TraceStore::to_bytes(&sample_trace(30).index());
        let mut rendered = String::new();
        for cut in 0..bytes.len() {
            rendered += &format!("{:?}\n", TraceStore::from_bytes(&bytes[..cut]));
        }
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 1 << (i % 8);
            rendered += &format!("{:?}\n", TraceStore::from_bytes(&dirty));
        }
        assert_eq!(checksum(rendered.as_bytes()), 0x091e_70a1_988a_e610);
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

    fn u32_words(bytes: &[u8]) -> Vec<u32> {
        bytes.chunks_exact(4).map(le32).collect()
    }

    /// A section's payload as u32 words.
    fn section_u32s(bytes: &[u8], name: &str) -> Vec<u32> {
        let (off, len) = section_span(bytes, name);
        u32_words(&bytes[off..off + len])
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
        let footer = checksum(&out[..TABLE_END]);
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
        let words = u32_words(&clean[off + 48..off + len]);
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

    /// A fresh per-process file path under the temp dir.
    fn scratch_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcfail_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Opening a file by path gives exactly what the in-memory decoder
    /// gives for its bytes — the index or the same typed error — on a
    /// store several chunks long: clean, under each binary fault kind,
    /// and cut one byte either side of every section boundary and of
    /// the first chunk boundary inside each section.
    #[test]
    fn opening_by_path_equals_from_bytes() {
        use crate::corrupt::{BinaryCorruptionPlan, BinaryFault};
        use crate::io::{open_trace, read_trace};
        use crate::quality::IngestPolicy;
        use hpcfail_exec::FaultMix;

        let index = sample_trace(12_000).index();
        let clean = TraceStore::to_bytes(&index);
        assert!(clean.len() > 4 * CHUNK, "{} bytes", clean.len());
        let mut cases: Vec<(String, Vec<u8>)> = vec![("clean".into(), clean.clone())];
        for kind in [
            BinaryFault::MidTruncate,
            BinaryFault::TornHeader,
            BinaryFault::BitFlips,
            BinaryFault::VersionSkew,
        ] {
            for seed in 0..4 {
                let plan = BinaryCorruptionPlan {
                    seed,
                    mix: FaultMix::only(kind),
                };
                cases.push((plan.to_string(), plan.corrupt_bytes(&clean)));
            }
        }
        let mut bounds = vec![TABLE_END, HEAD_LEN, clean.len() - FOOTER_LEN];
        for name in SECTION_NAMES {
            let (off, len) = section_span(&clean, name);
            bounds.extend([off, off + len, off + CHUNK]);
        }
        for b in bounds {
            for cut in [b - 1, b, b + 1] {
                if cut < clean.len() {
                    cases.push((format!("cut at {cut}"), clean[..cut].to_vec()));
                }
            }
        }
        let path = scratch_file("by_path.hpct");
        for (what, bytes) in &cases {
            std::fs::write(&path, bytes).unwrap();
            let by_path = read_file(File::open(&path).unwrap()).unwrap();
            assert_eq!(by_path, TraceStore::from_bytes(bytes), "{what}");
            let opened = open_trace(&path, IngestPolicy::FailFast).unwrap();
            assert_eq!(opened, read_trace(bytes, IngestPolicy::FailFast), "{what}");
        }
        assert_eq!(TraceStore::from_bytes(&clean).unwrap(), index);
        let _ = std::fs::remove_file(&path);
    }

    /// A file that shrinks after its length was taken fails as a typed
    /// truncation at the first short read, not as an I/O error.
    #[test]
    fn file_that_shrinks_while_read_is_truncated() {
        let bytes = TraceStore::to_bytes(&sample_trace(200).index());
        let path = scratch_file("shrinks.hpct");
        std::fs::write(&path, &bytes).unwrap();
        let file = File::open(&path).unwrap();
        let size = bytes.len() as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(1000)
            .unwrap();
        let mut src = FileSource {
            file,
            size,
            pos: None,
            buf: vec![0; CHUNK],
        };
        match decode(&mut src) {
            Err(ReadError::Store(e)) => assert_eq!(
                e,
                StoreError::Truncated {
                    expected: size,
                    got: 1000
                }
            ),
            Err(ReadError::Io(e)) => panic!("I/O error instead of a typed truncation: {e}"),
            Ok(_) => panic!("a shrunk file loaded"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
