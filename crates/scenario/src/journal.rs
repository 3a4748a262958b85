//! The append-only campaign journal — crash-proof resume.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header  = magic "HPCJ" | u16 version | u16 reserved=0
//!         | u64 spec_digest | u64 seed | u64 n_cells
//!         | u64 checksum(preceding 32 bytes)
//! frame   = u32 payload_len | u64 cell_index | payload
//!         | u64 checksum(payload_len .. payload)
//! payload = 0x01 <CellMetrics: u64 + 6 × f64 bits>          (completed)
//!         | 0x02 <u8 cause kind> <u32 len> <utf-8 detail>   (degraded)
//! ```
//!
//! Invariants that make resume safe:
//!
//! * **Binding** — the header carries the format version, spec digest,
//!   campaign seed and cell count; a journal from any other spec, or
//!   written under another version's seeding, is refused with a typed
//!   error, so `--resume` can never continue the wrong campaign.
//! * **Ordered prefix** — the runner appends frames in cell order
//!   (batched waves, worker-count independent), so frame *i* must carry
//!   `cell_index == i`. Any violation is treated as corruption.
//! * **Torn-tail tolerance** — loading walks frames until the first
//!   truncated, misordered, or checksum-failing frame and returns the
//!   valid prefix; the writer truncates the tail before appending, so a
//!   kill at any byte loses at most one wave.
//!
//! The checksum is [`hpcfail_records::checksum`] — the same function
//! that guards the `.hpct` trace store.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hpcfail_records::checksum;

use crate::cell::{CellError, CellMetrics};
use crate::runner::CellOutcome;

/// Journal magic bytes.
pub const JOURNAL_MAGIC: [u8; 4] = *b"HPCJ";

/// Journal format version. Version 2 marks the value-named seeds
/// (`cell` module docs): a version-1 journal holds rows seeded from
/// their grid positions, which the current engine would not reproduce.
pub const JOURNAL_VERSION: u16 = 2;

const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8 + 8 + 8;
/// Cap on one frame's payload — far above any real row, low enough to
/// reject garbage lengths from corrupted files instantly.
const MAX_PAYLOAD: u32 = 1 << 20;

const KIND_COMPLETED: u8 = 0x01;
const KIND_DEGRADED: u8 = 0x02;

/// Journal errors. Corruption inside the frame stream is *not* an
/// error — it truncates the resumable prefix — but a journal that
/// provably belongs to a different campaign, or to another journal
/// version, is.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        message: String,
    },
    /// The journal belongs to a different spec/seed/grid, or was
    /// written by another journal version — resuming it would splice
    /// in cells this campaign would not compute.
    Mismatch {
        /// What differed (journal version, digest, seed, or cell count).
        what: &'static str,
        /// Value in the journal.
        found: u64,
        /// Value the campaign expects.
        expected: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal {}: {message}", path.display())
            }
            JournalError::Mismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "journal does not belong to this campaign ({what}: journal has {found:#x}, the campaign wants {expected:#x}); delete it or run without --resume"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: impl std::fmt::Display) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Identity of a campaign, as bound into the journal header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Checksum of the raw spec text.
    pub spec_digest: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Total cells in the expanded grid.
    pub n_cells: u64,
}

impl JournalHeader {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&JOURNAL_MAGIC);
        buf[4..6].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&self.spec_digest.to_le_bytes());
        buf[16..24].copy_from_slice(&self.seed.to_le_bytes());
        buf[24..32].copy_from_slice(&self.n_cells.to_le_bytes());
        let sum = checksum(&buf[..32]);
        buf[32..40].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decode and verify a header block: its version and the campaign
    /// it binds. `None` means "not a valid journal header" (torn write
    /// or foreign file) — callers start fresh. A *valid* header of
    /// another version or for a different campaign is reported via
    /// [`JournalError::Mismatch`] by [`Journal::open_resume`].
    fn decode(buf: &[u8]) -> Option<(u16, JournalHeader)> {
        if buf.len() < HEADER_LEN || buf[0..4] != JOURNAL_MAGIC {
            return None;
        }
        let sum = u64::from_le_bytes(buf[32..40].try_into().ok()?);
        if checksum(&buf[..32]) != sum {
            return None;
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        Some((
            version,
            JournalHeader {
                spec_digest: u64::from_le_bytes(buf[8..16].try_into().ok()?),
                seed: u64::from_le_bytes(buf[16..24].try_into().ok()?),
                n_cells: u64::from_le_bytes(buf[24..32].try_into().ok()?),
            },
        ))
    }
}

fn encode_payload(outcome: &CellOutcome) -> Vec<u8> {
    match outcome {
        CellOutcome::Completed { metrics, .. } => {
            let mut p = Vec::with_capacity(1 + 8 + 48);
            p.push(KIND_COMPLETED);
            p.extend_from_slice(&metrics.failures.to_le_bytes());
            for f in [
                metrics.node_year_rate,
                metrics.availability,
                metrics.tbf_shape,
                metrics.repair_median_min,
                metrics.checkpoint_waste,
                metrics.sched_efficiency,
            ] {
                p.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            p
        }
        CellOutcome::Degraded { cause, .. } => {
            let detail = cause.detail().as_bytes();
            let mut p = Vec::with_capacity(1 + 1 + 4 + detail.len());
            p.push(KIND_DEGRADED);
            p.push(cause.kind_code());
            p.extend_from_slice(&(detail.len() as u32).to_le_bytes());
            p.extend_from_slice(detail);
            p
        }
    }
}

fn decode_payload(cell: u64, payload: &[u8]) -> Option<CellOutcome> {
    match *payload.first()? {
        KIND_COMPLETED => {
            if payload.len() != 1 + 8 + 6 * 8 {
                return None;
            }
            let failures = u64::from_le_bytes(payload[1..9].try_into().ok()?);
            let f = |slot: usize| -> Option<f64> {
                let at = 9 + slot * 8;
                Some(f64::from_bits(u64::from_le_bytes(
                    payload[at..at + 8].try_into().ok()?,
                )))
            };
            Some(CellOutcome::Completed {
                cell,
                metrics: CellMetrics {
                    failures,
                    node_year_rate: f(0)?,
                    availability: f(1)?,
                    tbf_shape: f(2)?,
                    repair_median_min: f(3)?,
                    checkpoint_waste: f(4)?,
                    sched_efficiency: f(5)?,
                },
            })
        }
        KIND_DEGRADED => {
            if payload.len() < 6 {
                return None;
            }
            let kind = payload[1];
            let len = u32::from_le_bytes(payload[2..6].try_into().ok()?) as usize;
            if payload.len() != 6 + len {
                return None;
            }
            let detail = std::str::from_utf8(&payload[6..]).ok()?.to_string();
            Some(CellOutcome::Degraded {
                cell,
                cause: CellError::from_parts(kind, detail)?,
            })
        }
        _ => None,
    }
}

/// An open campaign journal positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    next_cell: u64,
}

impl Journal {
    /// Create a fresh journal (truncating any existing file) and write
    /// the binding header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Journal, JournalError> {
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        file.write_all(&header.encode())
            .map_err(|e| io_err(path, e))?;
        file.sync_data().map_err(|e| io_err(path, e))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            next_cell: 0,
        })
    }

    /// Open an existing journal for resume: verify the header binds to
    /// this campaign, walk the valid frame prefix, truncate any torn
    /// tail, and return the journal (positioned to append) plus the
    /// already-settled outcomes in cell order.
    ///
    /// A missing file, or a file whose header doesn't decode (torn,
    /// damaged or foreign), yields a fresh journal with zero outcomes:
    /// the file is rewritten with `header` and its frames are dropped,
    /// since nothing binds them to this campaign (DESIGN §15). A file
    /// whose header decodes but carries another journal version or names
    /// a *different* campaign is a [`JournalError::Mismatch`] — never
    /// silently resumed, never silently clobbered.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`], [`JournalError::Mismatch`].
    pub fn open_resume(
        path: &Path,
        header: JournalHeader,
    ) -> Result<(Journal, Vec<CellOutcome>), JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, e)),
        };
        let Some((version, found)) = JournalHeader::decode(&bytes) else {
            // Unreadable header: nothing trustworthy to resume.
            let journal = Journal::create(path, header)?;
            return Ok((journal, Vec::new()));
        };
        if version != JOURNAL_VERSION {
            return Err(JournalError::Mismatch {
                what: "journal version",
                found: u64::from(version),
                expected: u64::from(JOURNAL_VERSION),
            });
        }
        if found.spec_digest != header.spec_digest {
            return Err(JournalError::Mismatch {
                what: "spec digest",
                found: found.spec_digest,
                expected: header.spec_digest,
            });
        }
        if found.seed != header.seed {
            return Err(JournalError::Mismatch {
                what: "seed",
                found: found.seed,
                expected: header.seed,
            });
        }
        if found.n_cells != header.n_cells {
            return Err(JournalError::Mismatch {
                what: "cell count",
                found: found.n_cells,
                expected: header.n_cells,
            });
        }

        // Walk the ordered frame prefix.
        let mut outcomes = Vec::new();
        let mut offset = HEADER_LEN;
        let mut valid_end = offset;
        while offset + 4 + 8 + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
            if len == 0 || len > MAX_PAYLOAD {
                break;
            }
            let frame_end = offset + 4 + 8 + len as usize + 8;
            if frame_end > bytes.len() {
                break;
            }
            let body = &bytes[offset..frame_end - 8];
            let stored = u64::from_le_bytes(bytes[frame_end - 8..frame_end].try_into().unwrap());
            if checksum(body) != stored {
                break;
            }
            let cell = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
            // Ordered-prefix invariant: frame i is cell i, and never
            // beyond the campaign.
            if cell != outcomes.len() as u64 || cell >= header.n_cells {
                break;
            }
            let Some(outcome) = decode_payload(cell, &bytes[offset + 12..frame_end - 8]) else {
                break;
            };
            outcomes.push(outcome);
            offset = frame_end;
            valid_end = frame_end;
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(valid_end as u64)
            .map_err(|e| io_err(path, e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, e))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                next_cell: outcomes.len() as u64,
            },
            outcomes,
        ))
    }

    /// Append one wave of outcomes (in cell order) and flush to disk.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`]; also if outcomes arrive out of order —
    /// that would break every resume guarantee, so it is refused rather
    /// than written.
    pub fn append(&mut self, outcomes: &[CellOutcome]) -> Result<(), JournalError> {
        let mut buf = Vec::new();
        for outcome in outcomes {
            let cell = match outcome {
                CellOutcome::Completed { cell, .. } | CellOutcome::Degraded { cell, .. } => *cell,
            };
            if cell != self.next_cell {
                return Err(JournalError::Io {
                    path: self.path.clone(),
                    message: format!(
                        "internal: outcome for cell {cell} appended out of order (expected {})",
                        self.next_cell
                    ),
                });
            }
            let payload = encode_payload(outcome);
            let mut frame = Vec::with_capacity(4 + 8 + payload.len() + 8);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&cell.to_le_bytes());
            frame.extend_from_slice(&payload);
            let sum = checksum(&frame);
            frame.extend_from_slice(&sum.to_le_bytes());
            buf.extend_from_slice(&frame);
            self.next_cell += 1;
        }
        self.file
            .write_all(&buf)
            .map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpcfail_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.journal", std::process::id()))
    }

    fn header() -> JournalHeader {
        JournalHeader {
            spec_digest: 0xDEAD_BEEF,
            seed: 42,
            n_cells: 10,
        }
    }

    fn sample(cell: u64) -> CellOutcome {
        if cell % 3 == 2 {
            CellOutcome::Degraded {
                cell,
                cause: CellError::EmptyStratum(format!("stratum {cell}")),
            }
        } else {
            CellOutcome::Completed {
                cell,
                metrics: CellMetrics {
                    failures: cell * 10,
                    node_year_rate: cell as f64 * 0.5,
                    availability: 0.99,
                    tbf_shape: 0.75,
                    repair_median_min: 54.0,
                    checkpoint_waste: f64::NAN,
                    sched_efficiency: f64::NAN,
                },
            }
        }
    }

    #[test]
    fn round_trip_preserves_outcomes_including_nan() {
        let path = tmp("round_trip");
        let outcomes: Vec<CellOutcome> = (0..6).map(sample).collect();
        let mut j = Journal::create(&path, header()).unwrap();
        j.append(&outcomes[..3]).unwrap();
        j.append(&outcomes[3..]).unwrap();
        drop(j);
        let (j, loaded) = Journal::open_resume(&path, header()).unwrap();
        assert_eq!(j.next_cell, 6);
        assert_eq!(loaded.len(), 6);
        for (a, b) in loaded.iter().zip(&outcomes) {
            match (a, b) {
                (
                    CellOutcome::Completed {
                        cell: c1,
                        metrics: m1,
                    },
                    CellOutcome::Completed {
                        cell: c2,
                        metrics: m2,
                    },
                ) => {
                    assert_eq!(c1, c2);
                    assert_eq!(m1.failures, m2.failures);
                    assert_eq!(m1.availability.to_bits(), m2.availability.to_bits());
                    assert_eq!(m1.checkpoint_waste.to_bits(), m2.checkpoint_waste.to_bits());
                }
                (
                    CellOutcome::Degraded {
                        cell: c1,
                        cause: e1,
                    },
                    CellOutcome::Degraded {
                        cell: c2,
                        cause: e2,
                    },
                ) => {
                    assert_eq!(c1, c2);
                    assert_eq!(e1, e2);
                }
                _ => panic!("outcome kind changed through the journal"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_resumes_at_last_full_frame() {
        let path = tmp("torn");
        let outcomes: Vec<CellOutcome> = (0..5).map(sample).collect();
        let mut j = Journal::create(&path, header()).unwrap();
        j.append(&outcomes).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Chop bytes off the tail one at a time: the loaded prefix must
        // only ever shrink by whole frames, never misparse.
        for cut in 1..full.len() - HEADER_LEN {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let (j, loaded) = Journal::open_resume(&path, header()).unwrap();
            assert!(loaded.len() <= 5);
            assert_eq!(j.next_cell, loaded.len() as u64);
            for (i, o) in loaded.iter().enumerate() {
                let cell = match o {
                    CellOutcome::Completed { cell, .. } | CellOutcome::Degraded { cell, .. } => {
                        *cell
                    }
                };
                assert_eq!(cell, i as u64);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_never_resume_a_wrong_cell() {
        let path = tmp("flip");
        let outcomes: Vec<CellOutcome> = (0..5).map(sample).collect();
        let mut j = Journal::create(&path, header()).unwrap();
        j.append(&outcomes).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        for pos in 0..full.len() {
            let mut mutated = full.clone();
            mutated[pos] ^= 0x40;
            std::fs::write(&path, &mutated).unwrap();
            match Journal::open_resume(&path, header()) {
                Ok((_, loaded)) => {
                    // Whatever survived must be an exact ordered prefix
                    // of the original outcomes.
                    for (i, o) in loaded.iter().enumerate() {
                        let cell = match o {
                            CellOutcome::Completed { cell, .. }
                            | CellOutcome::Degraded { cell, .. } => *cell,
                        };
                        assert_eq!(cell, i as u64, "flip at byte {pos}");
                    }
                    assert!(loaded.len() <= 5);
                }
                Err(JournalError::Mismatch { .. }) => {} // header field flipped: refused
                Err(e) => panic!("unexpected error for flip at {pos}: {e}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_campaign_is_refused() {
        let path = tmp("mismatch");
        let mut j = Journal::create(&path, header()).unwrap();
        j.append(&[sample(0)]).unwrap();
        drop(j);
        for (other, what) in [
            (
                JournalHeader {
                    spec_digest: 1,
                    ..header()
                },
                "spec digest",
            ),
            (
                JournalHeader {
                    seed: 7,
                    ..header()
                },
                "seed",
            ),
            (
                JournalHeader {
                    n_cells: 99,
                    ..header()
                },
                "cell count",
            ),
        ] {
            match Journal::open_resume(&path, other) {
                Err(JournalError::Mismatch { what: w, .. }) => assert_eq!(w, what),
                other => panic!("expected mismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_of_another_version_is_refused() {
        // A checksum-valid version-1 header for this very campaign: its
        // rows were seeded by grid position, so resuming would splice
        // them into a campaign that seeds by value.
        let path = tmp("version");
        let mut j = Journal::create(&path, header()).unwrap();
        j.append(&[sample(0)]).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let sum = checksum(&bytes[..32]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open_resume(&path, header()) {
            Err(JournalError::Mismatch {
                what,
                found,
                expected,
            }) => {
                assert_eq!(what, "journal version");
                assert_eq!((found, expected), (1, u64::from(JOURNAL_VERSION)));
            }
            other => panic!("expected a version mismatch, got {other:?}"),
        }
        // Refused, not clobbered: the file is left as it was.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_header_resumes_nothing_and_rewrites_the_file() {
        // A header that fails its checksum cannot say which campaign its
        // frames belong to: resume starts over and the file is rewritten
        // with this campaign's header, frames dropped.
        let path = tmp("damaged_header");
        let mut j = Journal::create(&path, header()).unwrap();
        j.append(&(0..4).map(sample).collect::<Vec<_>>()).unwrap();
        drop(j);
        let intact = std::fs::read(&path).unwrap();
        for pos in [0, 5, 9, 17, 25, 33] {
            let mut damaged = intact.clone();
            damaged[pos] ^= 0x01;
            std::fs::write(&path, &damaged).unwrap();
            let (mut j, loaded) = Journal::open_resume(&path, header()).unwrap();
            assert!(loaded.is_empty(), "byte {pos}: resumed {}", loaded.len());
            assert_eq!(j.next_cell, 0);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                header().encode(),
                "byte {pos}: the file is not the fresh header"
            );
            // The rewritten journal is an ordinary one.
            j.append(&[sample(0)]).unwrap();
            drop(j);
            let (_, loaded) = Journal::open_resume(&path, header()).unwrap();
            assert_eq!(loaded, vec![sample(0)], "byte {pos}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_append_is_refused() {
        let path = tmp("order");
        let mut j = Journal::create(&path, header()).unwrap();
        assert!(j.append(&[sample(3)]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_foreign_file_starts_fresh() {
        let path = tmp("fresh");
        std::fs::remove_file(&path).ok();
        let (j, loaded) = Journal::open_resume(&path, header()).unwrap();
        assert_eq!(j.next_cell, 0);
        assert!(loaded.is_empty());
        drop(j);
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let (j, loaded) = Journal::open_resume(&path, header()).unwrap();
        assert_eq!(j.next_cell, 0);
        assert!(loaded.is_empty());
        drop(j);
        std::fs::remove_file(&path).ok();
    }
}
