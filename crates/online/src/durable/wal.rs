//! Per-shard append-only write-ahead log.
//!
//! Each WAL segment file starts with a fixed header binding it to a store
//! generation (`seq`), a shard index, and a scenario fingerprint, followed
//! by a stream of frames:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! where the payload begins `[tag: u8][user: u64 LE]`. The uid prefix is
//! deliberate: a torn final frame whose first 9 payload bytes survived can
//! still be *attributed* to a user, letting recovery round only that user's
//! ledger up to exhaustion instead of the whole shard.
//!
//! Records are appended (and optionally fsynced) **before** the
//! corresponding result is returned to the caller, so every observation a
//! client ever saw the effect of is on disk.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use super::codec::{crc32, CodecResult, Reader, Sink as _, Writer};
use super::{io_err, DurableError};

/// Magic prefix of every WAL segment file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"PRWAL01\0";
/// Current WAL format version.
pub(crate) const WAL_VERSION: u32 = 1;
/// Upper bound on a single frame payload; a larger length prefix means the
/// header bytes themselves are garbage (torn or corrupt write).
const MAX_FRAME_LEN: u32 = 1 << 28;

/// One committed mutation, journaled before its effect is acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// A user session was registered with the given prior.
    AddUser {
        /// User id.
        user: u64,
        /// Initial location distribution.
        pi: Vec<f64>,
    },
    /// A user session was deregistered.
    RemoveUser {
        /// User id.
        user: u64,
    },
    /// An event window was attached from a registered template.
    AttachEvent {
        /// User id.
        user: u64,
        /// Template index the window was instantiated from.
        template: u32,
    },
    /// A committed observation: the emission column that was actually
    /// ingested (post-guard, i.e. the *released* column in enforcing mode).
    /// Journaling the committed column — not the RNG state — is what makes
    /// replay deterministic without re-running the calibration guard.
    Observe {
        /// User id.
        user: u64,
        /// Whether the guard suppressed this release (stats bookkeeping).
        suppressed: bool,
        /// The emission column that was committed into the session.
        column: Vec<f64>,
    },
}

const TAG_ADD_USER: u8 = 1;
const TAG_REMOVE_USER: u8 = 2;
const TAG_ATTACH_EVENT: u8 = 3;
const TAG_OBSERVE: u8 = 4;

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::AddUser { user, pi } => {
                w.put_u8(TAG_ADD_USER);
                w.put_u64(*user);
                w.put_f64_slice(pi);
            }
            WalRecord::RemoveUser { user } => {
                w.put_u8(TAG_REMOVE_USER);
                w.put_u64(*user);
            }
            WalRecord::AttachEvent { user, template } => {
                w.put_u8(TAG_ATTACH_EVENT);
                w.put_u64(*user);
                w.put_u32(*template);
            }
            WalRecord::Observe {
                user,
                suppressed,
                column,
            } => {
                w.put_u8(TAG_OBSERVE);
                w.put_u64(*user);
                w.put_u8(u8::from(*suppressed));
                w.put_f64_slice(column);
            }
        }
        w.into_bytes()
    }

    fn decode_payload(payload: &[u8]) -> CodecResult<Self> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8("record tag")?;
        let user = r.get_u64("record uid")?;
        let record = match tag {
            TAG_ADD_USER => WalRecord::AddUser {
                user,
                pi: r.get_f64_slice("add-user prior")?,
            },
            TAG_REMOVE_USER => WalRecord::RemoveUser { user },
            TAG_ATTACH_EVENT => WalRecord::AttachEvent {
                user,
                template: r.get_u32("attach-event template")?,
            },
            TAG_OBSERVE => WalRecord::Observe {
                user,
                suppressed: r.get_u8("observe suppressed flag")? != 0,
                column: r.get_f64_slice("observe column")?,
            },
            other => return Err(format!("unknown WAL record tag {other}")),
        };
        r.expect_end("WAL record")?;
        Ok(record)
    }

    /// Full frame bytes: length + CRC header followed by the payload.
    pub(crate) fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// How a WAL segment ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalTail {
    /// Every frame checked out and the file ends on a frame boundary.
    Clean,
    /// The final bytes are a torn or corrupt frame. `user` is the uid
    /// recovered from the partial payload prefix, when enough of it
    /// survived to be attributable.
    Torn {
        /// Uid from the partial payload, if at least 9 payload bytes exist.
        user: Option<u64>,
    },
}

/// Encoded WAL header for generation `seq`, shard `shard`.
fn encode_header(seq: u64, shard: u32, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(WAL_VERSION);
    w.put_u64(seq);
    w.put_u32(shard);
    w.put_u64(fingerprint);
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&w.into_bytes());
    bytes
}

const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8;

/// Open append handle for one shard's current WAL segment.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    fsync: bool,
}

impl WalWriter {
    /// Create a fresh segment (truncating any stale file at `path`) and
    /// persist its header.
    pub(crate) fn create(
        path: &Path,
        seq: u64,
        shard: u32,
        fingerprint: u64,
        fsync: bool,
    ) -> Result<Self, DurableError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create WAL segment", path, &e))?;
        file.write_all(&encode_header(seq, shard, fingerprint))
            .map_err(|e| io_err("write WAL header", path, &e))?;
        let mut writer = WalWriter {
            file,
            path: path.to_path_buf(),
            fsync,
        };
        writer.sync()?;
        Ok(writer)
    }

    /// Write the frame without syncing, returning the byte count; the
    /// caller pairs this with [`WalWriter::sync`] (split so the store can
    /// time the fsync separately from the write — with `fsync` on, a
    /// record is on disk once its `sync` returns).
    pub(crate) fn append_unsynced(&mut self, record: &WalRecord) -> Result<usize, DurableError> {
        let frame = record.encode_frame();
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append WAL record", &self.path, &e))?;
        Ok(frame.len())
    }

    pub(crate) fn sync(&mut self) -> Result<(), DurableError> {
        if self.fsync {
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync WAL segment", &self.path, &e))?;
        }
        Ok(())
    }
}

/// Result of scanning a shard WAL segment during recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalScan {
    /// Records whose frames passed the CRC check, in append order.
    pub(crate) records: Vec<WalRecord>,
    /// How the segment ended.
    pub(crate) tail: WalTail,
}

/// Read a shard segment, validating the header against the expected
/// generation, shard index, and fingerprint.
///
/// Torn-tail policy (soundness over completeness):
/// * a partial frame at EOF is a torn write — report it, attributing the
///   uid when the payload prefix survived;
/// * a CRC mismatch **followed by more data** is not an interrupted append
///   but real corruption — stop reading and report an unattributable tear,
///   which makes recovery exhaust the whole shard. Frames after the damage
///   are dropped; since exhaustion dominates any spend they could add, the
///   recovered ledger still never under-counts.
pub(crate) fn read_segment(
    path: &Path,
    seq: u64,
    shard: u32,
    fingerprint: u64,
) -> Result<WalScan, DurableError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| io_err("read WAL segment", path, &e))?;
        }
        // A checkpoint creates and persists every shard segment before it
        // renames the snapshot that names them into place, so this layer
        // never leaves a snapshot without its segments. A missing file is
        // a directory written by an older build, which renamed the snapshot
        // first and crashed before the segment existed — no record reached
        // it; treat it as empty.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                tail: WalTail::Clean,
            });
        }
        Err(e) => return Err(io_err("open WAL segment", path, &e)),
    }

    let corrupt = |detail: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };

    if bytes.len() < HEADER_LEN {
        // The header itself was torn; no frame was ever durable here.
        return Ok(WalScan {
            records: Vec::new(),
            tail: WalTail::Torn { user: None },
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(corrupt("bad WAL magic".into()));
    }
    let mut r = Reader::new(&bytes[8..HEADER_LEN]);
    let version = r.get_u32("WAL version").map_err(corrupt)?;
    if version != WAL_VERSION {
        return Err(corrupt(format!(
            "unsupported WAL version {version}, expected {WAL_VERSION}"
        )));
    }
    let file_seq = r.get_u64("WAL seq").map_err(corrupt)?;
    let file_shard = r.get_u32("WAL shard").map_err(corrupt)?;
    let file_fp = r.get_u64("WAL fingerprint").map_err(corrupt)?;
    if file_seq != seq || file_shard != shard {
        return Err(corrupt(format!(
            "WAL labelled (seq {file_seq}, shard {file_shard}), expected (seq {seq}, shard {shard})"
        )));
    }
    if file_fp != fingerprint {
        return Err(DurableError::Mismatch {
            what: "scenario fingerprint",
            expected: format!("{fingerprint:#018x}"),
            found: format!("{file_fp:#018x}"),
        });
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        let left = bytes.len() - pos;
        if left == 0 {
            return Ok(WalScan {
                records,
                tail: WalTail::Clean,
            });
        }
        if left < 8 {
            return Ok(WalScan {
                records,
                tail: WalTail::Torn { user: None },
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let payload_start = pos + 8;
        let partial_payload = &bytes[payload_start..];
        let attribute = |payload: &[u8]| {
            if payload.len() >= 9 {
                Some(u64::from_le_bytes(
                    payload[1..9].try_into().expect("8 bytes"),
                ))
            } else {
                None
            }
        };
        if len > MAX_FRAME_LEN {
            // Garbage length prefix: the header bytes themselves are torn.
            return Ok(WalScan {
                records,
                tail: WalTail::Torn { user: None },
            });
        }
        let len = len as usize;
        if partial_payload.len() < len {
            return Ok(WalScan {
                records,
                tail: WalTail::Torn {
                    user: attribute(partial_payload),
                },
            });
        }
        let payload = &partial_payload[..len];
        if crc32(payload) != want_crc {
            // Corrupt frame. If it is the final frame this is a tear of the
            // payload bytes; either way attribution from the prefix is only
            // trustworthy for an EOF tear, so mid-file damage stays
            // unattributable (recovery exhausts the shard).
            let at_eof = payload_start + len == bytes.len();
            return Ok(WalScan {
                records,
                tail: WalTail::Torn {
                    user: if at_eof { attribute(payload) } else { None },
                },
            });
        }
        let record = WalRecord::decode_payload(payload)
            .map_err(|detail| corrupt(format!("frame at byte {pos}: {detail}")))?;
        records.push(record);
        pos = payload_start + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::AddUser {
                user: 42,
                pi: vec![0.25; 4],
            },
            WalRecord::AttachEvent {
                user: 42,
                template: 1,
            },
            WalRecord::Observe {
                user: 42,
                suppressed: false,
                column: vec![0.5, 0.125, 0.25, 0.125],
            },
            WalRecord::Observe {
                user: 7,
                suppressed: true,
                column: vec![1.0, 0.0, 0.0, 0.0],
            },
            WalRecord::RemoveUser { user: 7 },
        ]
    }

    fn write_segment(path: &Path, records: &[WalRecord]) {
        let mut w = WalWriter::create(path, 3, 2, 0xFEED, false).unwrap();
        for r in records {
            w.append_unsynced(r).unwrap();
            w.sync().unwrap();
        }
    }

    #[test]
    fn records_roundtrip_through_a_segment() {
        let dir = tempdir();
        let path = dir.join("wal-test.log");
        let records = sample_records();
        write_segment(&path, &records);
        let scan = read_segment(&path, 3, 2, 0xFEED).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_frame_is_attributed_to_its_user() {
        let dir = tempdir();
        let path = dir.join("wal-torn.log");
        // End on an Observe frame: its payload is long enough that keeping
        // nine bytes of it genuinely tears the frame.
        let records = sample_records()[..4].to_vec();
        write_segment(&path, &records);
        let full = std::fs::read(&path).unwrap();
        let last_frame = records.last().unwrap().encode_frame();
        // Keep the length+crc header and the first 9 payload bytes of the
        // final frame: enough to attribute, not enough to verify.
        let cut = full.len() - last_frame.len() + 8 + 9;
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = read_segment(&path, 3, 2, 0xFEED).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        assert_eq!(scan.tail, WalTail::Torn { user: Some(7) });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_inside_the_frame_header_is_unattributable() {
        let dir = tempdir();
        let path = dir.join("wal-header-torn.log");
        let records = sample_records();
        write_segment(&path, &records);
        let full = std::fs::read(&path).unwrap();
        let last_frame = records.last().unwrap().encode_frame();
        let cut = full.len() - last_frame.len() + 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = read_segment(&path, 3, 2, 0xFEED).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        assert_eq!(scan.tail, WalTail::Torn { user: None });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn midfile_corruption_stops_the_scan_unattributed() {
        let dir = tempdir();
        let path = dir.join("wal-corrupt.log");
        let records = sample_records();
        write_segment(&path, &records);
        let mut full = std::fs::read(&path).unwrap();
        // Flip a byte inside the first frame's payload.
        let first_payload_at = HEADER_LEN + 8 + 2;
        full[first_payload_at] ^= 0xFF;
        std::fs::write(&path, &full).unwrap();
        let scan = read_segment(&path, 3, 2, 0xFEED).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, WalTail::Torn { user: None });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_mismatches_are_structured_errors() {
        let dir = tempdir();
        let path = dir.join("wal-mismatch.log");
        write_segment(&path, &sample_records());
        assert!(matches!(
            read_segment(&path, 4, 2, 0xFEED),
            Err(DurableError::Corrupt { .. })
        ));
        assert!(matches!(
            read_segment(&path, 3, 0, 0xFEED),
            Err(DurableError::Corrupt { .. })
        ));
        assert!(matches!(
            read_segment(&path, 3, 2, 0xBEEF),
            Err(DurableError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_reads_as_empty() {
        let dir = tempdir();
        let scan = read_segment(&dir.join("absent.log"), 0, 0, 0).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "priste-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
