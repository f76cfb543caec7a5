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
//! client ever saw the effect of is on disk. A record borrows its vector
//! from the caller, and the writer encodes every frame into one buffer it
//! keeps, so a steady-state append allocates nothing.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use super::codec::{crc32, CodecResult, Crc32, Reader, Sink};
use super::{io_err, DurableError};

/// Magic prefix of every WAL segment file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"PRWAL01\0";
/// Current WAL format version.
pub(crate) const WAL_VERSION: u32 = 1;
/// Upper bound on a single frame payload; a larger length prefix means the
/// header bytes themselves are garbage (torn or corrupt write).
const MAX_FRAME_LEN: u32 = 1 << 28;

/// One committed mutation, journaled before its effect is acknowledged.
/// Vectors are borrowed when journaling and owned when read back.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord<'a> {
    /// A user session was registered with the given prior.
    AddUser {
        /// User id.
        user: u64,
        /// Initial location distribution.
        pi: Cow<'a, [f64]>,
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
        column: Cow<'a, [f64]>,
    },
}

const TAG_ADD_USER: u8 = 1;
const TAG_REMOVE_USER: u8 = 2;
const TAG_ATTACH_EVENT: u8 = 3;
const TAG_OBSERVE: u8 = 4;

impl WalRecord<'_> {
    fn encode_payload(&self, w: &mut impl Sink) {
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
    }

    /// Replaces `frame` with this record's frame bytes — length and CRC
    /// header, then the payload — encoding in place: eight placeholder
    /// bytes, the payload, then the header patched in. Reusing one `frame`
    /// makes an append allocation-free once the buffer has grown.
    fn encode_frame_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        frame.extend_from_slice(&[0; 8]);
        self.encode_payload(frame);
        let (head, payload) = frame.split_at_mut(8);
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    }

    fn decode_payload(payload: &[u8]) -> CodecResult<WalRecord<'static>> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8("record tag")?;
        let user = r.get_u64("record uid")?;
        let record = match tag {
            TAG_ADD_USER => WalRecord::AddUser {
                user,
                pi: Cow::Owned(r.get_f64_slice("add-user prior")?),
            },
            TAG_REMOVE_USER => WalRecord::RemoveUser { user },
            TAG_ATTACH_EVENT => WalRecord::AttachEvent {
                user,
                template: r.get_u32("attach-event template")?,
            },
            TAG_OBSERVE => WalRecord::Observe {
                user,
                suppressed: r.get_u8("observe suppressed flag")? != 0,
                column: Cow::Owned(r.get_f64_slice("observe column")?),
            },
            other => return Err(format!("unknown WAL record tag {other}")),
        };
        r.expect_end("WAL record")?;
        Ok(record)
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
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.put_u32(WAL_VERSION);
    bytes.put_u64(seq);
    bytes.put_u32(shard);
    bytes.put_u64(fingerprint);
    bytes
}

const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8;

/// Open append handle for one shard's current WAL segment.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    fsync: bool,
    /// The last frame written; its allocation is reused by the next one.
    frame: Vec<u8>,
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
            frame: Vec::new(),
        };
        writer.sync()?;
        Ok(writer)
    }

    /// Write the frame without syncing, returning the byte count; the
    /// caller pairs this with [`WalWriter::sync`] (split so the store can
    /// time the fsync separately from the write — with `fsync` on, a
    /// record is on disk once its `sync` returns).
    pub(crate) fn append_unsynced(&mut self, record: &WalRecord) -> Result<usize, DurableError> {
        record.encode_frame_into(&mut self.frame);
        self.file
            .write_all(&self.frame)
            .map_err(|e| io_err("append WAL record", &self.path, &e))?;
        Ok(self.frame.len())
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
    pub(crate) records: Vec<WalRecord<'static>>,
    /// How the segment ended.
    pub(crate) tail: WalTail,
}

/// The user a damaged final frame is charged to: the uid in its first 9
/// payload bytes (tag + uid), when they survived — unless some prefix of
/// the bytes carries the frame's CRC. Then the frame was whole and its
/// length prefix is what broke, so the bytes after it were frames too and
/// the damage is not attributable.
fn attribute_tear(payload: &[u8], want_crc: u32) -> Option<u64> {
    let user = u64::from_le_bytes(payload.get(1..9)?.try_into().expect("8 bytes"));
    let mut crc = Crc32::new();
    for byte in payload {
        crc.update(std::slice::from_ref(byte));
        if crc.finish() == want_crc {
            return None;
        }
    }
    Some(user)
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
///   recovered ledger still never under-counts;
/// * a frame that runs to EOF but whose CRC matches a *shorter* prefix of
///   its bytes had its length prefix damaged: the real frame ended earlier
///   and more data followed it, so this too is mid-file corruption and
///   unattributable.
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
                    user: attribute_tear(partial_payload, want_crc),
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
                    user: if at_eof {
                        attribute_tear(payload, want_crc)
                    } else {
                        None
                    },
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
    use proptest::prelude::*;

    /// The frame encoder the reused-buffer one replaced: the payload in a
    /// buffer of its own, then a fresh frame with the header in front.
    fn encode_frame(record: &WalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        record.encode_payload(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    fn sample_records() -> Vec<WalRecord<'static>> {
        vec![
            WalRecord::AddUser {
                user: 42,
                pi: Cow::Owned(vec![0.25; 4]),
            },
            WalRecord::AttachEvent {
                user: 42,
                template: 1,
            },
            WalRecord::Observe {
                user: 42,
                suppressed: false,
                column: Cow::Owned(vec![0.5, 0.125, 0.25, 0.125]),
            },
            WalRecord::Observe {
                user: 7,
                suppressed: true,
                column: Cow::Owned(vec![1.0, 0.0, 0.0, 0.0]),
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
        let last_frame = encode_frame(records.last().unwrap());
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
        let last_frame = encode_frame(records.last().unwrap());
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

    /// Any record: arbitrary uids, templates and flags, and vectors of
    /// arbitrary bit patterns (NaNs, infinities, signed zeros included).
    fn record() -> impl Strategy<Value = WalRecord<'static>> {
        (
            0u8..4,
            0u64..=u64::MAX,
            0u32..=u32::MAX,
            proptest::bool::ANY,
            proptest::collection::vec(0u64..=u64::MAX, 0..40),
        )
            .prop_map(|(kind, user, template, suppressed, bits)| {
                let values: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
                match kind {
                    0 => WalRecord::AddUser {
                        user,
                        pi: Cow::Owned(values),
                    },
                    1 => WalRecord::RemoveUser { user },
                    2 => WalRecord::AttachEvent { user, template },
                    _ => WalRecord::Observe {
                        user,
                        suppressed,
                        column: Cow::Owned(values),
                    },
                }
            })
    }

    /// A record's uid, read back from its frame bytes.
    fn frame_user(frame: &[u8]) -> u64 {
        u64::from_le_bytes(frame[9..17].try_into().unwrap())
    }

    /// Writes `bytes` as a segment file and scans it.
    fn scan(path: &Path, bytes: &[u8]) -> Result<WalScan, DurableError> {
        std::fs::write(path, bytes).unwrap();
        read_segment(path, 3, 2, 0xFEED)
    }

    /// The records' frames, as the oracle encodes them.
    fn encode_all(records: &[WalRecord]) -> Vec<Vec<u8>> {
        records.iter().map(encode_frame).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One reused buffer encodes every record to exactly the bytes of
        /// the allocate-per-frame encoder, whatever the frame before it
        /// left in the buffer, and a writer's segment is the header plus
        /// those frames.
        #[test]
        fn reused_buffer_frames_match_the_oracle(
            records in proptest::collection::vec(record(), 1..12),
        ) {
            let mut buf = Vec::new();
            for r in &records {
                r.encode_frame_into(&mut buf);
                prop_assert_eq!(&buf, &encode_frame(r));
            }
            let dir = tempdir();
            let path = dir.join("wal-oracle.log");
            write_segment(&path, &records);
            let mut want = encode_header(3, 2, 0xFEED);
            want.extend(encode_all(&records).concat());
            prop_assert_eq!(std::fs::read(&path).unwrap(), want);
        }

        /// Arbitrary bytes after a valid header never panic, and whatever
        /// records come back are a prefix of those bytes, frame for frame.
        #[test]
        fn arbitrary_frame_bytes_never_panic(
            raw in proptest::collection::vec(0u8..=255, 0..256),
            lengths in proptest::collection::vec(0u32..64, 0..4),
        ) {
            // Plausible length prefixes in front of random bytes make the
            // scan reach its CRC and decode paths, not only the tears.
            let mut bytes = encode_header(3, 2, 0xFEED);
            for (len, chunk) in lengths.iter().zip(raw.chunks(64)) {
                bytes.extend_from_slice(&len.to_le_bytes());
                bytes.extend_from_slice(chunk);
            }
            bytes.extend_from_slice(&raw);
            let dir = tempdir();
            match scan(&dir.join("wal-arbitrary.log"), &bytes) {
                Ok(found) => {
                    let prefix = encode_all(&found.records).concat();
                    prop_assert!(bytes[HEADER_LEN..].starts_with(&prefix));
                }
                Err(e) => prop_assert!(matches!(e, DurableError::Corrupt { .. }), "{}", e),
            }
        }

        /// A valid segment cut at any offset reads back the whole frames
        /// before the cut. A cut on a frame boundary is clean; a cut inside
        /// a frame is a tear, attributed to its user once the tag and uid
        /// survived.
        #[test]
        fn truncation_at_any_offset_reads_the_prefix(
            records in proptest::collection::vec(record(), 1..6),
            cut in 0usize..=usize::MAX,
        ) {
            let frames = encode_all(&records);
            let mut bytes = encode_header(3, 2, 0xFEED);
            bytes.extend(frames.concat());
            let cut = cut % (bytes.len() + 1);
            let dir = tempdir();
            let found = scan(&dir.join("wal-cut.log"), &bytes[..cut]).unwrap();
            let (mut whole, mut at) = (0, HEADER_LEN);
            while whole < frames.len() && at + frames[whole].len() <= cut {
                at += frames[whole].len();
                whole += 1;
            }
            prop_assert_eq!(encode_all(&found.records), frames[..whole].to_vec());
            let tail = if cut < HEADER_LEN {
                WalTail::Torn { user: None }
            } else if cut == at {
                WalTail::Clean
            } else {
                let user = (cut - at >= 17).then(|| frame_user(&frames[whole]));
                WalTail::Torn { user }
            };
            prop_assert_eq!(found.tail, tail);
        }

        /// A flipped bit ends the scan at its frame: the frames before it
        /// come back, and the tear is attributable only when the bit is in
        /// the final frame's CRC or payload. A flip mid-file, or in a
        /// length prefix, is not.
        #[test]
        fn a_flipped_bit_is_attributed_only_in_the_final_frame(
            records in proptest::collection::vec(record(), 1..6),
            bit in 0usize..=usize::MAX,
        ) {
            let frames = encode_all(&records);
            let mut bytes = encode_header(3, 2, 0xFEED);
            bytes.extend(frames.concat());
            let bit = bit % ((bytes.len() - HEADER_LEN) * 8);
            let byte = HEADER_LEN + bit / 8;
            bytes[byte] ^= 1 << (bit % 8);
            let (mut victim, mut at) = (0, HEADER_LEN);
            while at + frames[victim].len() <= byte {
                at += frames[victim].len();
                victim += 1;
            }
            let dir = tempdir();
            let found = scan(&dir.join("wal-flip.log"), &bytes).unwrap();
            prop_assert_eq!(encode_all(&found.records), frames[..victim].to_vec());
            let final_frame = victim + 1 == frames.len();
            let in_length = byte < at + 4;
            let user = (final_frame && !in_length).then(|| frame_user(&bytes[at..]));
            prop_assert_eq!(found.tail, WalTail::Torn { user });
        }

        /// A length prefix that lies — shorter, longer, past the end of the
        /// file, or absurd — ends the scan at its frame unattributed, even
        /// on the final frame: the frame's bytes are intact, so its CRC
        /// gives the lie away.
        #[test]
        fn a_lying_length_prefix_is_never_attributed(
            records in proptest::collection::vec(record(), 1..6),
            victim in 0usize..6,
            lie in 0u32..=u32::MAX,
            near in proptest::bool::ANY,
        ) {
            let frames = encode_all(&records);
            let victim = victim % frames.len();
            let at = HEADER_LEN + frames[..victim].iter().map(Vec::len).sum::<usize>();
            let real = (frames[victim].len() - 8) as u32;
            let len = if near {
                real ^ (lie % 63 + 1)
            } else if lie == real {
                real ^ 1
            } else {
                lie
            };
            let mut bytes = encode_header(3, 2, 0xFEED);
            bytes.extend(frames.concat());
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            let dir = tempdir();
            let found = scan(&dir.join("wal-lie.log"), &bytes).unwrap();
            prop_assert_eq!(encode_all(&found.records), frames[..victim].to_vec());
            prop_assert_eq!(found.tail, WalTail::Torn { user: None });
        }
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
