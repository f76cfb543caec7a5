//! CRC-checked, atomically-renamed snapshot files.
//!
//! A snapshot is the full serialized service state at a checkpoint: the
//! aggregate counters plus every session's posterior, ledger, and event
//! windows (each window carrying the `IncrementalTwoWorld` replay seed —
//! attach-time prior, forward-mantissa vector, log scale, and cursor).
//!
//! Layout:
//!
//! ```text
//! [magic "PRSNP01\0"][version u32][seq u64][payload_len u64][crc32 u32][payload]
//! ```
//!
//! Snapshots are streamed straight from the live sessions into
//! `<name>.tmp` behind a placeholder header, which is patched with the
//! payload length and CRC once the payload is written; the file is then
//! fsynced and renamed over the final name — a crash mid-write leaves
//! either the previous snapshot or a `.tmp` that recovery never reads,
//! never a half-written current file. Memory stays bounded: no copy of the
//! state is ever assembled.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use super::codec::{crc32, CodecResult, Crc32, Reader, Sink, Writer};
use super::{io_err, sync_dir, DurableError};

/// Magic prefix of every snapshot file.
pub(crate) const SNAP_MAGIC: &[u8; 8] = b"PRSNP01\0";
/// Current snapshot format version.
pub(crate) const SNAP_VERSION: u32 = 1;

/// One event window's replay seed. `V` is `Vec<f64>` when decoded and
/// `&[f64]` when encoded in place from a live window.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowSnap<V = Vec<f64>> {
    /// Template index the window was instantiated from.
    pub(crate) template: u32,
    /// Window-local cursor (observations consumed since attach).
    pub(crate) t: u64,
    /// Log scale factored out of the forward mantissa.
    pub(crate) log_scale: f64,
    /// Attach-time prior the window was seeded with.
    pub(crate) pi: V,
    /// Stacked two-world forward mantissa (length `2m`).
    pub(crate) mantissa: V,
}

/// One user session's persisted state (vectors owned or borrowed, as for
/// [`WindowSnap`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionSnap<V = Vec<f64>> {
    /// User id.
    pub(crate) user: u64,
    /// User-local clock.
    pub(crate) t: u64,
    /// Ledger budget.
    pub(crate) budget: f64,
    /// Ledger spend (may be `+∞` after conservative rounding).
    pub(crate) spent: f64,
    /// Ledger observation count.
    pub(crate) observations: u64,
    /// Ledger violation count.
    pub(crate) violations: u64,
    /// Filtered location posterior.
    pub(crate) posterior: V,
    /// Active windows, in attach order.
    pub(crate) windows: Vec<WindowSnap<V>>,
}

/// Full service state at a checkpoint, as decoded from disk.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapshotState {
    /// Scenario fingerprint the state belongs to.
    pub(crate) fingerprint: u64,
    /// `ServiceStats` counters in declaration order: observations, evicted,
    /// certified, violated, mismatched, suppressed.
    pub(crate) stats: [u64; 6],
    /// All sessions, shard-major then user-id order (deterministic for a
    /// given state).
    pub(crate) sessions: Vec<SessionSnap>,
}

/// A service state the snapshot encoder can stream — in production the
/// live service itself, whose vectors are encoded in place.
pub(crate) trait SnapshotSource {
    /// Scenario fingerprint the state belongs to.
    fn fingerprint(&self) -> u64;
    /// `ServiceStats` counters in declaration order.
    fn stats(&self) -> [u64; 6];
    /// How many sessions [`SnapshotSource::for_each_session`] visits.
    fn num_sessions(&self) -> usize;
    /// Visits every session in canonical order: shard-major, then user id.
    fn for_each_session(&self, visit: &mut dyn FnMut(SessionSnap<&[f64]>));
}

#[cfg(test)]
impl SnapshotSource for SnapshotState {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn stats(&self) -> [u64; 6] {
        self.stats
    }

    fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn for_each_session(&self, visit: &mut dyn FnMut(SessionSnap<&[f64]>)) {
        for s in &self.sessions {
            visit(SessionSnap {
                user: s.user,
                t: s.t,
                budget: s.budget,
                spent: s.spent,
                observations: s.observations,
                violations: s.violations,
                posterior: &s.posterior,
                windows: s
                    .windows
                    .iter()
                    .map(|w| WindowSnap {
                        template: w.template,
                        t: w.t,
                        log_scale: w.log_scale,
                        pi: &w.pi[..],
                        mantissa: &w.mantissa[..],
                    })
                    .collect(),
            });
        }
    }
}

/// Streams the snapshot payload (no file header) into `w`. Deterministic:
/// the same state always encodes to the same bytes, which is what makes
/// `state_digest` a usable equality witness in the recovery tests.
///
/// # Panics
/// If the source visits a different number of sessions than it reports —
/// the count prefix would then misdescribe the payload.
pub(crate) fn encode_payload(state: &dyn SnapshotSource, w: &mut dyn Sink) {
    w.put_u64(state.fingerprint());
    for c in state.stats() {
        w.put_u64(c);
    }
    let count = state.num_sessions();
    w.put_u64(count as u64);
    let mut written = 0;
    state.for_each_session(&mut |s| {
        written += 1;
        w.put_u64(s.user);
        w.put_u64(s.t);
        w.put_f64(s.budget);
        w.put_f64(s.spent);
        w.put_u64(s.observations);
        w.put_u64(s.violations);
        w.put_f64_slice(s.posterior);
        w.put_u32(s.windows.len() as u32);
        for win in &s.windows {
            w.put_u32(win.template);
            w.put_u64(win.t);
            w.put_f64(win.log_scale);
            w.put_f64_slice(win.pi);
            w.put_f64_slice(win.mantissa);
        }
    });
    assert_eq!(written, count, "snapshot source miscounted its sessions");
}

/// Inverse of [`encode_payload`].
pub(crate) fn decode_payload(bytes: &[u8]) -> CodecResult<SnapshotState> {
    let mut r = Reader::new(bytes);
    let fingerprint = r.get_u64("snapshot fingerprint")?;
    let mut stats = [0u64; 6];
    for c in &mut stats {
        *c = r.get_u64("snapshot stats")?;
    }
    let num_sessions = r.get_u64("session count")?;
    let mut sessions = Vec::new();
    for _ in 0..num_sessions {
        let user = r.get_u64("session uid")?;
        let t = r.get_u64("session clock")?;
        let budget = r.get_f64("ledger budget")?;
        let spent = r.get_f64("ledger spent")?;
        let observations = r.get_u64("ledger observations")?;
        let violations = r.get_u64("ledger violations")?;
        let posterior = r.get_f64_slice("session posterior")?;
        let num_windows = r.get_u32("window count")?;
        let mut windows = Vec::new();
        for _ in 0..num_windows {
            windows.push(WindowSnap {
                template: r.get_u32("window template")?,
                t: r.get_u64("window clock")?,
                log_scale: r.get_f64("window log scale")?,
                pi: r.get_f64_slice("window prior")?,
                mantissa: r.get_f64_slice("window mantissa")?,
            });
        }
        sessions.push(SessionSnap {
            user,
            t,
            budget,
            spent,
            observations,
            violations,
            posterior,
            windows,
        });
    }
    r.expect_end("snapshot payload")?;
    Ok(SnapshotState {
        fingerprint,
        stats,
        sessions,
    })
}

/// The file header: magic, version, sequence label, payload length, CRC.
fn encode_header(seq: u64, payload_len: u64, crc: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(SNAP_MAGIC);
    w.put_u32(SNAP_VERSION);
    w.put_u64(seq);
    w.put_u64(payload_len);
    w.put_u32(crc);
    w.into_bytes()
}

/// Write buffer of the snapshot file sink. A checkpoint at m = 2500 streams
/// ≈ 80 KB per session; a 256 KiB buffer hands the kernel a few writes per
/// session where the default 8 KiB made ten.
const SINK_BUF_BYTES: usize = 256 << 10;

/// Buffered file sink that keeps the running CRC and byte count the header
/// needs. The first write error is latched (and later bytes dropped) so the
/// encoder stays infallible; [`write_snapshot`] reports it.
struct FileSink {
    out: BufWriter<File>,
    crc: Crc32,
    len: u64,
    err: Option<std::io::Error>,
}

impl Sink for FileSink {
    fn put_bytes(&mut self, bytes: &[u8]) {
        if self.err.is_some() {
            return;
        }
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        if let Err(e) = self.out.write_all(bytes) {
            self.err = Some(e);
        }
    }
}

/// Writes a snapshot for generation `seq` atomically: placeholder header →
/// payload streamed into `.tmp` → header patched → fsync → rename over the
/// final path.
pub(crate) fn write_snapshot(
    path: &Path,
    seq: u64,
    state: &dyn SnapshotSource,
    fsync: bool,
) -> Result<(), DurableError> {
    let tmp = path.with_extension("bin.tmp");
    let write_err = |e: std::io::Error| io_err("write snapshot", &tmp, &e);
    {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("create snapshot tmp", &tmp, &e))?;
        let mut sink = FileSink {
            out: BufWriter::with_capacity(SINK_BUF_BYTES, file),
            crc: Crc32::new(),
            len: 0,
            err: None,
        };
        sink.out
            .write_all(&encode_header(seq, 0, 0))
            .map_err(write_err)?;
        encode_payload(state, &mut sink);
        if let Some(e) = sink.err {
            return Err(write_err(e));
        }
        let mut f = sink
            .out
            .into_inner()
            .map_err(|e| write_err(e.into_error()))?;
        f.seek(SeekFrom::Start(0)).map_err(write_err)?;
        f.write_all(&encode_header(seq, sink.len, sink.crc.finish()))
            .map_err(write_err)?;
        if fsync {
            f.sync_data()
                .map_err(|e| io_err("fsync snapshot", &tmp, &e))?;
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename snapshot into place", path, &e))?;
    if fsync {
        // Persist the rename itself (directory entry).
        if let Some(dir) = path.parent() {
            sync_dir(dir);
        }
    }
    Ok(())
}

/// Reads and fully validates one snapshot file (magic, version, sequence
/// label, CRC, payload shape).
pub(crate) fn read_snapshot(path: &Path, seq: u64) -> Result<SnapshotState, DurableError> {
    let corrupt = |detail: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read snapshot", path, &e))?;
    if bytes.len() < 8 || &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic".into()));
    }
    let mut r = Reader::new(&bytes[8..]);
    let version = r.get_u32("snapshot version").map_err(corrupt)?;
    if version != SNAP_VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {version}, expected {SNAP_VERSION}"
        )));
    }
    let file_seq = r.get_u64("snapshot seq").map_err(corrupt)?;
    if file_seq != seq {
        return Err(corrupt(format!(
            "snapshot labelled seq {file_seq}, expected {seq}"
        )));
    }
    let len = r.get_u64("snapshot length").map_err(corrupt)? as usize;
    let want_crc = r.get_u32("snapshot crc").map_err(corrupt)?;
    if r.remaining() != len {
        return Err(corrupt(format!(
            "snapshot payload is {} bytes, header says {len}",
            r.remaining()
        )));
    }
    let payload = &bytes[bytes.len() - len..];
    if crc32(payload) != want_crc {
        return Err(corrupt("snapshot payload failed its CRC check".into()));
    }
    decode_payload(payload).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn sample_state() -> SnapshotState {
        SnapshotState {
            fingerprint: 0xABCD_EF01,
            stats: [10, 2, 7, 1, 0, 3],
            sessions: vec![
                SessionSnap {
                    user: 3,
                    t: 5,
                    budget: 2.0,
                    spent: 1.25,
                    observations: 5,
                    violations: 1,
                    posterior: vec![0.5, 0.25, 0.25],
                    windows: vec![WindowSnap {
                        template: 0,
                        t: 2,
                        log_scale: -3.5,
                        pi: vec![0.4, 0.3, 0.3],
                        mantissa: vec![0.1; 6],
                    }],
                },
                SessionSnap {
                    user: 9,
                    t: 1,
                    budget: 2.0,
                    spent: f64::INFINITY,
                    observations: 1,
                    violations: 0,
                    posterior: vec![1.0, 0.0, 0.0],
                    windows: Vec::new(),
                },
            ],
        }
    }

    fn payload(state: &SnapshotState) -> Vec<u8> {
        let mut w = Writer::new();
        encode_payload(state, &mut w);
        w.into_bytes()
    }

    #[test]
    fn payload_roundtrips_bit_exactly() {
        let state = sample_state();
        let bytes = payload(&state);
        assert_eq!(decode_payload(&bytes).unwrap(), state);
        // Determinism: encoding is a pure function of the state.
        assert_eq!(payload(&state), bytes);
    }

    #[test]
    fn streamed_file_matches_the_in_memory_layout() {
        let dir = tempdir();
        let path = dir.join("snap-7.bin");
        let state = sample_state();
        write_snapshot(&path, 7, &state, false).unwrap();
        // The layout the format has always had: magic, version, seq,
        // payload length and CRC, then the payload, assembled in memory.
        let body = payload(&state);
        let mut expected = SNAP_MAGIC.to_vec();
        expected.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        expected.extend_from_slice(&7u64.to_le_bytes());
        expected.extend_from_slice(&(body.len() as u64).to_le_bytes());
        expected.extend_from_slice(&crc32(&body).to_le_bytes());
        expected.extend_from_slice(&body);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_roundtrips_and_rejects_damage() {
        let dir = tempdir();
        let path = dir.join("snap-1.bin");
        let state = sample_state();
        write_snapshot(&path, 1, &state, false).unwrap();
        assert_eq!(read_snapshot(&path, 1).unwrap(), state);
        // Wrong expected sequence.
        assert!(matches!(
            read_snapshot(&path, 2),
            Err(DurableError::Corrupt { .. })
        ));
        // Flip one payload byte: the CRC catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(DurableError::Corrupt { .. })
        ));
        // Truncate: the length check catches it.
        write_snapshot(&path, 1, &state, false).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(DurableError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any single flipped payload bit makes the file `Corrupt`: the CRC
        /// rejects it before the payload is decoded.
        #[test]
        fn one_flipped_payload_bit_is_corrupt(pick in 0usize..=usize::MAX) {
            let dir = tempdir();
            let path = dir.join("snap-flip.bin");
            write_snapshot(&path, 1, &sample_state(), false).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let header = encode_header(1, 0, 0).len();
            let bit = header * 8 + pick % ((bytes.len() - header) * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            let read = read_snapshot(&path, 1);
            prop_assert!(
                matches!(read, Err(DurableError::Corrupt { .. })),
                "flipping bit {} read back {:?}",
                bit,
                read
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "priste-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
