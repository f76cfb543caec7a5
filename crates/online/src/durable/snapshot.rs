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
//!
//! payload  = fingerprint u64, stats 6×u64, session count u64, session*
//! session  = user u64, t u64, budget f64, spent f64, observations u64,
//!            violations u64, posterior vec, window count u32, window*
//! window   = template u32, t u64, log_scale f64, π vec, mantissa vec
//! ```
//!
//! Version 2 (the only one written) encodes every `vec` slot as a tagged
//! reference into the vectors written so far: tag `0` followed by a
//! `u64`-length-prefixed slice writes a vector inline and gives it the next
//! id (0, 1, …); tag `1` followed by a `u32` id repeats an earlier one. The
//! writer keys vectors by allocation, so a prior and its initial lift
//! shared by many idle sessions are written once and then cost five bytes
//! a slot: an idle session with one window is 87 B instead of ≈ 80 KB at
//! m = 2500. A posterior that a session derives from one of its windows
//! lives only for that session's visit, so it is always written inline,
//! never keyed: a later one may reuse its address. The
//! decoder hands every reference the same `Arc` as its target, so reading
//! N idle sessions allocates their shared vectors once.
//!
//! Version 1 wrote every `vec` slot inline as a length-prefixed slice. It
//! is still read (directories written by older builds recover), never
//! written. The same inline walk is the *logical* layout that
//! `state_digest` hashes: the digest depends only on the state's values,
//! not on which of its vectors happen to share an allocation.
//!
//! Every vector of one snapshot has its slot's length: `n` for posteriors
//! and window priors, `2n` for mantissas, with `n` fixed by the first one
//! read. A reference to an unknown id, an unknown tag, or a vector of the
//! wrong length for its slot is a decode error.
//!
//! Snapshots are streamed straight from the live sessions into
//! `<name>.tmp` behind a placeholder header, which is patched with the
//! payload length and CRC once the payload is written; the file is then
//! fsynced and renamed over the final name — a crash mid-write leaves
//! either the previous snapshot or a `.tmp` that recovery never reads,
//! never a half-written current file. Memory stays bounded: no copy of the
//! state is ever assembled.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

use priste_linalg::Vector;

use super::codec::{crc32, CodecResult, Crc32, Reader, Sink};
use super::{io_err, sync_dir, DurableError};

/// Magic prefix of every snapshot file.
pub(crate) const SNAP_MAGIC: &[u8; 8] = b"PRSNP01\0";
/// Current snapshot format version: vectors written once, then referenced.
pub(crate) const SNAP_VERSION: u32 = 2;
/// The legacy all-inline version, still read.
const SNAP_VERSION_INLINE: u32 = 1;

/// Version-2 vector slot tag: a length-prefixed slice follows.
const VEC_INLINE: u8 = 0;
/// Version-2 vector slot tag: the `u32` id of an earlier inline vector
/// follows.
const VEC_REF: u8 = 1;

/// A window's forward mantissa as the encoder reads it in place from a
/// live window: its false half and, once the window's event has opened,
/// its true half. It is written as the logical `2m` vector, an absent true
/// half as `m` words of `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Lifted<'a> {
    pub(crate) f: &'a [f64],
    pub(crate) t: Option<&'a [f64]>,
}

/// One event window's replay seed. `V` is `Arc<Vector>` when decoded (a
/// vector the file shares is one allocation) and `&[f64]` when encoded in
/// place from a live window, whose mantissa `L` is then a [`Lifted`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowSnap<V = Arc<Vector>, L = V> {
    /// Template index the window was instantiated from.
    pub(crate) template: u32,
    /// Window-local cursor (observations consumed since attach).
    pub(crate) t: u64,
    /// Log scale factored out of the forward mantissa.
    pub(crate) log_scale: f64,
    /// Attach-time prior the window was seeded with.
    pub(crate) pi: V,
    /// Stacked two-world forward mantissa (length `2m`).
    pub(crate) mantissa: L,
}

/// A session as the encoder reads it in place from the live service. Its
/// posterior is borrowed where it is stored, and owned when the source
/// derived it for this visit alone: the encoder writes an owned one inline,
/// since its buffer may be freed and its address reused by the next one.
pub(crate) type BorrowedSession<'a> = SessionSnap<&'a [f64], Lifted<'a>, Cow<'a, [f64]>>;

/// One user session's persisted state (vectors shared or borrowed, as for
/// [`WindowSnap`]; `Q` is the posterior's).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionSnap<V = Arc<Vector>, L = V, Q = V> {
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
    pub(crate) posterior: Q,
    /// Active windows, in attach order.
    pub(crate) windows: Vec<WindowSnap<V, L>>,
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
    fn for_each_session(&self, visit: &mut dyn FnMut(BorrowedSession<'_>));
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

    fn for_each_session(&self, visit: &mut dyn FnMut(BorrowedSession<'_>)) {
        for s in &self.sessions {
            visit(SessionSnap {
                user: s.user,
                t: s.t,
                budget: s.budget,
                spent: s.spent,
                observations: s.observations,
                violations: s.violations,
                posterior: Cow::Borrowed(s.posterior.as_slice()),
                windows: s
                    .windows
                    .iter()
                    .map(|w| WindowSnap {
                        template: w.template,
                        t: w.t,
                        log_scale: w.log_scale,
                        pi: w.pi.as_slice(),
                        mantissa: Lifted {
                            f: &w.mantissa.as_slice()[..w.pi.len()],
                            t: Some(&w.mantissa.as_slice()[w.pi.len()..]),
                        },
                    })
                    .collect(),
            });
        }
    }
}

/// How [`encode_payload`] writes its vector slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Every slot inline: the version-1 walk, which `state_digest` hashes.
    Logical,
    /// Version 2: each allocation inline once, then by reference.
    Shared,
}

/// What the [`Layout::Shared`] writer keys a vector slot by: the
/// addresses of its pieces (the second `0` for a one-piece vector and for
/// an absent true half) and its logical length.
type SlotKey = (usize, usize, usize);

/// The [`Layout::Shared`] writer's vector ids: every inline vector takes
/// the next id, as the reader counts them, and a keyed one is entered under
/// its [`SlotKey`].
#[derive(Default)]
struct Ids {
    keyed: HashMap<SlotKey, u32>,
    next: usize,
}

/// Writes one vector slot of `len` logical words: `head` then, when
/// given, `tail`, and `+0.0` words up to `len`. With `ids` (the
/// [`Layout::Shared`] writer) a `keyed` vector seen before is keyed by its
/// allocation — its pieces' addresses and its length — and written as a
/// reference. Address keys are sound because the source borrows every
/// keyed vector for the whole encode: no allocation can be freed and
/// reused mid-payload. A vector that is not `keyed` is always written
/// inline.
fn put_vector(
    w: &mut dyn Sink,
    ids: Option<&mut Ids>,
    keyed: bool,
    head: &[f64],
    tail: Option<&[f64]>,
    len: usize,
) {
    if let Some(ids) = ids {
        if keyed {
            let key = (
                head.as_ptr() as usize,
                tail.map_or(0, |t| t.as_ptr() as usize),
                len,
            );
            match ids.keyed.entry(key) {
                Entry::Occupied(id) => {
                    w.put_u8(VEC_REF);
                    w.put_u32(*id.get());
                    return;
                }
                Entry::Vacant(slot) => {
                    // Past 2³² distinct vectors the rest are simply never shared.
                    if let Ok(id) = u32::try_from(ids.next) {
                        slot.insert(id);
                    }
                }
            }
        }
        ids.next += 1;
        w.put_u8(VEC_INLINE);
    }
    w.put_u64(len as u64);
    w.put_f64_words(head);
    let written = head.len() + tail.map_or(0, |t| t.len());
    if let Some(tail) = tail {
        w.put_f64_words(tail);
    }
    w.put_zero_words(len.saturating_sub(written));
}

/// Streams the snapshot payload (no file header) into `w`. The
/// [`Layout::Logical`] bytes are a pure function of the state's values,
/// which is what makes `state_digest` a usable equality witness in the
/// recovery tests. The [`Layout::Shared`] bytes also depend on which
/// vectors share an allocation, so they are deterministic for a given
/// sequence of service operations, not for a given state.
///
/// # Panics
/// If the source visits a different number of sessions than it reports —
/// the count prefix would then misdescribe the payload.
pub(crate) fn encode_payload(state: &dyn SnapshotSource, w: &mut dyn Sink, layout: Layout) {
    let mut ids = (layout == Layout::Shared).then(Ids::default);
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
        let keyed = matches!(s.posterior, Cow::Borrowed(_));
        put_vector(
            w,
            ids.as_mut(),
            keyed,
            &s.posterior,
            None,
            s.posterior.len(),
        );
        w.put_u32(s.windows.len() as u32);
        for win in &s.windows {
            w.put_u32(win.template);
            w.put_u64(win.t);
            w.put_f64(win.log_scale);
            put_vector(w, ids.as_mut(), true, win.pi, None, win.pi.len());
            let Lifted { f, t } = win.mantissa;
            put_vector(w, ids.as_mut(), true, f, t, 2 * f.len());
        }
    });
    assert_eq!(written, count, "snapshot source miscounted its sessions");
}

/// A vector slot's role, which fixes its length relative to the state
/// dimension `n`.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Posterior,
    Prior,
    Mantissa,
}

impl Slot {
    fn what(self) -> &'static str {
        match self {
            Slot::Posterior => "session posterior",
            Slot::Prior => "window prior",
            Slot::Mantissa => "window mantissa",
        }
    }

    /// The slot's length in units of `n`.
    fn per_state(self) -> usize {
        match self {
            Slot::Posterior | Slot::Prior => 1,
            Slot::Mantissa => 2,
        }
    }
}

/// Reads vector slots: inline slices in version 1, tagged inline or
/// reference slots in version 2.
struct VectorReader {
    shared: bool,
    /// Every version-2 inline vector so far, indexed by id.
    seen: Vec<Arc<Vector>>,
    /// The state dimension `n`, fixed by the first vector read.
    dim: Option<usize>,
}

impl VectorReader {
    fn get(&mut self, r: &mut Reader<'_>, slot: Slot) -> CodecResult<Arc<Vector>> {
        let what = slot.what();
        let inline = |r: &mut Reader<'_>| -> CodecResult<Arc<Vector>> {
            Ok(Arc::new(Vector::from(r.get_f64_slice(what)?)))
        };
        let v = if !self.shared {
            inline(r)?
        } else {
            match r.get_u8(what)? {
                VEC_INLINE => {
                    let v = inline(r)?;
                    self.seen.push(Arc::clone(&v));
                    v
                }
                VEC_REF => {
                    let id = r.get_u32(what)?;
                    self.seen.get(id as usize).cloned().ok_or_else(|| {
                        format!(
                            "corrupt {what}: refers to vector #{id}, but only {} precede it",
                            self.seen.len()
                        )
                    })?
                }
                tag => return Err(format!("corrupt {what}: unknown vector tag {tag}")),
            }
        };
        let dim = *self.dim.get_or_insert_with(|| v.len() / slot.per_state());
        let want = slot.per_state() * dim;
        if v.len() != want {
            return Err(format!(
                "corrupt {what}: length {}, expected {want}",
                v.len()
            ));
        }
        Ok(v)
    }
}

/// Inverse of [`encode_payload`] for a payload of snapshot format
/// `version` (1 or 2): a version-1 payload is the [`Layout::Logical`]
/// walk, a version-2 payload the [`Layout::Shared`] one.
pub(crate) fn decode_payload(bytes: &[u8], version: u32) -> CodecResult<SnapshotState> {
    let mut r = Reader::new(bytes);
    let mut vectors = VectorReader {
        shared: version == SNAP_VERSION,
        seen: Vec::new(),
        dim: None,
    };
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
        let posterior = vectors.get(&mut r, Slot::Posterior)?;
        let num_windows = r.get_u32("window count")?;
        let mut windows = Vec::new();
        for _ in 0..num_windows {
            windows.push(WindowSnap {
                template: r.get_u32("window template")?,
                t: r.get_u64("window clock")?,
                log_scale: r.get_f64("window log scale")?,
                pi: vectors.get(&mut r, Slot::Prior)?,
                mantissa: vectors.get(&mut r, Slot::Mantissa)?,
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
    let mut w = Vec::new();
    w.put_bytes(SNAP_MAGIC);
    w.put_u32(SNAP_VERSION);
    w.put_u64(seq);
    w.put_u64(payload_len);
    w.put_u32(crc);
    w
}

/// Write buffer of the snapshot file sink. At m = 2500 an observed session
/// streams ≈ 80 KB of its own vectors; a 256 KiB buffer hands the kernel a
/// few writes per such session where the default 8 KiB made ten.
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
        encode_payload(state, &mut sink, Layout::Shared);
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

/// Reads and fully validates one snapshot file (magic, version 1 or 2,
/// sequence label, CRC, payload shape).
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
    if version != SNAP_VERSION && version != SNAP_VERSION_INLINE {
        return Err(corrupt(format!(
            "unsupported snapshot version {version}, expected {SNAP_VERSION} or {SNAP_VERSION_INLINE}"
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
    decode_payload(payload, version).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn vector(v: Vec<f64>) -> Arc<Vector> {
        Arc::new(Vector::from(v))
    }

    /// Two sessions over a 3-cell world. The first's window π is its own
    /// posterior's allocation, as a window attached before any
    /// observation holds it; the second's window shares the first's
    /// mantissa.
    fn sample_state() -> SnapshotState {
        let prior = vector(vec![0.4, 0.3, 0.3]);
        let mantissa = vector(vec![0.1; 6]);
        SnapshotState {
            fingerprint: 0xABCD_EF01,
            stats: [10, 2, 7, 1, 0, 3],
            sessions: vec![
                SessionSnap {
                    user: 3,
                    t: 0,
                    budget: 2.0,
                    spent: 1.25,
                    observations: 5,
                    violations: 1,
                    posterior: Arc::clone(&prior),
                    windows: vec![WindowSnap {
                        template: 0,
                        t: 2,
                        log_scale: -3.5,
                        pi: Arc::clone(&prior),
                        mantissa: Arc::clone(&mantissa),
                    }],
                },
                SessionSnap {
                    user: 9,
                    t: 1,
                    budget: 2.0,
                    spent: f64::INFINITY,
                    observations: 1,
                    violations: 0,
                    posterior: vector(vec![1.0, 0.0, 0.0]),
                    windows: vec![WindowSnap {
                        template: 1,
                        t: 0,
                        log_scale: 0.0,
                        pi: vector(vec![0.4, 0.3, 0.3]),
                        mantissa,
                    }],
                },
            ],
        }
    }

    fn payload(state: &SnapshotState, layout: Layout) -> Vec<u8> {
        let mut w = Vec::new();
        encode_payload(state, &mut w, layout);
        w
    }

    /// A whole snapshot file around `body`, header built field by field.
    fn file_bytes(version: u32, seq: u64, body: &[u8]) -> Vec<u8> {
        let mut bytes = SNAP_MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn payload_roundtrips_bit_exactly() {
        let state = sample_state();
        for (layout, version) in [
            (Layout::Logical, SNAP_VERSION_INLINE),
            (Layout::Shared, SNAP_VERSION),
        ] {
            let bytes = payload(&state, layout);
            assert_eq!(decode_payload(&bytes, version).unwrap(), state);
            // Determinism: encoding is a pure function of the source.
            assert_eq!(payload(&state, layout), bytes);
        }
    }

    #[test]
    fn shared_layout_writes_each_allocation_once() {
        let state = sample_state();
        let logical = payload(&state, Layout::Logical);
        let shared = payload(&state, Layout::Shared);
        // Six slots, four allocations: two slots become 5-byte references
        // (a 3-vector and a 6-vector, 32 and 56 bytes inline), and the
        // other four gain a tag byte.
        assert_eq!(shared.len(), logical.len() - (32 + 56) + 2 * 5 + 4);
        let decoded = decode_payload(&shared, SNAP_VERSION).unwrap();
        let (a, b) = (&decoded.sessions[0], &decoded.sessions[1]);
        assert!(Arc::ptr_eq(&a.posterior, &a.windows[0].pi));
        assert!(Arc::ptr_eq(&a.windows[0].mantissa, &b.windows[0].mantissa));
        // Equal values in distinct allocations stay distinct.
        assert_eq!(a.posterior, b.windows[0].pi);
        assert!(!Arc::ptr_eq(&a.posterior, &b.windows[0].pi));
        // The logical layout shares nothing.
        let inline = decode_payload(&logical, SNAP_VERSION_INLINE).unwrap();
        assert!(!Arc::ptr_eq(
            &inline.sessions[0].posterior,
            &inline.sessions[0].windows[0].pi
        ));
    }

    #[test]
    fn streamed_file_matches_the_in_memory_layout() {
        let dir = tempdir();
        let path = dir.join("snap-7.bin");
        let state = sample_state();
        write_snapshot(&path, 7, &state, false).unwrap();
        // Magic, version 2, seq, payload length and CRC, then the shared
        // payload, assembled in memory.
        let expected = file_bytes(SNAP_VERSION, 7, &payload(&state, Layout::Shared));
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_files_still_read() {
        let dir = tempdir();
        let path = dir.join("snap-3.bin");
        let state = sample_state();
        std::fs::write(
            &path,
            file_bytes(SNAP_VERSION_INLINE, 3, &payload(&state, Layout::Logical)),
        )
        .unwrap();
        assert_eq!(read_snapshot(&path, 3).unwrap(), state);
        // A version-1 header over a version-2 payload does not decode.
        std::fs::write(
            &path,
            file_bytes(SNAP_VERSION_INLINE, 3, &payload(&state, Layout::Shared)),
        )
        .unwrap();
        assert!(matches!(
            read_snapshot(&path, 3),
            Err(DurableError::Corrupt { .. })
        ));
        std::fs::write(&path, file_bytes(3, 3, &payload(&state, Layout::Shared))).unwrap();
        let err = read_snapshot(&path, 3).unwrap_err();
        assert!(err.to_string().contains("unsupported snapshot version 3"));
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

    /// A hand-built payload of `sessions` sessions; `slots` writes each
    /// session's posterior slot, window count and windows.
    fn crafted(sessions: u64, mut slots: impl FnMut(&mut Vec<u8>, u64)) -> Vec<u8> {
        let mut w = Vec::new();
        w.put_u64(0xF00D);
        for _ in 0..6 {
            w.put_u64(0);
        }
        w.put_u64(sessions);
        for user in 0..sessions {
            w.put_u64(user);
            w.put_u64(0);
            w.put_f64(1.0);
            w.put_f64(0.0);
            w.put_u64(0);
            w.put_u64(0);
            slots(&mut w, user);
        }
        w
    }

    fn inline(w: &mut Vec<u8>, v: &[f64]) {
        w.put_u8(VEC_INLINE);
        w.put_f64_slice(v);
    }

    fn reference(w: &mut Vec<u8>, id: u32) {
        w.put_u8(VEC_REF);
        w.put_u32(id);
    }

    #[test]
    fn references_decode_to_one_allocation() {
        const K: u64 = 1000;
        const N: usize = 10_000;
        let big = vec![1.0 / N as f64; N];
        let bytes = crafted(K, |w, user| {
            if user == 0 {
                inline(w, &big);
            } else {
                reference(w, 0);
            }
            w.put_u32(0);
        });
        // One inline vector, then 57 bytes a session: K handles on an
        // 80 KB vector cost no more than the input.
        assert!(bytes.len() < N * 8 + K as usize * 64);
        let state = decode_payload(&bytes, SNAP_VERSION).unwrap();
        let first = &state.sessions[0].posterior;
        assert!(state
            .sessions
            .iter()
            .all(|s| Arc::ptr_eq(&s.posterior, first)));
        assert_eq!(Arc::strong_count(first), K as usize);
    }

    /// Payloads a damaged or hostile writer could produce, each with the
    /// error its decode must report.
    fn hostile_payloads() -> Vec<(&'static str, Vec<u8>, u32)> {
        let dist = [0.5, 0.5];
        let no_windows = |w: &mut Vec<u8>| w.put_u32(0);
        vec![
            (
                "unknown vector tag 2",
                crafted(1, |w, _| {
                    w.put_u8(2);
                    w.put_f64_slice(&dist);
                    no_windows(w);
                }),
                SNAP_VERSION,
            ),
            (
                "refers to vector #0, but only 0 precede it",
                crafted(1, |w, _| {
                    reference(w, 0);
                    no_windows(w);
                }),
                SNAP_VERSION,
            ),
            (
                "refers to vector #7, but only 1 precede it",
                crafted(2, |w, user| {
                    if user == 0 {
                        inline(w, &dist);
                    } else {
                        reference(w, 7);
                    }
                    no_windows(w);
                }),
                SNAP_VERSION,
            ),
            (
                // Session 1's posterior points at session 0's mantissa.
                "corrupt session posterior: length 4, expected 2",
                crafted(2, |w, user| {
                    if user == 0 {
                        inline(w, &dist);
                        w.put_u32(1);
                        w.put_u32(0);
                        w.put_u64(0);
                        w.put_f64(0.0);
                        reference(w, 0);
                        inline(w, &[0.25; 4]);
                    } else {
                        reference(w, 1);
                        no_windows(w);
                    }
                }),
                SNAP_VERSION,
            ),
            (
                "corrupt window mantissa: length 3, expected 4",
                crafted(1, |w, _| {
                    inline(w, &dist);
                    w.put_u32(1);
                    w.put_u32(0);
                    w.put_u64(0);
                    w.put_f64(0.0);
                    reference(w, 0);
                    inline(w, &[0.25; 3]);
                }),
                SNAP_VERSION,
            ),
            (
                "length prefix 18446744073709551615 exceeds",
                crafted(1, |w, _| {
                    w.put_u8(VEC_INLINE);
                    w.put_u64(u64::MAX);
                    no_windows(w);
                }),
                SNAP_VERSION,
            ),
            (
                "length prefix 1000 exceeds",
                crafted(1, |w, _| {
                    w.put_u64(1000);
                    w.put_f64(0.5);
                    no_windows(w);
                }),
                SNAP_VERSION_INLINE,
            ),
            (
                "corrupt window prior: length 3, expected 2",
                crafted(1, |w, _| {
                    w.put_f64_slice(&dist);
                    w.put_u32(1);
                    w.put_u32(0);
                    w.put_u64(0);
                    w.put_f64(0.0);
                    w.put_f64_slice(&[0.5; 3]);
                    w.put_f64_slice(&[0.25; 4]);
                }),
                SNAP_VERSION_INLINE,
            ),
        ]
    }

    #[test]
    fn hostile_payloads_are_errors_and_corrupt_files() {
        let dir = tempdir();
        let path = dir.join("snap-5.bin");
        for (want, bytes, version) in hostile_payloads() {
            let err = decode_payload(&bytes, version).unwrap_err();
            assert!(err.contains(want), "expected {want:?}, got {err:?}");
            // Behind a valid CRC, recovery's file read reports it.
            std::fs::write(&path, file_bytes(version, 5, &bytes)).unwrap();
            match read_snapshot(&path, 5) {
                Err(DurableError::Corrupt { detail, .. }) => assert!(detail.contains(want)),
                other => panic!("{want}: read back {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A random payload from the format's own primitives: each token
    /// `(kind, x)` writes a session head, a `u32` count or template, a tag
    /// byte, a length-prefixed slice (truthful when short, lying when
    /// huge), or a raw `u64`, with `x` folded into small ranges so decodes
    /// reach deep states.
    fn tokens_payload(sessions: u64, tokens: &[(u8, u64)]) -> Vec<u8> {
        let mut w = Vec::new();
        w.put_u64(0xF00D);
        for _ in 0..6 {
            w.put_u64(1);
        }
        w.put_u64(sessions);
        for &(kind, x) in tokens {
            match kind {
                0 => {
                    for v in [x % 4, x % 4, 1f64.to_bits(), 0, 0, 0] {
                        w.put_u64(v);
                    }
                }
                1 => w.put_u32((x % 4) as u32),
                2 => w.put_u8((x % 8) as u8),
                3 => {
                    let len = match x % 10 {
                        8 => u64::MAX,
                        9 => 1 << 61,
                        short => short,
                    };
                    w.put_u64(len);
                    for i in 0..len.min(8) {
                        w.put_f64(i as f64 / 8.0);
                    }
                }
                _ => w.put_u64(x),
            }
        }
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, read as either version: `Ok` or `Err`, never a
        /// panic.
        #[test]
        fn arbitrary_payload_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
            version in 1u32..=2,
        ) {
            let _ = decode_payload(&bytes, version);
        }

        /// Payloads built from the format's own primitives never panic;
        /// whatever decodes keeps every slot's length and re-encodes to a
        /// payload that decodes to the same state.
        #[test]
        fn structured_payloads_never_panic_and_decode_consistently(
            sessions in 0u64..4,
            tokens in proptest::collection::vec((0u8..5, 0u64..=u64::MAX), 0..24),
            version in 1u32..=2,
        ) {
            let bytes = tokens_payload(sessions, &tokens);
            if let Ok(state) = decode_payload(&bytes, version) {
                let n = state.sessions.first().map_or(0, |s| s.posterior.len());
                for s in &state.sessions {
                    prop_assert_eq!(s.posterior.len(), n);
                    for w in &s.windows {
                        prop_assert_eq!(w.pi.len(), n);
                        prop_assert_eq!(w.mantissa.len(), 2 * n);
                    }
                }
                // Compared as logical bytes: random scalars may be NaN.
                let logical = payload(&state, Layout::Logical);
                for (layout, version) in [(Layout::Logical, SNAP_VERSION_INLINE), (Layout::Shared, SNAP_VERSION)] {
                    let again = decode_payload(&payload(&state, layout), version).unwrap();
                    prop_assert_eq!(payload(&again, Layout::Logical), logical.clone());
                }
            }
        }

        /// Valid version-2 payloads with one byte overwritten, or cut
        /// short, never panic.
        #[test]
        fn damaged_shared_payloads_never_panic(
            at in 0usize..=usize::MAX,
            byte in 0u8..=255,
            cut in proptest::bool::ANY,
        ) {
            let mut bytes = payload(&sample_state(), Layout::Shared);
            let at = at % bytes.len();
            if cut {
                bytes.truncate(at);
            } else {
                bytes[at] = byte;
            }
            let _ = decode_payload(&bytes, SNAP_VERSION);
        }
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
