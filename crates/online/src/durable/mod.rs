//! Durable sessions: snapshot + write-ahead-log crash recovery.
//!
//! Everything the enforcing service knows about a user — filtered
//! posterior, open event windows, and above all the
//! [`BudgetLedger`](crate::BudgetLedger)
//! — normally lives only in RAM, so a restart would reset every ledger to
//! zero spend and let the guard re-release against budget that was already
//! consumed: a *privacy* violation under sequential-composition
//! accounting, not merely an availability gap. This module makes the
//! session state survive.
//!
//! # File layout
//!
//! A durable directory holds exactly one *generation* `seq` in the steady
//! state:
//!
//! ```text
//! <dir>/snap-<seq:016x>.bin        full service state at the checkpoint
//! <dir>/wal-<seq:016x>-<shard:04x>.log   per-shard append-only record log
//! ```
//!
//! Every committed mutation (user registration, window attach,
//! observation/release) is appended to its shard's WAL — and, with
//! [`DurableOptions::fsync`] on, flushed — *before* the result is returned
//! to the caller. A checkpoint first creates empty WAL segments for the
//! next generation, then streams the whole state, read in place from the
//! live sessions, into a fresh snapshot (a `.tmp` file, atomically
//! renamed), and only then switches to the new segments and prunes the old
//! generation — so the newest snapshot on disk always has its segments.
//!
//! # What the journal records
//!
//! Replay never re-runs the calibration guard or touches an RNG: every
//! observation record names the committed emission column, whole or by
//! reference to the mechanism that produced it.
//!
//! | Record | Journals | Frame bytes at m = 2500 | Replay needs |
//! |---|---|---|---|
//! | column | an ingest of a caller-supplied column | 20 026 (`8m + 26`) | nothing |
//! | by reference | an ingest of an observed cell, a guarded release | 37 | the mechanism |
//! | suppression | a withheld guarded release (the flat column) | 17 | nothing |
//!
//! A by-reference record holds the released cell, the budget the column was
//! drawn at and a 64-bit word hash of the column. Replay rebuilds the
//! column from the mechanism handed to
//! [`SessionManager::recover`](crate::SessionManager::recover) or
//! [`SessionManager::open_durable`](crate::SessionManager::open_durable):
//! the mechanism itself for an observed cell, which must have the journaled
//! budget, and the rung at the journaled budget for a release (built with
//! [`Lppm::with_budget`](priste_lppm::Lppm::with_budget) once per budget
//! per recovery). Recovery fails with [`DurableError::Replay`], naming the
//! record, when no mechanism was given, the cell is outside the domain, or
//! the rebuilt column hashes differently. A restart under another
//! mechanism therefore stops at the first such record instead of
//! replaying a different state.
//!
//! # Recovery guarantees
//!
//! Recovery loads the newest valid snapshot and deterministically replays
//! its WAL tail. The recovered ledger can never under-count spend:
//!
//! * a torn final WAL record that can be attributed to a user (its uid
//!   prefix survived) conservatively rounds that user's ledger up to
//!   exhaustion;
//! * an unattributable tear, or corruption earlier in a segment, exhausts
//!   every session on that shard;
//! * if the newest snapshot itself is unreadable and recovery falls back
//!   to an older generation, every recovered ledger is exhausted — records
//!   journaled after the older checkpoint are unknowable.
//!
//! Exhaustion dominates any spend the lost records could have added, so
//! availability never comes at the price of an under-counted ledger.

use crate::obs::StoreInstruments;
use priste_obs::Timer;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

mod codec;
mod snapshot;
mod wal;

pub(crate) use codec::{fnv1a64, word_hash, Fnv1a64};
pub(crate) use snapshot::{
    encode_payload, BorrowedSession, Layout, Lifted, SessionSnap, SnapshotSource, SnapshotState,
    WindowSnap,
};
pub(crate) use wal::{Emitter, WalRecord, WalScan, WalTail, WalWriter};

/// Errors from the durable persistence layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DurableError {
    /// An OS-level I/O operation failed. Carries the original error's kind
    /// and message (not the `std::io::Error` itself, which is neither
    /// `Clone` nor `PartialEq`).
    Io {
        /// What the layer was doing, e.g. `"append WAL record"`.
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// The OS error message.
        message: String,
    },
    /// A durable file failed structural validation (bad magic, failed CRC,
    /// truncated payload, undecodable record).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A durable file belongs to a different scenario than the one the
    /// service was built with (grid size, configuration, or templates
    /// differ).
    Mismatch {
        /// Which binding failed, e.g. `"scenario fingerprint"`.
        what: &'static str,
        /// The value the live service expected.
        expected: String,
        /// The value found on disk.
        found: String,
    },
    /// The directory holds no readable snapshot to recover from.
    NoSnapshot {
        /// The directory scanned.
        dir: PathBuf,
    },
    /// A WAL record decoded cleanly but cannot be replayed: it journals a
    /// column by reference and recovery was given no mechanism to rebuild
    /// it, it names a cell outside the domain, or the rebuilt column's hash
    /// differs from the journaled one (recovery runs another mechanism or
    /// budget than the service that wrote it).
    Replay {
        /// The WAL segment holding the record.
        path: PathBuf,
        /// The record's 0-based position in that segment.
        record: usize,
        /// The record and why it cannot be replayed.
        detail: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io {
                op,
                path,
                kind,
                message,
            } => {
                write!(
                    f,
                    "failed to {op} at {}: {message} ({kind:?})",
                    path.display()
                )
            }
            DurableError::Corrupt { path, detail } => {
                write!(f, "corrupt durable file {}: {detail}", path.display())
            }
            DurableError::Mismatch {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "durable state belongs to a different scenario: {what} is {found}, service expects {expected}"
                )
            }
            DurableError::NoSnapshot { dir } => {
                write!(f, "no readable snapshot in {}", dir.display())
            }
            DurableError::Replay {
                path,
                record,
                detail,
            } => {
                write!(
                    f,
                    "cannot replay record {record} of {}: {detail}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for DurableError {}

/// Converts an `std::io::Error` into the cloneable [`DurableError::Io`].
pub(crate) fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> DurableError {
    DurableError::Io {
        op,
        path: path.to_path_buf(),
        kind: e.kind(),
        message: e.to_string(),
    }
}

/// Durability knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Flush every WAL append (and snapshot write) to stable storage
    /// before acknowledging. On by default: with it off, an acknowledged
    /// record can be lost or torn by a crash, and recovery then rounds the
    /// affected ledgers up to exhaustion (sound, but drastic).
    pub fsync: bool,
    /// Auto-checkpoint after this many WAL records across all shards
    /// (compacting the log into a fresh snapshot). `0` disables automatic
    /// compaction; checkpoints then only happen explicitly.
    pub snapshot_every: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: true,
            snapshot_every: 4096,
        }
    }
}

/// File name of the generation-`seq` snapshot.
pub(crate) fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:016x}.bin"))
}

/// File name of shard `shard`'s generation-`seq` WAL segment.
pub(crate) fn wal_path(dir: &Path, seq: u64, shard: usize) -> PathBuf {
    dir.join(format!("wal-{seq:016x}-{shard:04x}.log"))
}

/// Best-effort flush of `dir`'s entries (file creations, renames) to
/// stable storage. Not every platform can open a directory for syncing;
/// there the entries reach disk on the file system's own schedule.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_data();
    }
}

/// Parses `snap-<seq>.bin` back into its sequence number.
fn parse_snap_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    u64::from_str_radix(hex, 16).ok()
}

/// All snapshot generations present in `dir`, newest first.
pub(crate) fn list_generations(dir: &Path) -> Result<Vec<u64>, DurableError> {
    let mut seqs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("scan durable directory", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("scan durable directory", dir, &e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snap_name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

/// Everything recovery learned from a durable directory.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Recovered {
    /// The snapshot generation recovery loaded.
    pub(crate) seq: u64,
    /// The snapshot state.
    pub(crate) state: SnapshotState,
    /// One WAL scan per shard, in shard order.
    pub(crate) wal: Vec<WalScan>,
    /// Whether a newer-but-unreadable snapshot generation was skipped —
    /// the caller must exhaust every ledger, since records journaled after
    /// the loaded checkpoint are unknowable.
    pub(crate) skipped_newer: bool,
}

/// Scans a durable directory: newest valid snapshot, plus its per-shard
/// WAL tails.
pub(crate) fn recover_dir(
    dir: &Path,
    fingerprint: u64,
    num_shards: usize,
) -> Result<Recovered, DurableError> {
    let generations = list_generations(dir)?;
    if generations.is_empty() {
        return Err(DurableError::NoSnapshot {
            dir: dir.to_path_buf(),
        });
    }
    let mut skipped_newer = false;
    let mut last_err = None;
    for &seq in &generations {
        let state = match snapshot::read_snapshot(&snap_path(dir, seq), seq) {
            Ok(state) => state,
            Err(e @ DurableError::Corrupt { .. }) => {
                // Unreadable generation: fall back to an older one, but
                // remember the skip — its WAL records are lost, so the
                // caller must round every ledger up.
                skipped_newer = true;
                last_err = Some(e);
                continue;
            }
            Err(e) => return Err(e),
        };
        if state.fingerprint != fingerprint {
            return Err(DurableError::Mismatch {
                what: "scenario fingerprint",
                expected: format!("{fingerprint:#018x}"),
                found: format!("{:#018x}", state.fingerprint),
            });
        }
        let mut scans = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            scans.push(wal::read_segment(
                &wal_path(dir, seq, shard),
                seq,
                shard as u32,
                fingerprint,
            )?);
        }
        return Ok(Recovered {
            seq,
            state,
            wal: scans,
            skipped_newer,
        });
    }
    Err(last_err.expect("at least one generation was tried"))
}

/// Open append-side handle on a durable directory: the checkpoint
/// machinery and the counters every shard's appends share. The current
/// generation's per-shard WAL writers are handed out by
/// [`DurableStore::open`] and [`DurableStore::checkpoint`], and each shard
/// keeps its own, so appends to different shards never share a lock.
#[derive(Debug)]
pub(crate) struct DurableStore {
    dir: PathBuf,
    opts: DurableOptions,
    fingerprint: u64,
    num_shards: usize,
    /// The current generation; only a checkpoint, which holds every
    /// shard's lock, moves it.
    seq: AtomicU64,
    records_since_checkpoint: AtomicUsize,
    obs: StoreInstruments,
}

impl DurableStore {
    /// Creates (or re-attaches to) a durable directory by writing a fresh
    /// checkpoint at generation `seq`, and returns the store with one empty
    /// WAL writer per shard. Older generations are pruned. `obs` records
    /// from the start, so this opening checkpoint is counted and timed too.
    pub(crate) fn open(
        dir: &Path,
        opts: DurableOptions,
        fingerprint: u64,
        num_shards: usize,
        seq: u64,
        state: &dyn SnapshotSource,
        obs: StoreInstruments,
    ) -> Result<(Self, Vec<wal::WalWriter>), DurableError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create durable directory", dir, &e))?;
        let store = DurableStore {
            dir: dir.to_path_buf(),
            opts,
            fingerprint,
            num_shards,
            seq: AtomicU64::new(seq),
            records_since_checkpoint: AtomicUsize::new(0),
            obs,
        };
        let wals = store.checkpoint_at(seq, state)?;
        Ok((store, wals))
    }

    /// The directory this store journals into.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Swaps in live (or inert) instrument handles, e.g. when a registry
    /// is attached after [`DurableStore::open`].
    pub(crate) fn set_instruments(&mut self, obs: StoreInstruments) {
        self.obs = obs;
    }

    /// Appends one committed record to `wal`, its shard's writer. Returns
    /// whether the auto-compaction threshold has been crossed (the caller
    /// should checkpoint at its next safe point).
    pub(crate) fn append(
        &self,
        wal: &mut wal::WalWriter,
        record: &WalRecord,
    ) -> Result<bool, DurableError> {
        let append_timer = Timer::start(&self.obs.append_seconds);
        let bytes = wal.append_unsynced(record)?;
        let fsync_timer = Timer::start(&self.obs.fsync_seconds);
        wal.sync()?;
        drop(fsync_timer);
        drop(append_timer);
        self.obs.bytes.add(bytes as u64);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.due())
    }

    /// Whether the auto-compaction threshold has been crossed since the
    /// last checkpoint.
    pub(crate) fn due(&self) -> bool {
        self.opts.snapshot_every > 0
            && self.records_since_checkpoint.load(Ordering::Relaxed) >= self.opts.snapshot_every
    }

    /// Compacts the WAL into a fresh snapshot of `state` as the next
    /// generation, and returns that generation's empty per-shard writers.
    /// The caller must hold every shard still from reading `state` until
    /// it has installed them.
    pub(crate) fn checkpoint(
        &self,
        state: &dyn SnapshotSource,
    ) -> Result<Vec<wal::WalWriter>, DurableError> {
        self.checkpoint_at(self.seq.load(Ordering::Relaxed) + 1, state)
    }

    /// Crash-ordering: (1) empty WAL segments for every shard of the new
    /// generation are created and persisted; (2) the snapshot is written
    /// and atomically renamed — once durable, it alone reproduces all
    /// acknowledged state; (3) the caller switches to the new segments and
    /// the old generation is pruned. A crash or error before (2) completes
    /// leaves the old snapshot newest, with the old WAL segments the
    /// shards keep appending to, so recovery still reads every record;
    /// after (2), recovery finds the new snapshot with all of its (empty)
    /// segments.
    fn checkpoint_at(
        &self,
        seq: u64,
        state: &dyn SnapshotSource,
    ) -> Result<Vec<wal::WalWriter>, DurableError> {
        let mut wals = Vec::with_capacity(self.num_shards);
        for shard in 0..self.num_shards {
            wals.push(wal::WalWriter::create(
                &wal_path(&self.dir, seq, shard),
                seq,
                shard as u32,
                self.fingerprint,
                self.opts.fsync,
            )?);
        }
        if self.opts.fsync {
            sync_dir(&self.dir);
        }
        let snap = snap_path(&self.dir, seq);
        let snapshot_timer = Timer::start(&self.obs.snapshot_seconds);
        snapshot::write_snapshot(&snap, seq, state, self.opts.fsync)?;
        drop(snapshot_timer);
        if self.obs.snapshot_bytes.is_enabled() {
            if let Ok(meta) = std::fs::metadata(&snap) {
                self.obs.snapshot_bytes.set(meta.len() as f64);
            }
        }
        self.obs.checkpoints.inc();
        self.seq.store(seq, Ordering::Relaxed);
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        self.prune(seq);
        Ok(wals)
    }

    /// Best-effort removal of files from other generations (and stale
    /// `.tmp` leftovers). Failures are ignored: stale files waste space but
    /// never win the newest-valid-snapshot scan against `keep`.
    fn prune(&self, keep: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_snap = parse_snap_name(name).is_some_and(|s| s != keep);
            let stale_wal = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.split('-').next())
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .is_some_and(|s| s != keep);
            let stale_tmp = name.ends_with(".tmp");
            if stale_snap || stale_wal || stale_tmp {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store on `dir` whose opening checkpoint is the empty state, with
    /// its per-shard writers.
    fn open_empty(
        dir: &Path,
        opts: DurableOptions,
        fp: u64,
        shards: usize,
    ) -> (DurableStore, Vec<WalWriter>) {
        let obs = StoreInstruments::disabled();
        DurableStore::open(dir, opts, fp, shards, 1, &empty_state(fp), obs).unwrap()
    }

    fn empty_state(fingerprint: u64) -> SnapshotState {
        SnapshotState {
            fingerprint,
            stats: [0; 6],
            sessions: Vec::new(),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "priste-durable-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_checkpoint_prune_cycle() {
        let dir = tempdir("cycle");
        let fp = 0x1234;
        let (store, mut wals) = open_empty(&dir, DurableOptions::default(), fp, 2);
        store
            .append(
                &mut wals[0],
                &WalRecord::AddUser {
                    user: 0,
                    pi: vec![0.5, 0.5].into(),
                },
            )
            .unwrap();
        let rec = recover_dir(&dir, fp, 2).unwrap();
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.wal[0].records.len(), 1);
        assert!(rec.wal[1].records.is_empty());
        assert!(!rec.skipped_newer);

        // Checkpointing compacts: generation 2 exists, generation 1 is gone.
        store.checkpoint(&empty_state(fp)).unwrap();
        assert!(snap_path(&dir, 2).exists());
        assert!(!snap_path(&dir, 1).exists());
        assert!(!wal_path(&dir, 1, 0).exists());
        let rec = recover_dir(&dir, fp, 2).unwrap();
        assert_eq!(rec.seq, 2);
        assert!(rec.wal.iter().all(|s| s.records.is_empty()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_threshold_fires() {
        let dir = tempdir("threshold");
        let fp = 0x55;
        let opts = DurableOptions {
            fsync: false,
            snapshot_every: 2,
        };
        let (store, mut wals) = open_empty(&dir, opts, fp, 1);
        let rec = WalRecord::RemoveUser { user: 9 };
        assert!(!store.append(&mut wals[0], &rec).unwrap());
        assert!(store.append(&mut wals[0], &rec).unwrap());
        let mut wals = store.checkpoint(&empty_state(fp)).unwrap();
        assert!(!store.append(&mut wals[0], &rec).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_flags_the_skip() {
        let dir = tempdir("fallback");
        let fp = 0x77;
        let (store, _) = open_empty(&dir, DurableOptions::default(), fp, 1);
        store.checkpoint(&empty_state(fp)).unwrap();
        // Resurrect a valid older generation, then damage the newest.
        let older = empty_state(fp);
        snapshot::write_snapshot(&snap_path(&dir, 1), 1, &older, false).unwrap();
        let newest = snap_path(&dir, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let rec = recover_dir(&dir, fp, 1).unwrap();
        assert_eq!(rec.seq, 1);
        assert!(rec.skipped_newer, "the skipped generation must be flagged");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_and_fingerprint_mismatch_are_structured() {
        let dir = tempdir("errors");
        assert!(matches!(
            recover_dir(&dir, 1, 1),
            Err(DurableError::Io { .. })
        ));
        let fp = 0x99;
        open_empty(&dir, DurableOptions::default(), fp, 1);
        assert!(matches!(
            recover_dir(&dir, fp + 1, 1),
            Err(DurableError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bit-equal vectors in separate allocations — what a version-1 file
    /// decodes to — are each written inline, and recover to the live
    /// service's digest: the format shares by allocation, never by value,
    /// and recovery re-shares by value.
    #[test]
    fn separate_bit_equal_vectors_roundtrip_to_the_live_digest() {
        use crate::{OnlineConfig, SessionManager, UserId};
        use priste_event::{Presence, StEvent};
        use priste_geo::{CellId, Region};
        use priste_linalg::Vector;
        use priste_markov::{Homogeneous, MarkovModel};
        use std::sync::Arc;

        let chain = Arc::new(Homogeneous::new(MarkovModel::paper_example()));
        let region = Region::from_cells(3, [CellId(0), CellId(1)]).unwrap();
        let event: StEvent = Presence::new(region, 2, 3).unwrap().into();
        let config = OnlineConfig {
            num_shards: 2,
            ..OnlineConfig::default()
        };
        let opts = DurableOptions {
            fsync: false,
            snapshot_every: 0,
        };
        let mut svc = SessionManager::new(Arc::clone(&chain), config.clone()).unwrap();
        let tpl = svc.register_template(event.clone()).unwrap();
        for u in 0..4 {
            svc.add_user(UserId(u), Vector::uniform(3)).unwrap();
            svc.attach_event(UserId(u), tpl).unwrap();
        }
        // An observed user whose second window's π is its posterior.
        svc.ingest(UserId(3), Vector::from(vec![0.7, 0.2, 0.1]))
            .unwrap();
        svc.attach_event(UserId(3), tpl).unwrap();
        let live = tempdir("separate-live");
        svc.make_durable(&live, opts).unwrap();

        let shared = snapshot::read_snapshot(&snap_path(&live, 1), 1).unwrap();
        let mut logical = Vec::new();
        encode_payload(&shared, &mut logical, Layout::Logical);
        let separate = snapshot::decode_payload(&logical, 1).unwrap();
        for s in &separate.sessions {
            let pi = &s.windows.last().unwrap().pi;
            assert_eq!(s.posterior, *pi);
            assert!(!Arc::ptr_eq(&s.posterior, pi));
        }
        let dir = tempdir("separate");
        let obs = StoreInstruments::disabled();
        DurableStore::open(&dir, opts, separate.fingerprint, 2, 1, &separate, obs).unwrap();
        let size = |d: &Path| std::fs::metadata(snap_path(d, 1)).unwrap().len();
        assert!(size(&dir) > size(&live), "every vector is written inline");
        let back = SessionManager::recover(chain, config, vec![event], &dir, None).unwrap();
        assert_eq!(back.state_digest(), svc.state_digest());
        for d in [live, dir] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    /// A posterior a window carries is derived for the one visit that
    /// writes it, into a buffer freed right after: the next session's may
    /// reuse its address. Every such posterior is written inline, so each
    /// session's slot decodes to its own values, never to another's.
    #[test]
    fn derived_posteriors_are_written_inline() {
        use crate::{OnlineConfig, SessionManager, UserId};
        use priste_event::{Presence, StEvent};
        use priste_geo::{CellId, Region};
        use priste_linalg::Vector;
        use priste_markov::{Homogeneous, MarkovModel};
        use std::sync::Arc;

        let chain = Arc::new(Homogeneous::new(MarkovModel::paper_example()));
        let region = Region::from_cells(3, [CellId(0), CellId(1)]).unwrap();
        let event: StEvent = Presence::new(region, 2, 3).unwrap().into();
        let config = OnlineConfig {
            num_shards: 1,
            ..OnlineConfig::default()
        };
        let mut svc = SessionManager::new(chain, config).unwrap();
        let tpl = svc.register_template(event).unwrap();
        let columns = [
            [0.7, 0.2, 0.1],
            [0.1, 0.8, 0.1],
            [0.2, 0.2, 0.6],
            [0.3, 0.3, 0.4],
        ];
        for (u, column) in columns.iter().enumerate() {
            let id = UserId(u as u64);
            svc.add_user(id, Vector::uniform(3)).unwrap();
            svc.attach_event(id, tpl).unwrap();
            svc.ingest(id, Vector::from(column.to_vec())).unwrap();
        }
        let dir = tempdir("derived");
        let opts = DurableOptions {
            fsync: false,
            snapshot_every: 0,
        };
        svc.make_durable(&dir, opts).unwrap();
        let state = snapshot::read_snapshot(&snap_path(&dir, 1), 1).unwrap();
        assert_eq!(state.sessions.len(), columns.len());
        for s in &state.sessions {
            let live = svc.session(UserId(s.user)).unwrap();
            assert!(matches!(live.posterior(), std::borrow::Cow::Owned(_)));
            assert_eq!(*s.posterior, *live.posterior(), "user {}", s.user);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn display_is_informative() {
        let e = DurableError::NoSnapshot {
            dir: PathBuf::from("/tmp/x"),
        };
        assert!(e.to_string().contains("/tmp/x"));
        let e = DurableError::Mismatch {
            what: "scenario fingerprint",
            expected: "0xa".into(),
            found: "0xb".into(),
        };
        assert!(e.to_string().contains("fingerprint"));
    }
}
