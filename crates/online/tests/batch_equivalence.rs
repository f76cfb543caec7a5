//! A batch is a loop of single-user calls: `ingest_batch(batch, threads)`
//! leaves the reports, the state and every durable file a loop of `ingest`
//! over the same users leaves, and
//! `release_batch(batch, seed, threads)` those of a loop of `release`
//! that walks each shard's users in id order on that shard's
//! `shard_rng(seed, shard)`. Equal WAL bytes pin that the journal order
//! within a shard is the order of the loop.

use priste_calibrate::GuardConfig;
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::PlanarLaplace;
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_online::{
    shard_rng, DurableOptions, EnforcedRelease, OnlineConfig, SessionManager, UserId, UserReport,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USERS: u64 = 11;
const SHARDS: usize = 3;

fn grid() -> GridMap {
    GridMap::new(3, 3, 1.0).unwrap()
}

fn templates() -> Vec<StEvent> {
    vec![
        Presence::new(Region::from_one_based_range(9, 1, 3).unwrap(), 2, 4)
            .unwrap()
            .into(),
        Presence::new(Region::from_one_based_range(9, 5, 7).unwrap(), 1, 3)
            .unwrap()
            .into(),
    ]
}

fn mechanism() -> Box<PlanarLaplace> {
    Box::new(PlanarLaplace::new(grid(), 3.0).unwrap())
}

/// How a run drives its service: through the batch calls at a thread
/// count, or through a loop of single-user calls.
#[derive(Clone, Copy, Debug)]
enum Drive {
    Batch { threads: usize },
    Loop,
}

/// What a run leaves behind.
struct Outcome {
    reports: Vec<Vec<UserReport>>,
    releases: Vec<Vec<EnforcedRelease>>,
    digest: u64,
    files: BTreeMap<String, Vec<u8>>,
}

/// The users a round touches: not every user every round, so ages
/// differ between users and shards.
fn round_users(round: u64) -> Vec<u64> {
    (0..USERS)
        .filter(|u| !(u + round).is_multiple_of(4))
        .collect()
}

fn column(user: u64, round: u64) -> Vector {
    let mut col = vec![0.05; 9];
    col[((user * 5 + round * 7) % 9) as usize] = 0.6;
    Vector::from(col)
}

fn ingest(svc: &mut SessionManager<Arc<Homogeneous>>, drive: Drive, round: u64) -> Vec<UserReport> {
    let batch: Vec<(UserId, Vector)> = round_users(round)
        .into_iter()
        .map(|u| (UserId(u), column(u, round)))
        .collect();
    match drive {
        Drive::Batch { threads } => svc.ingest_batch(&batch, threads).unwrap(),
        Drive::Loop => {
            let mut reports: Vec<UserReport> = (0..SHARDS)
                .flat_map(|shard| batch.iter().filter(move |(id, _)| svc_shard(*id) == shard))
                .map(|(id, col)| svc.ingest(*id, col.clone()).unwrap())
                .collect();
            reports.sort_by_key(|r| r.user);
            reports
        }
    }
}

fn svc_shard(id: UserId) -> usize {
    (id.0 % SHARDS as u64) as usize
}

fn release(
    svc: &mut SessionManager<Arc<Homogeneous>>,
    drive: Drive,
    round: u64,
    seed: u64,
) -> Vec<EnforcedRelease> {
    let batch: Vec<(UserId, CellId)> = round_users(round)
        .into_iter()
        .map(|u| (UserId(u), CellId(((u * 2 + round) % 9) as usize)))
        .collect();
    match drive {
        Drive::Batch { threads } => svc.release_batch(&batch, seed, threads).unwrap(),
        Drive::Loop => {
            let mut releases = Vec::new();
            for shard in 0..SHARDS {
                let mut rng = shard_rng(seed, shard);
                for (id, loc) in batch.iter().filter(|(id, _)| svc_shard(*id) == shard) {
                    releases.push(svc.release(*id, *loc, &mut rng).unwrap());
                }
            }
            releases.sort_by_key(|r| r.report.user);
            releases
        }
    }
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

fn run(drive: Drive, tag: &str) -> Outcome {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "priste-online-batch-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let chain = Arc::new(Homogeneous::new(
        gaussian_kernel_chain(&grid(), 1.0).unwrap(),
    ));
    let config = OnlineConfig {
        epsilon: 0.8,
        num_shards: SHARDS,
        linger: 2,
        budget: 1e6,
    };
    let opts = DurableOptions {
        fsync: false,
        snapshot_every: 0,
    };
    let mut svc =
        SessionManager::open_durable(chain, config, templates(), &dir, opts, Some(mechanism()))
            .unwrap();
    svc.enable_enforcement(mechanism(), GuardConfig::default())
        .unwrap();
    for u in 0..USERS {
        svc.add_user(UserId(u), Vector::uniform(9)).unwrap();
        svc.attach_event(UserId(u), 0).unwrap();
        if u % 3 == 1 {
            svc.attach_event(UserId(u), 1).unwrap();
        }
    }
    let mut reports = Vec::new();
    let mut releases = Vec::new();
    for round in 0..2 {
        reports.push(ingest(&mut svc, drive, round));
    }
    for round in 2..5 {
        releases.push(release(&mut svc, drive, round, 40 + round));
    }
    reports.push(ingest(&mut svc, drive, 5));
    let outcome = Outcome {
        reports,
        releases,
        digest: svc.state_digest(),
        files: files(&dir),
    };
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
    outcome
}

#[test]
fn batches_equal_loops_of_single_user_calls() {
    let looped = run(Drive::Loop, "loop");
    assert!(
        looped
            .files
            .keys()
            .filter(|f| f.starts_with("wal-"))
            .count()
            >= SHARDS,
        "{:?}",
        looped.files.keys()
    );
    for threads in [1, 3] {
        let batched = run(Drive::Batch { threads }, &format!("batch-{threads}"));
        assert_eq!(batched.reports, looped.reports, "threads {threads}");
        assert_eq!(batched.releases, looped.releases, "threads {threads}");
        assert_eq!(batched.digest, looped.digest, "threads {threads}");
        assert_eq!(
            batched.files.keys().collect::<Vec<_>>(),
            looped.files.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &looped.files {
            assert!(
                batched.files[name] == *bytes,
                "{name} differs at threads {threads}"
            );
        }
    }
}
