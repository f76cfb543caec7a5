//! A durable service that holds its mechanism journals each observed-cell
//! ingest and each guarded release by reference — cell, budget and column
//! hash — and recovery rebuilds those columns from the mechanism it is
//! given. Pins that this changes nothing but the journal: a service fed
//! observed cells and one fed the same columns explicitly hold, and recover
//! to, the same state; the by-reference journal is 37 bytes a record; and
//! recovery under another mechanism, or none, fails naming the record.

use priste_calibrate::{Decision, GuardConfig, OnExhaustion};
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain_sparse, Homogeneous};
use priste_online::{
    DurableError, DurableOptions, OnlineConfig, OnlineError, SessionManager, UserId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SIDE: usize = 8;
const USERS: u64 = 6;
const ROUNDS: usize = 4;

/// Each WAL segment starts with a 32-byte header.
const WAL_HEADER: u64 = 32;

fn grid() -> GridMap {
    GridMap::new(SIDE, SIDE, 1.0).unwrap()
}

fn chain() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(
        gaussian_kernel_chain_sparse(&grid(), 0.8).unwrap(),
    ))
}

fn plm(alpha: f64) -> PlanarLaplace {
    PlanarLaplace::new(grid(), alpha).unwrap()
}

fn templates() -> Vec<StEvent> {
    let m = SIDE * SIDE;
    vec![
        Presence::new(Region::from_one_based_range(m, 1, m / 4).unwrap(), 2, 4)
            .unwrap()
            .into(),
    ]
}

fn config() -> OnlineConfig {
    OnlineConfig {
        num_shards: 3,
        budget: 1e6,
        ..OnlineConfig::default()
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("priste-by-reference-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable service in `dir` with every user registered and attached.
fn service(dir: &Path) -> SessionManager<Arc<Homogeneous>> {
    let mut svc = SessionManager::new(chain(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    let m = SIDE * SIDE;
    for u in 0..USERS {
        svc.add_user(UserId(u), priste_linalg::Vector::uniform(m))
            .unwrap();
        svc.attach_event(UserId(u), 0).unwrap();
    }
    svc.make_durable(
        dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .unwrap();
    svc
}

/// The cell user `u` reports in round `r`.
fn observed(u: u64, r: usize) -> CellId {
    CellId((u as usize * 11 + r * 7) % (SIDE * SIDE))
}

/// Bytes the generation-1 WAL segments of `dir` hold past their headers.
fn wal_record_bytes(dir: &Path) -> u64 {
    (0..config().num_shards)
        .map(|shard| {
            let path = dir.join(format!("wal-0000000000000001-{shard:04x}.log"));
            std::fs::metadata(path).unwrap().len() - WAL_HEADER
        })
        .sum()
}

#[test]
fn observed_cells_and_explicit_columns_recover_to_the_same_digest() {
    let (by_ref_dir, explicit_dir) = (tempdir("cells"), tempdir("columns"));
    let mechanism = plm(2.0);
    let mut by_ref = service(&by_ref_dir);
    by_ref.set_mechanism(Box::new(mechanism.clone())).unwrap();
    let mut explicit = service(&explicit_dir);
    for r in 0..ROUNDS {
        for u in 0..USERS {
            let cell = observed(u, r);
            let a = by_ref.ingest_observed(UserId(u), cell).unwrap();
            let b = explicit
                .ingest(UserId(u), mechanism.emission_column(cell))
                .unwrap();
            assert_eq!(a, b);
        }
    }
    let digest = explicit.state_digest();
    assert_eq!(by_ref.state_digest(), digest);

    let ingests = USERS * ROUNDS as u64;
    let m = (SIDE * SIDE) as u64;
    assert_eq!(wal_record_bytes(&by_ref_dir), 37 * ingests);
    assert_eq!(wal_record_bytes(&explicit_dir), (8 * m + 26) * ingests);
    drop((by_ref, explicit));

    let recovered = SessionManager::recover(
        chain(),
        config(),
        templates(),
        &by_ref_dir,
        Some(Box::new(mechanism)),
    )
    .unwrap();
    assert_eq!(recovered.state_digest(), digest);
    let recovered =
        SessionManager::recover(chain(), config(), templates(), &explicit_dir, None).unwrap();
    assert_eq!(recovered.state_digest(), digest);
    for dir in [by_ref_dir, explicit_dir] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The error recovery of `dir` fails with.
fn recovery_error(dir: &Path, mechanism: Option<Box<dyn Lppm>>) -> OnlineError {
    SessionManager::recover(chain(), config(), templates(), dir, mechanism)
        .expect_err("recovery must refuse this journal")
}

#[test]
fn recovery_under_another_alpha_or_no_mechanism_fails_naming_the_record() {
    let dir = tempdir("alpha");
    let mut svc = service(&dir);
    svc.set_mechanism(Box::new(plm(2.0))).unwrap();
    svc.ingest(UserId(0), plm(2.0).emission_column(CellId(3)))
        .unwrap();
    svc.ingest_observed(UserId(3), CellId(5)).unwrap();
    drop(svc);
    for mechanism in [Some(Box::new(plm(3.0)) as Box<dyn Lppm>), None] {
        match recovery_error(&dir, mechanism) {
            OnlineError::Durable(DurableError::Replay {
                path,
                record,
                detail,
            }) => {
                // User 3 lives on shard 0, after user 0's column record.
                assert!(path.ends_with("wal-0000000000000001-0000.log"));
                assert_eq!(record, 1);
                assert!(detail.contains("observed cell 5 of user 3"), "{detail}");
            }
            other => panic!("expected a replay error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn guarded_releases_and_suppressions_replay_by_reference() {
    let dir = tempdir("guard");
    let mut svc = service(&dir);
    let guard = GuardConfig {
        target_epsilon: 0.05,
        floor: 0.5,
        on_exhaustion: OnExhaustion::Suppress,
        ..GuardConfig::default()
    };
    svc.enable_enforcement(Box::new(plm(2.0)), guard).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let (mut released, mut backed_off, mut suppressed) = (0, 0, 0);
    for r in 0..ROUNDS {
        for u in 0..USERS {
            match svc
                .release(UserId(u), observed(u, r), &mut rng)
                .unwrap()
                .decision
            {
                Decision::Released { budget, .. } => {
                    released += 1;
                    if budget < 2.0 {
                        backed_off += 1;
                    }
                }
                Decision::Suppressed => suppressed += 1,
            }
        }
    }
    assert!(released > 0 && suppressed > 0, "{released} / {suppressed}");
    // Replay must rebuild a rung below the base, not only the base itself.
    assert!(backed_off > 0, "no release was drawn below the base budget");
    assert_eq!(
        wal_record_bytes(&dir),
        37 * released + 17 * suppressed,
        "a release is 37 bytes, a suppression 17"
    );
    let digest = svc.state_digest();
    let stats = svc.stats();
    drop(svc);
    let back = SessionManager::recover(
        chain(),
        config(),
        templates(),
        &dir,
        Some(Box::new(plm(2.0))),
    )
    .unwrap();
    assert_eq!(back.state_digest(), digest);
    assert_eq!(back.stats(), stats);
    assert!(matches!(
        recovery_error(&dir, None),
        OnlineError::Durable(DurableError::Replay { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
