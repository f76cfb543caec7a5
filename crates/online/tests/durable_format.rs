//! The durable format is a contract with every directory already on disk:
//! a fixed scenario must encode to the same snapshot and WAL bytes, and
//! hash to the same state digest, as the committed fixtures — and every
//! fixture must still recover. `durable_v1` was written by a build that
//! wrote every vector inline (snapshot format 1); `durable_v2` by one that
//! writes each shared vector once (format 2, the current one). The WAL and
//! the digest's logical layout did not change between them, so both pin
//! the same WAL bytes and digest. Also pins that every window shares its
//! template's model, live and after recovery, and that a snapshot of many
//! idle users stays small and recovers shared.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::Vector;
use priste_markov::{gaussian_kernel_chain_sparse, Homogeneous, MarkovModel};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `state_digest` of the scenario's final state, recorded when the first
/// fixture directory was written.
const PINNED_DIGEST: u64 = 0x5463_ca16_897b_6d57;

/// The generation-2 checkpoint of a fixture directory.
const SNAPSHOT: &str = "snap-0000000000000002.bin";

/// Its two shard WAL tails.
const WAL_SEGMENTS: [&str; 2] = [
    "wal-0000000000000002-0000.log",
    "wal-0000000000000002-0001.log",
];

/// Fixture directories, oldest format first.
const FIXTURE_DIRS: [&str; 2] = ["durable_v1", "durable_v2"];

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn region(ids: &[usize]) -> Region {
    Region::from_cells(3, ids.iter().map(|&i| CellId(i))).unwrap()
}

fn chain() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(MarkovModel::paper_example()))
}

fn templates() -> Vec<StEvent> {
    vec![
        Presence::new(region(&[0, 1]), 2, 3).unwrap().into(),
        Pattern::new(vec![region(&[0, 1]), region(&[1, 2])], 2)
            .unwrap()
            .into(),
    ]
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 1.0,
        num_shards: 2,
        linger: 1,
        budget: 50.0,
    }
}

fn round(cols: &[(u64, [f64; 3])]) -> Vec<(UserId, Vector)> {
    cols.iter()
        .map(|&(u, c)| (UserId(u), Vector::from(c.to_vec())))
        .collect()
}

/// The fixed scenario: three users attach windows, journal two rounds,
/// checkpoint (generation 2), then journal a third round and a new user
/// into the generation-2 WAL.
fn scenario(dir: &Path) -> SessionManager<Arc<Homogeneous>> {
    let mut svc = SessionManager::new(chain(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    let priors = [[1.0 / 3.0; 3], [0.5, 0.3, 0.2], [0.2, 0.2, 0.6]];
    for (u, pi) in priors.iter().enumerate() {
        svc.add_user(UserId(u as u64), Vector::from(pi.to_vec()))
            .unwrap();
        svc.attach_event(UserId(u as u64), u % 2).unwrap();
    }
    svc.make_durable(
        dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .unwrap();
    svc.ingest_batch(&round(&[
        (0, [0.7, 0.2, 0.1]),
        (1, [0.1, 0.8, 0.1]),
        (2, [0.25, 0.5, 0.25]),
    ]))
    .unwrap();
    svc.attach_event(UserId(1), 1).unwrap();
    svc.ingest_batch(&round(&[
        (0, [0.3, 0.3, 0.4]),
        (1, [0.6, 0.2, 0.2]),
        (2, [0.1, 0.1, 0.8]),
    ]))
    .unwrap();
    svc.checkpoint().unwrap();
    svc.ingest_batch(&round(&[(0, [0.5, 0.25, 0.25]), (2, [0.2, 0.6, 0.2])]))
        .unwrap();
    svc.add_user(UserId(3), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(3), 0).unwrap();
    svc
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "priste-durable-format-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every live window holds its template's model: the templates' reference
/// counts beyond the catalog's own add up to the active windows.
fn assert_windows_share_template_models(svc: &SessionManager<Arc<Homogeneous>>) {
    let shared: usize = svc
        .templates()
        .iter()
        .map(|model| Arc::strong_count(model) - 1)
        .sum();
    assert!(svc.active_windows() > 0);
    assert_eq!(shared, svc.active_windows());
}

fn assert_same_file(written: &Path, fixture: &str, name: &str) {
    assert_eq!(
        std::fs::read(written.join(name)).unwrap(),
        std::fs::read(fixture_dir(fixture).join(name)).unwrap(),
        "{name} differs from {fixture}"
    );
}

#[test]
fn scenario_writes_the_fixture_bytes_and_digest() {
    let dir = tempdir("live");
    let svc = scenario(&dir);
    assert_eq!(svc.state_digest(), PINNED_DIGEST);
    assert_same_file(&dir, "durable_v2", SNAPSHOT);
    for fixture in FIXTURE_DIRS {
        for name in WAL_SEGMENTS {
            assert_same_file(&dir, fixture, name);
        }
    }
    assert_windows_share_template_models(&svc);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fixture_directory_recovers_to_the_pinned_digest() {
    for fixture in FIXTURE_DIRS {
        let dir = tempdir(&format!("recover-{fixture}"));
        std::fs::create_dir_all(&dir).unwrap();
        for name in WAL_SEGMENTS.into_iter().chain([SNAPSHOT]) {
            std::fs::copy(fixture_dir(fixture).join(name), dir.join(name)).unwrap();
        }
        let svc = SessionManager::recover(chain(), config(), templates(), &dir, None).unwrap();
        assert_eq!(svc.state_digest(), PINNED_DIGEST, "{fixture}");
        assert_eq!(svc.num_users(), 4);
        // Restored windows and WAL-replayed attaches share the models too.
        assert_windows_share_template_models(&svc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint of 1 000 idle users on one prior, plus one observed user,
/// at m = 2500 writes the shared vectors once, and recovers them shared.
#[test]
fn idle_users_are_written_once_and_recover_shared() {
    const IDLE: u64 = 1000;
    let grid = priste_geo::GridMap::new(50, 50, 1.0).unwrap();
    let m = grid.num_cells();
    let provider = Arc::new(Homogeneous::new(
        gaussian_kernel_chain_sparse(&grid, 0.5).unwrap(),
    ));
    let event: StEvent = Presence::new(Region::from_one_based_range(m, 1, m / 4).unwrap(), 2, 5)
        .unwrap()
        .into();
    let dir = tempdir("idle");
    let mut svc = SessionManager::new(Arc::clone(&provider), config()).unwrap();
    let tpl = svc.register_template(event.clone()).unwrap();
    for u in 0..=IDLE {
        svc.add_user(UserId(u), Vector::uniform(m)).unwrap();
        svc.attach_event(UserId(u), tpl).unwrap();
    }
    let column: Vec<f64> = (0..m).map(|i| 0.1 + (i % 7) as f64 / 10.0).collect();
    svc.ingest(UserId(IDLE), Vector::from(column)).unwrap();
    svc.make_durable(
        &dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .unwrap();
    // Per idle user: 128 B. Written once: the shared prior and lift, plus
    // the observed user's posterior, window prior and mantissa (4m).
    let snapshot = std::fs::metadata(dir.join("snap-0000000000000001.bin"))
        .unwrap()
        .len();
    let bound = IDLE * 128 + (4 * m * 8) as u64 + 1024;
    assert!(
        snapshot < bound,
        "snapshot is {snapshot} B, bound {bound} B"
    );

    let back = SessionManager::recover(provider, config(), vec![event], &dir, None).unwrap();
    assert_eq!(back.state_digest(), svc.state_digest());
    let first = back.session(UserId(0)).unwrap();
    for u in 1..IDLE {
        let idle = back.session(UserId(u)).unwrap();
        assert!(std::ptr::eq(idle.posterior(), first.posterior()));
    }
    let observed = back.session(UserId(IDLE)).unwrap();
    assert!(!std::ptr::eq(observed.posterior(), first.posterior()));
    drop((svc, back));
    std::fs::remove_dir_all(&dir).unwrap();
}
