//! The durable format is a contract with every directory already on disk:
//! a fixed scenario must encode to the same snapshot and WAL bytes, and
//! hash to the same state digest, as the committed fixture written by an
//! earlier build — and that fixture must still recover. Also pins that
//! every window shares its template's model, live and after recovery.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::Vector;
use priste_markov::{Homogeneous, MarkovModel};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `state_digest` of the scenario's final state, recorded when the fixture
/// directory was written.
const PINNED_DIGEST: u64 = 0x5463_ca16_897b_6d57;

/// Files of the fixture directory: the generation-2 checkpoint and its two
/// shard WAL tails.
const FIXTURE_FILES: [&str; 3] = [
    "snap-0000000000000002.bin",
    "wal-0000000000000002-0000.log",
    "wal-0000000000000002-0001.log",
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable_v1")
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

#[test]
fn scenario_writes_the_fixture_bytes_and_digest() {
    let dir = tempdir("live");
    let svc = scenario(&dir);
    assert_eq!(svc.state_digest(), PINNED_DIGEST);
    for name in FIXTURE_FILES {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(fixture_dir().join(name)).unwrap(),
            "{name} differs from the fixture"
        );
    }
    assert_windows_share_template_models(&svc);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fixture_directory_recovers_to_the_pinned_digest() {
    let dir = tempdir("recover");
    std::fs::create_dir_all(&dir).unwrap();
    for name in FIXTURE_FILES {
        std::fs::copy(fixture_dir().join(name), dir.join(name)).unwrap();
    }
    let svc = SessionManager::recover(chain(), config(), templates(), &dir).unwrap();
    assert_eq!(svc.state_digest(), PINNED_DIGEST);
    assert_eq!(svc.num_users(), 4);
    // Restored windows and WAL-replayed attaches share the models too.
    assert_windows_share_template_models(&svc);
    std::fs::remove_dir_all(&dir).unwrap();
}
