//! A panic inside a batch poisons the shard it hit, as one inside a
//! single-user call does. The panic is injected through the mobility
//! model: once armed, `transition_at(1)` panics the next time it is asked
//! for, which only a user observed exactly once asks for. On a two-shard
//! service whose shard 0 holds one such user behind an older one, every
//! batch path stops shard 0 at that user, returns
//! `ShardPanicked { shard: 0 }`, counts the panic, and leaves the shard
//! fenced: later calls and checkpoints are refused, even though the
//! tripwire has fired and would not fire again. The user committed before
//! the panic and the other shard's users are journaled and counted.

use priste_calibrate::GuardConfig;
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::PlanarLaplace;
use priste_markov::{gaussian_kernel_chain, Homogeneous, TransitionMatrix, TransitionProvider};
use priste_obs::Registry;
use priste_online::{DurableOptions, OnlineConfig, OnlineError, SessionManager, UserId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The 3×3 Gaussian chain, except that once armed the next
/// `transition_at(1)` panics (once: the tripwire disarms as it fires).
#[derive(Clone)]
struct Tripwire {
    chain: Arc<Homogeneous>,
    armed: Arc<AtomicBool>,
}

impl TransitionProvider for Tripwire {
    fn num_states(&self) -> usize {
        self.chain.num_states()
    }

    fn transition_at(&self, t: usize) -> &TransitionMatrix {
        if t == 1 && self.armed.swap(false, Ordering::SeqCst) {
            panic!("tripwire: transition_at(1)");
        }
        self.chain.transition_at(t)
    }
}

fn grid() -> GridMap {
    GridMap::new(3, 3, 1.0).unwrap()
}

fn provider() -> Tripwire {
    Tripwire {
        chain: Arc::new(Homogeneous::new(
            gaussian_kernel_chain(&grid(), 1.0).unwrap(),
        )),
        armed: Arc::new(AtomicBool::new(false)),
    }
}

fn templates() -> Vec<StEvent> {
    vec![
        Presence::new(Region::from_one_based_range(9, 1, 3).unwrap(), 2, 4)
            .unwrap()
            .into(),
    ]
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 0.8,
        num_shards: 2,
        linger: 2,
        budget: 1e6,
    }
}

fn mechanism() -> Box<PlanarLaplace> {
    Box::new(PlanarLaplace::new(grid(), 3.0).unwrap())
}

fn column(user: u64) -> Vector {
    let mut col = vec![0.1; 9];
    col[(user * 4 % 9) as usize] = 0.6;
    Vector::from(col)
}

/// Users 0 and 2 live in shard 0, users 1 and 3 in shard 1. Every user but
/// user 2 has been observed twice, user 2 once, so the only
/// `transition_at(1)` a batch over all four asks for is user 2's, after
/// user 0 has committed.
const AGES: [(u64, usize); 4] = [(0, 2), (1, 2), (2, 1), (3, 2)];

struct Fixture {
    svc: SessionManager<Tripwire>,
    registry: Registry,
    tripwire: Arc<AtomicBool>,
    dir: PathBuf,
}

/// A durable, enforcing two-shard service at [`AGES`], with a registry
/// attached and the tripwire armed.
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!(
        "priste-online-batch-panic-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let provider = provider();
    let tripwire = Arc::clone(&provider.armed);
    let opts = DurableOptions {
        fsync: false,
        snapshot_every: 0,
    };
    let mut svc =
        SessionManager::open_durable(provider, config(), templates(), &dir, opts, None).unwrap();
    svc.enable_enforcement(mechanism(), GuardConfig::default())
        .unwrap();
    let registry = Registry::new();
    svc.observe(&registry);
    for (user, age) in AGES {
        svc.add_user(UserId(user), Vector::uniform(9)).unwrap();
        svc.attach_event(UserId(user), 0).unwrap();
        for _ in 0..age {
            svc.ingest(UserId(user), column(user)).unwrap();
        }
    }
    tripwire.store(true, Ordering::SeqCst);
    Fixture {
        svc,
        registry,
        tripwire,
        dir,
    }
}

/// Every check that follows a batch panic at user 2: the error, the
/// poisoned and fenced shard, the counted panic, and the committed prefix
/// in memory and in the journal. `journaled_2` is the age user 2
/// recovers at: an ingest journals its column before the commit panics,
/// a release panics in the guard, before anything is journaled.
fn assert_fenced(
    fx: Fixture,
    result: Result<usize, OnlineError>,
    observations_before: usize,
    journaled_2: usize,
) {
    assert_eq!(result, Err(OnlineError::ShardPanicked { shard: 0 }));
    assert!(!fx.tripwire.load(Ordering::SeqCst), "the tripwire fired");
    assert!(fx.svc.is_poisoned());
    assert_eq!(
        fx.registry.counter("online_shard_panics_total").get(),
        1,
        "the panic is counted"
    );
    // The tripwire is spent, so only the poisoned lock refuses these.
    for user in [0, 2] {
        assert_eq!(
            fx.svc.ingest(UserId(user), column(user)),
            Err(OnlineError::ShardPanicked { shard: 0 })
        );
    }
    assert_eq!(
        fx.svc.checkpoint(),
        Err(OnlineError::ShardPanicked { shard: 0 })
    );
    // User 0 committed before the panic, shard 1 committed whole.
    assert_eq!(fx.svc.stats().observations, observations_before + 3);
    for user in [1, 3] {
        assert_eq!(fx.svc.session(UserId(user)).unwrap().observed(), 3);
    }
    let dir = fx.dir;
    drop(fx.svc);
    assert_recovered_ages(&dir, [3, 3, journaled_2, 3]);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn assert_recovered_ages(dir: &Path, ages: [usize; 4]) {
    let recovered =
        SessionManager::recover(provider(), config(), templates(), dir, Some(mechanism())).unwrap();
    for (user, age) in ages.into_iter().enumerate() {
        assert_eq!(
            recovered.session(UserId(user as u64)).unwrap().observed(),
            age,
            "user {user}"
        );
    }
}

fn ingest_batch() -> Vec<(UserId, Vector)> {
    (0..4).map(|u| (UserId(u), column(u))).collect()
}

#[test]
fn a_panic_in_ingest_batch_poisons_its_shard() {
    let mut fx = fixture("ingest");
    let before = fx.svc.stats().observations;
    let result = fx.svc.ingest_batch(&ingest_batch(), 1).map(|r| r.len());
    assert_fenced(fx, result, before, 2);
}

#[test]
fn a_panic_in_ingest_batch_poisons_its_shard_at_any_thread_count() {
    for threads in [0, 3] {
        let mut fx = fixture(&format!("parallel-{threads}"));
        let before = fx.svc.stats().observations;
        let result = fx
            .svc
            .ingest_batch(&ingest_batch(), threads)
            .map(|r| r.len());
        assert_fenced(fx, result, before, 2);
    }
}

#[test]
fn a_panic_in_release_batch_poisons_its_shard_at_any_thread_count() {
    let batch: Vec<(UserId, CellId)> = (0..4)
        .map(|u| (UserId(u), CellId((u * 2) as usize)))
        .collect();
    for threads in [1, 3] {
        let mut fx = fixture(&format!("release-{threads}"));
        let before = fx.svc.stats().observations;
        let result = fx.svc.release_batch(&batch, 7, threads).map(|r| r.len());
        assert_fenced(fx, result, before, 1);
    }
}
