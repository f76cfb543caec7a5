//! `SessionManager`'s single-user calls from many threads at once: each
//! locks only its user's shard, automatic checkpoints take every shard in
//! order, and the result is the state a sequential run of the same
//! per-user calls reaches, in memory and after recovery.

use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::PlanarLaplace;
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use std::path::Path;
use std::sync::Arc;

const USERS: u64 = 12;
const ROUNDS: u64 = 6;

fn grid() -> GridMap {
    GridMap::new(3, 3, 1.0).unwrap()
}

fn provider() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(
        gaussian_kernel_chain(&grid(), 1.0).unwrap(),
    ))
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
        num_shards: 4,
        linger: 2,
        budget: 1e6,
    }
}

fn mechanism() -> Box<PlanarLaplace> {
    Box::new(PlanarLaplace::new(grid(), 3.0).unwrap())
}

fn service(dir: Option<&Path>) -> SessionManager<Arc<Homogeneous>> {
    let mut svc = SessionManager::new(provider(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    svc.set_mechanism(mechanism()).unwrap();
    if let Some(dir) = dir {
        let opts = DurableOptions {
            fsync: false,
            snapshot_every: 7,
        };
        svc.make_durable(dir, opts).unwrap();
    }
    svc
}

/// One user's life: first contact, observed cells, and for every third
/// user a second window mid-stream and a column ingest.
fn drive(svc: &SessionManager<Arc<Homogeneous>>, user: u64) {
    let id = UserId(user);
    assert!(svc.enroll(id, || Vector::uniform(9), &[0]).unwrap());
    for round in 0..ROUNDS {
        let cell = ((user * 5 + round * 7) % 9) as usize;
        svc.ingest_observed(id, CellId(cell)).unwrap();
        if user.is_multiple_of(3) && round == 2 {
            svc.attach_event(id, 0).unwrap();
            let mut column = vec![0.2; 9];
            column[cell] = 0.6;
            svc.ingest(id, Vector::from(column)).unwrap();
        }
    }
}

#[test]
fn concurrent_single_user_calls_reach_the_sequential_state() {
    let sequential = service(None);
    for user in 0..USERS {
        drive(&sequential, user);
    }
    let digest = sequential.state_digest();

    let dir =
        std::env::temp_dir().join(format!("priste-online-concurrency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let concurrent = service(Some(&dir));
    std::thread::scope(|scope| {
        for k in 0..4 {
            let svc = &concurrent;
            scope.spawn(move || {
                for user in (k..USERS).step_by(4) {
                    drive(svc, user);
                }
            });
        }
    });
    assert_eq!(concurrent.num_users(), USERS as usize);
    assert_eq!(concurrent.state_digest(), digest);
    assert_eq!(concurrent.stats(), sequential.stats());

    let recovered =
        SessionManager::recover(provider(), config(), templates(), &dir, Some(mechanism()))
            .unwrap();
    assert!(recovered.recovery_info().unwrap().replayed_records < 7);
    assert_eq!(recovered.state_digest(), digest);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_session_copy_outlives_later_observations_unchanged() {
    let svc = service(None);
    drive(&svc, 1);
    let copy = svc.session(UserId(1)).unwrap();
    let spent = copy.ledger().spent();
    let posterior = copy.posterior().clone();
    svc.ingest_observed(UserId(1), CellId(4)).unwrap();
    assert_eq!(copy.ledger().spent(), spent);
    assert_eq!(copy.posterior(), &posterior);
    assert_eq!(
        copy.observed() + 1,
        svc.session(UserId(1)).unwrap().observed()
    );
}
