//! A checkpoint that fails part-way must not cost the journal any record.
//!
//! The store keeps appending to the current generation's WAL after a failed
//! checkpoint, so nothing the failed attempt left on disk may win recovery
//! over that generation: the recovered ledgers must carry every committed
//! observation's spend.

use priste_event::{Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::Vector;
use priste_markov::{Homogeneous, MarkovModel};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use std::path::PathBuf;
use std::sync::Arc;

const USERS: u64 = 3;

fn chain() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(MarkovModel::paper_example()))
}

fn templates() -> Vec<StEvent> {
    let region = Region::from_cells(3, [CellId(0), CellId(1)]).unwrap();
    vec![Presence::new(region, 1, 6).unwrap().into()]
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 1.0,
        num_shards: 2,
        linger: 1,
        budget: 50.0,
    }
}

fn ingest_round(svc: &mut SessionManager<Arc<Homogeneous>>, round: u64) {
    let batch: Vec<(UserId, Vector)> = (0..USERS)
        .map(|u| {
            let hot = ((u + round) % 3) as usize;
            let mut column = vec![0.1; 3];
            column[hot] = 0.8;
            (UserId(u), Vector::from(column))
        })
        .collect();
    svc.ingest_batch(&batch).unwrap();
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "priste-checkpoint-failure-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn failed_checkpoint_loses_no_later_record() {
    let dir = tempdir("blocked-wal");
    let mut svc = SessionManager::new(chain(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    for u in 0..USERS {
        svc.add_user(UserId(u), Vector::uniform(3)).unwrap();
        svc.attach_event(UserId(u), 0).unwrap();
    }
    svc.make_durable(
        &dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .unwrap();
    ingest_round(&mut svc, 0);

    // A directory squatting on the next generation's first WAL segment
    // makes the checkpoint fail.
    let blocker = dir.join("wal-0000000000000002-0000.log");
    std::fs::create_dir(&blocker).unwrap();
    assert!(
        svc.checkpoint().is_err(),
        "the blocked checkpoint must fail"
    );
    std::fs::remove_dir(&blocker).unwrap();

    // The store carries on journaling after the failure.
    ingest_round(&mut svc, 1);
    ingest_round(&mut svc, 2);

    let recovered = SessionManager::recover(chain(), config(), templates(), &dir, None).unwrap();
    for u in 0..USERS {
        let live = svc.session(UserId(u)).unwrap().ledger();
        let back = recovered.session(UserId(u)).unwrap().ledger();
        assert_eq!(live.observations(), 3);
        assert!(
            back.spent() >= live.spent(),
            "user {u}: recovered spend {} under-counts the committed {}",
            back.spent(),
            live.spent()
        );
    }
    assert_eq!(recovered.state_digest(), svc.state_digest());
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}
