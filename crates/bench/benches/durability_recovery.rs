//! Cold-start and recovery cost of the durable session store.
//!
//! Three questions, each at 100 and 1000 users on a 6×6 world:
//!
//! * **WAL-replay recovery** — `SessionManager::recover` over a directory
//!   whose snapshot is empty and whose per-shard WALs carry the whole
//!   stream (`snapshot_every: 0`, the crash-mid-stream worst case).
//! * **snapshot recovery** — the same committed state after an explicit
//!   checkpoint: one CRC-checked snapshot read, no replay.
//! * **journaling overhead** — batched audit ingest with the per-shard WAL
//!   attached (fsync off; the codec + write cost) versus the plain
//!   in-memory service.
//!
//! Expected shape: snapshot recovery is near-constant in stream length and
//! strictly cheaper than replay; journaling costs a small constant factor
//! per observation (the emission column dominates the record).
//!
//! `recover` is read-only, so each measured iteration recovers from the
//! same directory — no per-iteration re-setup distorts the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use priste_event::{Presence, StEvent};
use priste_geo::{GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous, TransitionProvider};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 8;
const STEPS: usize = 8;

fn world() -> (GridMap, Arc<Homogeneous>, StEvent) {
    let grid = GridMap::new(6, 6, 1.0).expect("grid");
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let event: StEvent = Presence::new(
        Region::from_one_based_range(m, 1, m / 4).expect("range"),
        2,
        5,
    )
    .expect("presence")
    .into();
    (grid, Arc::new(Homogeneous::new(chain)), event)
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 1.0,
        num_shards: SHARDS,
        linger: 2,
        budget: 1e9,
    }
}

fn service(
    provider: &Arc<Homogeneous>,
    event: &StEvent,
    users: usize,
) -> SessionManager<Arc<Homogeneous>> {
    let m = provider.num_states();
    let mut svc = SessionManager::new(Arc::clone(provider), config()).expect("service");
    let tpl = svc.register_template(event.clone()).expect("template");
    for u in 0..users as u64 {
        svc.add_user(UserId(u), Vector::uniform(m)).expect("user");
        svc.attach_event(UserId(u), tpl).expect("attach");
    }
    svc
}

/// One timestep's batch of PLM emission columns for every user.
fn batch(grid: &GridMap, users: usize, seed: u64) -> Vec<(UserId, Vector)> {
    let m = grid.num_cells();
    let plm = PlanarLaplace::new(grid.clone(), 0.8).expect("plm");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..users as u64)
        .map(|u| {
            let true_cell = priste_geo::CellId((u as usize * 7 + seed as usize) % m);
            (
                UserId(u),
                plm.emission_column(plm.perturb(true_cell, &mut rng)),
            )
        })
        .collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("priste-bench-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams `STEPS` batches through a durable service journaling into `dir`,
/// optionally compacting at the end, then drops it ("crashes").
fn populate(dir: &Path, users: usize, checkpoint: bool) -> (Arc<Homogeneous>, StEvent) {
    let (grid, provider, event) = world();
    let mut svc = service(&provider, &event, users);
    svc.make_durable(
        dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .expect("make_durable");
    for t in 0..STEPS {
        svc.ingest_batch(&batch(&grid, users, t as u64))
            .expect("ingest");
    }
    if checkpoint {
        svc.checkpoint().expect("checkpoint");
    }
    (provider, event)
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_recovery");
    group.sample_size(10);

    for users in [100usize, 1000] {
        for (label, checkpoint) in [("wal_replay", false), ("snapshot", true)] {
            let dir = tempdir(&format!("{label}-{users}"));
            let (provider, event) = populate(&dir, users, checkpoint);
            group.bench_with_input(BenchmarkId::new(label, users), &users, |b, _| {
                b.iter(|| {
                    SessionManager::recover(
                        Arc::clone(&provider),
                        config(),
                        vec![event.clone()],
                        &dir,
                        None,
                    )
                    .expect("recover")
                    .state_digest()
                })
            });
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    group.finish();
}

fn bench_journaling_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_journaling_overhead");
    group.sample_size(10);

    for users in [100usize, 1000] {
        let (grid, provider, event) = world();
        let feed: Vec<_> = (0..STEPS).map(|t| batch(&grid, users, t as u64)).collect();

        group.bench_with_input(BenchmarkId::new("in_memory", users), &users, |b, _| {
            b.iter(|| {
                let mut svc = service(&provider, &event, users);
                for step in &feed {
                    svc.ingest_batch(step).expect("ingest");
                }
                svc.stats().observations
            })
        });

        group.bench_with_input(BenchmarkId::new("journaled", users), &users, |b, _| {
            b.iter(|| {
                let dir = tempdir(&format!("overhead-{users}"));
                let mut svc = service(&provider, &event, users);
                svc.make_durable(
                    &dir,
                    DurableOptions {
                        fsync: false,
                        snapshot_every: 0,
                    },
                )
                .expect("make_durable");
                for step in &feed {
                    svc.ingest_batch(step).expect("ingest");
                }
                let n = svc.stats().observations;
                drop(svc);
                std::fs::remove_dir_all(&dir).ok();
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recovery, bench_journaling_overhead);
criterion_main!(benches);
