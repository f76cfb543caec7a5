//! Sequential vs sharded-parallel batched ingest/release at fleet scale —
//! the acceptance evidence for the `Send + Sync` service redesign.
//!
//! Two comparisons, each at 1k and 10k users on a 6×6 world:
//!
//! * **audit ingest** — [`SessionManager::ingest_batch`] (single-threaded,
//!   shard-by-shard) vs [`SessionManager::ingest_batch_parallel`]
//!   (`std::thread::scope` fan-out over the shard groups, one worker per
//!   core). The two produce byte-identical reports (pinned by the
//!   `pipeline_equivalence` proptest suite); only wall-clock differs.
//! * **enforcing release** — per-user sequential [`SessionManager::release`]
//!   vs one [`SessionManager::release_batch`] with per-shard RNG streams
//!   and one shared, immutable guard ladder.
//!
//! Expected shape on multi-core hardware: ≥1.5× throughput at 10k users
//! for the parallel paths (the per-shard work — posterior matmuls, shared
//! lifted steps, guard peeks — is embarrassingly parallel across shards;
//! the sequential path leaves every core but one idle).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use priste_calibrate::GuardConfig;
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous, TransitionProvider};
use priste_online::{OnlineConfig, SessionManager, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SHARDS: usize = 32;

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

/// A populated audit-mode service: `users` sessions, one window each.
fn audit_service(
    provider: &Arc<Homogeneous>,
    event: &StEvent,
    users: usize,
) -> SessionManager<Arc<Homogeneous>> {
    let m = provider.num_states();
    let mut svc = SessionManager::new(
        Arc::clone(provider),
        OnlineConfig {
            epsilon: 1.0,
            num_shards: SHARDS,
            linger: 2,
            budget: 1e9,
        },
    )
    .expect("service");
    let tpl = svc.register_template(event.clone()).expect("template");
    for u in 0..users as u64 {
        svc.add_user(UserId(u), Vector::uniform(m)).expect("user");
        svc.attach_event(UserId(u), tpl).expect("attach");
    }
    svc
}

/// The same service switched into enforcing mode behind a 2.0-PLM guard.
fn enforcing_service(
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
    users: usize,
) -> SessionManager<Arc<Homogeneous>> {
    let mut svc = audit_service(provider, event, users);
    svc.enable_enforcement(
        Box::new(PlanarLaplace::new(grid.clone(), 2.0).expect("plm")),
        GuardConfig {
            target_epsilon: 1.0,
            ..GuardConfig::default()
        },
    )
    .expect("enforcement");
    svc
}

/// One same-timestep audit batch: every user one emission column.
fn audit_batch(grid: &GridMap, users: usize) -> Vec<(UserId, Vector)> {
    let plm = PlanarLaplace::new(grid.clone(), 0.8).expect("plm");
    let mut rng = StdRng::seed_from_u64(11);
    (0..users as u64)
        .map(|u| {
            let obs = plm.perturb(CellId((u % 36) as usize), &mut rng);
            (UserId(u), plm.emission_column(obs))
        })
        .collect()
}

fn bench_parallel_ingest(c: &mut Criterion) {
    let (grid, provider, event) = world();
    let mut group = c.benchmark_group("parallel_ingest");
    group.sample_size(10);

    for users in [1_000usize, 10_000] {
        let batch = audit_batch(&grid, users);
        group.bench_with_input(
            BenchmarkId::new("sequential", users),
            &users,
            |b, &users| {
                let mut svc = audit_service(&provider, &event, users);
                b.iter(|| svc.ingest_batch(&batch).expect("ingest").len())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_parallel", users),
            &users,
            |b, &users| {
                let mut svc = audit_service(&provider, &event, users);
                b.iter(|| {
                    svc.ingest_batch_parallel(&batch, 0)
                        .expect("parallel ingest")
                        .len()
                })
            },
        );
    }
    group.finish();
}

fn bench_parallel_release(c: &mut Criterion) {
    let (grid, provider, event) = world();
    let mut group = c.benchmark_group("parallel_release");
    group.sample_size(10);

    for users in [1_000usize, 10_000] {
        let batch: Vec<(UserId, CellId)> = (0..users as u64)
            .map(|u| (UserId(u), CellId((u % 36) as usize)))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sequential", users),
            &users,
            |b, &users| {
                let svc = enforcing_service(&grid, &provider, &event, users);
                let mut rng = StdRng::seed_from_u64(3);
                b.iter(|| {
                    let mut attempts = 0usize;
                    for &(u, loc) in &batch {
                        attempts += svc.release(u, loc, &mut rng).expect("release").attempts;
                    }
                    attempts
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_parallel", users),
            &users,
            |b, &users| {
                let mut svc = enforcing_service(&grid, &provider, &event, users);
                b.iter(|| {
                    svc.release_batch(&batch, 3, 0)
                        .expect("release batch")
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_ingest, bench_parallel_release);
criterion_main!(benches);
