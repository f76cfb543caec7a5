//! Throughput bench for the streaming subsystem: incremental per-timestep
//! checking ([`IncrementalTwoWorld`], `O(m²)` per observation → `O(T·m²)`
//! per horizon) versus full-horizon replay (the offline [`TheoremBuilder`]
//! path, `O(t·m²)` per candidate → `O(T²·m²)` per horizon), plus
//! users×horizon scaling of the sharded [`SessionManager`].
//!
//! Expected shape: at `T = 10` the two are comparable (constant factors
//! dominate); from `T ≥ 50` the incremental path wins by roughly `T/2` and
//! the gap widens linearly — the acceptance evidence for `priste-online`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::{SparseMatrix, Vector};
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous, TransitionMatrix};
use priste_online::{OnlineConfig, SessionManager, UserId};
use priste_quantify::lifted::LiftedStep;
use priste_quantify::{IncrementalTwoWorld, TheoremBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocation-counting shim around the system allocator. The workspace
/// libraries forbid `unsafe`; this bench-only target uses it solely to
/// *prove* the steady-state allocation contract of the lifted kernels —
/// [`LiftedStep::apply_rows`] must not allocate per-application region
/// masks or half-split copies once the region's mask cache is warm.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One world: an 8×8 grid (m = 64), a presence event over timestamps 3–6,
/// and a seeded stream of `horizon` PLM emission columns.
fn setup(horizon: usize) -> (StEvent, Homogeneous, Vec<Vector>, Vector) {
    let grid = GridMap::new(8, 8, 1.0).expect("grid");
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let plm = PlanarLaplace::new(grid, 0.8).expect("plm");
    let event: StEvent = Presence::new(
        Region::from_one_based_range(m, 1, m / 4).expect("range"),
        3,
        6,
    )
    .expect("presence")
    .into();
    let mut rng = StdRng::seed_from_u64(7);
    let provider = Homogeneous::new(chain);
    let obs = provider
        .model()
        .sample_trajectory_from(&Vector::uniform(m), horizon, &mut rng)
        .expect("sampling");
    let cols: Vec<Vector> = obs.iter().map(|&o| plm.emission_column(o)).collect();
    let pi = Vector::uniform(m);
    (event, provider, cols, pi)
}

fn bench_incremental_vs_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_incremental_vs_replay");
    group.sample_size(10);

    for horizon in [10usize, 50, 100] {
        let (event, provider, cols, pi) = setup(horizon);

        // Streaming path: carry the lifted forward vector, O(T·m²) total.
        group.bench_with_input(
            BenchmarkId::new("incremental_stream", horizon),
            &horizon,
            |b, _| {
                b.iter(|| {
                    let mut inc = IncrementalTwoWorld::new(event.clone(), &provider, pi.clone())
                        .expect("incremental");
                    let mut last = 0.0;
                    for col in &cols {
                        last = inc.observe(col).expect("observe").posterior;
                    }
                    last
                })
            },
        );

        // Offline path: every step replays the committed chain, O(T²·m²).
        group.bench_with_input(
            BenchmarkId::new("full_horizon_replay", horizon),
            &horizon,
            |b, _| {
                b.iter(|| {
                    let mut builder = TheoremBuilder::new(&event, &provider).expect("builder");
                    let mut last = 0.0;
                    for col in &cols {
                        let inputs = builder.candidate(col).expect("candidate");
                        last = inputs.privacy_loss(&pi).expect("loss");
                        builder.commit(col.clone()).expect("commit");
                    }
                    last
                })
            },
        );
    }
    group.finish();
}

fn bench_users_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_users_scaling");
    group.sample_size(10);

    let horizon = 20usize;
    let (event, provider, cols, pi) = setup(horizon);
    let provider = Arc::new(provider);
    for users in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("ingest_batch", users), &users, |b, _| {
            b.iter(|| {
                let mut svc = SessionManager::new(
                    Arc::clone(&provider),
                    OnlineConfig {
                        epsilon: 1.0,
                        num_shards: 8,
                        linger: 2,
                        budget: 1e9,
                    },
                )
                .expect("service");
                let tpl = svc.register_template(event.clone()).expect("template");
                for u in 0..users as u64 {
                    svc.add_user(UserId(u), pi.clone()).expect("user");
                    svc.attach_event(UserId(u), tpl).expect("attach");
                }
                for col in &cols {
                    // Same-timestep batch: every user releases an
                    // observation drawn from the shared column stream.
                    let batch: Vec<(UserId, Vector)> = (0..users as u64)
                        .map(|u| (UserId(u), col.clone()))
                        .collect();
                    svc.ingest_batch(&batch).expect("ingest");
                }
                svc.stats().observations
            })
        });
    }
    group.finish();
}

/// The shared-step batched path the session manager runs every timestep:
/// one [`LiftedStep`] applied to every active window. Asserts the
/// steady-state allocation budget before timing — per batch of `k` lifted
/// vectors the kernels may allocate the `k` output vectors, two scratch
/// halves and the collection itself, but no per-vector indicator masks or
/// half-split round-trips (the pre-fix behaviour, ≥ `4k`).
fn bench_lifted_apply(c: &mut Criterion) {
    let grid = GridMap::new(20, 20, 1.0).expect("grid");
    let m = grid.num_cells();
    let dense_chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let dense = TransitionMatrix::Dense(dense_chain.transition().clone());
    let sparse =
        TransitionMatrix::Sparse(SparseMatrix::from_dense(dense_chain.transition(), 1e-12));
    let region = Region::from_cells(m, (0..m / 4).map(CellId)).expect("region");
    let mut rng = StdRng::seed_from_u64(9);
    let xs: Vec<Vector> = (0..64)
        .map(|_| {
            let mut v = Vector::from(
                (0..2 * m)
                    .map(|_| rand::Rng::gen::<f64>(&mut rng))
                    .collect::<Vec<_>>(),
            );
            v.normalize_mut().expect("positive mass");
            v
        })
        .collect();

    let step = LiftedStep::Capture {
        m: &dense,
        region: &region,
    };
    let _warm = step.apply_rows(&xs); // fills the region's mask cache
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = step.apply_rows(&xs);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(out.len(), xs.len());
    assert!(
        allocs <= 2 * xs.len() + 8,
        "steady-state apply_rows allocated {allocs} times for {} vectors \
         (per-application mask or buffer churn crept back in)",
        xs.len()
    );

    let mut group = c.benchmark_group("online_lifted_apply");
    group.sample_size(10);
    for (name, matrix) in [("dense", &dense), ("sparse", &sparse)] {
        let step = LiftedStep::Capture {
            m: matrix,
            region: &region,
        };
        group.bench_with_input(BenchmarkId::new("apply_rows_64", name), &name, |b, _| {
            b.iter(|| step.apply_rows(&xs))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_incremental_vs_replay,
    bench_users_scaling,
    bench_lifted_apply
);
criterion_main!(benches);
