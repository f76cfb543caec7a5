//! Criterion bench for Fig. 14: the quantification runtime comparison —
//! Algorithm 4's exponential enumeration vs the linear two-possible-world
//! method, on identical PATTERN joints — plus the grid-size axis: dense vs
//! CSR transition backends from `m = 225` up to `m = 10⁴` cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{
    gaussian_kernel_chain, gaussian_kernel_chain_sparse, Homogeneous, MarkovModel, TransitionMatrix,
};
use priste_quantify::{naive, IncrementalTwoWorld, TheoremBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(
    side: usize,
    length: usize,
    width: usize,
) -> (StEvent, Pattern, Homogeneous, Vec<Vector>, Vector) {
    let grid = GridMap::new(side, side, 1.0).expect("grid");
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let plm = PlanarLaplace::new(grid, 1.0).expect("plm");
    let region = Region::from_one_based_range(m, 1, width).expect("range");
    let pattern = Pattern::new(vec![region; length], 2).expect("pattern");
    let event: StEvent = pattern.clone().into();
    let mut rng = StdRng::seed_from_u64(0);
    let obs = chain
        .sample_trajectory(CellId(0), event.end(), &mut rng)
        .expect("sampling");
    let cols: Vec<Vector> = obs.iter().map(|&o| plm.emission_column(o)).collect();
    let pi = Vector::uniform(m);
    (event, pattern, Homogeneous::new(chain), cols, pi)
}

fn bench_fig14(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_runtime_scaling");
    group.sample_size(10);

    // Event-length axis at width 4 on the paper's 15×15 map (baseline cost
    // = 4^length).
    for length in [5usize, 7, 9] {
        let (event, pattern, provider, cols, pi) = setup(15, length, 4);
        group.bench_with_input(
            BenchmarkId::new("priste_two_world", length),
            &length,
            |b, _| {
                b.iter(|| {
                    let mut builder = TheoremBuilder::new(&event, &provider).expect("builder");
                    let mut last = 0.0;
                    for col in &cols {
                        let inputs = builder.candidate(col).expect("candidate");
                        last = pi.dot(&inputs.b).expect("dot");
                        builder.commit(col.clone()).expect("commit");
                    }
                    last
                })
            },
        );
        let window = &cols[pattern.start() - 1..];
        group.bench_with_input(
            BenchmarkId::new("baseline_algorithm4", length),
            &length,
            |b, _| {
                b.iter(|| {
                    naive::pattern_joint_algorithm4(&pattern, &provider, &pi, window, u128::MAX)
                        .expect("enumeration")
                })
            },
        );
    }
    group.finish();
}

/// Grid-size axis: per-observation cost of the incremental two-world engine
/// on the §V.A banded Gaussian world (σ = 0.5 km, 1 km cells), dense vs CSR
/// transition backend. Dense is `O(m²)` per observation and stops at
/// `m = 2500`; the CSR backend is `O(nnz)` (≤ 81 entries per row here) and
/// extends to `m = 10⁴`.
fn bench_grid_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_grid_scaling");
    group.sample_size(10);

    for side in [15usize, 50, 100] {
        let grid = GridMap::new(side, side, 1.0).expect("grid");
        let m = grid.num_cells();
        let sparse = gaussian_kernel_chain_sparse(&grid, 0.5).expect("sparse chain");
        let event: StEvent = Presence::new(
            Region::from_one_based_range(m, 1, m / 4).expect("range"),
            2,
            5,
        )
        .expect("presence")
        .into();
        let mut rng = StdRng::seed_from_u64(5);
        let cols: Vec<Vector> = (0..8)
            .map(|_| {
                Vector::from(
                    (0..m)
                        .map(|_| rng.gen::<f64>() * 0.9 + 0.1)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let pi = Vector::uniform(m);

        if m <= 2500 {
            // Built dense explicitly: `MarkovModel::new` would pick CSR for
            // this banded matrix.
            let dense = MarkovModel::from_transition_matrix(TransitionMatrix::Dense(
                sparse.transition_matrix().to_dense_matrix(),
            ))
            .expect("dense twin");
            let provider = Homogeneous::new(dense);
            let mut q = IncrementalTwoWorld::new(event.clone(), &provider, pi.clone())
                .expect("incremental");
            group.bench_with_input(BenchmarkId::new("incremental_dense", m), &m, |b, _| {
                b.iter(|| {
                    q.reset();
                    let mut last = 0.0;
                    for col in &cols {
                        last = q.observe(col).expect("observe").posterior;
                    }
                    last
                })
            });
        }

        let provider = Homogeneous::new(sparse);
        let mut q =
            IncrementalTwoWorld::new(event.clone(), &provider, pi.clone()).expect("incremental");
        group.bench_with_input(BenchmarkId::new("incremental_sparse", m), &m, |b, _| {
            b.iter(|| {
                q.reset();
                let mut last = 0.0;
                for col in &cols {
                    last = q.observe(col).expect("observe").posterior;
                }
                last
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig14, bench_grid_scaling);
criterion_main!(benches);
