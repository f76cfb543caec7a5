//! The kernel-backed Planar Laplace mechanism against a dense oracle.
//!
//! `dense_oracle` is the straightforward `O(m²·s²)` discretization: it
//! integrates the density separately for every (true cell, output cell)
//! pair and row-normalizes the dense matrix. The library stores one mass
//! per (Δrow, Δcol) offset instead; the two differ only in floating-point
//! rounding of the offsets, never by an approximation.

use priste_geo::{CellId, GridMap};
use priste_linalg::Matrix;
use priste_lppm::{Lppm, PlanarLaplace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dense emission matrix and per-row inside-grid mass, computed pair by
/// pair with the midpoint rule.
fn dense_oracle(grid: &GridMap, alpha: f64, supersample: usize) -> (Matrix, Vec<f64>) {
    let m = grid.num_cells();
    let cell = grid.cell_size_km();
    let step = cell / supersample as f64;
    let offsets: Vec<f64> = (0..supersample).map(|k| (k as f64 + 0.5) * step).collect();
    let centers: Vec<(f64, f64)> = (0..m)
        .map(|i| grid.cell_center_km(CellId(i)).unwrap())
        .collect();
    let mut e = Matrix::zeros(m, m);
    let mut inside = Vec::with_capacity(m);
    let full_plane = std::f64::consts::TAU / (alpha * alpha);
    for (i, &(sx, sy)) in centers.iter().enumerate() {
        let mut row_sum = 0.0;
        for (j, v) in e.row_mut(i).iter_mut().enumerate() {
            let (jx, jy) = (centers[j].0 - cell / 2.0, centers[j].1 - cell / 2.0);
            let mut mass = 0.0;
            for &ox in &offsets {
                for &oy in &offsets {
                    let d = ((jx + ox - sx).powi(2) + (jy + oy - sy).powi(2)).sqrt();
                    mass += (-alpha * d).exp();
                }
            }
            *v = mass;
            row_sum += mass;
        }
        inside.push((row_sum * step * step / full_plane).min(1.0));
    }
    e.normalize_rows_mut();
    (e, inside)
}

/// Relative closeness; below the smallest normal f64 relative precision
/// does not exist, so that range compares absolutely.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) + f64::MIN_POSITIVE
}

/// Grid shapes up to 12×12, a quarter of them a single row and a quarter a
/// single column.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (0usize..4, 1usize..=12, 1usize..=12).prop_map(|(kind, a, b)| match kind {
        0 => (1, a),
        1 => (a, 1),
        _ => (a, b),
    })
}

/// Budgets log-uniform over [0.005, 100]: near-flat kernels up to steep ones
/// whose tails go subnormal or underflow.
fn alpha() -> impl Strategy<Value = f64> {
    (0.005f64.ln()..=100f64.ln()).prop_map(f64::exp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_dense_oracle(
        (rows, cols) in shape(),
        cell in 0.1f64..=5.0,
        alpha in alpha(),
        supersample in 1usize..=4,
    ) {
        let grid = GridMap::new(rows, cols, cell).unwrap();
        let m = grid.num_cells();
        let plm = PlanarLaplace::with_supersample(grid.clone(), alpha, supersample).unwrap();
        let (oracle, inside) = dense_oracle(&grid, alpha, supersample);
        let e = plm.emission_matrix();
        for i in 0..m {
            for j in 0..m {
                prop_assert!(
                    close(e.get(i, j), oracle.get(i, j)),
                    "{rows}x{cols} cell {cell} alpha {alpha} s {supersample}: \
                     ({i},{j}) {} vs oracle {}", e.get(i, j), oracle.get(i, j)
                );
            }
        }
        for (&got, &want) in plm.inside_mass().iter().zip(&inside) {
            prop_assert!(close(got, want), "inside mass {} vs oracle {}", got, want);
        }
        for o in 0..m {
            prop_assert_eq!(
                plm.emission_column(CellId(o)).as_slice(),
                e.col(o).as_slice(),
                "column {} differs from the materialised matrix", o
            );
        }
        e.validate_stochastic().unwrap();
    }
}

#[test]
fn perturb_matches_row_frequencies_on_non_square_grid() {
    let plm = PlanarLaplace::new(GridMap::new(3, 5, 1.0).unwrap(), 0.9).unwrap();
    let mut rng = StdRng::seed_from_u64(2024);
    let n = 60_000;
    // A corner, an edge and the interior.
    for src in [0, 2, 7] {
        let mut counts = [0usize; 15];
        for _ in 0..n {
            counts[plm.perturb(CellId(src), &mut rng).index()] += 1;
        }
        for (o, &c) in counts.iter().enumerate() {
            let expect = plm.emission_matrix().get(src, o);
            let f = c as f64 / n as f64;
            assert!((f - expect).abs() < 0.01, "{src}→{o}: {f} vs {expect}");
        }
    }
}
