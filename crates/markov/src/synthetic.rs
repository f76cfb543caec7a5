//! Synthetic Gaussian-kernel mobility models (paper §V.A).
//!
//! "First, a map with 20∗20 cells is generated. Then, the transition
//! probability from one cell to another is proportional to the
//! two-dimensional Gaussian distribution with scale parameter σ. Here, a
//! smaller σ indicates that the user moves to the adjacent cells in a higher
//! probability, i.e., the transition matrix has a more significant pattern."

use crate::{MarkovModel, Result};
use priste_geo::GridMap;
use priste_linalg::{Matrix, SparseMatrix};

/// Kernel weights below this value (relative to the self-loop's `exp(0) = 1`)
/// are truncated by [`gaussian_kernel_chain_sparse`]. At `1e-12` the dropped
/// mass per row is below `m · 1e-12`, so the truncated chain matches the
/// dense §V.A generator to ~1e-8 after normalization while holding
/// `O(m · band)` entries instead of `m²`.
pub const SPARSE_KERNEL_TRUNCATION: f64 = 1e-12;

/// Builds the §V.A synthetic chain over `grid`: transition probability from
/// cell `i` to cell `j` proportional to `exp(−d(i,j)² / (2σ²))` with `d` the
/// cell-center Euclidean distance in km.
///
/// Small `σ` concentrates mass on the current and adjacent cells (a strong
/// mobility pattern — Fig. 13 shows these need stricter LPPMs); large `σ`
/// approaches a uniform random walk.
///
/// # Panics
/// Panics if `sigma` is non-positive or non-finite (programmer error in
/// experiment configs).
pub fn gaussian_kernel_chain(grid: &GridMap, sigma: f64) -> Result<MarkovModel> {
    assert!(
        sigma.is_finite() && sigma > 0.0,
        "Gaussian kernel scale must be positive and finite, got {sigma}"
    );
    let m = grid.num_cells();
    let dist = grid.distance_table();
    let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
    let mut t = Matrix::zeros(m, m);
    for (i, dist_row) in dist.iter().enumerate() {
        let row = t.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            let d = dist_row[j];
            // exp underflows to 0 for d ≫ σ, which is exactly the intended
            // "never jumps across the map" behaviour for small σ.
            *v = (-d * d * inv_two_sigma_sq).exp();
        }
    }
    t.normalize_rows_mut();
    MarkovModel::new(t)
}

/// Banded CSR variant of [`gaussian_kernel_chain`] for large grids.
///
/// Builds the same `exp(−d(i,j)² / (2σ²))` kernel but truncates it where the
/// weight falls below [`SPARSE_KERNEL_TRUNCATION`]: row `i` keeps the cells
/// within the disc `d ≤ σ·√(2 ln 10¹²) ≈ 7.43σ` of cell `i` (clipped at map
/// edges) — at σ = 0.5 km on 1 km cells that is at most 45 entries per row —
/// instead of all `m`. The result is a sparse-backed [`MarkovModel`], so
/// per-observation quantification cost scales with `nnz`, not `m²`.
///
/// Cost: the weights depend only on the cell offset, so the
/// `(2R_r+1)×(2R_c+1)` patch of them (`R = ⌈7.43σ / cell size⌉` cells,
/// clamped to the grid's rows and columns) is computed once, one `exp` per
/// offset. Each row then scans its patch, clipped at the map edges, and
/// copies the kept entries straight into the CSR arrays, which are reserved
/// up front: one copy per stored entry, and little allocated beyond the CSR
/// returned.
///
/// Numerics: rows are renormalized over the kept entries, so each entry
/// differs from the dense generator's by at most the truncated tail
/// (`< m · 1e-12` of the row mass). For a byte-exact sparse twin of a dense
/// chain use [`SparseMatrix::from_dense`] with threshold `0.0` instead.
///
/// # Panics
/// Panics if `sigma` is non-positive or non-finite (programmer error in
/// experiment configs), and if the grid has more cells than a CSR column
/// index addresses ([`SparseMatrix::MAX_COLS`]).
pub fn gaussian_kernel_chain_sparse(grid: &GridMap, sigma: f64) -> Result<MarkovModel> {
    assert!(
        sigma.is_finite() && sigma > 0.0,
        "Gaussian kernel scale must be positive and finite, got {sigma}"
    );
    let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
    // exp(−d²/2σ²) ≥ tol ⟺ d ≤ σ·√(2·ln(1/tol)); convert to whole cells.
    let cutoff_km = sigma * (2.0 * (1.0 / SPARSE_KERNEL_TRUNCATION).ln()).sqrt();
    let radius = (cutoff_km / grid.cell_size_km()).ceil() as usize;
    let (rows, cols) = (grid.rows(), grid.cols());
    let cell = grid.cell_size_km();
    // No row reaches further than the grid does, so the patch never
    // outgrows it however large σ is.
    let (rad_r, rad_c) = (radius.min(rows - 1), radius.min(cols - 1));
    let width = 2 * rad_c + 1;
    let patch: Vec<f64> = (0..(2 * rad_r + 1) * width)
        .map(|k| {
            // The same exact integer offsets the per-cell loop would form,
            // so every weight is bit-identical to evaluating it per entry.
            let dy = ((k / width) as f64 - rad_r as f64) * cell;
            let dx = ((k % width) as f64 - rad_c as f64) * cell;
            (-(dx * dx + dy * dy) * inv_two_sigma_sq).exp()
        })
        .collect();
    let m = grid.num_cells();
    let kept = patch
        .iter()
        .filter(|&&w| w >= SPARSE_KERNEL_TRUNCATION)
        .count();
    let capacity = m.saturating_mul(kept).min(m.saturating_mul(m));
    let mut row_ptr = Vec::with_capacity(m + 1);
    let mut col_idx = Vec::with_capacity(capacity);
    let mut values = Vec::with_capacity(capacity);
    row_ptr.push(0);
    for r in 0..rows {
        let (r_lo, r_hi) = (r.saturating_sub(rad_r), (r + rad_r).min(rows - 1));
        for c in 0..cols {
            let (c_lo, c_hi) = (c.saturating_sub(rad_c), (c + rad_c).min(cols - 1));
            for rr in r_lo..=r_hi {
                // Patch row `rr − r`, from column offset `c_lo − c` on.
                let start = (rr + rad_r - r) * width + c_lo + rad_c - c;
                for (cc, &w) in (c_lo..=c_hi).zip(&patch[start..]) {
                    if w >= SPARSE_KERNEL_TRUNCATION {
                        col_idx.push((rr * cols + cc) as u32);
                        values.push(w);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
    }
    let mut t = SparseMatrix::from_csr(m, m, row_ptr, col_idx, values)
        .expect("at most MAX_COLS cells, and patch columns are in-range and row-major ordered");
    t.normalize_rows_mut();
    MarkovModel::new_sparse(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_geo::CellId;

    #[test]
    fn produces_stochastic_matrix() {
        let grid = GridMap::new(5, 5, 1.0).unwrap();
        for sigma in [0.01, 0.1, 1.0, 10.0] {
            let chain = gaussian_kernel_chain(&grid, sigma).unwrap();
            chain.transition_matrix().validate_stochastic().unwrap();
        }
    }

    #[test]
    fn small_sigma_concentrates_on_self() {
        let grid = GridMap::new(5, 5, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 0.01).unwrap();
        // With σ = 0.01 km and 1 km cells, staying put dominates utterly.
        for i in 0..grid.num_cells() {
            assert!(chain.transition_matrix().get(i, i) > 0.999, "cell {i}");
        }
    }

    #[test]
    fn large_sigma_approaches_uniform() {
        let grid = GridMap::new(4, 4, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1000.0).unwrap();
        let uniform = 1.0 / 16.0;
        for i in 0..16 {
            for j in 0..16 {
                assert!((chain.transition_matrix().get(i, j) - uniform).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn closer_cells_get_more_mass() {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
        let center = grid.from_row_col(1, 1).unwrap().index();
        let adjacent = grid.from_row_col(1, 2).unwrap().index();
        let corner = grid.from_row_col(0, 0).unwrap().index();
        let p_adj = chain.transition_matrix().get(center, adjacent);
        let p_cor = chain.transition_matrix().get(center, corner);
        assert!(p_adj > p_cor, "adjacent {p_adj} vs corner {p_cor}");
    }

    #[test]
    fn kernel_is_symmetric_in_distance() {
        // d(i,j) = d(j,i) and all rows share the same kernel, so before
        // normalization the matrix is symmetric; after normalization rows of
        // symmetric-position cells match by reflection.
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 0.7).unwrap();
        let t = chain.transition_matrix();
        // Corners 0 and 8 are mirror images: p(0→1) must equal p(8→7).
        assert!((t.get(0, 1) - t.get(8, 7)).abs() < 1e-12);
        assert!((t.get(0, 4) - t.get(8, 4)).abs() < 1e-12);
    }

    #[test]
    fn monotone_decay_along_a_row_of_cells() {
        let grid = GridMap::new(1, 6, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.5).unwrap();
        let t = chain.transition_matrix().to_dense_matrix();
        let row = t.row(0);
        for w in row.windows(2) {
            assert!(w[0] >= w[1], "row not monotone: {row:?}");
        }
        let _ = CellId(0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_sigma_panics() {
        let grid = GridMap::new(2, 2, 1.0).unwrap();
        let _ = gaussian_kernel_chain(&grid, 0.0);
    }

    #[test]
    fn sparse_generator_is_sparse_backed_and_stochastic() {
        let grid = GridMap::new(20, 20, 1.0).unwrap();
        let chain = gaussian_kernel_chain_sparse(&grid, 0.5).unwrap();
        assert!(chain.is_sparse());
        chain.transition_matrix().validate_stochastic().unwrap();
        // σ = 0.5 km on 1 km cells: the kept disc d ≤ 3.72 km holds ≤ 45
        // cells of each row's 9×9 patch, on a 400-cell map.
        assert!(chain.transition_matrix().density() < 0.35);
    }

    /// The per-entry build the patch build replaced: one `exp` per cell of
    /// every row's clipped `(2R+1)²` box, with `R` unclamped.
    fn per_entry_oracle(grid: &GridMap, sigma: f64) -> SparseMatrix {
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
        let cutoff_km = sigma * (2.0 * (1.0 / SPARSE_KERNEL_TRUNCATION).ln()).sqrt();
        let radius = (cutoff_km / grid.cell_size_km()).ceil() as usize;
        let (rows, cols) = (grid.rows(), grid.cols());
        let cell = grid.cell_size_km();
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for r in 0..rows {
            for c in 0..cols {
                let r_lo = r.saturating_sub(radius);
                let r_hi = (r + radius).min(rows - 1);
                let c_lo = c.saturating_sub(radius);
                let c_hi = (c + radius).min(cols - 1);
                for rr in r_lo..=r_hi {
                    for cc in c_lo..=c_hi {
                        let dy = (rr as f64 - r as f64) * cell;
                        let dx = (cc as f64 - c as f64) * cell;
                        let w = (-(dx * dx + dy * dy) * inv_two_sigma_sq).exp();
                        if w >= SPARSE_KERNEL_TRUNCATION {
                            col_idx.push((rr * cols + cc) as u32);
                            values.push(w);
                        }
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        let m = grid.num_cells();
        let mut t = SparseMatrix::from_csr(m, m, row_ptr, col_idx, values).unwrap();
        t.normalize_rows_mut();
        t
    }

    #[test]
    fn patch_build_is_bit_identical_to_per_entry_build() {
        for (rows, cols, cell) in [(12, 12, 1.0), (7, 19, 1.0), (11, 11, 0.3), (16, 5, 0.3)] {
            let grid = GridMap::new(rows, cols, cell).unwrap();
            for sigma in [0.05, 0.3, 0.5, 1.3] {
                let oracle = per_entry_oracle(&grid, sigma);
                let chain = gaussian_kernel_chain_sparse(&grid, sigma).unwrap();
                let built = chain.transition_matrix().as_sparse().unwrap();
                assert_eq!(built.nnz(), oracle.nnz(), "{rows}x{cols}@{cell} σ={sigma}");
                for i in 0..grid.num_cells() {
                    let (bc, bv) = built.row_entries(i);
                    let (oc, ov) = oracle.row_entries(i);
                    assert_eq!(bc, oc, "{rows}x{cols}@{cell} σ={sigma} row {i} columns");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(bv), bits(ov), "{rows}x{cols}@{cell} σ={sigma} row {i}");
                }
            }
        }
    }

    #[test]
    fn sparse_generator_matches_dense_generator() {
        // σ = 1000 km on 4×4 reaches far past the map: the patch is clamped
        // to the grid and every row keeps all 16 cells.
        for (side, sigma) in [(6, 0.5), (6, 1.0), (6, 2.0), (4, 1000.0)] {
            let grid = GridMap::new(side, side, 1.0).unwrap();
            let dense = gaussian_kernel_chain(&grid, sigma).unwrap();
            let sparse = gaussian_kernel_chain_sparse(&grid, sigma).unwrap();
            let d = dense.transition_matrix();
            let s = sparse.transition_matrix();
            for i in 0..grid.num_cells() {
                for j in 0..grid.num_cells() {
                    assert!(
                        (d.get(i, j) - s.get(i, j)).abs() < 1e-8,
                        "σ={sigma} entry ({i},{j}): dense {} vs sparse {}",
                        d.get(i, j),
                        s.get(i, j)
                    );
                }
            }
            if sigma == 1000.0 {
                assert_eq!(s.as_sparse().unwrap().nnz(), 16 * 16);
            }
        }
    }

    #[test]
    fn sparse_generator_truncates_far_transitions() {
        // σ = 0.3 km ⇒ cutoff ≈ 2.2 km ⇒ radius 3 cells; far corners of a
        // 20×20 map must be structurally zero and nnz ≪ m².
        let grid = GridMap::new(20, 20, 1.0).unwrap();
        let chain = gaussian_kernel_chain_sparse(&grid, 0.3).unwrap();
        let t = chain.transition_matrix();
        assert_eq!(t.get(0, 399), 0.0);
        assert!(t.nnz() < 400 * 49 + 1, "nnz {} not banded", t.nnz());
    }
}
