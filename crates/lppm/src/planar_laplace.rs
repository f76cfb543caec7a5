use crate::lambert::planar_laplace_radius_icdf;
use crate::mechanism::{sample_row, Lppm};
use crate::{LppmError, Result};
use priste_geo::{CellId, GridMap};
use priste_linalg::{Matrix, Vector};
use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// The α-Planar-Laplace mechanism (α-PLM) of Geo-indistinguishability
/// (Andrés et al., CCS'13) — the paper's §IV.C case-study LPPM.
///
/// The continuous mechanism adds polar-Laplace noise with density
/// `p(z|x) = α²/(2π) · e^{−α·d(x,z)}`; on the grid it becomes an emission
/// matrix whose row `i` integrates that density over each cell (midpoint
/// rule with `supersample × supersample` points per cell) and renormalizes —
/// grid truncation sends the small out-of-map mass back onto the map
/// proportionally, keeping rows stochastic.
///
/// On a uniform grid the integrated mass depends only on the (Δrow, Δcol)
/// offset between true and output cell, so the mechanism stores a
/// translation-invariant **kernel** — one raw mass per offset,
/// `(2·rows − 1)·(2·cols − 1)` values — plus each true cell's row sum:
/// `O(m)` memory (≈ 120 KB at m = 2500) where the dense matrix takes
/// `O(m²)` (50 MB). Entry `(i, j)` is `kernel[offset(j − i)] / row_sum[i]`,
/// the one expression behind [`Lppm::emission_column`], [`Lppm::perturb`]
/// and [`Lppm::emission_matrix`]; the last materialises the dense `O(m²)`
/// matrix lazily on first call and is meant for tests and diagnostics —
/// serving paths never touch it.
///
/// [`Lppm::perturb`] samples from the *discrete emission row*, so releases
/// and privacy accounting use the identical distribution;
/// [`PlanarLaplace::sample_continuous`] exposes the textbook continuous
/// sampler (angle uniform, radius via the Lambert `W₋₁` inverse CDF) for
/// applications working in the continuous plane.
#[derive(Debug)]
pub struct PlanarLaplace {
    grid: GridMap,
    alpha: f64,
    supersample: usize,
    /// Raw midpoint-rule mass per offset, row-major over
    /// `Δrow ∈ [−(rows−1), rows−1]` × `Δcol ∈ [−(cols−1), cols−1]`.
    kernel: Vec<f64>,
    /// Per true cell: the sum of its raw row (the normalizer).
    row_sums: Vec<f64>,
    inside_mass: Vec<f64>,
    /// The dense matrix, built on the first [`Lppm::emission_matrix`] call.
    emission: OnceLock<Matrix>,
}

impl Clone for PlanarLaplace {
    /// Clones the kernel only; the copy re-materialises its dense matrix on
    /// demand instead of duplicating `O(m²)` memory.
    fn clone(&self) -> Self {
        PlanarLaplace {
            grid: self.grid.clone(),
            alpha: self.alpha,
            supersample: self.supersample,
            kernel: self.kernel.clone(),
            row_sums: self.row_sums.clone(),
            inside_mass: self.inside_mass.clone(),
            emission: OnceLock::new(),
        }
    }
}

/// Default number of integration points per cell axis; 3×3 midpoints keep
/// the row error well under the stochasticity tolerance at the paper's grid
/// sizes while costing only 9 density evaluations per kernel offset.
const DEFAULT_SUPERSAMPLE: usize = 3;

impl PlanarLaplace {
    /// Builds an α-PLM over `grid` with the default discretization quality.
    ///
    /// # Errors
    /// [`LppmError::InvalidBudget`] for a non-positive or non-finite `alpha`.
    pub fn new(grid: GridMap, alpha: f64) -> Result<Self> {
        Self::with_supersample(grid, alpha, DEFAULT_SUPERSAMPLE)
    }

    /// Builds an α-PLM with `supersample²` integration points per cell
    /// (≥ 1). Higher values tighten the discretization at quadratic cost.
    ///
    /// # Errors
    /// [`LppmError::InvalidBudget`] for a non-positive or non-finite `alpha`.
    pub fn with_supersample(grid: GridMap, alpha: f64, supersample: usize) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(LppmError::InvalidBudget { value: alpha });
        }
        let supersample = supersample.max(1);
        let mut plm = PlanarLaplace {
            kernel: build_kernel(&grid, alpha, supersample),
            grid,
            alpha,
            supersample,
            row_sums: Vec::new(),
            inside_mass: Vec::new(),
            emission: OnceLock::new(),
        };
        plm.row_sums = (0..plm.grid.num_cells())
            .map(|i| plm.raw_row(i).sum())
            .collect();
        // Full-plane integral of the kernel e^{−αd} is 2π/α²; the midpoint
        // sum approximates ∫_cell e^{−αd} / step².
        let step = plm.grid.cell_size_km() / supersample as f64;
        let full_plane = std::f64::consts::TAU / (alpha * alpha);
        plm.inside_mass = plm
            .row_sums
            .iter()
            .map(|&s| (s * step * step / full_plane).min(1.0))
            .collect();
        Ok(plm)
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// Per-source-cell fraction of the continuous mechanism's mass that the
    /// grid captures (before row renormalization).
    ///
    /// Renormalization re-injects the lost `1 − inside_mass[i]` onto the
    /// grid, so the *discrete* mechanism satisfies geo-indistinguishability
    /// only up to the factor `inside_mass[x₂] / inside_mass[x₁]`: values
    /// near 1 (tight budgets, interior cells) mean the nominal `e^{α·d}`
    /// bound holds essentially exactly; boundary cells with loose budgets
    /// deviate by this measurable factor. PriSTE's event-privacy accounting
    /// is unaffected either way — it always consumes the actual emission
    /// matrix.
    pub fn inside_mass(&self) -> &[f64] {
        &self.inside_mass
    }

    /// Draws a continuous planar-Laplace perturbation of the true cell's
    /// center: returns `(x_km, y_km)` in grid coordinates. The caller may
    /// re-discretize with [`GridMap::nearest_cell`].
    ///
    /// # Errors
    /// [`LppmError::CellOutOfRange`] for an out-of-domain cell.
    pub fn sample_continuous<R: Rng + ?Sized>(
        &self,
        true_loc: CellId,
        rng: &mut R,
    ) -> Result<(f64, f64)> {
        let (cx, cy) =
            self.grid
                .cell_center_km(true_loc)
                .map_err(|_| LppmError::CellOutOfRange {
                    cell: true_loc.index(),
                    num_cells: self.grid.num_cells(),
                })?;
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        let r = planar_laplace_radius_icdf(self.alpha, rng.gen::<f64>());
        Ok((cx + r * theta.cos(), cy + r * theta.sin()))
    }

    /// Row `i` of the emission matrix, in output-cell order, without
    /// materialising it.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = f64> + Clone + '_ {
        let (row_sum, uniform) = (self.row_sums[i], self.uniform());
        self.raw_row(i).map(move |k| entry(k, row_sum, uniform))
    }

    /// Raw kernel masses of row `i`: for each output row the offsets
    /// `(rj − ri, 0 − ci), (rj − ri, 1 − ci), …` are one contiguous run.
    fn raw_row(&self, i: usize) -> impl Iterator<Item = f64> + Clone + '_ {
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        let width = 2 * cols - 1;
        let first = (rows - 1 - i / cols) * width + (cols - 1 - i % cols);
        (0..rows).flat_map(move |rj| self.kernel[first + rj * width..][..cols].iter().copied())
    }

    /// The value a row whose raw sum underflowed to 0 takes everywhere.
    fn uniform(&self) -> f64 {
        1.0 / self.grid.num_cells() as f64
    }
}

/// Emission entry from its raw kernel mass and its row's raw sum —
/// [`Matrix::normalize_rows_mut`]'s semantics, including the uniform row
/// when the sum underflows to 0. Every read of the mechanism goes through
/// here, so the sampled distribution *is* the accounted one.
#[inline]
fn entry(mass: f64, row_sum: f64, uniform: f64) -> f64 {
    if row_sum > 0.0 {
        mass / row_sum
    } else {
        uniform
    }
}

impl Lppm for PlanarLaplace {
    fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    fn budget(&self) -> f64 {
        self.alpha
    }

    fn emission_matrix(&self) -> &Matrix {
        self.emission.get_or_init(|| {
            let m = self.num_cells();
            let mut e = Matrix::zeros(m, m);
            for i in 0..m {
                for (v, p) in e.row_mut(i).iter_mut().zip(self.row(i)) {
                    *v = p;
                }
            }
            e
        })
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        let (ro, co) = (observation.index() / cols, observation.index() % cols);
        let width = 2 * cols - 1;
        let uniform = self.uniform();
        let mut column = Vec::with_capacity(self.num_cells());
        for ri in 0..rows {
            // Offsets (ro − ri, co − ci) for ci = 0, 1, … run backwards
            // through one kernel row.
            let run = &self.kernel[(ro + rows - 1 - ri) * width + co..][..cols];
            let sums = &self.row_sums[ri * cols..][..cols];
            column.extend(
                run.iter()
                    .rev()
                    .zip(sums)
                    .map(|(&k, &s)| entry(k, s, uniform)),
            );
        }
        Vector::from(column)
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        CellId(sample_row(self.row(true_loc.index()), rng))
    }

    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(PlanarLaplace::with_supersample(
            self.grid.clone(),
            budget,
            self.supersample,
        )?))
    }
}

/// Integrates the continuous density `e^{−α·d}` over every output-cell
/// offset `(Δrow, Δcol)` with a `supersample × supersample` midpoint rule;
/// the per-sample area factors cancel in the row normalization, so the raw
/// sums are kept.
fn build_kernel(grid: &GridMap, alpha: f64, supersample: usize) -> Vec<f64> {
    let (rows, cols) = (grid.rows() as isize, grid.cols() as isize);
    let cell = grid.cell_size_km();
    let step = cell / supersample as f64;
    // Integration points inside a cell, relative to its top-left corner.
    let points: Vec<f64> = (0..supersample).map(|k| (k as f64 + 0.5) * step).collect();
    let mut kernel = Vec::with_capacity(((2 * rows - 1) * (2 * cols - 1)) as usize);
    for dr in 1 - rows..rows {
        // The output cell's corner relative to the true cell's center.
        let y = dr as f64 * cell - cell / 2.0;
        for dc in 1 - cols..cols {
            let x = dc as f64 * cell - cell / 2.0;
            let mut mass = 0.0;
            for &px in &points {
                for &py in &points {
                    let d = ((x + px).powi(2) + (y + py).powi(2)).sqrt();
                    mass += (-alpha * d).exp();
                }
            }
            kernel.push(mass);
        }
    }
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid5() -> GridMap {
        GridMap::new(5, 5, 1.0).unwrap()
    }

    #[test]
    fn rejects_invalid_budget() {
        assert!(matches!(
            PlanarLaplace::new(grid5(), 0.0),
            Err(LppmError::InvalidBudget { .. })
        ));
        assert!(PlanarLaplace::new(grid5(), f64::INFINITY).is_err());
        assert!(PlanarLaplace::new(grid5(), -1.0).is_err());
    }

    #[test]
    fn emission_is_stochastic() {
        for alpha in [0.1, 0.5, 1.0, 5.0] {
            let plm = PlanarLaplace::new(grid5(), alpha).unwrap();
            plm.emission_matrix().validate_stochastic().unwrap();
        }
    }

    #[test]
    fn diagonal_dominates_for_tight_budget() {
        let plm = PlanarLaplace::new(grid5(), 5.0).unwrap();
        let e = plm.emission_matrix();
        for i in 0..25 {
            let row = e.row(i);
            let diag = row[i];
            for (j, &p) in row.iter().enumerate() {
                if j != i {
                    assert!(diag > p, "row {i}: diag {diag} <= off {p} at {j}");
                }
            }
        }
    }

    #[test]
    fn emission_decays_with_distance() {
        let grid = GridMap::new(1, 8, 1.0).unwrap();
        let plm = PlanarLaplace::new(grid, 1.0).unwrap();
        let row = plm.emission_matrix().row(0);
        for w in row.windows(2) {
            assert!(w[0] > w[1], "row not decaying: {row:?}");
        }
    }

    #[test]
    fn geo_indistinguishability_bound_holds_up_to_truncation() {
        // For the continuous mechanism p(o|x₁) ≤ e^{α·d(x₁,x₂)}·p(o|x₂)
        // exactly; grid truncation renormalizes each row by 1/inside_mass,
        // so the discrete bound carries the factor inside[x₂]/inside[x₁].
        // Verify that corrected bound with small quadrature headroom.
        let grid = grid5();
        let alpha = 1.0;
        let plm = PlanarLaplace::with_supersample(grid.clone(), alpha, 4).unwrap();
        let e = plm.emission_matrix();
        let inside = plm.inside_mass();
        for x1 in 0..25 {
            for x2 in 0..25 {
                let d = grid.distance_km(CellId(x1), CellId(x2)).unwrap();
                let bound = (alpha * d).exp() * (inside[x2] / inside[x1]) * 1.02;
                for o in 0..25 {
                    let p1 = e.get(x1, o);
                    let p2 = e.get(x2, o);
                    assert!(p1 <= bound * p2, "({x1},{x2})→{o}: {p1} vs {bound} · {p2}");
                }
            }
        }
    }

    #[test]
    fn geo_indistinguishability_is_essentially_exact_for_tight_budgets() {
        // With α = 4 on a 5×5 grid almost no mass leaves the map, so the
        // nominal e^{α·d} bound holds with only quadrature slack.
        let grid = grid5();
        let alpha = 4.0;
        let plm = PlanarLaplace::with_supersample(grid.clone(), alpha, 8).unwrap();
        let e = plm.emission_matrix();
        // Interior cells capture nearly all mass at this budget (the ~2%
        // deficit is midpoint-rule error at the density cusp, not leakage).
        assert!(
            plm.inside_mass()[12] > 0.95,
            "inside mass {}",
            plm.inside_mass()[12]
        );
        for x1 in 0..25 {
            for x2 in 0..25 {
                let d = grid.distance_km(CellId(x1), CellId(x2)).unwrap();
                let bound = (alpha * d).exp() * 1.10;
                for o in 0..25 {
                    assert!(e.get(x1, o) <= bound * e.get(x2, o));
                }
            }
        }
    }

    #[test]
    fn inside_mass_reflects_boundary_truncation() {
        let plm = PlanarLaplace::new(grid5(), 1.0).unwrap();
        let inside = plm.inside_mass();
        // Center keeps more mass than a corner; all fractions in (0, 1].
        assert!(inside[12] > inside[0]);
        for &f in inside {
            assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn smaller_alpha_is_flatter() {
        let tight = PlanarLaplace::new(grid5(), 2.0).unwrap();
        let loose = PlanarLaplace::new(grid5(), 0.1).unwrap();
        // Self-emission probability shrinks as the budget loosens.
        assert!(tight.emission_matrix().get(12, 12) > loose.emission_matrix().get(12, 12));
        // And the loose mechanism approaches uniform: max/min ratio is small.
        let row = loose.emission_matrix().row(12);
        let max = row.iter().cloned().fold(0.0_f64, f64::max);
        let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < (0.1 * 6.0_f64.hypot(6.0)).exp() * 1.1);
    }

    #[test]
    fn perturb_matches_emission_row_frequencies() {
        let plm = PlanarLaplace::new(GridMap::new(2, 2, 1.0).unwrap(), 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 60_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[plm.perturb(CellId(1), &mut rng).index()] += 1;
        }
        let row = plm.emission_matrix().row(1);
        for (c, &expect) in counts.iter().zip(row) {
            let f = *c as f64 / n as f64;
            assert!((f - expect).abs() < 0.01, "{f} vs {expect}");
        }
    }

    #[test]
    fn serving_paths_leave_the_dense_matrix_unbuilt() {
        let plm = PlanarLaplace::new(GridMap::new(3, 4, 1.0).unwrap(), 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        plm.perturb(CellId(5), &mut rng);
        plm.emission_column(CellId(2));
        plm.with_budget(0.35).unwrap();
        assert!(plm.emission.get().is_none());
        plm.emission_matrix();
        assert!(plm.emission.get().is_some());
        assert!(plm.clone().emission.get().is_none());
    }

    #[test]
    fn underflowed_rows_are_uniform() {
        // With 2×2 integration points none lies at distance 0, so at this
        // budget every e^{−αd} underflows and each row sum is 0.
        let plm = PlanarLaplace::with_supersample(grid5(), 1e4, 2).unwrap();
        let e = plm.emission_matrix();
        assert!(e.as_slice().iter().all(|&p| p == 1.0 / 25.0));
        assert!(plm.inside_mass().iter().all(|&f| f == 0.0));
        assert_eq!(
            plm.emission_column(CellId(7)).as_slice(),
            e.col(7).as_slice()
        );
        let mut rng = StdRng::seed_from_u64(4);
        assert!(plm.perturb(CellId(0), &mut rng).index() < 25);
    }

    #[test]
    fn with_budget_halves_cleanly() {
        let plm = PlanarLaplace::new(grid5(), 0.2).unwrap();
        let halved = plm.with_budget(0.1).unwrap();
        assert_eq!(halved.budget(), 0.1);
        assert_eq!(halved.num_cells(), 25);
        halved.emission_matrix().validate_stochastic().unwrap();
        assert!(halved.with_budget(0.0).is_err());
    }

    #[test]
    fn continuous_sampler_centers_on_true_location() {
        let plm = PlanarLaplace::new(grid5(), 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (cx, cy) = plm.grid().cell_center_km(CellId(12)).unwrap();
        let n = 20_000;
        let (mut sx, mut sy) = (0.0, 0.0);
        for _ in 0..n {
            let (x, y) = plm.sample_continuous(CellId(12), &mut rng).unwrap();
            sx += x;
            sy += y;
        }
        // Noise is symmetric: the sample mean converges to the center.
        assert!((sx / n as f64 - cx).abs() < 0.05);
        assert!((sy / n as f64 - cy).abs() < 0.05);
    }

    #[test]
    fn continuous_radius_has_expected_mean() {
        // Polar Laplace radius has mean 2/α.
        let plm = PlanarLaplace::new(grid5(), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let (cx, cy) = plm.grid().cell_center_km(CellId(12)).unwrap();
        let n = 30_000;
        let mut sum_r = 0.0;
        for _ in 0..n {
            let (x, y) = plm.sample_continuous(CellId(12), &mut rng).unwrap();
            sum_r += ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
        }
        let mean = sum_r / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean radius {mean}, expected 4.0");
    }

    #[test]
    fn continuous_sampler_rejects_bad_cell() {
        let plm = PlanarLaplace::new(grid5(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            plm.sample_continuous(CellId(25), &mut rng),
            Err(LppmError::CellOutOfRange { .. })
        ));
    }
}
