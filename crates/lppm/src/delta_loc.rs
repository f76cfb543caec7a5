//! δ-location-set privacy (Xiao & Xiong, CCS'15) — the paper's §IV.D case
//! study.
//!
//! "The key idea is that hiding the true location in any impossible
//! locations … is a lost cause … it restricts the output domain of the
//! emission matrix to δ-location set, which is a set containing minimum
//! number of locations that have prior probability sum no less than 1 − δ."
//!
//! The mechanism is *adaptive*: at every timestamp the posterior from the
//! previous release is advanced through the Markov model (`p_t⁻ = p_{t−1}⁺·M`,
//! Algorithm 3 line 2), the δ-location set `ΔX_t` is carved from `p_t⁻`, an
//! α-PLM restricted to `ΔX_t` releases the location, and the posterior is
//! refreshed by Eq. (21). [`PosteriorTracker`] owns that loop's state (the
//! caller advances it through its own chain, whichever backend that chain
//! runs on); [`DeltaLocationSet::mechanism_for`] materializes the per-step
//! restricted mechanism as an ordinary [`Lppm`] so the quantification engine
//! treats it like any other emission matrix (the engine already supports
//! per-`t` matrices — see §III.C's closing remark).

use crate::mechanism::{sample_row, Lppm};
use crate::planar_laplace::PlanarLaplace;
use crate::{LppmError, Result};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use rand::RngCore;

/// Factory for per-timestep δ-location-set mechanisms over a fixed grid.
#[derive(Debug, Clone)]
pub struct DeltaLocationSet {
    grid: GridMap,
    delta: f64,
}

impl DeltaLocationSet {
    /// Creates a factory with privacy parameter `delta ∈ (0, 1)`; larger δ
    /// means a smaller admissible output set (weaker privacy, better
    /// utility).
    ///
    /// # Errors
    /// [`LppmError::InvalidDelta`] for δ outside `(0, 1)`.
    pub fn new(grid: GridMap, delta: f64) -> Result<Self> {
        if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
            return Err(LppmError::InvalidDelta { value: delta });
        }
        Ok(DeltaLocationSet { grid, delta })
    }

    /// The δ parameter.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// Computes the δ-location set of a prior: the minimum number of cells
    /// (taken in descending prior order) whose mass reaches `1 − δ`. Never
    /// empty — the top cell is always included.
    ///
    /// # Errors
    /// [`LppmError::InvalidPrior`] if `prior` is not a distribution over the
    /// grid's cells.
    pub fn location_set(&self, prior: &Vector) -> Result<Region> {
        if prior.len() != self.grid.num_cells() {
            return Err(LppmError::InvalidPrior(
                priste_linalg::LinalgError::DimensionMismatch {
                    op: "delta-location-set prior",
                    expected: self.grid.num_cells(),
                    actual: prior.len(),
                },
            ));
        }
        prior
            .validate_distribution()
            .map_err(LppmError::InvalidPrior)?;
        let mut order: Vec<usize> = (0..prior.len()).collect();
        order.sort_by(|&i, &j| {
            prior[j]
                .partial_cmp(&prior[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut set = Region::empty(prior.len());
        let mut mass = 0.0;
        for &i in &order {
            set.insert(CellId(i)).expect("index in range");
            mass += prior[i];
            if mass >= 1.0 - self.delta {
                break;
            }
        }
        Ok(set)
    }

    /// Builds the restricted α-PLM for one timestep: PLM probabilities with
    /// output domain clipped to the δ-location set of `prior` and rows
    /// renormalized. True locations outside the set release through their
    /// *surrogate* — the nearest in-set cell — mirroring Xiao & Xiong's
    /// handling of drift outside the admissible set.
    ///
    /// # Errors
    /// Propagates prior validation and PLM construction errors.
    pub fn mechanism_for(&self, prior: &Vector, alpha: f64) -> Result<RestrictedPlm> {
        let set = self.location_set(prior)?;
        RestrictedPlm::new(self.grid.clone(), set, alpha)
    }
}

/// An α-PLM with its output domain restricted to a fixed cell set — the
/// concrete per-timestep mechanism of Algorithm 3 (line 4: "o_t ← α-PLM
/// within ∆X_t").
///
/// Row `i` of its emission matrix is the base PLM's row of `i`'s surrogate,
/// masked to the set and divided by its in-order sum (every entry `1/m`
/// when that sum is not positive:
/// [`priste_linalg::Matrix::normalize_rows_mut`]'s rule).
/// The mechanism keeps the base PLM, the surrogates and one normalizer per
/// set cell, and computes each entry it reads in `O(1)`, so a column or a
/// sampled row costs `O(m)` and the mechanism `O(m)` memory, not the
/// `O(m²)` of the matrix.
#[derive(Debug, Clone)]
pub struct RestrictedPlm {
    base: PlanarLaplace,
    set: Region,
    /// Surrogate per true cell ([`surrogates`]).
    surrogates: Vec<usize>,
    /// Per cell of the set, the in-order sum of its masked base row: the
    /// normalizer of every row it is the surrogate of. Unused elsewhere.
    norms: Vec<f64>,
}

impl RestrictedPlm {
    /// Restricts a fresh α-PLM over `grid` to the output domain `set`.
    ///
    /// # Errors
    /// [`LppmError::EmptyOutputDomain`] if `set` is empty;
    /// [`LppmError::InvalidBudget`] for a bad α.
    pub fn new(grid: GridMap, set: Region, alpha: f64) -> Result<Self> {
        if set.is_empty() {
            return Err(LppmError::EmptyOutputDomain);
        }
        let surrogates = surrogates(&grid, &set);
        Self::with_parts(grid, set, surrogates, alpha)
    }

    /// The mechanism over a non-empty `set` and its `surrogates`: builds
    /// the base α-PLM and the normalizer of every set cell, the only parts
    /// that depend on α.
    fn with_parts(grid: GridMap, set: Region, surrogates: Vec<usize>, alpha: f64) -> Result<Self> {
        let base = PlanarLaplace::new(grid, alpha)?;
        let mask = &set.masks().0;
        let mut norms = vec![0.0; surrogates.len()];
        for src in set.iter().map(CellId::index) {
            norms[src] = base
                .row(src)
                .zip(mask.as_slice())
                .map(|(p, keep)| p * keep)
                .sum();
        }
        Ok(RestrictedPlm {
            base,
            set,
            surrogates,
            norms,
        })
    }

    /// The admissible output set `ΔX_t`.
    pub fn output_set(&self) -> &Region {
        &self.set
    }

    /// Entry `(i, j)` of the restricted emission matrix, given the mask
    /// value `keep` of output cell `j`.
    fn entry(&self, i: usize, j: usize, keep: f64) -> f64 {
        let src = self.surrogates[i];
        let sum = self.norms[src];
        if sum > 0.0 {
            self.base.entry_at(src, j) * keep / sum
        } else {
            1.0 / self.surrogates.len() as f64
        }
    }
}

impl Lppm for RestrictedPlm {
    fn num_cells(&self) -> usize {
        self.surrogates.len()
    }

    fn budget(&self) -> f64 {
        self.base.budget()
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        let j = observation.index();
        let keep = self.set.masks().0[j];
        (0..self.num_cells())
            .map(|i| self.entry(i, j, keep))
            .collect()
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let i = true_loc.index();
        let mask = self.set.masks().0.as_slice();
        CellId(sample_row(
            mask.iter()
                .enumerate()
                .map(|(j, &keep)| self.entry(i, j, keep)),
            rng,
        ))
    }

    /// Keeps the set and the surrogates, which do not depend on the
    /// budget.
    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(RestrictedPlm::with_parts(
            self.base.grid().clone(),
            self.set.clone(),
            self.surrogates.clone(),
            budget,
        )?))
    }
}

/// Surrogate per true cell: itself when inside `set`, else the nearest set
/// member (ties broken by lower index).
fn surrogates(grid: &GridMap, set: &Region) -> Vec<usize> {
    (0..grid.num_cells())
        .map(|i| {
            if set.contains(CellId(i)) {
                i
            } else {
                set.iter()
                    .min_by(|&a, &b| {
                        let da = grid.distance_km(CellId(i), a).expect("in range");
                        let db = grid.distance_km(CellId(i), b).expect("in range");
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("set is non-empty")
                    .index()
            }
        })
        .collect()
}

/// Owns the prior/posterior recursion of Algorithm 3.
#[derive(Debug, Clone)]
pub struct PosteriorTracker {
    posterior: Vector,
}

impl PosteriorTracker {
    /// Starts the recursion at the initial distribution `π` (`p₀⁺ = π`,
    /// Algorithm 3's note below line 2).
    ///
    /// # Errors
    /// [`LppmError::InvalidPrior`] if `initial` is not a distribution.
    pub fn new(initial: Vector) -> Result<Self> {
        initial
            .validate_distribution()
            .map_err(LppmError::InvalidPrior)?;
        Ok(PosteriorTracker { posterior: initial })
    }

    /// Current posterior `p_t⁺`; Algorithm 3's line 2 propagates it through
    /// the chain, `p_t⁻ = p_{t−1}⁺ · M`.
    pub fn posterior(&self) -> &Vector {
        &self.posterior
    }

    /// Bayes update (Eq. (21)): given the prior `p_t⁻` used for this step,
    /// the released observation and its emission column, replaces the stored
    /// posterior with
    /// `p_t⁺[i] = Pr(o_t | u_t = s_i) · p_t⁻[i] / Σ_j Pr(o_t | u_t = s_j) · p_t⁻[j]`.
    ///
    /// # Errors
    /// [`LppmError::InvalidPrior`] if the update normalizer is zero (the
    /// observation was impossible under the prior — a mechanism bug).
    pub fn update(&mut self, prior: &Vector, emission_column: &Vector) -> Result<()> {
        let unnorm = prior
            .hadamard(emission_column)
            .map_err(LppmError::InvalidPrior)?;
        let mut post = unnorm;
        post.normalize_mut().map_err(LppmError::InvalidPrior)?;
        self.posterior = post;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::dense_emission;
    use priste_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid4() -> GridMap {
        GridMap::new(2, 2, 1.0).unwrap()
    }

    #[test]
    fn delta_validation() {
        assert!(DeltaLocationSet::new(grid4(), 0.0).is_err());
        assert!(DeltaLocationSet::new(grid4(), 1.0).is_err());
        assert!(DeltaLocationSet::new(grid4(), f64::NAN).is_err());
        assert!(DeltaLocationSet::new(grid4(), 0.3).is_ok());
    }

    #[test]
    fn location_set_takes_minimal_prefix() {
        let dls = DeltaLocationSet::new(grid4(), 0.3).unwrap();
        let prior = Vector::from(vec![0.5, 0.3, 0.15, 0.05]);
        // Need mass ≥ 0.7: {s1} has 0.5, {s1,s2} has 0.8 ⇒ two cells.
        let set = dls.location_set(&prior).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains(CellId(0)) && set.contains(CellId(1)));
    }

    #[test]
    fn location_set_never_empty_even_for_huge_delta() {
        let dls = DeltaLocationSet::new(grid4(), 0.999).unwrap();
        let prior = Vector::uniform(4);
        let set = dls.location_set(&prior).unwrap();
        assert!(!set.is_empty());
    }

    #[test]
    fn location_set_rejects_bad_priors() {
        let dls = DeltaLocationSet::new(grid4(), 0.2).unwrap();
        assert!(dls.location_set(&Vector::uniform(5)).is_err());
        assert!(dls
            .location_set(&Vector::from(vec![0.5, 0.5, 0.5, 0.5]))
            .is_err());
    }

    #[test]
    fn smaller_delta_gives_larger_set() {
        let prior = Vector::from(vec![0.4, 0.3, 0.2, 0.1]);
        let tight = DeltaLocationSet::new(grid4(), 0.05).unwrap();
        let loose = DeltaLocationSet::new(grid4(), 0.5).unwrap();
        assert!(
            tight.location_set(&prior).unwrap().len() >= loose.location_set(&prior).unwrap().len()
        );
    }

    #[test]
    fn restricted_emission_only_outputs_inside_set() {
        let set = Region::from_cells(4, [CellId(0), CellId(1)]).unwrap();
        let plm = RestrictedPlm::new(grid4(), set, 1.0).unwrap();
        let e = dense_emission(&plm);
        e.validate_stochastic().unwrap();
        for i in 0..4 {
            assert_eq!(e.get(i, 2), 0.0);
            assert_eq!(e.get(i, 3), 0.0);
        }
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let o = plm.perturb(CellId(3), &mut rng);
            assert!(o.index() < 2, "emitted {o:?} outside set");
        }
    }

    /// The restricted matrix as it was built before the mechanism kept
    /// only its normalizers: every masked surrogate row written out, then
    /// normalized in place.
    fn dense_build(grid: &GridMap, set: &Region, alpha: f64) -> Matrix {
        let base = PlanarLaplace::new(grid.clone(), alpha).unwrap();
        let m = grid.num_cells();
        let mask = set.indicator();
        let mut emission = Matrix::zeros(m, m);
        for (i, src) in surrogates(grid, set).into_iter().enumerate() {
            for ((v, p), &keep) in emission
                .row_mut(i)
                .iter_mut()
                .zip(base.row(src))
                .zip(mask.as_slice())
            {
                *v = p * keep;
            }
        }
        emission.normalize_rows_mut();
        emission
    }

    #[test]
    fn restriction_matches_the_materialised_base() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // α = 1e4 underflows every kernel mass but a cell's own, so each
        // masked row keeps one entry.
        let cases = [
            (GridMap::new(3, 4, 1.0).unwrap(), vec![1, 6, 11], 0.6),
            (GridMap::new(2, 2, 1.0).unwrap(), vec![0], 1.0),
            (GridMap::new(5, 5, 0.5).unwrap(), vec![0, 12, 13, 24], 2.0),
            (GridMap::new(5, 5, 0.5).unwrap(), (0..25).collect(), 0.3),
            (GridMap::new(1, 7, 1.0).unwrap(), vec![3], 1e4),
            (GridMap::new(4, 3, 1.0).unwrap(), vec![2, 7], 1e4),
        ];
        for (grid, cells, alpha) in cases {
            let m = grid.num_cells();
            let set = Region::from_cells(m, cells.into_iter().map(CellId)).unwrap();
            let plm = RestrictedPlm::new(grid.clone(), set.clone(), alpha).unwrap();
            let dense = dense_build(&grid, &set, alpha);
            for j in 0..m {
                assert_eq!(
                    bits(plm.emission_column(CellId(j)).as_slice()),
                    bits(dense.col(j).as_slice()),
                    "column {j}, alpha {alpha}"
                );
            }
            let mask = set.indicator();
            for i in 0..m {
                let row: Vec<f64> = (0..m).map(|j| plm.entry(i, j, mask[j])).collect();
                assert_eq!(bits(&row), bits(dense.row(i)), "row {i}, alpha {alpha}");
                // `perturb` samples that row with the draws the dense row took.
                let (mut a, mut b) = (
                    StdRng::seed_from_u64(i as u64),
                    StdRng::seed_from_u64(i as u64),
                );
                for _ in 0..20 {
                    assert_eq!(
                        plm.perturb(CellId(i), &mut a).index(),
                        sample_row(dense.row(i).iter().copied(), &mut b)
                    );
                }
            }
            assert_eq!(dense_emission(&plm).as_slice(), dense.as_slice());
        }
        // A row whose masked sum is not positive is uniform over all m
        // cells, as `normalize_rows_mut` makes it. No PLM row gets there (a
        // cell's own kernel mass is positive), so the sum is forced.
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let set = Region::from_cells(9, [CellId(4), CellId(8)]).unwrap();
        let mut plm = RestrictedPlm::new(grid.clone(), set.clone(), 1.0).unwrap();
        plm.norms[4] = 0.0;
        let mut dense = dense_build(&grid, &set, 1.0);
        for i in (0..9).filter(|&i| plm.surrogates[i] == 4) {
            dense.row_mut(i).fill(0.0);
        }
        dense.normalize_rows_mut();
        assert_eq!(dense.row(4), &[1.0 / 9.0; 9]);
        for j in 0..9 {
            assert_eq!(
                bits(plm.emission_column(CellId(j)).as_slice()),
                bits(dense.col(j).as_slice())
            );
        }
    }

    #[test]
    fn out_of_set_true_location_uses_nearest_surrogate() {
        // Grid 2x2, set = {cell 0}. Every row equals the row of cell 0,
        // restricted: all mass on cell 0.
        let set = Region::from_cells(4, [CellId(0)]).unwrap();
        let plm = RestrictedPlm::new(grid4(), set, 1.0).unwrap();
        let column = plm.emission_column(CellId(0));
        assert_eq!(column.as_slice(), &[1.0; 4]);
    }

    #[test]
    fn surrogate_prefers_closer_cell() {
        // 1x4 grid, set {0, 3}: cell 1's surrogate is 0, cell 2's is 3.
        let grid = GridMap::new(1, 4, 1.0).unwrap();
        let set = Region::from_cells(4, [CellId(0), CellId(3)]).unwrap();
        let plm = RestrictedPlm::new(grid, set, 2.0).unwrap();
        let e = dense_emission(&plm);
        // Row 1 should match row 0; row 2 should match row 3.
        for j in 0..4 {
            assert!((e.get(1, j) - e.get(0, j)).abs() < 1e-12);
            assert!((e.get(2, j) - e.get(3, j)).abs() < 1e-12);
        }
        assert!(e.get(1, 0) > e.get(1, 3));
        assert!(e.get(2, 3) > e.get(2, 0));
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(matches!(
            RestrictedPlm::new(grid4(), Region::empty(4), 1.0),
            Err(LppmError::EmptyOutputDomain)
        ));
    }

    #[test]
    fn posterior_tracker_follows_bayes() {
        let mut tracker = PosteriorTracker::new(Vector::uniform(2)).unwrap();
        // Transition: stay with prob 0.9.
        let m = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        let prior = m.vecmat(tracker.posterior());
        assert!((prior.sum() - 1.0).abs() < 1e-12);
        // Observation twice as likely under state 0.
        let emission = Vector::from(vec![0.6, 0.3]);
        tracker.update(&prior, &emission).unwrap();
        let post = tracker.posterior();
        assert!((post[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((post.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_update_rejects_impossible_observation() {
        let mut tracker = PosteriorTracker::new(Vector::from(vec![1.0, 0.0])).unwrap();
        let prior = Vector::from(vec![1.0, 0.0]);
        let emission = Vector::from(vec![0.0, 0.5]); // impossible given prior
        assert!(tracker.update(&prior, &emission).is_err());
    }

    #[test]
    fn tracker_rejects_non_distribution() {
        assert!(PosteriorTracker::new(Vector::from(vec![0.5, 0.2])).is_err());
    }

    #[test]
    fn mechanism_for_integrates_prior_and_budget() {
        let dls = DeltaLocationSet::new(grid4(), 0.2).unwrap();
        let prior = Vector::from(vec![0.7, 0.2, 0.08, 0.02]);
        let plm = dls.mechanism_for(&prior, 0.5).unwrap();
        assert_eq!(plm.budget(), 0.5);
        assert!(plm.output_set().contains(CellId(0)));
        assert!(!plm.output_set().contains(CellId(3)));
        let halved = plm.with_budget(0.25).unwrap();
        assert_eq!(halved.budget(), 0.25);
        // Reusing the set and surrogates builds the mechanism `new` builds.
        let fresh = RestrictedPlm::new(grid4(), plm.output_set().clone(), 0.25).unwrap();
        for o in 0..4 {
            assert_eq!(
                halved.emission_column(CellId(o)).as_slice(),
                fresh.emission_column(CellId(o)).as_slice()
            );
        }
    }
}
