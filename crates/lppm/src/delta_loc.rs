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
use priste_linalg::{Matrix, Vector};
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
#[derive(Debug, Clone)]
pub struct RestrictedPlm {
    grid: GridMap,
    set: Region,
    alpha: f64,
    /// The restricted emission matrix (`O(m²)`), read only by column and
    /// by row through [`Lppm`].
    emission: Matrix,
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
        let base = PlanarLaplace::new(grid.clone(), alpha)?;
        let m = grid.num_cells();
        let mask = set.indicator();
        let mut emission = Matrix::zeros(m, m);
        for (i, src) in surrogates(&grid, &set).into_iter().enumerate() {
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
        Ok(RestrictedPlm {
            grid,
            set,
            alpha,
            emission,
        })
    }

    /// The admissible output set `ΔX_t`.
    pub fn output_set(&self) -> &Region {
        &self.set
    }
}

impl Lppm for RestrictedPlm {
    fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    fn budget(&self) -> f64 {
        self.alpha
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        self.emission.col(observation.index())
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        CellId(sample_row(
            self.emission.row(true_loc.index()).iter().copied(),
            rng,
        ))
    }

    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(RestrictedPlm::new(
            self.grid.clone(),
            self.set.clone(),
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

    #[test]
    fn restriction_matches_the_materialised_base() {
        let grid = GridMap::new(3, 4, 1.0).unwrap();
        let set = Region::from_cells(12, [CellId(1), CellId(6), CellId(11)]).unwrap();
        let restricted = RestrictedPlm::new(grid.clone(), set.clone(), 0.6).unwrap();
        let base = dense_emission(&PlanarLaplace::new(grid.clone(), 0.6).unwrap());
        let mask = set.indicator();
        let mut expected = Matrix::zeros(12, 12);
        for (i, src) in surrogates(&grid, &set).into_iter().enumerate() {
            let base_row = base.row(src);
            for (j, v) in expected.row_mut(i).iter_mut().enumerate() {
                *v = base_row[j] * mask[j];
            }
        }
        expected.normalize_rows_mut();
        assert_eq!(restricted.emission.as_slice(), expected.as_slice());
        assert_eq!(dense_emission(&restricted).as_slice(), expected.as_slice());
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
    }
}
