//! Maximum-likelihood training of Markov chains from observed trajectories.
//!
//! Replaces the paper's use of the R package `markovchain` (§V.A: "The
//! user's entire trajectory is used to train the transition matrix M"). The
//! estimator is the standard MLE — row-normalized transition counts — with
//! optional additive (Laplace) smoothing so states that never appear in
//! training still get a well-defined (uniform) outgoing row, keeping the
//! matrix stochastic as the quantification engine requires.

use crate::{MarkovError, MarkovModel, Result};
use priste_geo::CellId;
use priste_linalg::Matrix;

/// Accumulated transition counts, separable from normalization so callers
/// can merge counts from many trajectories (e.g. multi-day Geolife data)
/// before fitting.
#[derive(Debug, Clone)]
pub struct TransitionCounts {
    num_states: usize,
    counts: Vec<f64>,
    total_transitions: usize,
}

impl TransitionCounts {
    /// Creates an empty count table over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        TransitionCounts {
            num_states,
            counts: vec![0.0; num_states * num_states],
            total_transitions: 0,
        }
    }

    /// Number of states in the domain.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total number of observed transitions.
    pub fn total_transitions(&self) -> usize {
        self.total_transitions
    }

    /// Records every consecutive pair of `trajectory` as one transition.
    ///
    /// # Errors
    /// [`MarkovError::StateOutOfRange`] if any state exceeds the domain.
    pub fn observe(&mut self, trajectory: &[CellId]) -> Result<()> {
        for c in trajectory {
            if c.index() >= self.num_states {
                return Err(MarkovError::StateOutOfRange {
                    state: c.index(),
                    num_states: self.num_states,
                });
            }
        }
        for w in trajectory.windows(2) {
            self.counts[w[0].index() * self.num_states + w[1].index()] += 1.0;
            self.total_transitions += 1;
        }
        Ok(())
    }

    /// Raw count for a transition.
    pub fn count(&self, from: CellId, to: CellId) -> f64 {
        self.counts[from.index() * self.num_states + to.index()]
    }

    /// Fits the MLE transition matrix with additive smoothing `alpha` added
    /// to every cell before row normalization. `alpha = 0` is the pure MLE;
    /// rows with no observations fall back to the uniform distribution.
    ///
    /// # Errors
    /// [`MarkovError::NoTrainingData`] if no transitions were observed and
    /// `alpha == 0` (the fit would be entirely fabricated).
    pub fn fit(&self, alpha: f64) -> Result<MarkovModel> {
        if self.total_transitions == 0 && alpha == 0.0 {
            return Err(MarkovError::NoTrainingData);
        }
        let n = self.num_states;
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, self.counts[r * n + c] + alpha);
            }
        }
        m.normalize_rows_mut();
        MarkovModel::new(m)
    }
}

/// One-shot convenience: trains a model from a batch of trajectories.
///
/// # Errors
/// Propagates [`TransitionCounts::observe`] and [`TransitionCounts::fit`]
/// errors.
pub fn train_mle(
    num_states: usize,
    trajectories: &[Vec<CellId>],
    smoothing_alpha: f64,
) -> Result<MarkovModel> {
    let mut counts = TransitionCounts::new(num_states);
    for t in trajectories {
        counts.observe(t)?;
    }
    counts.fit(smoothing_alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cells(ids: &[usize]) -> Vec<CellId> {
        ids.iter().map(|&i| CellId(i)).collect()
    }

    #[test]
    fn counts_accumulate_pairs() {
        let mut c = TransitionCounts::new(3);
        c.observe(&cells(&[0, 1, 1, 2])).unwrap();
        assert_eq!(c.total_transitions(), 3);
        assert_eq!(c.count(CellId(0), CellId(1)), 1.0);
        assert_eq!(c.count(CellId(1), CellId(1)), 1.0);
        assert_eq!(c.count(CellId(1), CellId(2)), 1.0);
        assert_eq!(c.count(CellId(2), CellId(0)), 0.0);
    }

    #[test]
    fn observe_rejects_out_of_range() {
        let mut c = TransitionCounts::new(2);
        assert!(matches!(
            c.observe(&cells(&[0, 2])),
            Err(MarkovError::StateOutOfRange { .. })
        ));
        // Nothing was partially recorded.
        assert_eq!(c.total_transitions(), 0);
    }

    #[test]
    fn pure_mle_matches_hand_computation() {
        // 0→1 twice, 0→2 once ⇒ row 0 = [0, 2/3, 1/3].
        let model = train_mle(3, &[cells(&[0, 1]), cells(&[0, 1]), cells(&[0, 2])], 0.0).unwrap();
        let row: Vec<f64> = model.transition_matrix().to_dense_matrix().row(0).to_vec();
        assert!((row[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((row[2] - 1.0 / 3.0).abs() < 1e-12);
        // Unobserved rows become uniform.
        assert_eq!(
            model.transition_matrix().to_dense_matrix().row(1),
            &[1.0 / 3.0; 3]
        );
    }

    #[test]
    fn smoothing_spreads_mass() {
        let model = train_mle(2, &[cells(&[0, 0, 0])], 1.0).unwrap();
        // Row 0 counts: [2, 0] + alpha 1 ⇒ [3/4, 1/4].
        assert!((model.transition_matrix().get(0, 0) - 0.75).abs() < 1e-12);
        assert!((model.transition_matrix().get(0, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_training_without_smoothing_errors() {
        assert!(matches!(
            train_mle(3, &[], 0.0),
            Err(MarkovError::NoTrainingData)
        ));
        // With smoothing the fit degrades gracefully to uniform.
        let m = train_mle(3, &[], 0.5).unwrap();
        assert_eq!(
            m.transition_matrix().to_dense_matrix().row(0),
            &[1.0 / 3.0; 3]
        );
    }

    #[test]
    fn single_point_trajectories_contribute_nothing() {
        let mut c = TransitionCounts::new(3);
        c.observe(&cells(&[1])).unwrap();
        assert_eq!(c.total_transitions(), 0);
    }

    #[test]
    fn training_recovers_generating_chain() {
        // Sample a long trajectory from a known chain and re-estimate it.
        let truth = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(2024);
        let traj = truth
            .sample_trajectory(CellId(0), 60_000, &mut rng)
            .unwrap();
        let fitted = train_mle(3, &[traj], 0.0).unwrap();
        let err = fitted
            .transition_matrix()
            .to_dense_matrix()
            .max_abs_diff(&truth.transition_matrix().to_dense_matrix());
        assert!(err < 0.02, "estimation error {err}");
    }

    #[test]
    fn fitted_matrix_is_always_stochastic() {
        let model = train_mle(4, &[cells(&[0, 1, 2, 3, 0])], 0.1).unwrap();
        model.transition_matrix().validate_stochastic().unwrap();
    }
}
