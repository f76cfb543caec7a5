use crate::TransitionMatrix;
use priste_geo::CellId;
use priste_linalg::{LinalgError, Matrix, SparseMatrix, Vector};
use rand::Rng;
use std::fmt;

/// Errors produced by Markov-model construction and use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// The transition matrix failed stochasticity or shape validation.
    InvalidTransition(LinalgError),
    /// An initial distribution failed validation.
    InvalidInitial(LinalgError),
    /// A state index exceeded the model's domain.
    StateOutOfRange {
        /// Offending state index.
        state: usize,
        /// Number of states in the model.
        num_states: usize,
    },
    /// Training input contained no transitions.
    NoTrainingData,
    /// A requested trajectory length was zero.
    EmptyTrajectory,
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::InvalidTransition(e) => write!(f, "invalid transition matrix: {e}"),
            MarkovError::InvalidInitial(e) => write!(f, "invalid initial distribution: {e}"),
            MarkovError::StateOutOfRange { state, num_states } => {
                write!(f, "state {state} out of range for {num_states}-state chain")
            }
            MarkovError::NoTrainingData => write!(f, "no transitions in training data"),
            MarkovError::EmptyTrajectory => write!(f, "requested trajectory of length zero"),
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkovError::InvalidTransition(e) | MarkovError::InvalidInitial(e) => Some(e),
            _ => None,
        }
    }
}

/// A first-order Markov chain over the state domain `S = {s_1, …, s_m}`.
///
/// Row `i` of the transition matrix is the distribution of the next state
/// given the current state `s_{i+1}`, matching the paper's convention
/// `p_{t+1} = p_t · M`.
///
/// The matrix lives behind a [`TransitionMatrix`]: dense for full chains,
/// CSR for banded ones ([`MarkovModel::new`] picks by fill). All
/// propagation/sampling helpers dispatch to the active backend, and
/// [`MarkovModel::transition_matrix`] is the only view of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    transition: TransitionMatrix,
}

impl MarkovModel {
    /// Wraps a validated row-stochastic transition matrix, picking its
    /// backend by the density cutover ([`TransitionMatrix::auto`]): CSR at
    /// or below [`crate::SPARSE_DENSITY_CUTOVER`] fill, dense above it. The
    /// conversion drops only structural zeros, so every product is
    /// bit-identical on either backend.
    ///
    /// # Errors
    /// [`MarkovError::InvalidTransition`] if the matrix is not square and
    /// row-stochastic.
    pub fn new(transition: Matrix) -> crate::Result<Self> {
        MarkovModel::from_transition_matrix(TransitionMatrix::auto(transition))
    }

    /// Wraps a validated row-stochastic CSR matrix (sparse backend, kept
    /// whatever its fill).
    ///
    /// # Errors
    /// [`MarkovError::InvalidTransition`] if the matrix is not square and
    /// row-stochastic.
    pub fn new_sparse(transition: SparseMatrix) -> crate::Result<Self> {
        MarkovModel::from_transition_matrix(TransitionMatrix::Sparse(transition))
    }

    /// Wraps an already backend-tagged transition matrix, keeping the
    /// caller's choice of backend.
    ///
    /// # Errors
    /// [`MarkovError::InvalidTransition`] if the matrix is not square and
    /// row-stochastic.
    pub fn from_transition_matrix(transition: TransitionMatrix) -> crate::Result<Self> {
        if !transition.is_square() {
            return Err(MarkovError::InvalidTransition(
                LinalgError::DimensionMismatch {
                    op: "markov transition",
                    expected: transition.rows(),
                    actual: transition.cols(),
                },
            ));
        }
        transition
            .validate_stochastic()
            .map_err(MarkovError::InvalidTransition)?;
        Ok(MarkovModel { transition })
    }

    /// Whether the CSR backend is active.
    pub fn is_sparse(&self) -> bool {
        self.transition.is_sparse()
    }

    /// The transition matrix from the paper's Example III.1 (Eq. (2)).
    /// Handy for doc examples and tests.
    pub fn paper_example() -> Self {
        let m = Matrix::from_rows(&[
            vec![0.1, 0.2, 0.7],
            vec![0.4, 0.1, 0.5],
            vec![0.0, 0.1, 0.9],
        ])
        .expect("static rows are rectangular");
        MarkovModel::new(m).expect("static matrix is stochastic")
    }

    /// Number of states `m`.
    pub fn num_states(&self) -> usize {
        self.transition.rows()
    }

    /// The backend-tagged transition matrix `M`.
    pub fn transition_matrix(&self) -> &TransitionMatrix {
        &self.transition
    }

    /// Single-step transition probability `Pr(u_{t+1} = s_j | u_t = s_i)`.
    ///
    /// # Errors
    /// [`MarkovError::StateOutOfRange`] for out-of-domain states.
    pub fn prob(&self, from: CellId, to: CellId) -> crate::Result<f64> {
        let m = self.num_states();
        for s in [from.index(), to.index()] {
            if s >= m {
                return Err(MarkovError::StateOutOfRange {
                    state: s,
                    num_states: m,
                });
            }
        }
        Ok(self.transition.get(from.index(), to.index()))
    }

    /// Propagates a distribution one step: `p · M`.
    ///
    /// # Errors
    /// [`MarkovError::InvalidInitial`] on length mismatch.
    pub fn step(&self, p: &Vector) -> crate::Result<Vector> {
        self.transition
            .try_vecmat(p)
            .map_err(MarkovError::InvalidInitial)
    }

    /// Propagates a distribution `k` steps: `p · M^k` (via repeated
    /// vector–matrix products, `O(k·m²)`).
    ///
    /// # Errors
    /// [`MarkovError::InvalidInitial`] on length mismatch.
    pub fn step_k(&self, p: &Vector, k: usize) -> crate::Result<Vector> {
        let mut cur = p.clone();
        for _ in 0..k {
            cur = self.step(&cur)?;
        }
        Ok(cur)
    }

    /// Samples the next state given the current one.
    ///
    /// # Errors
    /// [`MarkovError::StateOutOfRange`] for an out-of-domain current state.
    pub fn sample_next<R: Rng + ?Sized>(
        &self,
        current: CellId,
        rng: &mut R,
    ) -> crate::Result<CellId> {
        let m = self.num_states();
        if current.index() >= m {
            return Err(MarkovError::StateOutOfRange {
                state: current.index(),
                num_states: m,
            });
        }
        Ok(CellId(self.transition.sample_row(current.index(), rng)))
    }

    /// Samples a `len`-step trajectory starting from `start` (inclusive).
    ///
    /// # Errors
    /// [`MarkovError::EmptyTrajectory`] for `len == 0`;
    /// [`MarkovError::StateOutOfRange`] for an out-of-domain start.
    pub fn sample_trajectory<R: Rng + ?Sized>(
        &self,
        start: CellId,
        len: usize,
        rng: &mut R,
    ) -> crate::Result<Vec<CellId>> {
        if len == 0 {
            return Err(MarkovError::EmptyTrajectory);
        }
        if start.index() >= self.num_states() {
            return Err(MarkovError::StateOutOfRange {
                state: start.index(),
                num_states: self.num_states(),
            });
        }
        let mut traj = Vec::with_capacity(len);
        traj.push(start);
        let mut cur = start;
        for _ in 1..len {
            cur = self.sample_next(cur, rng)?;
            traj.push(cur);
        }
        Ok(traj)
    }

    /// Samples a trajectory whose first state is drawn from `initial`.
    ///
    /// # Errors
    /// [`MarkovError::InvalidInitial`] if `initial` is not a distribution
    /// over the model's domain; [`MarkovError::EmptyTrajectory`] for
    /// `len == 0`.
    pub fn sample_trajectory_from<R: Rng + ?Sized>(
        &self,
        initial: &Vector,
        len: usize,
        rng: &mut R,
    ) -> crate::Result<Vec<CellId>> {
        if initial.len() != self.num_states() {
            return Err(MarkovError::InvalidInitial(
                LinalgError::DimensionMismatch {
                    op: "initial distribution",
                    expected: self.num_states(),
                    actual: initial.len(),
                },
            ));
        }
        initial
            .validate_distribution()
            .map_err(MarkovError::InvalidInitial)?;
        let start = CellId(sample_categorical(initial.as_slice(), rng));
        self.sample_trajectory(start, len, rng)
    }
}

/// Samples an index from an (unnormalized-tolerant) categorical distribution.
pub(crate) fn sample_categorical<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "categorical weights sum to zero");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    // Floating-point slack: return the last state with nonzero weight.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .unwrap_or(weights.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_stochastic() {
        let bad = Matrix::from_rows(&[vec![0.5, 0.4], vec![0.5, 0.5]]).unwrap();
        assert!(matches!(
            MarkovModel::new(bad),
            Err(MarkovError::InvalidTransition(_))
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(MarkovModel::new(rect).is_err());
    }

    #[test]
    fn paper_example_probabilities() {
        let m = MarkovModel::paper_example();
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.prob(CellId(0), CellId(2)).unwrap(), 0.7);
        assert_eq!(m.prob(CellId(2), CellId(0)).unwrap(), 0.0);
        assert!(m.prob(CellId(3), CellId(0)).is_err());
    }

    #[test]
    fn step_preserves_mass() {
        let m = MarkovModel::paper_example();
        let p = Vector::from(vec![0.2, 0.3, 0.5]);
        let q = m.step(&p).unwrap();
        assert!((q.sum() - 1.0).abs() < 1e-12);
        // Hand check: q[0] = 0.2*0.1 + 0.3*0.4 + 0.5*0.0 = 0.14
        assert!((q[0] - 0.14).abs() < 1e-12);
    }

    #[test]
    fn step_k_composes() {
        let m = MarkovModel::paper_example();
        let p = Vector::uniform(3);
        let two = m.step_k(&p, 2).unwrap();
        let manual = m.step(&m.step(&p).unwrap()).unwrap();
        assert!(two.max_abs_diff(&manual) < 1e-12);
        assert_eq!(m.step_k(&p, 0).unwrap(), p);
    }

    #[test]
    fn sampled_trajectory_has_requested_length_and_valid_states() {
        let m = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(7);
        let t = m.sample_trajectory(CellId(0), 100, &mut rng).unwrap();
        assert_eq!(t.len(), 100);
        assert!(t.iter().all(|c| c.index() < 3));
        assert_eq!(t[0], CellId(0));
    }

    #[test]
    fn sampling_respects_zero_probability_transitions() {
        // From s3 the chain can never reach s1 (row [0, 0.1, 0.9]).
        let m = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let next = m.sample_next(CellId(2), &mut rng).unwrap();
            assert_ne!(next, CellId(0));
        }
    }

    #[test]
    fn empirical_frequencies_approach_row() {
        let m = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[m.sample_next(CellId(1), &mut rng).unwrap().index()] += 1;
        }
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        for (f, expect) in freq.iter().zip([0.4, 0.1, 0.5]) {
            assert!((f - expect).abs() < 0.02, "freq {f} vs {expect}");
        }
    }

    #[test]
    fn trajectory_errors() {
        let m = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            m.sample_trajectory(CellId(0), 0, &mut rng),
            Err(MarkovError::EmptyTrajectory)
        ));
        assert!(matches!(
            m.sample_trajectory(CellId(9), 5, &mut rng),
            Err(MarkovError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn sample_from_initial_validates() {
        let m = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(5);
        let bad = Vector::from(vec![0.5, 0.4]);
        assert!(m.sample_trajectory_from(&bad, 5, &mut rng).is_err());
        let not_dist = Vector::from(vec![0.5, 0.4, 0.3]);
        assert!(m.sample_trajectory_from(&not_dist, 5, &mut rng).is_err());
        let ok = Vector::uniform(3);
        assert_eq!(m.sample_trajectory_from(&ok, 5, &mut rng).unwrap().len(), 5);
    }

    #[test]
    fn categorical_handles_rounding_slack() {
        // All mass on the last index must never panic.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(sample_categorical(&[0.0, 0.0, 1.0], &mut rng), 2);
        }
    }
}
