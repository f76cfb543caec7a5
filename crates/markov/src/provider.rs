//! The transition-source abstraction consumed by the quantification engine.
//!
//! Paper footnote 3: "If the Markov model is time-varying, i.e., transition
//! matrices at different t are not identical, our approach still works" —
//! Lemma III.1's remark spells out that Eqs. (4)–(8) are simply re-evaluated
//! with the matrix in force at each step. [`TransitionProvider`] makes that
//! generality a first-class seam: the engine asks for "the transition used
//! at step `t → t+1`" and never assumes homogeneity.

use crate::{MarkovError, MarkovModel, Result, TransitionMatrix};

/// Source of (possibly time-varying) transition matrices.
///
/// `transition_at(t)` returns the matrix governing the step from timestamp
/// `t` to `t + 1`, with timestamps 1-based as in the paper. The matrix is
/// backend-tagged ([`TransitionMatrix`]): consumers dispatch products to a
/// dense or CSR kernel without knowing which backend the chain carries.
pub trait TransitionProvider {
    /// Number of states `m`.
    fn num_states(&self) -> usize;

    /// Transition matrix in force for the step `t → t+1` (`t ≥ 1`).
    fn transition_at(&self, t: usize) -> &TransitionMatrix;
}

/// Time-homogeneous chain: the same matrix at every step (the paper's
/// primary setting).
#[derive(Debug, Clone)]
pub struct Homogeneous {
    model: MarkovModel,
}

impl Homogeneous {
    /// Wraps a model as a homogeneous provider.
    pub fn new(model: MarkovModel) -> Self {
        Homogeneous { model }
    }

    /// The underlying model.
    pub fn model(&self) -> &MarkovModel {
        &self.model
    }
}

impl TransitionProvider for Homogeneous {
    fn num_states(&self) -> usize {
        self.model.num_states()
    }

    fn transition_at(&self, _t: usize) -> &TransitionMatrix {
        self.model.transition_matrix()
    }
}

/// Time-varying chain backed by an explicit schedule of matrices.
///
/// Step `t → t+1` uses `schedule[min(t−1, len−1)]`; the final matrix
/// persists beyond the schedule's end, so finite schedules cover unbounded
/// horizons (the common pattern: a daily cycle repeated by the caller, or a
/// transient regime settling into a steady state).
#[derive(Debug, Clone)]
pub struct TimeVarying {
    num_states: usize,
    schedule: Vec<MarkovModel>,
}

impl TimeVarying {
    /// Builds a time-varying provider from a non-empty schedule of models
    /// over a common state domain.
    ///
    /// # Errors
    /// [`MarkovError::NoTrainingData`] for an empty schedule;
    /// [`MarkovError::StateOutOfRange`] if models disagree on domain size.
    pub fn new(schedule: Vec<MarkovModel>) -> Result<Self> {
        let first = schedule.first().ok_or(MarkovError::NoTrainingData)?;
        let n = first.num_states();
        for m in &schedule {
            if m.num_states() != n {
                return Err(MarkovError::StateOutOfRange {
                    state: m.num_states(),
                    num_states: n,
                });
            }
        }
        Ok(TimeVarying {
            num_states: n,
            schedule,
        })
    }
}

impl TransitionProvider for TimeVarying {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn transition_at(&self, t: usize) -> &TransitionMatrix {
        let idx = t.saturating_sub(1).min(self.schedule.len() - 1);
        self.schedule[idx].transition_matrix()
    }
}

impl<T: TransitionProvider + ?Sized> TransitionProvider for &T {
    fn num_states(&self) -> usize {
        (**self).num_states()
    }

    fn transition_at(&self, t: usize) -> &TransitionMatrix {
        (**self).transition_at(t)
    }
}

/// Shared-ownership provider: lets many long-lived consumers (e.g. the
/// per-user event windows of a streaming service) reference one mobility
/// model without cloning its matrices. `Arc` rather than `Rc` so the
/// sharing consumers — sessions, managers, pipelines — stay `Send + Sync`
/// and can fan work out across threads.
impl<T: TransitionProvider + ?Sized> TransitionProvider for std::sync::Arc<T> {
    fn num_states(&self) -> usize {
        (**self).num_states()
    }

    fn transition_at(&self, t: usize) -> &TransitionMatrix {
        (**self).transition_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_linalg::Matrix;

    fn two_state(p_stay: f64) -> MarkovModel {
        MarkovModel::new(
            Matrix::from_rows(&[vec![p_stay, 1.0 - p_stay], vec![1.0 - p_stay, p_stay]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn homogeneous_returns_same_matrix_everywhere() {
        let h = Homogeneous::new(MarkovModel::paper_example());
        assert_eq!(h.num_states(), 3);
        assert_eq!(h.transition_at(1), h.transition_at(99));
    }

    #[test]
    fn time_varying_follows_schedule_then_persists() {
        let tv = TimeVarying::new(vec![two_state(0.9), two_state(0.1)]).unwrap();
        assert_eq!(tv.num_states(), 2);
        assert_eq!(tv.transition_at(1).get(0, 0), 0.9);
        assert_eq!(tv.transition_at(2).get(0, 0), 0.1);
        // Past the schedule end the last regime persists.
        assert_eq!(tv.transition_at(50).get(0, 0), 0.1);
    }

    #[test]
    fn time_varying_validates_input() {
        assert!(matches!(
            TimeVarying::new(vec![]),
            Err(MarkovError::NoTrainingData)
        ));
        let mismatch = TimeVarying::new(vec![two_state(0.5), MarkovModel::paper_example()]);
        assert!(mismatch.is_err());
    }

    #[test]
    fn reference_provider_delegates() {
        let h = Homogeneous::new(MarkovModel::paper_example());
        fn takes_provider<P: TransitionProvider>(p: P) -> usize {
            p.num_states()
        }
        assert_eq!(takes_provider(&h), 3);
    }

    #[test]
    fn arc_provider_delegates_and_shares() {
        let h = std::sync::Arc::new(Homogeneous::new(MarkovModel::paper_example()));
        fn takes_provider<P: TransitionProvider + Send + Sync>(p: P) -> usize {
            p.num_states()
        }
        assert_eq!(takes_provider(std::sync::Arc::clone(&h)), 3);
        let clone = std::sync::Arc::clone(&h);
        assert_eq!(h.transition_at(1), clone.transition_at(7));
    }
}
