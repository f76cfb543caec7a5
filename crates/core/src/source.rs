//! Mechanism sources: how the framework obtains the LPPM in force at each
//! timestamp.
//!
//! Algorithm 2's mechanism (α-PLM) is time-invariant; Algorithm 3's is
//! rebuilt every step from the adversary's posterior (δ-location set). The
//! [`MechanismSource`] trait captures exactly that difference so one
//! framework loop serves both case studies.

use crate::Result;
use priste_geo::{CellId, GridMap};
use priste_linalg::Vector;
use priste_lppm::{DeltaLocationSet, Lppm, PlanarLaplace, PosteriorTracker};
use priste_markov::MarkovModel;
use std::sync::Arc;

/// Supplier of the base mechanism at each timestamp, with a hook for
/// observing what was actually released (Algorithm 3's posterior update).
pub trait MechanismSource {
    /// The base (full-budget) mechanism for timestamp `t`. Budget decay is
    /// applied by the framework through [`Lppm::with_budget`].
    ///
    /// # Errors
    /// Mechanism construction failures.
    fn base_mechanism(&mut self, t: usize) -> Result<Arc<Box<dyn Lppm>>>;

    /// Notification of the released observation and the emission column it
    /// was released under.
    ///
    /// # Errors
    /// Posterior-update failures (impossible observations).
    fn on_release(&mut self, t: usize, observed: CellId, emission_column: &Vector) -> Result<()>;

    /// The base privacy budget (for reporting).
    fn base_budget(&self) -> f64;
}

/// Boxed sources delegate, so heterogeneous pipelines (`PlmSource` vs
/// [`DeltaLocSource`]) can share one `Priste<_, Box<dyn MechanismSource>>`
/// type.
impl<T: MechanismSource + ?Sized> MechanismSource for Box<T> {
    fn base_mechanism(&mut self, t: usize) -> Result<Arc<Box<dyn Lppm>>> {
        (**self).base_mechanism(t)
    }

    fn on_release(&mut self, t: usize, observed: CellId, emission_column: &Vector) -> Result<()> {
        (**self).on_release(t, observed, emission_column)
    }

    fn base_budget(&self) -> f64 {
        (**self).base_budget()
    }
}

/// Algorithm 2's source: a fixed α-Planar-Laplace mechanism. The framework
/// builds its decayed variants itself through [`Lppm::with_budget`].
pub struct PlmSource {
    base: Arc<Box<dyn Lppm>>,
    alpha: f64,
}

impl PlmSource {
    /// Builds the α-PLM source over a grid.
    ///
    /// # Errors
    /// PLM construction failures (bad α).
    pub fn new(grid: GridMap, alpha: f64) -> Result<Self> {
        let plm = PlanarLaplace::new(grid, alpha)?;
        Ok(Self::from_mechanism(Box::new(plm)))
    }

    /// Wraps an arbitrary prototype mechanism as an Algorithm 2-style
    /// source; the prototype's construction-time budget is the base of the
    /// decay ladder.
    pub fn from_mechanism(lppm: Box<dyn Lppm>) -> Self {
        let alpha = lppm.budget();
        PlmSource {
            base: Arc::new(lppm),
            alpha,
        }
    }
}

impl MechanismSource for PlmSource {
    fn base_mechanism(&mut self, _t: usize) -> Result<Arc<Box<dyn Lppm>>> {
        Ok(Arc::clone(&self.base))
    }

    fn on_release(
        &mut self,
        _t: usize,
        _observed: CellId,
        _emission_column: &Vector,
    ) -> Result<()> {
        Ok(())
    }

    fn base_budget(&self) -> f64 {
        self.alpha
    }
}

/// Algorithm 3's source: δ-location-set mechanisms rebuilt per step from
/// the adversarial posterior (`p_t⁻ = p_{t−1}⁺·M`, Eq. (21) update after
/// release).
pub struct DeltaLocSource {
    dls: DeltaLocationSet,
    chain: MarkovModel,
    tracker: PosteriorTracker,
    alpha: f64,
    /// The prior `p_t⁻` used to build the step's mechanism, retained for the
    /// posterior update after the release.
    pending_prior: Option<Vector>,
}

impl DeltaLocSource {
    /// Builds the δ-location-set source. `initial` is the adversary's `π`
    /// (the paper's experiments use the uniform distribution, §IV.D).
    ///
    /// # Errors
    /// δ validation and posterior-tracker construction failures;
    /// [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig) for a
    /// sparse-backed chain (the Markov construction step of Algorithm 3
    /// reads the dense transition matrix).
    pub fn new(
        grid: GridMap,
        delta: f64,
        alpha: f64,
        chain: MarkovModel,
        initial: Vector,
    ) -> Result<Self> {
        if chain.is_sparse() {
            return Err(crate::CoreError::InvalidConfig {
                message: "delta-location sources need a dense-backed mobility chain".into(),
            });
        }
        let dls = DeltaLocationSet::new(grid, delta)?;
        let tracker = PosteriorTracker::new(initial)?;
        Ok(DeltaLocSource {
            dls,
            chain,
            tracker,
            alpha,
            pending_prior: None,
        })
    }

    /// Current adversarial posterior `p_t⁺`.
    pub fn posterior(&self) -> &Vector {
        self.tracker.posterior()
    }
}

impl MechanismSource for DeltaLocSource {
    fn base_mechanism(&mut self, _t: usize) -> Result<Arc<Box<dyn Lppm>>> {
        // Line 2 of Algorithm 3: Markov construction step.
        let prior = self.tracker.advance(self.chain.transition())?;
        let mech = self.dls.mechanism_for(&prior, self.alpha)?;
        self.pending_prior = Some(prior);
        Ok(Arc::new(Box::new(mech) as Box<dyn Lppm>))
    }

    fn on_release(&mut self, _t: usize, _observed: CellId, emission_column: &Vector) -> Result<()> {
        let prior = self
            .pending_prior
            .take()
            .expect("on_release follows base_mechanism within one timestep");
        self.tracker.update(&prior, emission_column)?;
        Ok(())
    }

    fn base_budget(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridMap {
        GridMap::new(2, 2, 1.0).unwrap()
    }

    #[test]
    fn delta_source_shrinks_domain_and_updates_posterior() {
        let chain = MarkovModel::new(
            priste_linalg::Matrix::from_rows(&[
                vec![0.7, 0.1, 0.1, 0.1],
                vec![0.1, 0.7, 0.1, 0.1],
                vec![0.1, 0.1, 0.7, 0.1],
                vec![0.1, 0.1, 0.1, 0.7],
            ])
            .unwrap(),
        )
        .unwrap();
        let mut src = DeltaLocSource::new(
            grid(),
            0.3,
            1.0,
            chain,
            Vector::from(vec![0.85, 0.05, 0.05, 0.05]),
        )
        .unwrap();
        let mech = src.base_mechanism(1).unwrap();
        // The concentrated posterior should restrict the output domain.
        let e = mech.emission_matrix();
        let nonzero_cols: usize = (0..4)
            .filter(|&c| (0..4).any(|r| e.get(r, c) > 0.0))
            .count();
        assert!(nonzero_cols < 4, "domain was not restricted");
        // Posterior update flows through on_release.
        let col = mech.emission_column(CellId(0));
        let before = src.posterior().clone();
        src.on_release(1, CellId(0), &col).unwrap();
        assert_ne!(before.as_slice(), src.posterior().as_slice());
        src.posterior().validate_distribution().unwrap();
    }
}
