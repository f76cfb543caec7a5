//! Incremental two-possible-world quantification for streaming releases.
//!
//! [`TheoremBuilder`](crate::TheoremBuilder) answers the *any-π* Theorem
//! IV.1 question, and pays for that generality by replaying the committed
//! factor chain on every candidate — `O(t·m²)` at timestep `t`, `O(T²·m²)`
//! over a horizon. The journal extension of the paper (*Protecting
//! Spatiotemporal Event Privacy in Continuous Location-Based Services*,
//! arXiv:1907.10814) observes that for a **known** initial distribution the
//! same recursion can be maintained forward: carry the lifted row vector
//!
//! ```text
//! α_t = lift(π) · E_1 M_1 E_2 M_2 ⋯ M_{t−1} E_t
//! ```
//!
//! across timestamps and every quantity of Lemmas III.1–III.3 falls out of
//! two inner products:
//!
//! * `Pr(EVENT, o_1..o_t) = α_t · u_{min(t, end)}` (the precomputed suffix
//!   vectors of [`TwoWorldEngine::suffix_true_vectors`]; past the event end
//!   the suffix is the constant true-world selector `[0, 1]ᵀ`),
//! * `Pr(o_1..o_t) = α_t · 1`.
//!
//! One observation therefore costs a single structured lifted step plus an
//! emission Hadamard — `O(m²)` — which is what makes per-timestamp checking
//! viable for a service tracking many users ([`priste-online`'s sessions
//! hold one `IncrementalTwoWorld` per active event window).
//!
//! Unlike the borrowing [`TwoWorldEngine`], this type **owns** its state so
//! sessions can live in long-running collections without self-referential
//! lifetimes. What depends only on the event and the chain — the event and
//! its suffix vectors — lives in an immutable [`EventModel`] behind an
//! `Arc`, so every window over one (event, chain) pair shares a single
//! table. A window's own state is `π` and `α_t`, both copy-on-write behind
//! `Arc`s: windows started from one [`WindowStart`] share the same `π` and
//! lifted initial vector, so an unobserved window costs `O(1)` memory and
//! becomes `O(m)` only on its first observation, which installs a fresh
//! `α_t`. From then on the window owns `α_t`, and the batched
//! [`IncrementalTwoWorld::observe_with_step`] overwrites it in place; a
//! vector anyone else still holds is never written, only replaced. Share
//! the chain the same way via `Arc<Homogeneous>` (every
//! `TransitionProvider` is also implemented for `Arc<T>`).

use crate::lifted::{LiftedStep, StepScratch};
use crate::{QuantifyError, Result, TwoWorldEngine};
use priste_event::StEvent;
use priste_linalg::scaling::ScaledVector;
use priste_linalg::Vector;
use priste_markov::TransitionProvider;
use std::sync::{Arc, Weak};

/// Per-observation output of the incremental quantifier: §III's fixed-`π`
/// quantification (prior, joints, realized privacy loss) plus an exact
/// Bayesian adversary's posterior view of the event.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStep {
    /// Timestep `t` of the observation just consumed (1-based).
    pub t: usize,
    /// `Pr(EVENT)` under the session's `π` (constant over time).
    pub prior: f64,
    /// `ln Pr(EVENT, o_1..o_t)`; `-∞` if the joint is zero.
    pub log_joint_event: f64,
    /// `ln Pr(o_1..o_t)`.
    pub log_joint_total: f64,
    /// Posterior `Pr(EVENT | o_1..o_t)` (exact Bayes under the model).
    pub posterior: f64,
    /// Odds lift `(posterior odds) / (prior odds)`; ε-ST-event privacy at ε
    /// bounds it inside `[e^{−ε}, e^{ε}]`. `0` or `+∞` at degenerate
    /// posteriors.
    pub odds_lift: f64,
    /// Realized two-sided privacy loss `|ln [Pr(o|E) / Pr(o|¬E)]|`.
    /// Reported as `+∞` (rather than an error) when the observations prove
    /// the event true or false outright — a streaming service must record
    /// that as a verdict, not crash on it.
    pub privacy_loss: f64,
}

impl StreamStep {
    /// Whether the realized loss stays within a given ε budget.
    pub fn certifies(&self, epsilon: f64) -> bool {
        self.privacy_loss <= epsilon
    }
}

/// The user-independent half of the streaming quantifier: the protected
/// event plus its lifted suffix vectors `u_t = ∏_{i=t}^{end−1} M_i·[0,1]ᵀ`
/// under one chain. Neither depends on the user or on `π`, so a service
/// builds one per (event, chain) pair and hands every window an `Arc` to
/// it; the event's cached region masks are shared along with it.
#[derive(Debug)]
pub struct EventModel {
    event: StEvent,
    /// Lifted suffix vectors `u_t` (index `t−1`) for `t = 1..=end`.
    suffix: Vec<Vector>,
}

impl EventModel {
    /// Precomputes the suffix vectors of `event` under `provider`. Windows
    /// built on the model must run on the same chain.
    ///
    /// # Errors
    /// [`QuantifyError::DomainMismatch`] when the state domains differ.
    pub fn new<P: TransitionProvider>(event: StEvent, provider: &P) -> Result<Self> {
        let suffix = TwoWorldEngine::new(&event, provider)?.suffix_true_vectors();
        Ok(EventModel { event, suffix })
    }

    /// The protected event.
    pub fn event(&self) -> &StEvent {
        &self.event
    }
}

/// The model-free `t = 0` state of a window: the initial distribution
/// `π`, `Pr(EVENT)` under it, and the lifted initial vector. Every window
/// attached from one (event model, `π`) pair starts from the same bits, so
/// a service builds the start once and hands each new window a clone — two
/// `Arc` bumps instead of an `O(m)` lift, validation and prior dot product.
/// A start never holds the [`EventModel`] it was built on; pair it with
/// that model (and its chain) in [`IncrementalTwoWorld::from_start`].
#[derive(Debug, Clone)]
pub struct WindowStart {
    pi: Arc<Vector>,
    prior: f64,
    alpha: Arc<ScaledVector>,
}

impl WindowStart {
    /// The Lemma III.1 prior and the lifted initial vector of `π` under
    /// `model` (built over `provider`'s chain).
    ///
    /// # Errors
    /// Domain checks from [`TwoWorldEngine::new`];
    /// [`QuantifyError::InvalidInitial`] for a bad `π`;
    /// [`QuantifyError::DegeneratePrior`] when `Pr(EVENT) ∈ {0, 1}` under
    /// `π` (there is no ratio to track).
    pub fn new<P: TransitionProvider>(
        model: &EventModel,
        provider: &P,
        pi: Arc<Vector>,
    ) -> Result<Self> {
        pi.validate_distribution()
            .map_err(QuantifyError::InvalidInitial)?;
        let engine = TwoWorldEngine::new(&model.event, provider)?;
        let lifted = engine.initial_lift(&pi)?;
        let prior = pi
            .dot(&engine.reduce(&model.suffix[0]))
            .expect("validated length");
        if !(prior > 0.0 && prior < 1.0) {
            return Err(QuantifyError::DegeneratePrior { prior });
        }
        Ok(WindowStart {
            pi,
            prior,
            alpha: Arc::new(ScaledVector::new(lifted)),
        })
    }

    /// The initial distribution, shared with every window built from it.
    pub fn pi(&self) -> &Arc<Vector> {
        &self.pi
    }

    /// `Pr(EVENT)` under `π`.
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Whether a persisted `t = 0` forward vector is this start's, bit for
    /// bit (a `-0.0` never matches a `0.0`).
    pub fn matches(&self, mantissa: &[f64], log_scale: f64) -> bool {
        log_scale.to_bits() == self.alpha.log_scale.to_bits()
            && mantissa.len() == self.alpha.len()
            && mantissa
                .iter()
                .zip(self.alpha.vector.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// A handle that does not keep the start's vectors alive.
    pub fn downgrade(&self) -> WeakWindowStart {
        WeakWindowStart {
            pi: Arc::downgrade(&self.pi),
            prior: self.prior,
            alpha: Arc::downgrade(&self.alpha),
        }
    }
}

/// A [`WindowStart`] held by [`Weak`] references: a cache of starts frees
/// each one once no window (and no caller) uses it any more.
#[derive(Debug, Clone)]
pub struct WeakWindowStart {
    pi: Weak<Vector>,
    prior: f64,
    alpha: Weak<ScaledVector>,
}

impl WeakWindowStart {
    /// The start, if its vectors are still alive.
    pub fn upgrade(&self) -> Option<WindowStart> {
        Some(WindowStart {
            pi: self.pi.upgrade()?,
            prior: self.prior,
            alpha: self.alpha.upgrade()?,
        })
    }
}

/// Streaming fixed-`π` event-privacy quantifier: carries the lifted forward
/// vector across timestamps and updates in `O(m²)` per observation instead
/// of replaying the horizon. Cross-validated against
/// [`TheoremBuilder`](crate::TheoremBuilder) /
/// [`TwoWorldEngine`](crate::TwoWorldEngine) by the
/// `incremental_stream` integration suite.
///
/// `π` and the forward vector sit behind `Arc`s. `π` is never written.
/// The forward vector is written through only while this window is its
/// sole holder — no clone, [`WindowStart`] or weak handle shares it — and
/// only by [`IncrementalTwoWorld::observe_with_step`]; every other state
/// change installs a fresh vector. Clones, and windows built from one
/// start, therefore share their vectors until one of them observes, and a
/// write never reaches the others.
///
/// Every observation and peek splits into a step, `β = α_t·M_t` (none
/// before the first observation, where `β = α_0`), and a weighing,
/// `α_{t+1} ∝ β ⊙ [e, e]` for the emission column `e`. Only the weighing
/// depends on the column, so a guard that tries many candidates at one
/// timestep stages `β` once ([`IncrementalTwoWorld::stage`]) and pays
/// `O(m)` per candidate ([`IncrementalTwoWorld::peek_staged`]).
#[derive(Debug, Clone)]
pub struct IncrementalTwoWorld<P> {
    model: Arc<EventModel>,
    provider: P,
    pi: Arc<Vector>,
    prior: f64,
    /// Lifted forward vector after `t` observations.
    alpha: Arc<ScaledVector>,
    t: usize,
}

impl<P: TransitionProvider> IncrementalTwoWorld<P> {
    /// Builds the streaming state over a private [`EventModel`]; see
    /// [`IncrementalTwoWorld::from_model`]. Owns `event` and `provider` so
    /// the value is `'static` when they are (sessions outlive call frames).
    ///
    /// # Errors
    /// As [`EventModel::new`] and [`IncrementalTwoWorld::from_model`].
    pub fn new(event: StEvent, provider: P, pi: Vector) -> Result<Self> {
        Self::from_model(Arc::new(EventModel::new(event, &provider)?), provider, pi)
    }

    /// Builds the streaming state on a shared [`EventModel`] (which must
    /// have been built over `provider`'s chain): the Lemma III.1 prior and
    /// the lifted initial vector. Only `π` and the forward vector are
    /// per-window; the suffix table stays shared.
    ///
    /// # Errors
    /// As [`WindowStart::new`].
    pub fn from_model(model: Arc<EventModel>, provider: P, pi: Vector) -> Result<Self> {
        let start = WindowStart::new(&model, &provider, Arc::new(pi))?;
        Ok(Self::from_start(model, provider, start))
    }

    /// A window at `t = 0` from a prepared [`WindowStart`], which must have
    /// been built on `model` and `provider`'s chain: `O(1)`, and
    /// bit-identical to [`IncrementalTwoWorld::from_model`] on the start's
    /// `π`.
    ///
    /// # Panics
    /// Panics if the start's `π` is not over `provider`'s state domain.
    pub fn from_start(model: Arc<EventModel>, provider: P, start: WindowStart) -> Self {
        assert_eq!(
            start.pi.len(),
            provider.num_states(),
            "window start built over another state domain"
        );
        IncrementalTwoWorld {
            model,
            provider,
            pi: start.pi,
            prior: start.prior,
            alpha: start.alpha,
            t: 0,
        }
    }

    /// The shared per-(event, chain) table this window reads.
    pub fn model(&self) -> &Arc<EventModel> {
        &self.model
    }

    /// The protected event.
    pub fn event(&self) -> &StEvent {
        &self.model.event
    }

    /// The session's fixed initial distribution.
    pub fn pi(&self) -> &Vector {
        &self.pi
    }

    /// `Pr(EVENT)` under `π`.
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Observations consumed so far.
    pub fn observed(&self) -> usize {
        self.t
    }

    /// State-domain size `m`.
    pub fn num_states(&self) -> usize {
        self.provider.num_states()
    }

    /// The carried lifted forward mantissa (length `2m`; the represented
    /// vector is this times `e^{log_scale}`, but every consumer below is
    /// scale-invariant). Exposed so a batch driver can apply one shared
    /// [`LiftedStep`](crate::lifted::LiftedStep) to many sessions at once.
    pub fn lifted_state(&self) -> &Vector {
        &self.alpha.vector
    }

    /// The natural-log scale factor of the carried forward vector: the
    /// represented `α_t` is [`IncrementalTwoWorld::lifted_state`] times
    /// `e^{log_scale}`. Together with the mantissa and the cursor
    /// [`IncrementalTwoWorld::observed`], this is the complete dynamic
    /// state — a persistence layer can checkpoint the triple and hand it
    /// back to [`IncrementalTwoWorld::resume`].
    pub fn log_scale(&self) -> f64 {
        self.alpha.log_scale
    }

    /// Rebuilds a quantifier from persisted dynamic state: the shared
    /// event model and provider (static configuration), the attach-time
    /// start (re-derived from the persisted `π` with [`WindowStart::new`],
    /// the replay seed), and the checkpointed forward vector
    /// `(mantissa, log_scale)` at cursor `t`. The prior comes from `π` on
    /// the same model, so a resumed quantifier is bit-identical to one that
    /// observed the same stream live.
    ///
    /// # Errors
    /// [`QuantifyError::InvalidResume`] when the mantissa has the wrong
    /// length, carries negative or non-finite entries, is identically zero
    /// past the first observation, or the scale is non-finite.
    ///
    /// # Panics
    /// As [`IncrementalTwoWorld::from_start`].
    pub fn resume(
        model: Arc<EventModel>,
        provider: P,
        start: WindowStart,
        mantissa: Vector,
        log_scale: f64,
        t: usize,
    ) -> Result<Self> {
        let mut state = Self::from_start(model, provider, start);
        if mantissa.len() != 2 * state.num_states() {
            return Err(QuantifyError::InvalidResume {
                detail: format!(
                    "lifted mantissa has length {}, expected {}",
                    mantissa.len(),
                    2 * state.num_states()
                ),
            });
        }
        if mantissa
            .as_slice()
            .iter()
            .any(|&x| x < 0.0 || !x.is_finite())
        {
            return Err(QuantifyError::InvalidResume {
                detail: "lifted mantissa carries negative or non-finite entries".into(),
            });
        }
        if t > 0 && mantissa.sum() <= 0.0 {
            return Err(QuantifyError::InvalidResume {
                detail: format!("lifted mantissa vanished at cursor {t}"),
            });
        }
        if !log_scale.is_finite() {
            return Err(QuantifyError::InvalidResume {
                detail: format!("non-finite log scale {log_scale}"),
            });
        }
        state.alpha = Arc::new(ScaledVector {
            vector: mantissa,
            log_scale,
        });
        state.t = t;
        Ok(state)
    }

    /// Index of the lifted step that must be applied before the *next*
    /// observation (`step_at(t)` of the engine schedule), or `None` for the
    /// very first observation, which is emission-weighting only.
    pub fn next_step_index(&self) -> Option<usize> {
        (self.t >= 1).then_some(self.t)
    }

    /// Quantifies the next observation without committing it. A caller
    /// that peeks several candidates at one timestep stages once
    /// ([`IncrementalTwoWorld::stage`]) and peeks each through
    /// [`IncrementalTwoWorld::peek_staged`] instead, bit-identically.
    ///
    /// # Errors
    /// Emission validation; [`QuantifyError::ZeroLikelihood`] when the
    /// observation stream would have zero probability under the model.
    pub fn peek(&self, emission_column: &Vector) -> Result<StreamStep> {
        let mut scratch = StepScratch::default();
        self.stage(&mut scratch);
        self.peek_staged(&mut scratch, emission_column)
    }

    /// Computes the column-independent half of the next observation once:
    /// `β = α_t·M_t` into `scratch` (`O(nnz)`). Before the first
    /// observation `β = α_0`, which the window holds already, so staging
    /// only marks the scratch. The stage holds until this window observes.
    pub fn stage(&self, scratch: &mut StepScratch) {
        if self.t >= 1 {
            self.engine()
                .step_at(self.t)
                .apply_row_scratch(self.alpha.vector.as_slice(), scratch);
        }
        scratch.staged = Some(self.stamp());
    }

    /// [`IncrementalTwoWorld::peek`] against a prior
    /// [`IncrementalTwoWorld::stage`]: weighs the column into the scratch's
    /// reused buffer (`O(m)`, no allocation once it is sized), leaving the
    /// window and `β` untouched for the next candidate.
    ///
    /// # Errors
    /// As [`IncrementalTwoWorld::peek`].
    ///
    /// # Panics
    /// Panics if `scratch` was not staged by this window at its current
    /// age.
    pub fn peek_staged(
        &self,
        scratch: &mut StepScratch,
        emission_column: &Vector,
    ) -> Result<StreamStep> {
        assert_eq!(
            scratch.staged,
            Some(self.stamp()),
            "scratch not staged by this window at its current age"
        );
        self.weigh(&scratch.stepped, emission_column, &mut scratch.weighed)
    }

    /// Consumes one observation: one structured lifted step plus an emission
    /// weighing (`O(m²)`), then the two inner products of the module docs.
    /// The weighing writes straight into the window's new forward vector,
    /// so a window's first observation allocates that `2m` vector only.
    ///
    /// # Errors
    /// See [`IncrementalTwoWorld::peek`]. On error the state is unchanged,
    /// so a session can skip an impossible observation and continue.
    pub fn observe(&mut self, emission_column: &Vector) -> Result<StreamStep> {
        let mut scratch = StepScratch::default();
        self.stage(&mut scratch);
        let mut next = ScaledVector::new(Vector::zeros(0));
        let step = self.weigh(&scratch.stepped, emission_column, &mut next)?;
        self.alpha = Arc::new(next);
        self.t += 1;
        Ok(step)
    }

    /// Batched-path variant of [`IncrementalTwoWorld::observe`] for every
    /// observation after the first: `step` is this window's scheduled
    /// transition (`step_at` of [`IncrementalTwoWorld::next_step_index`]),
    /// typically built once and shared by every window at the same age. The
    /// step, the emission weighing and the renormalization run in
    /// `scratch`; only a successful observation lands in the window. An
    /// owned forward vector then trades buffers with the scratch, and one
    /// shared with anyone else (a window start, a clone) is replaced by the
    /// scratch's — so a window that already owns its state allocates
    /// nothing. Bit-identical to [`IncrementalTwoWorld::observe`].
    ///
    /// # Errors
    /// See [`IncrementalTwoWorld::peek`]. On error the state is unchanged.
    ///
    /// # Panics
    /// Panics before the first observation (it has no transition step)
    /// and if `step` is over another state domain.
    pub fn observe_with_step(
        &mut self,
        step: &LiftedStep<'_>,
        scratch: &mut StepScratch,
        emission_column: &Vector,
    ) -> Result<StreamStep> {
        assert!(self.t >= 1, "the first observation has no transition step");
        step.apply_row_scratch(self.alpha.vector.as_slice(), scratch);
        let step = self.weigh(&scratch.stepped, emission_column, &mut scratch.weighed)?;
        match Arc::get_mut(&mut self.alpha) {
            Some(alpha) => std::mem::swap(alpha, &mut scratch.weighed),
            None => {
                let empty = ScaledVector::new(Vector::zeros(0));
                self.alpha = Arc::new(std::mem::replace(&mut scratch.weighed, empty));
            }
        }
        self.t += 1;
        Ok(step)
    }

    /// Rewinds to `t = 0`, keeping the shared model and the prior so a
    /// session can be replayed or re-armed without rebuilding.
    pub fn reset(&mut self) {
        let lifted = self
            .engine()
            .initial_lift(&self.pi)
            .expect("validated at construction");
        self.alpha = Arc::new(ScaledVector::new(lifted));
        self.t = 0;
    }

    /// Temporary borrowing engine over the model's event and the provider
    /// (checks were done at construction; re-running them is O(1)).
    fn engine(&self) -> TwoWorldEngine<'_, &P> {
        TwoWorldEngine::new(&self.model.event, &self.provider).expect("validated at construction")
    }

    fn validate_emission(&self, emission_column: &Vector) -> Result<()> {
        let m = self.num_states();
        if emission_column.len() != m
            || emission_column
                .as_slice()
                .iter()
                .any(|&x| x < 0.0 || !x.is_finite())
        {
            return Err(QuantifyError::InvalidEmission {
                expected: m,
                actual: emission_column.len(),
            });
        }
        Ok(())
    }

    /// What a staged scratch records: this window's forward-vector
    /// address and age.
    fn stamp(&self) -> (usize, usize) {
        (Arc::as_ptr(&self.alpha) as usize, self.t)
    }

    /// The weighing kernel of every observation and peek: validates `e`,
    /// writes `β ⊙ [e, e]` in one pass into `out` (`β` is `α_0` before the
    /// first observation, `stepped` after; a fresh `out` is allocated once
    /// at `2m`, a sized one reused) at the window's log scale, renormalizes,
    /// and reads the report for `t + 1` out of it.
    fn weigh(
        &self,
        stepped: &[f64],
        emission_column: &Vector,
        out: &mut ScaledVector,
    ) -> Result<StreamStep> {
        self.validate_emission(emission_column)?;
        let beta = if self.t == 0 {
            self.alpha.vector.as_slice()
        } else {
            stepped
        };
        let e = emission_column.as_slice();
        let (beta_f, beta_t) = beta.split_at(e.len());
        let mut v = std::mem::replace(&mut out.vector, Vector::zeros(0)).into_vec();
        v.clear();
        let weighed = beta_f.iter().zip(e).chain(beta_t.iter().zip(e));
        v.extend(weighed.map(|(b, w)| b * w));
        out.vector = Vector::from(v);
        out.log_scale = self.alpha.log_scale;
        out.renormalize();
        self.report(self.t + 1, out)
    }

    /// The Lemma III.2/III.3 readout at timestep `t` for a forward vector.
    fn report(&self, t: usize, alpha: &ScaledVector) -> Result<StreamStep> {
        let u = &self.model.suffix[t.min(self.model.event.end()) - 1];
        let jb = alpha.vector.dot(u).expect("lifted lengths match");
        let jc = alpha.vector.sum();
        if jc <= 0.0 {
            return Err(QuantifyError::ZeroLikelihood { t });
        }
        let log_joint_event = if jb > 0.0 {
            jb.ln() + alpha.log_scale
        } else {
            f64::NEG_INFINITY
        };
        let log_joint_total = jc.ln() + alpha.log_scale;
        let posterior = (jb / jc).clamp(0.0, 1.0);
        let prior_odds = self.prior / (1.0 - self.prior);
        let posterior_odds = if posterior >= 1.0 {
            f64::INFINITY
        } else {
            posterior / (1.0 - posterior)
        };
        let j_not = jc - jb;
        let privacy_loss = if jb <= 0.0 || j_not <= 0.0 {
            f64::INFINITY
        } else {
            // ln [ (jb/prior) / (j_not/(1−prior)) ] — scales cancel.
            ((jb / self.prior).ln() - (j_not / (1.0 - self.prior)).ln()).abs()
        };
        Ok(StreamStep {
            t,
            prior: self.prior,
            log_joint_event,
            log_joint_total,
            posterior,
            odds_lift: posterior_odds / prior_odds,
            privacy_loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TheoremBuilder;
    use priste_event::Presence;
    use priste_geo::{CellId, Region};
    use priste_markov::{Homogeneous, MarkovModel};

    fn region(ids: &[usize]) -> Region {
        Region::from_cells(3, ids.iter().map(|&i| CellId(i))).unwrap()
    }

    fn chain() -> Homogeneous {
        Homogeneous::new(MarkovModel::paper_example())
    }

    fn presence_event() -> StEvent {
        Presence::new(region(&[0, 1]), 2, 3).unwrap().into()
    }

    #[test]
    fn matches_offline_builder_step_by_step() {
        let ev = presence_event();
        let pi = Vector::from(vec![0.5, 0.3, 0.2]);
        let mut inc = IncrementalTwoWorld::new(ev.clone(), chain(), pi.clone()).unwrap();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let cols = [
            Vector::from(vec![0.7, 0.2, 0.1]),
            Vector::from(vec![0.1, 0.8, 0.1]),
            Vector::from(vec![0.3, 0.3, 0.4]),
            Vector::from(vec![0.25, 0.5, 0.25]),
            Vector::from(vec![0.6, 0.2, 0.2]),
        ];
        for col in &cols {
            let stream = inc.observe(col).unwrap();
            let inputs = builder.candidate(col).unwrap();
            assert!((stream.prior - inputs.prior(&pi)).abs() < 1e-12);
            assert!(
                (stream.log_joint_event - inputs.log_joint_event(&pi)).abs() < 1e-9,
                "t={}: {} vs {}",
                stream.t,
                stream.log_joint_event,
                inputs.log_joint_event(&pi)
            );
            assert!((stream.log_joint_total - inputs.log_joint_total(&pi)).abs() < 1e-9);
            builder.commit(col.clone()).unwrap();
        }
        assert_eq!(inc.observed(), 5);
    }

    #[test]
    fn uninformative_stream_stays_at_zero_loss() {
        let mut inc =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        let flat = Vector::from(vec![1.0 / 3.0; 3]);
        for _ in 0..6 {
            let s = inc.observe(&flat).unwrap();
            assert!(s.privacy_loss < 1e-10, "loss {}", s.privacy_loss);
            assert!((s.posterior - s.prior).abs() < 1e-10);
            assert!((s.odds_lift - 1.0).abs() < 1e-9);
            assert!(s.certifies(1e-6));
        }
    }

    #[test]
    fn peek_does_not_advance_and_observe_matches_peek() {
        let mut inc =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        let col = Vector::from(vec![0.6, 0.3, 0.1]);
        let p1 = inc.peek(&col).unwrap();
        let p2 = inc.peek(&col).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(inc.observed(), 0);
        let o = inc.observe(&col).unwrap();
        assert_eq!(o, p1);
        assert_eq!(inc.observed(), 1);
    }

    #[test]
    #[should_panic(expected = "not staged")]
    fn a_stage_does_not_survive_an_observation() {
        let mut inc =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        let col = Vector::from(vec![0.6, 0.3, 0.1]);
        let mut scratch = StepScratch::default();
        inc.stage(&mut scratch);
        inc.peek_staged(&mut scratch, &col).unwrap();
        inc.observe(&col).unwrap();
        let _ = inc.peek_staged(&mut scratch, &col);
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// One [`IncrementalTwoWorld::observe_with_step`] on `window`, with the
    /// step it is scheduled for (plain `observe` for the first one).
    fn observe_scratch(
        window: &mut IncrementalTwoWorld<Homogeneous>,
        scratch: &mut StepScratch,
        col: &Vector,
    ) -> Result<StreamStep> {
        let Some(idx) = window.next_step_index() else {
            return window.observe(col);
        };
        let provider = chain();
        let event = window.event().clone();
        let engine = TwoWorldEngine::new(&event, &provider).unwrap();
        window.observe_with_step(&engine.step_at(idx), scratch, col)
    }

    #[test]
    fn scratch_step_path_equals_self_stepped_path() {
        let pi = Vector::from(vec![0.2, 0.4, 0.4]);
        let mut plain = IncrementalTwoWorld::new(presence_event(), chain(), pi.clone()).unwrap();
        let mut batched = plain.clone();
        let mut scratch = StepScratch::default();
        let cols = [
            Vector::from(vec![0.5, 0.3, 0.2]),
            Vector::from(vec![0.2, 0.2, 0.6]),
            Vector::from(vec![0.9, 0.05, 0.05]),
        ];
        for col in &cols {
            let a = plain.observe(col).unwrap();
            let b = observe_scratch(&mut batched, &mut scratch, col).unwrap();
            assert_eq!(a, b);
            assert_eq!(bits(plain.lifted_state()), bits(batched.lifted_state()));
            assert_eq!(plain.log_scale().to_bits(), batched.log_scale().to_bits());
        }
    }

    #[test]
    fn scratch_step_rejects_an_impossible_column_without_touching_the_window() {
        let mut oracle =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        oracle.observe(&Vector::from(vec![0.0, 0.0, 1.0])).unwrap();
        oracle.observe(&Vector::from(vec![0.0, 0.0, 1.0])).unwrap();
        // Only the window owns its forward vector, so a successful
        // observation would write it in place.
        let mut window =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        let mut scratch = StepScratch::default();
        for col in [
            Vector::from(vec![0.0, 0.0, 1.0]),
            Vector::from(vec![0.0, 0.0, 1.0]),
        ] {
            observe_scratch(&mut window, &mut scratch, &col).unwrap();
        }
        let before = (bits(window.lifted_state()), window.log_scale().to_bits());
        let at = window.lifted_state() as *const Vector;
        // From s3 only {s2, s3} are reachable: an s1-only column is impossible.
        let err = observe_scratch(
            &mut window,
            &mut scratch,
            &Vector::from(vec![1.0, 0.0, 0.0]),
        )
        .unwrap_err();
        assert_eq!(err, QuantifyError::ZeroLikelihood { t: 3 });
        assert_eq!(window.observed(), 2, "failed observe must not advance");
        assert_eq!(
            (bits(window.lifted_state()), window.log_scale().to_bits()),
            before
        );
        let next = Vector::from(vec![0.3, 0.3, 0.4]);
        assert_eq!(
            observe_scratch(&mut window, &mut scratch, &next).unwrap(),
            oracle.observe(&next).unwrap()
        );
        assert_eq!(bits(window.lifted_state()), bits(oracle.lifted_state()));
        assert_eq!(window.log_scale().to_bits(), oracle.log_scale().to_bits());
        assert!(
            std::ptr::eq(window.lifted_state(), at),
            "owned: updated in place"
        );
    }

    #[test]
    fn reset_replays_identically() {
        let mut inc =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        let cols = [
            Vector::from(vec![0.7, 0.2, 0.1]),
            Vector::from(vec![0.2, 0.6, 0.2]),
        ];
        let first: Vec<StreamStep> = cols.iter().map(|c| inc.observe(c).unwrap()).collect();
        inc.reset();
        assert_eq!(inc.observed(), 0);
        let second: Vec<StreamStep> = cols.iter().map(|c| inc.observe(c).unwrap()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn proving_the_event_false_reports_infinite_loss_not_an_error() {
        // Event: in {s1} at t=2. An observation only s3 can emit at t=2
        // proves ¬EVENT; the stream must keep flowing with loss = ∞.
        let ev: StEvent = Presence::new(region(&[0]), 2, 2).unwrap().into();
        let mut inc = IncrementalTwoWorld::new(ev, chain(), Vector::uniform(3)).unwrap();
        inc.observe(&Vector::from(vec![1.0 / 3.0; 3])).unwrap();
        let s = inc.observe(&Vector::from(vec![0.0, 0.0, 1.0])).unwrap();
        assert_eq!(s.posterior, 0.0);
        assert_eq!(s.privacy_loss, f64::INFINITY);
        assert!(!s.certifies(1e9));
        assert_eq!(inc.observed(), 2);
    }

    #[test]
    fn impossible_observation_is_zero_likelihood_and_leaves_state_intact() {
        let mut inc =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        inc.observe(&Vector::from(vec![0.0, 0.0, 1.0])).unwrap();
        // From s3 only {s2, s3} are reachable; a column emitting solely
        // from s1 is impossible.
        let err = inc.observe(&Vector::from(vec![1.0, 0.0, 0.0])).unwrap_err();
        assert_eq!(err, QuantifyError::ZeroLikelihood { t: 2 });
        assert_eq!(inc.observed(), 1, "failed observe must not advance");
    }

    #[test]
    fn construction_rejects_bad_inputs() {
        assert!(matches!(
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(4)),
            Err(QuantifyError::InvalidInitial(_))
        ));
        let ev: StEvent = Presence::new(region(&[0]), 2, 2).unwrap().into();
        // Point mass on s3: the chain cannot reach s1 in one step.
        assert!(matches!(
            IncrementalTwoWorld::new(ev, chain(), Vector::from(vec![0.0, 0.0, 1.0])),
            Err(QuantifyError::DegeneratePrior { .. })
        ));
        let inc = IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        assert!(matches!(
            inc.peek(&Vector::from(vec![0.5, 0.5])),
            Err(QuantifyError::InvalidEmission { .. })
        ));
        assert!(matches!(
            inc.peek(&Vector::from(vec![0.5, -0.1, 0.6])),
            Err(QuantifyError::InvalidEmission { .. })
        ));
    }

    #[test]
    fn resume_restores_bit_identical_state() {
        let pi = Vector::from(vec![0.5, 0.3, 0.2]);
        let mut live = IncrementalTwoWorld::new(presence_event(), chain(), pi.clone()).unwrap();
        let cols = [
            Vector::from(vec![0.7, 0.2, 0.1]),
            Vector::from(vec![0.1, 0.8, 0.1]),
            Vector::from(vec![0.3, 0.3, 0.4]),
        ];
        for col in &cols {
            live.observe(col).unwrap();
        }
        let start = WindowStart::new(live.model(), &chain(), Arc::new(pi)).unwrap();
        let mut resumed = IncrementalTwoWorld::resume(
            Arc::clone(live.model()),
            chain(),
            start,
            live.lifted_state().clone(),
            live.log_scale(),
            live.observed(),
        )
        .unwrap();
        assert_eq!(resumed.observed(), 3);
        assert_eq!(resumed.lifted_state(), live.lifted_state());
        assert_eq!(resumed.log_scale(), live.log_scale());
        // Continuing the stream from the resumed state matches the live one
        // exactly (same bits, not just same values).
        let next = Vector::from(vec![0.25, 0.5, 0.25]);
        assert_eq!(
            live.observe(&next).unwrap(),
            resumed.observe(&next).unwrap()
        );
    }

    #[test]
    fn resume_rejects_malformed_state() {
        let model = Arc::new(EventModel::new(presence_event(), &chain()).unwrap());
        let start = WindowStart::new(&model, &chain(), Arc::new(Vector::uniform(3))).unwrap();
        let bad_len = IncrementalTwoWorld::resume(
            Arc::clone(&model),
            chain(),
            start.clone(),
            Vector::uniform(3),
            0.0,
            1,
        );
        assert!(matches!(bad_len, Err(QuantifyError::InvalidResume { .. })));
        let bad_entries = IncrementalTwoWorld::resume(
            Arc::clone(&model),
            chain(),
            start.clone(),
            Vector::from(vec![0.1, f64::NAN, 0.1, 0.1, 0.1, 0.1]),
            0.0,
            1,
        );
        assert!(matches!(
            bad_entries,
            Err(QuantifyError::InvalidResume { .. })
        ));
        let bad_scale = IncrementalTwoWorld::resume(
            Arc::clone(&model),
            chain(),
            start.clone(),
            Vector::uniform(6),
            f64::INFINITY,
            1,
        );
        assert!(matches!(
            bad_scale,
            Err(QuantifyError::InvalidResume { .. })
        ));
        let vanished = IncrementalTwoWorld::resume(model, chain(), start, Vector::zeros(6), 0.0, 2);
        assert!(matches!(vanished, Err(QuantifyError::InvalidResume { .. })));
    }
}
