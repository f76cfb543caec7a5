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
//! One observation therefore costs a single structured lifted step —
//! `O(m²)`, `O(nnz)` on a CSR chain — plus one fused readout pass that
//! weighs the emission and accumulates both inner products together
//! (`O(m)`), which is what makes per-timestamp checking viable for a
//! service tracking many users ([`priste-online`'s sessions hold one
//! `IncrementalTwoWorld` per active event window). A guarded release
//! stages the step once, reads every candidate out against it, and commits
//! the chosen one through the same stage, so it too pays one step.
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
//! `α_t`. From then on the window owns `α_t`, and a commit through a kept
//! scratch ([`IncrementalTwoWorld::commit_staged`]) overwrites it in place;
//! a vector anyone else still holds is never written, only replaced. Share
//! the chain the same way via `Arc<Homogeneous>` (every
//! `TransitionProvider` is also implemented for `Arc<T>`).
//!
//! `α_t` is held as its two `m`-halves. For an event that starts at
//! `start ≥ 2` the true half is exactly `+0.0` until the step into
//! `start` (the lift is `[π, 0]` and the steps before it are
//! block-diagonal), so before its event opens a window stores only the
//! false half — one `m`-vector instead of two — and a step moves only that
//! half through `M`. The first Capture step opens the true half, and from
//! then on both are stored. Every report, and the logical `2m` vector
//! ([`IncrementalTwoWorld::lifted_state`]), has the bits a stored `+0.0`
//! half would give.

use crate::lifted::{sized, Halves, StepScratch};
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
/// a service builds the start once and hands each new window a clone — a
/// few `Arc` bumps instead of an `O(m)` lift, validation and prior dot
/// product. A start never holds the [`EventModel`] it was built on; pair it
/// with that model (and its chain) in [`IncrementalTwoWorld::from_start`].
///
/// The lifted initial vector is kept as its halves: `[π, 0]` for an event
/// that starts at `t ≥ 2` keeps a copy of `π` and no true half, and the
/// split `[π∘(1−s), π∘s]` of an event that opens at `t = 1` keeps both.
/// The copy is the start's own allocation: the snapshot writer shares a
/// vector by allocation, so a false half that were `π` itself would merge
/// the slots of windows of different templates on one prior.
#[derive(Debug, Clone)]
pub struct WindowStart {
    pi: Arc<Vector>,
    prior: f64,
    lift: Arc<Forward>,
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
        let lift = initial_forward(&engine, &pi)?;
        let prior = pi
            .dot(&engine.reduce(&model.suffix[0]))
            .expect("validated length");
        if !(prior > 0.0 && prior < 1.0) {
            return Err(QuantifyError::DegeneratePrior { prior });
        }
        Ok(WindowStart {
            pi,
            prior,
            lift: Arc::new(lift),
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

    /// Whether a persisted `t = 0` forward vector (the logical `2m`
    /// mantissa) is this start's, bit for bit (a `-0.0` never matches a
    /// `0.0`; an absent true half matches `+0.0` words only).
    pub fn matches(&self, mantissa: &[f64], log_scale: f64) -> bool {
        let m = self.lift.f.len();
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits());
        log_scale.to_bits() == self.lift.log_scale.to_bits()
            && mantissa.len() == 2 * m
            && same(&mantissa[..m], self.lift.f.as_slice())
            && match &self.lift.t {
                Some(t) => same(&mantissa[m..], t.as_slice()),
                None => mantissa[m..].iter().all(|x| x.to_bits() == 0),
            }
    }

    /// A handle that does not keep the start's vectors alive.
    pub fn downgrade(&self) -> WeakWindowStart {
        WeakWindowStart {
            pi: Arc::downgrade(&self.pi),
            prior: self.prior,
            lift: Arc::downgrade(&self.lift),
        }
    }
}

/// A [`WindowStart`] held by [`Weak`] references: a cache of starts frees
/// each one once no window (and no caller) uses it any more.
#[derive(Debug, Clone)]
pub struct WeakWindowStart {
    pi: Weak<Vector>,
    prior: f64,
    lift: Weak<Forward>,
}

impl WeakWindowStart {
    /// The start, if its vectors are still alive.
    pub fn upgrade(&self) -> Option<WindowStart> {
        Some(WindowStart {
            pi: self.pi.upgrade()?,
            prior: self.prior,
            lift: self.lift.upgrade()?,
        })
    }
}

/// A lifted forward mantissa held as its two `m`-halves, with the
/// natural-log scale it carries: the false half `f` and the true half `t`,
/// `None` while it is `+0.0`.
#[derive(Debug, Clone)]
struct Forward {
    f: Vector,
    t: Option<Vector>,
    log_scale: f64,
}

/// The lifted initial vector of `π`: no true half for an event that starts
/// at `t ≥ 2`, where it is `+0.0`.
fn initial_forward<P: TransitionProvider>(
    engine: &TwoWorldEngine<'_, P>,
    pi: &Vector,
) -> Result<Forward> {
    let (f, t) = engine.initial_lift(pi)?.split_halves();
    Ok(Forward {
        f,
        t: (engine.event().start() == 1).then_some(t),
        log_scale: 0.0,
    })
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
/// only by a commit ([`IncrementalTwoWorld::commit_staged`], which
/// [`IncrementalTwoWorld::observe`] runs through); every other state change
/// installs a fresh vector. Clones, and windows built from one
/// start, therefore share their vectors until one of them observes, and a
/// write never reaches the others.
///
/// The true half is absent (it reads as `+0.0`) until the window's event
/// opens: the Capture step into `start` opens it, and the lift opens it at
/// once for an event that starts at `t = 1`. Before the event opens the
/// true half is stored only where `+0.0` would lose bits: an emission
/// column with `-0.0` entries weighs it into `0 · e`, which holds those
/// signed zeros, and a renormalization whose factor overflows to `+∞`
/// (a peak in the subnormal range) turns its zeros into NaN.
///
/// Every observation and peek splits into a step, `β = α_t·M_t` (none
/// before the first observation, where `β = α_0`), and a weighing,
/// `α_{t+1} ∝ β ⊙ [e, e]` for the emission column `e`. Only the weighing
/// depends on the column, so a guard that tries many candidates at one
/// timestep stages `β` once ([`IncrementalTwoWorld::stage`]), pays `O(m)`
/// per candidate ([`IncrementalTwoWorld::peek_staged`]) and commits the
/// chosen one through the same stage
/// ([`IncrementalTwoWorld::commit_staged`]).
#[derive(Debug, Clone)]
pub struct IncrementalTwoWorld<P> {
    model: Arc<EventModel>,
    provider: P,
    pi: Arc<Vector>,
    prior: f64,
    /// Lifted forward vector after `t` observations.
    alpha: Arc<Forward>,
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
            alpha: start.lift,
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

    /// The carried lifted forward mantissa as one logical `2m` vector (the
    /// represented vector is this times `e^{log_scale}`, but every consumer
    /// below is scale-invariant): a copy of the false half followed by the
    /// true half, or by `m` words of `+0.0` while the true half is absent.
    pub fn lifted_state(&self) -> Vector {
        let m = self.num_states();
        let mut v = Vec::with_capacity(2 * m);
        v.extend_from_slice(self.alpha.f.as_slice());
        match &self.alpha.t {
            Some(t) => v.extend_from_slice(t.as_slice()),
            None => v.resize(2 * m, 0.0),
        }
        Vector::from(v)
    }

    /// The false half (indices `0..m`) of the carried mantissa, where it
    /// lives: windows that share it return the same vector.
    pub fn false_half(&self) -> &Vector {
        &self.alpha.f
    }

    /// The true half (indices `m..2m`) of the carried mantissa, where it
    /// lives, or `None` while it is absent (`+0.0`, before the event
    /// opens).
    pub fn true_half(&self) -> Option<&Vector> {
        self.alpha.t.as_ref()
    }

    /// The halves of the forward vector that this window alone holds, for
    /// a caller that recycles them ([`StepScratch::refill`]): both stored
    /// halves once the window owns its vector, none while a clone or a
    /// [`WindowStart`] shares it.
    pub fn into_halves(self) -> impl Iterator<Item = Vector> {
        let (f, t) = self
            .try_into_halves()
            .map_or((None, None), |(f, t)| (Some(f), t));
        f.into_iter().chain(t)
    }

    /// The stored halves of the forward vector, false then true, when this
    /// window alone holds them; the window itself, unchanged, while a clone
    /// or a [`WindowStart`] shares them.
    ///
    /// # Errors
    /// The window, when its forward vector is shared.
    pub fn try_into_halves(self) -> std::result::Result<(Vector, Option<Vector>), Self> {
        match Arc::try_unwrap(self.alpha) {
            Ok(Forward { f, t, .. }) => Ok((f, t)),
            Err(alpha) => Err(IncrementalTwoWorld { alpha, ..self }),
        }
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
    /// the replay seed), and the checkpointed logical forward vector
    /// `(mantissa, log_scale)` at cursor `t`. The prior comes from `π` on
    /// the same model, so a resumed quantifier is bit-identical to one that
    /// observed the same stream live. Before the event opens an all-`+0.0`
    /// true half is dropped, as a live window holds none.
    ///
    /// # Errors
    /// [`QuantifyError::InvalidResume`] when the mantissa has the wrong
    /// length, carries negative or non-finite entries, is identically zero
    /// past the first observation, carries mass in its true half before
    /// the event opens, or the scale is non-finite.
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
        let m = state.num_states();
        if mantissa.len() != 2 * m {
            return Err(QuantifyError::InvalidResume {
                detail: format!(
                    "lifted mantissa has length {}, expected {}",
                    mantissa.len(),
                    2 * m
                ),
            });
        }
        if !priste_linalg::all_non_negative_finite(mantissa.as_slice()) {
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
        let mut f = mantissa.into_vec();
        let true_half = &f[m..];
        let start = state.model.event.start();
        let opened = t.max(1) >= start;
        if !opened && true_half.iter().any(|&x| x != 0.0) {
            return Err(QuantifyError::InvalidResume {
                detail: format!(
                    "lifted true half carries mass at cursor {t}, before the event opens at {start}"
                ),
            });
        }
        let t_half = (opened || true_half.iter().any(|x| x.to_bits() != 0))
            .then(|| Vector::from(true_half.to_vec()));
        f.truncate(m);
        f.shrink_to_fit();
        state.alpha = Arc::new(Forward {
            f: Vector::from(f),
            t: t_half,
            log_scale,
        });
        state.t = t;
        Ok(state)
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
    /// the lifted step `β = α_t·M_t` into `scratch` (`O(nnz)` per stored
    /// half; before the event opens only the false half is moved). Before
    /// the first observation `β = α_0`, which the window holds already, so
    /// staging only marks the scratch. The stage holds until this window
    /// observes. Every candidate is then read out against it
    /// ([`IncrementalTwoWorld::peek_staged`]), and the chosen one is
    /// committed through it ([`IncrementalTwoWorld::commit_staged`]), so a
    /// release steps each window once however many candidates it tries.
    pub fn stage(&self, scratch: &mut StepScratch) {
        if self.t >= 1 {
            self.engine().step_at(self.t).apply_row_scratch(
                self.alpha.f.as_slice(),
                self.alpha.t.as_ref().map(Vector::as_slice),
                scratch,
            );
        }
        scratch.staged = Some(self.stamp());
    }

    /// [`IncrementalTwoWorld::peek`] against a prior
    /// [`IncrementalTwoWorld::stage`]: one fused readout pass over the
    /// stored weighed entries (`O(m)`), which writes no vector, leaving the
    /// window and `β` untouched for the next candidate. Only a weighed
    /// vector that would need renormalizing is written, into the scratch's
    /// reused buffers.
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
        self.assert_staged(scratch);
        self.weigh(
            &scratch.stepped,
            emission_column,
            &mut scratch.weighed,
            &mut scratch.weighed_log_scale,
            false,
        )
    }

    /// Commits `emission_column` against a prior
    /// [`IncrementalTwoWorld::stage`]: the fused readout writes the weighed
    /// forward vector into the scratch as it reads it out, and a
    /// successful observation installs it: an owned half trades buffers
    /// with the scratch, and one shared with anyone else (a window start, a
    /// clone) is replaced by the scratch's, so a window that already owns
    /// its state allocates nothing. The commit that opens the event takes
    /// the scratch's weighed true half, and the scratch sizes a fresh one
    /// when it next needs it, unless [`StepScratch::refill`] gives it a
    /// spare first. The guard stages a window once per release,
    /// peeks every candidate against the stage and commits the chosen one
    /// here, so the commit pays no second lifted step. Bit-identical to
    /// [`IncrementalTwoWorld::observe`].
    ///
    /// # Errors
    /// As [`IncrementalTwoWorld::peek`]. On error the state is unchanged.
    ///
    /// # Panics
    /// Panics if `scratch` was not staged by this window at its current
    /// age.
    pub fn commit_staged(
        &mut self,
        scratch: &mut StepScratch,
        emission_column: &Vector,
    ) -> Result<StreamStep> {
        self.assert_staged(scratch);
        let step = self.weigh(
            &scratch.stepped,
            emission_column,
            &mut scratch.weighed,
            &mut scratch.weighed_log_scale,
            true,
        )?;
        let weighed = &mut scratch.weighed;
        let take = |v: &mut Vector| std::mem::replace(v, Vector::zeros(0));
        match Arc::get_mut(&mut self.alpha) {
            Some(alpha) => {
                debug_assert!(
                    weighed.opened || alpha.t.is_none(),
                    "a true half never closes"
                );
                std::mem::swap(&mut alpha.f, &mut weighed.f);
                if weighed.opened {
                    match &mut alpha.t {
                        Some(t) => std::mem::swap(t, &mut weighed.t),
                        None => alpha.t = Some(take(&mut weighed.t)),
                    }
                }
                alpha.log_scale = scratch.weighed_log_scale;
            }
            None => {
                self.alpha = Arc::new(Forward {
                    f: take(&mut weighed.f),
                    t: weighed.opened.then(|| take(&mut weighed.t)),
                    log_scale: scratch.weighed_log_scale,
                });
            }
        }
        self.t += 1;
        Ok(step)
    }

    /// Consumes one observation: one structured lifted step (`O(m²)`,
    /// `O(nnz)` on a CSR chain, per stored half) plus one fused readout
    /// pass that weighs the emission into the window's new forward vector
    /// and reads the two inner products of the module docs out of it. A
    /// window's first observation allocates the halves it keeps only.
    ///
    /// # Errors
    /// See [`IncrementalTwoWorld::peek`]. On error the state is unchanged,
    /// so a session can skip an impossible observation and continue.
    pub fn observe(&mut self, emission_column: &Vector) -> Result<StreamStep> {
        let mut scratch = StepScratch::default();
        self.stage(&mut scratch);
        self.commit_staged(&mut scratch, emission_column)
    }

    /// Rewinds to `t = 0`, keeping the shared model and the prior so a
    /// session can be replayed or re-armed without rebuilding.
    pub fn reset(&mut self) {
        let lift = initial_forward(&self.engine(), &self.pi).expect("validated at construction");
        self.alpha = Arc::new(lift);
        self.t = 0;
    }

    /// Temporary borrowing engine over the model's event and the provider
    /// (checks were done at construction; re-running them is O(1)).
    fn engine(&self) -> TwoWorldEngine<'_, &P> {
        TwoWorldEngine::new(&self.model.event, &self.provider).expect("validated at construction")
    }

    /// What a staged scratch records: this window's forward-vector
    /// address and age.
    fn stamp(&self) -> (usize, usize) {
        (Arc::as_ptr(&self.alpha) as usize, self.t)
    }

    fn assert_staged(&self, scratch: &StepScratch) {
        assert_eq!(
            scratch.staged,
            Some(self.stamp()),
            "scratch not staged by this window at its current age"
        );
    }

    /// The suffix vector the readout at timestep `t` is taken against.
    fn suffix(&self, t: usize) -> &Vector {
        &self.model.suffix[t.min(self.model.event.end()) - 1]
    }

    /// The fused readout of every observation and peek: after a
    /// branch-free validation of `e`, one left-to-right pass over the
    /// stored entries of `v = β ⊙ [e, e]` (`β` is `α_0` before the first
    /// observation, `stepped` after) accumulates `jb = Σ v·u` and
    /// `jc = Σ v` together ([`fused_sums`]). With `write`, the same pass
    /// writes `v` into `out` (each half sized once to `m`, then overwritten
    /// in place) at the window's log scale, into `out_scale`; without it,
    /// nothing is written. An absent true half of `β` adds nothing: its
    /// terms would be zeros, which leave a sum that reaches the readout as
    /// it is. Its weighed half is written only when `e` carries `-0.0`
    /// entries, whose `0 · e` keeps their sign.
    ///
    /// `β` is non-negative (a product of non-negative vectors and
    /// stochastic matrices) and so is `e`, so `jc` bounds the peak of `v`
    /// from both sides ([`ScaledVector::sum_keeps_scale`], over the logical
    /// `2m` entries): while it stays inside the window, renormalizing would
    /// change nothing and the sums are the readout's. Otherwise the vector
    /// is written, renormalized and read out again in separate passes.
    fn weigh(
        &self,
        stepped: &Halves,
        emission_column: &Vector,
        out: &mut Halves,
        out_scale: &mut f64,
        write: bool,
    ) -> Result<StreamStep> {
        let e = emission_column.as_slice();
        let m = self.num_states();
        if e.len() != m || !priste_linalg::all_non_negative_finite(e) {
            return Err(QuantifyError::InvalidEmission {
                expected: m,
                actual: e.len(),
            });
        }
        let (beta_f, beta_t) = if self.t == 0 {
            (
                self.alpha.f.as_slice(),
                self.alpha.t.as_ref().map(Vector::as_slice),
            )
        } else {
            (
                stepped.f.as_slice(),
                stepped.opened.then_some(stepped.t.as_slice()),
            )
        };
        let t = self.t + 1;
        let u = self.suffix(t).as_slice();
        *out_scale = self.alpha.log_scale;
        let (jb, jc) = fused_sums(beta_f, beta_t, e, u, write.then_some(&mut *out));
        if ScaledVector::sum_keeps_scale(jc, 2 * m) {
            return self.readout(t, jb, jc, *out_scale);
        }
        if !write {
            fused_sums(beta_f, beta_t, e, u, Some(&mut *out));
        }
        if out.opened {
            ScaledVector::renormalize_parts(
                &mut [out.f.as_mut_slice(), out.t.as_mut_slice()],
                out_scale,
            );
        } else {
            let factor = ScaledVector::renormalize_parts(&mut [out.f.as_mut_slice()], out_scale);
            if factor.is_infinite() {
                // `0 · ∞` is NaN: the zeros the absent half stands for do
                // not survive this factor, so it is stored as scaled.
                for (dst, w) in sized(&mut out.t, m).iter_mut().zip(e) {
                    *dst = 0.0 * w * factor;
                }
                out.opened = true;
            }
        }
        let zero: f64 = std::iter::empty::<f64>().sum();
        let (u_f, u_t) = u.split_at(m);
        let sums = dot_and_sum(out.f.as_slice(), u_f, (zero, zero));
        let (jb, jc) = if out.opened {
            dot_and_sum(out.t.as_slice(), u_t, sums)
        } else {
            sums
        };
        self.readout(t, jb, jc, *out_scale)
    }
    /// The Lemma III.2/III.3 readout at timestep `t` from a forward
    /// vector's `jb = α·u_t` and `jc = α·1` at natural-log scale
    /// `log_scale`.
    fn readout(&self, t: usize, jb: f64, jc: f64, log_scale: f64) -> Result<StreamStep> {
        if jc <= 0.0 {
            return Err(QuantifyError::ZeroLikelihood { t });
        }
        let log_joint_event = if jb > 0.0 {
            jb.ln() + log_scale
        } else {
            f64::NEG_INFINITY
        };
        let log_joint_total = jc.ln() + log_scale;
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

/// Bit pattern of `-0.0`.
const NEG_ZERO: u64 = (-0.0f64).to_bits();

/// `Σ v·u` and `Σ v` over the stored entries of `v = β ⊙ [e, e]` in one
/// left-to-right pass, writing each `v` into `out` when it is given (`β`'s
/// halves and `e` are `m` long, `u` is `2m`). Both sums run in index order
/// from `Iterator::sum`'s own initial value, so over a stored true half
/// they have the bits of `Vector::dot` and `Vector::sum` over the written
/// `2m` vector. An absent true half (`None`) is skipped: its terms are
/// zeros, which can change only the sign of a zero sum, and a zero `jc`
/// (or a zero `jb` beside a positive `jc`, which needs a positive false
/// term) reads out the same whatever its sign. Its weighed half `0 · e`
/// is written only when `e` has a `-0.0` entry; otherwise it stays absent.
fn fused_sums(
    beta_f: &[f64],
    beta_t: Option<&[f64]>,
    e: &[f64],
    u: &[f64],
    out: Option<&mut Halves>,
) -> (f64, f64) {
    let m = e.len();
    let (u_f, u_t) = u.split_at(m);
    let zero: f64 = std::iter::empty::<f64>().sum();
    let Some(out) = out else {
        let sums = fused_half(beta_f, e, u_f, None, (zero, zero));
        return match beta_t {
            Some(beta_t) => fused_half(beta_t, e, u_t, None, sums),
            None => sums,
        };
    };
    let sums = fused_half(beta_f, e, u_f, Some(sized(&mut out.f, m)), (zero, zero));
    match beta_t {
        Some(beta_t) => {
            out.opened = true;
            fused_half(beta_t, e, u_t, Some(sized(&mut out.t, m)), sums)
        }
        None => {
            out.opened = e.iter().any(|x| x.to_bits() == NEG_ZERO);
            if out.opened {
                for (dst, w) in sized(&mut out.t, m).iter_mut().zip(e) {
                    *dst = 0.0 * w;
                }
            }
            sums
        }
    }
}

/// One half of [`fused_sums`], continuing the sums `(jb, jc)`. The
/// accumulators are locals of one plain loop, which keeps them in
/// registers.
fn fused_half(
    beta: &[f64],
    e: &[f64],
    u: &[f64],
    out: Option<&mut [f64]>,
    (mut jb, mut jc): (f64, f64),
) -> (f64, f64) {
    match out {
        Some(out) => {
            for (((dst, b), w), ui) in out.iter_mut().zip(beta).zip(e).zip(u) {
                let v = b * w;
                *dst = v;
                jb += v * ui;
                jc += v;
            }
        }
        None => {
            for ((b, w), ui) in beta.iter().zip(e).zip(u) {
                let v = b * w;
                jb += v * ui;
                jc += v;
            }
        }
    }
    (jb, jc)
}

/// `Σ v·u` and `Σ v` over one written half, continuing `(jb, jc)`.
fn dot_and_sum(v: &[f64], u: &[f64], (mut jb, mut jc): (f64, f64)) -> (f64, f64) {
    for (x, ui) in v.iter().zip(u) {
        jb += x * ui;
        jc += x;
    }
    (jb, jc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifted::LiftedStep;
    use crate::TheoremBuilder;
    use priste_event::Presence;
    use priste_geo::{CellId, Region};
    use priste_markov::{Homogeneous, MarkovModel};
    use proptest::prelude::*;

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

    #[test]
    #[should_panic(expected = "not staged")]
    fn a_stage_serves_one_commit_only() {
        let mut inc =
            IncrementalTwoWorld::new(presence_event(), chain(), Vector::uniform(3)).unwrap();
        let col = Vector::from(vec![0.6, 0.3, 0.1]);
        let mut scratch = StepScratch::default();
        inc.stage(&mut scratch);
        inc.commit_staged(&mut scratch, &col).unwrap();
        inc.stage(&mut scratch);
        inc.commit_staged(&mut scratch, &col).unwrap();
        let _ = inc.commit_staged(&mut scratch, &col);
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// One observation of `window` staged and committed through a scratch
    /// the caller keeps across observations.
    fn observe_scratch(
        window: &mut IncrementalTwoWorld<Homogeneous>,
        scratch: &mut StepScratch,
        col: &Vector,
    ) -> Result<StreamStep> {
        window.stage(scratch);
        window.commit_staged(scratch, col)
    }

    #[test]
    fn scratch_step_path_equals_self_stepped_path() {
        let pi = Vector::from(vec![0.2, 0.4, 0.4]);
        let mut plain = IncrementalTwoWorld::new(presence_event(), chain(), pi.clone()).unwrap();
        let mut staged = plain.clone();
        let mut scratch = StepScratch::default();
        let cols = [
            Vector::from(vec![0.5, 0.3, 0.2]),
            Vector::from(vec![0.2, 0.2, 0.6]),
            Vector::from(vec![0.9, 0.05, 0.05]),
        ];
        for col in &cols {
            let a = plain.observe(col).unwrap();
            let b = observe_scratch(&mut staged, &mut scratch, col).unwrap();
            assert_eq!(a, b);
            assert_eq!(bits(&plain.lifted_state()), bits(&staged.lifted_state()));
            assert_eq!(plain.log_scale().to_bits(), staged.log_scale().to_bits());
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
        let before = (bits(&window.lifted_state()), window.log_scale().to_bits());
        let at = halves_at(&window);
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
            (bits(&window.lifted_state()), window.log_scale().to_bits()),
            before
        );
        let next = Vector::from(vec![0.3, 0.3, 0.4]);
        assert_eq!(
            observe_scratch(&mut window, &mut scratch, &next).unwrap(),
            oracle.observe(&next).unwrap()
        );
        assert_eq!(bits(&window.lifted_state()), bits(&oracle.lifted_state()));
        assert_eq!(window.log_scale().to_bits(), oracle.log_scale().to_bits());
        assert_eq!(halves_at(&window), at, "owned: updated in place");
    }

    /// Where a window's halves live.
    fn halves_at<P: TransitionProvider>(
        w: &IncrementalTwoWorld<P>,
    ) -> (*const Vector, Option<*const Vector>) {
        (
            w.false_half() as *const Vector,
            w.true_half().map(|t| t as *const Vector),
        )
    }

    /// A scratch row as its logical `2m` vector's bits: an absent true half
    /// reads as `+0.0`.
    fn logical(h: &Halves) -> Vec<f64> {
        let mut v = h.f.as_slice().to_vec();
        match h.opened {
            true => v.extend_from_slice(h.t.as_slice()),
            false => v.resize(2 * h.f.len(), 0.0),
        }
        v
    }

    /// Today's readout before the fusion, kept as the oracle of the fused
    /// one: validate the column, write `β ⊙ [e, e]`, renormalize, then take
    /// the two inner products in separate passes.
    fn legacy_weigh<P: TransitionProvider>(
        w: &IncrementalTwoWorld<P>,
        stepped: &[f64],
        emission_column: &Vector,
        out: &mut ScaledVector,
    ) -> Result<StreamStep> {
        let m = w.num_states();
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
        let own = w.lifted_state();
        let beta = if w.t == 0 { own.as_slice() } else { stepped };
        let e = emission_column.as_slice();
        let (beta_f, beta_t) = beta.split_at(e.len());
        let weighed = beta_f.iter().zip(e).chain(beta_t.iter().zip(e));
        out.vector = Vector::from(weighed.map(|(b, x)| b * x).collect::<Vec<_>>());
        out.log_scale = w.alpha.log_scale;
        out.renormalize();
        let t = w.t + 1;
        let u = &w.model.suffix[t.min(w.model.event.end()) - 1];
        let jb = out.vector.dot(u).expect("lifted lengths match");
        let jc = out.vector.sum();
        if jc <= 0.0 {
            return Err(QuantifyError::ZeroLikelihood { t });
        }
        let log_joint_event = if jb > 0.0 {
            jb.ln() + out.log_scale
        } else {
            f64::NEG_INFINITY
        };
        let log_joint_total = jc.ln() + out.log_scale;
        let posterior = (jb / jc).clamp(0.0, 1.0);
        let prior_odds = w.prior / (1.0 - w.prior);
        let posterior_odds = if posterior >= 1.0 {
            f64::INFINITY
        } else {
            posterior / (1.0 - posterior)
        };
        let j_not = jc - jb;
        let privacy_loss = if jb <= 0.0 || j_not <= 0.0 {
            f64::INFINITY
        } else {
            ((jb / w.prior).ln() - (j_not / (1.0 - w.prior)).ln()).abs()
        };
        Ok(StreamStep {
            t,
            prior: w.prior,
            log_joint_event,
            log_joint_total,
            posterior,
            odds_lift: posterior_odds / prior_odds,
            privacy_loss,
        })
    }

    fn result_bits(r: &Result<StreamStep>) -> std::result::Result<(usize, [u64; 6]), String> {
        r.as_ref()
            .map(|s| {
                let fields = [
                    s.prior,
                    s.log_joint_event,
                    s.log_joint_total,
                    s.posterior,
                    s.odds_lift,
                    s.privacy_loss,
                ];
                (s.t, fields.map(f64::to_bits))
            })
            .map_err(|e| format!("{e:?}"))
    }

    /// One adversarial non-negative entry at decimal exponents in `exps`:
    /// zeros, subnormals and magnitudes from `1e-300` to `1e300`.
    fn adversarial(rng: &mut rand::rngs::StdRng, exps: std::ops::Range<i32>) -> f64 {
        use rand::Rng;
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            _ => rng.gen_range(1.0..10.0) * 10f64.powi(rng.gen_range(exps)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused one-pass readout equals the old weigh → renormalize →
        /// report, bit for bit, on the report and on the written vector:
        /// `β` at every scale (so renormalization fires upward, downward
        /// and not at all), zero halves and subnormals, zero products
        /// (`ZeroLikelihood`), and negative, NaN, ±∞ and mis-sized columns
        /// (`InvalidEmission`). A failed commit leaves the window as it
        /// was. `β` is a start's own lift at `t = 0` (an event that opens
        /// at `t = 1` when its true half carries mass) and a stepped row
        /// later, with an all-zero true half stored or absent.
        #[test]
        fn fused_readout_equals_weigh_renormalize_report_bit_for_bit(
            m in 2usize..=64,
            t in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let chain = Homogeneous::new(
                MarkovModel::new(
                    priste_linalg::Matrix::from_rows(&vec![vec![1.0 / m as f64; m]; m]).unwrap(),
                )
                .unwrap(),
            );
            let region = Region::from_cells(m, [CellId(0)]).unwrap();
            let windows = [1, 2].map(|opens| {
                let event: StEvent = Presence::new(region.clone(), opens, 3).unwrap().into();
                let model = Arc::new(EventModel::new(event, &chain).unwrap());
                let start = WindowStart::new(&model, &chain, Arc::new(Vector::uniform(m))).unwrap();
                (model, start)
            });
            for exps in [-300..-150, -100..100, 150..300, -300..300] {
                let mut beta: Vec<f64> =
                    (0..2 * m).map(|_| adversarial(&mut rng, exps.clone())).collect();
                match rng.gen_range(0..4) {
                    0 => beta[..m].fill(0.0),
                    1 => beta[m..].fill(0.0),
                    _ => {}
                }
                let mut column: Vec<f64> =
                    (0..m).map(|_| adversarial(&mut rng, exps.clone())).collect();
                if rng.gen_bool(0.2) {
                    column[rng.gen_range(0..m)] = -0.0;
                }
                if rng.gen_bool(0.3) {
                    let bad = [-1.0, -1e-300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    column[rng.gen_range(0..m)] = bad[rng.gen_range(0..bad.len())];
                }
                if rng.gen_bool(0.05) {
                    column.pop();
                }
                let column = Vector::from(column);
                // Before the first observation β is the window's own vector;
                // later the window is one the event (opening at t = 2) has
                // opened for from t = 2 on.
                let true_mass = beta[m..].iter().any(|x| *x != 0.0);
                let (model, start) = &windows[usize::from(t > 0 || !true_mass)];
                let mut mantissa = if t == 0 { beta.clone() } else { vec![1.0 / (2 * m) as f64; 2 * m] };
                if t == 1 {
                    mantissa[m..].fill(0.0);
                }
                let log_scale = rng.gen_range(-50.0..50.0);
                let mut window = IncrementalTwoWorld::resume(
                    Arc::clone(model), &chain, start.clone(), Vector::from(mantissa), log_scale, t,
                )
                .unwrap();
                let stepped = Halves {
                    f: Vector::from(beta[..m].to_vec()),
                    t: Vector::from(beta[m..].to_vec()),
                    opened: true_mass || rng.gen_bool(0.5),
                };
                let mut old = ScaledVector::new(Vector::zeros(0));
                let want = legacy_weigh(&window, &beta, &column, &mut old);
                for write in [false, true] {
                    let junk = Vector::from(vec![7.0; 3]);
                    let mut out = Halves { f: junk.clone(), t: junk, opened: true };
                    let mut out_scale = 7.0;
                    let got = window.weigh(&stepped, &column, &mut out, &mut out_scale, write);
                    prop_assert_eq!(result_bits(&got), result_bits(&want), "write {}", write);
                    if write && got.is_ok() {
                        prop_assert_eq!(bits(&Vector::from(logical(&out))), bits(&old.vector));
                        prop_assert_eq!(out_scale.to_bits(), old.log_scale.to_bits());
                    }
                }
                if matches!(want, Err(QuantifyError::InvalidEmission { .. })) {
                    prop_assert!(
                        column.len() != m
                            || column.as_slice().iter().any(|x| !(*x >= 0.0 && x.is_finite()))
                    );
                }
                // Through the public commit: the staged β of this window.
                let mut scratch = StepScratch::default();
                window.stage(&mut scratch);
                let mut old = ScaledVector::new(Vector::zeros(0));
                let want = legacy_weigh(&window, &logical(&scratch.stepped), &column, &mut old);
                let before = (bits(&window.lifted_state()), window.log_scale().to_bits());
                let got = window.commit_staged(&mut scratch, &column);
                prop_assert_eq!(result_bits(&got), result_bits(&want));
                match got {
                    Ok(_) => {
                        prop_assert_eq!(window.observed(), t + 1);
                        prop_assert_eq!(bits(&window.lifted_state()), bits(&old.vector));
                        prop_assert_eq!(window.log_scale().to_bits(), old.log_scale.to_bits());
                    }
                    Err(_) => {
                        prop_assert_eq!(window.observed(), t);
                        prop_assert_eq!(
                            (bits(&window.lifted_state()), window.log_scale().to_bits()),
                            before
                        );
                    }
                }
            }
        }
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

    #[test]
    fn resume_keeps_a_true_half_only_once_the_event_can_have_opened() {
        // The event opens at t = 2: before it, no encoder writes mass into
        // the true half.
        let model = Arc::new(EventModel::new(presence_event(), &chain()).unwrap());
        let start = WindowStart::new(&model, &chain(), Arc::new(Vector::uniform(3))).unwrap();
        let resume = |mantissa: Vec<f64>, t: usize| {
            IncrementalTwoWorld::resume(
                Arc::clone(&model),
                chain(),
                start.clone(),
                Vector::from(mantissa),
                0.0,
                t,
            )
        };
        for t in [0, 1] {
            let err = resume(vec![0.2, 0.3, 0.4, 0.0, 0.1, 0.0], t).unwrap_err();
            assert!(
                matches!(err, QuantifyError::InvalidResume { .. }),
                "t = {t}"
            );
            // An all-`+0.0` true half is dropped; signed zeros are kept, bits
            // and all.
            let zero = resume(vec![0.2, 0.3, 0.4, 0.0, 0.0, 0.0], t).unwrap();
            assert!(zero.true_half().is_none());
            let signed = resume(vec![0.2, 0.3, 0.4, 0.0, -0.0, 0.0], t).unwrap();
            assert_eq!(
                bits(signed.true_half().unwrap()),
                bits(&Vector::from(vec![0.0, -0.0, 0.0]))
            );
        }
        // From t = 2 on the true half is stored, zeros included.
        let opened = resume(vec![0.2, 0.3, 0.4, 0.0, 0.0, 0.0], 2).unwrap();
        assert_eq!(opened.true_half(), Some(&Vector::zeros(3)));
        assert!(resume(vec![0.2, 0.3, 0.4, 0.0, 0.1, 0.0], 2).is_ok());
    }

    /// The single-buffer window, kept as the oracle of the split one: the
    /// lifted forward vector in one `2m` buffer, stepped
    /// by moving both halves through `M` into two buffers and recombining
    /// them into a third, and weighed by the one-pass fused readout over
    /// all `2m` entries, renormalizing the whole vector when `jc` leaves
    /// the window.
    struct Whole {
        alpha: ScaledVector,
        t: usize,
    }

    impl Whole {
        /// `β = α_t·M_t` (`α_0` before the first observation).
        fn stage<P: TransitionProvider>(&self, w: &IncrementalTwoWorld<P>) -> Vec<f64> {
            let x = self.alpha.vector.as_slice();
            if self.t == 0 {
                return x.to_vec();
            }
            let n = w.num_states();
            let engine = w.engine();
            let step = engine.step_at(self.t);
            let mat = w.provider.transition_at(self.t);
            let (mut uf, mut ut) = (vec![0.0; n], vec![0.0; n]);
            mat.vecmat_into(&x[..n], &mut uf);
            mat.vecmat_into(&x[n..], &mut ut);
            let mut out = vec![0.0; 2 * n];
            let (out_f, out_t) = out.split_at_mut(n);
            match step {
                LiftedStep::BlockDiagonal { .. } => {
                    out_f.copy_from_slice(&uf);
                    out_t.copy_from_slice(&ut);
                }
                LiftedStep::Capture { region, .. } => {
                    let (s, not_s) = region.masks();
                    for i in 0..n {
                        out_f[i] = uf[i] * not_s[i];
                        out_t[i] = uf[i] * s[i] + ut[i];
                    }
                }
                LiftedStep::Hold { region, .. } => {
                    let (s, not_s) = region.masks();
                    for i in 0..n {
                        out_f[i] = uf[i] + ut[i] * not_s[i];
                        out_t[i] = ut[i] * s[i];
                    }
                }
            }
            out
        }

        /// The readout of `e` against `beta`, and the weighed vector it
        /// would install.
        fn weigh<P: TransitionProvider>(
            &self,
            w: &IncrementalTwoWorld<P>,
            beta: &[f64],
            emission_column: &Vector,
        ) -> (Result<StreamStep>, ScaledVector) {
            let e = emission_column.as_slice();
            let m = w.num_states();
            let mut out = ScaledVector::new(Vector::zeros(2 * m));
            if e.len() != m || !priste_linalg::all_non_negative_finite(e) {
                let err = QuantifyError::InvalidEmission {
                    expected: m,
                    actual: e.len(),
                };
                return (Err(err), out);
            }
            let t = self.t + 1;
            let u = w.model.suffix[t.min(w.model.event.end()) - 1].as_slice();
            out.log_scale = self.alpha.log_scale;
            let zero: f64 = std::iter::empty::<f64>().sum();
            let (mut jb, mut jc) = (zero, zero);
            let dst = out.vector.as_mut_slice();
            for (dst, (beta, u)) in dst
                .chunks_exact_mut(m)
                .zip(beta.chunks_exact(m).zip(u.chunks_exact(m)))
            {
                for (((dst, b), x), ui) in dst.iter_mut().zip(beta).zip(e).zip(u) {
                    let v = b * x;
                    *dst = v;
                    jb += v * ui;
                    jc += v;
                }
            }
            if !(2.0 * (2 * m) as f64 * 1e-100..=1e100).contains(&jc) {
                let peak = out.vector.max_abs();
                if peak != 0.0 && peak.is_finite() && !(1e-100..=1e100).contains(&peak) {
                    let shift = peak.ln();
                    out.vector.scale_mut((-shift).exp());
                    out.log_scale += shift;
                }
                jb = out.vector.dot(&Vector::from(u.to_vec())).unwrap();
                jc = out.vector.sum();
            }
            (w.readout(t, jb, jc, out.log_scale), out)
        }
    }

    /// A column of `m` entries at decimal exponents in `exps`, with
    /// occasional exact zeros, `-0.0`s and subnormals; now and then all
    /// zero (an impossible observation) or invalid.
    fn band_column(rng: &mut rand::rngs::StdRng, m: usize, exps: std::ops::Range<i32>) -> Vector {
        use rand::Rng;
        let mut column: Vec<f64> = (0..m).map(|_| adversarial(rng, exps.clone())).collect();
        if rng.gen_bool(0.2) {
            column[rng.gen_range(0..m)] = -0.0;
        }
        match rng.gen_range(0..20) {
            0 => column.fill(0.0),
            1 => column[0] = f64::NAN,
            _ => {}
        }
        Vector::from(column)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A window that stores its true half only once its event opens is
        /// the single-buffer `2m` window, bit for bit, on PRESENCE and
        /// PATTERN events that start at `t = 1, 2, 3, 4`, on dense and CSR
        /// chains: every
        /// report of `stage` + `peek_staged`, `peek`, `commit_staged` and
        /// `observe`, the logical forward vector and its log scale after
        /// every commit, and a `resume` of that vector at any age. Columns
        /// come from exponent bands where renormalization never fires,
        /// fires downward, fires upward, and overflows its factor on a
        /// subnormal peak. The true half is stored from the event's opening
        /// on, and before it only once the whole vector's true half has held
        /// other bits than `+0.0` (signed zeros from a `-0.0` entry, or NaN)
        /// since the window was built or resumed.
        #[test]
        fn split_halves_equal_the_whole_2m_window_bit_for_bit(
            m in 2usize..=6,
            start in 1usize..=4,
            len in 1usize..=3,
            presence in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..m).map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.01..1.0) }).collect())
                .collect();
            let mut mat = priste_linalg::Matrix::from_rows(&rows).unwrap();
            mat.normalize_rows_mut();
            let region = |rng: &mut rand::rngs::StdRng| {
                let k = rng.gen_range(1..m);
                Region::from_cells(m, (0..k).map(|i| CellId((i * 7 + rng.gen_range(0..m)) % m))).unwrap()
            };
            let event: StEvent = if presence {
                Presence::new(region(&mut rng), start, start + len - 1).unwrap().into()
            } else {
                let regions = (0..len).map(|_| region(&mut rng)).collect();
                priste_event::Pattern::new(regions, start).unwrap().into()
            };
            let mut pi: Vec<f64> = (0..m).map(|_| rng.gen_range(0.01..1.0)).collect();
            let total: f64 = pi.iter().sum();
            pi.iter_mut().for_each(|p| *p /= total);
            let pi = Vector::from(pi);
            let bands = [-1..1, -90..-40, 40..90, -320..-300];
            // One scratch serves both runs, as a service's serves many
            // windows: the second run stages into buffers the first wrote.
            let mut scratch = StepScratch::default();
            for sparse in [false, true] {
                let chain = Homogeneous::new(if sparse {
                    MarkovModel::new_sparse(priste_linalg::SparseMatrix::from_dense(&mat, 0.0)).unwrap()
                } else {
                    MarkovModel::from_transition_matrix(priste_markov::TransitionMatrix::Dense(mat.clone())).unwrap()
                });
                let model = Arc::new(EventModel::new(event.clone(), &chain).unwrap());
                let start_state = match WindowStart::new(&model, &chain, Arc::new(pi.clone())) {
                    Ok(s) => s,
                    Err(QuantifyError::DegeneratePrior { .. }) => continue,
                    Err(e) => panic!("unexpected construction error: {e}"),
                };
                let mut window = IncrementalTwoWorld::from_start(Arc::clone(&model), &chain, start_state.clone());
                let engine = TwoWorldEngine::new(&event, &chain).unwrap();
                let mut whole = Whole {
                    alpha: ScaledVector::new(engine.initial_lift(&pi).unwrap()),
                    t: 0,
                };
                let band = bands[rng.gen_range(0..bands.len())].clone();
                // Whether the true half held other bits than `+0.0` at some
                // point since the window was built or resumed.
                let mut signed = false;
                for _ in 0..event.end() + 3 {
                    if rng.gen_bool(0.3) {
                        let state = window.lifted_state();
                        let resumable = priste_linalg::all_non_negative_finite(state.as_slice())
                            && (window.observed() == 0 || state.sum() > 0.0);
                        match IncrementalTwoWorld::resume(
                            Arc::clone(&model),
                            &chain,
                            start_state.clone(),
                            state,
                            window.log_scale(),
                            window.observed(),
                        ) {
                            Ok(resumed) => {
                                window = resumed;
                                signed = window.true_half().is_some();
                            }
                            Err(e) => prop_assert!(!resumable, "{}", e),
                        }
                    }
                    let beta = whole.stage(&window);
                    let columns: Vec<Vector> =
                        (0..rng.gen_range(1..4)).map(|_| band_column(&mut rng, m, band.clone())).collect();
                    let via_stage = rng.gen_bool(0.5);
                    if via_stage {
                        window.stage(&mut scratch);
                    }
                    for column in &columns {
                        let (want, _) = whole.weigh(&window, &beta, column);
                        prop_assert_eq!(result_bits(&window.peek(column)), result_bits(&want));
                        if via_stage {
                            let got = window.peek_staged(&mut scratch, column);
                            prop_assert_eq!(result_bits(&got), result_bits(&want));
                        }
                    }
                    let column = columns.last().unwrap();
                    let (want, weighed) = whole.weigh(&window, &beta, column);
                    let got = if via_stage {
                        window.commit_staged(&mut scratch, column)
                    } else {
                        window.observe(column)
                    };
                    prop_assert_eq!(result_bits(&got), result_bits(&want));
                    if want.is_ok() {
                        whole = Whole { alpha: weighed, t: whole.t + 1 };
                    }
                    prop_assert_eq!(window.observed(), whole.t);
                    prop_assert_eq!(bits(&window.lifted_state()), bits(&whole.alpha.vector));
                    prop_assert_eq!(window.log_scale().to_bits(), whole.alpha.log_scale.to_bits());
                    signed |= whole.alpha.vector.as_slice()[m..].iter().any(|x| x.to_bits() != 0);
                    if window.observed().max(1) >= start {
                        prop_assert!(window.true_half().is_some());
                    } else {
                        prop_assert_eq!(window.true_half().is_some(), signed);
                    }
                }
            }
        }
    }
}
