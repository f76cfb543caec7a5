//! Per-user streaming state: the filtered location posterior, the active
//! event windows with their incremental two-world quantifiers, and the
//! budget ledger.

use priste_linalg::Vector;
use priste_markov::TransitionProvider;
use priste_quantify::{EventModel, IncrementalTwoWorld, StreamStep, WindowStart};
use std::fmt;
use std::sync::Arc;

/// Opaque user identifier (sharded by value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Conservative per-user privacy accounting. ε-ST-event privacy is not
/// additive across timestamps in general, so the ledger charges the
/// *sequential-composition upper bound*: each observation's worst realized
/// loss across the user's windows is added to `spent`. Once `spent`
/// reaches `budget` the session is flagged exhausted (the service keeps
/// quantifying — the flag is advice for the release mechanism upstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetLedger {
    budget: f64,
    spent: f64,
    observations: usize,
    violations: usize,
}

impl BudgetLedger {
    /// Fresh ledger with the given total budget.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`](crate::OnlineError::InvalidConfig)
    /// unless `budget` is positive and finite — a NaN budget would make
    /// [`BudgetLedger::exhausted`] permanently `false`, silently disabling
    /// accounting, so it is rejected at construction.
    pub fn new(budget: f64) -> crate::Result<Self> {
        if !(budget > 0.0 && budget.is_finite()) {
            return Err(crate::OnlineError::InvalidConfig {
                message: format!("ledger budget must be positive and finite, got {budget}"),
            });
        }
        Ok(BudgetLedger {
            budget,
            spent: 0.0,
            observations: 0,
            violations: 0,
        })
    }

    /// Rebuilds a ledger from persisted state (the durable snapshot/WAL
    /// path). `spent` may be `+∞` — a ledger conservatively exhausted by a
    /// torn write stays exhausted across restarts — but NaN and negative
    /// values are rejected like at [`BudgetLedger::new`].
    pub(crate) fn from_parts(
        budget: f64,
        spent: f64,
        observations: usize,
        violations: usize,
    ) -> crate::Result<Self> {
        let mut ledger = BudgetLedger::new(budget)?;
        if spent.is_nan() || spent < 0.0 {
            return Err(crate::OnlineError::InvalidConfig {
                message: format!("persisted ledger spend must be non-negative, got {spent}"),
            });
        }
        ledger.spent = spent;
        ledger.observations = observations;
        ledger.violations = violations;
        Ok(ledger)
    }

    /// Conservative rounding for unrecoverable accounting: after a torn
    /// final WAL record the true spend of the affected user is unknowable,
    /// and the only value that can never under-count is `+∞`.
    pub(crate) fn force_exhaust(&mut self) {
        self.spent = f64::INFINITY;
    }

    /// Total budget configured for the user.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Loss charged so far (sequential-composition bound).
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget remaining (never below zero).
    pub fn remaining(&self) -> f64 {
        (self.budget - self.spent).max(0.0)
    }

    /// Observations accounted.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Observations whose per-step loss exceeded the service ε.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// Whether the budget is used up: exhaustion triggers as soon as
    /// [`BudgetLedger::remaining`] hits zero (`spent >= budget`), so a
    /// session with exactly nothing left cannot attempt another release.
    pub fn exhausted(&self) -> bool {
        self.spent >= self.budget
    }

    /// Records one observation's worst loss; `violation` marks a per-step
    /// ε breach. Infinite losses exhaust the ledger immediately.
    pub(crate) fn charge(&mut self, loss: f64, violation: bool) {
        self.observations += 1;
        if violation {
            self.violations += 1;
        }
        if loss.is_finite() {
            self.spent += loss;
        } else {
            self.spent = f64::INFINITY;
        }
    }
}

/// Per-window verdict for one observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Realized loss stayed within the service ε.
    Certified,
    /// Realized loss exceeded the service ε (including the infinite-loss
    /// case where the stream proves the event true or false outright).
    Violated,
    /// The observation had zero likelihood under the window's model — a
    /// model mismatch, not a privacy condition; the window is evicted.
    ModelMismatch,
}

/// One window's quantification of one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Registered template index the window was spawned from.
    pub template: usize,
    /// Window-local timestep of this observation (1-based; windows run on
    /// their own clock starting at attach time).
    pub window_t: usize,
    /// Realized two-sided privacy loss (`+∞` on degenerate evidence).
    pub loss: f64,
    /// Adversary posterior `Pr(EVENT | observations since attach)`.
    pub posterior: f64,
    /// The ε verdict.
    pub verdict: Verdict,
}

/// Per-user outcome of one ingested observation.
#[derive(Debug, Clone, PartialEq)]
pub struct UserReport {
    /// The user.
    pub user: UserId,
    /// User-local timestep after this observation (1-based).
    pub t: usize,
    /// Worst loss across this user's *quantified* windows at this step (0
    /// with none). Model-mismatched windows are excluded: their eviction is
    /// a modelling failure, not a realized privacy loss, so they must not
    /// poison the ledger or the reported loss.
    pub worst_loss: f64,
    /// One report per active window, in attach order.
    pub windows: Vec<WindowReport>,
    /// Windows evicted after this observation (expired or mismatched).
    pub evicted: usize,
    /// Ledger budget remaining after charging this observation.
    pub budget_remaining: f64,
    /// Whether the ledger is exhausted.
    pub exhausted: bool,
}

/// An active protected-event window: one incremental quantifier running on
/// the window's local clock.
#[derive(Debug, Clone)]
pub(crate) struct EventWindow<P> {
    pub(crate) template: usize,
    pub(crate) state: IncrementalTwoWorld<P>,
}

impl<P: TransitionProvider> EventWindow<P> {
    /// A window expires `linger` steps past its event end: after the end
    /// the lifted steps are block-diagonal and the posterior only sharpens
    /// on residual correlation, so the service keeps it briefly (Lemma
    /// III.3 coverage) and then retires it.
    pub(crate) fn expired(&self, linger: usize) -> bool {
        self.state.observed() >= self.state.event().end() + linger
    }
}

/// Per-user session state. Owned by the
/// [`SessionManager`](crate::SessionManager), which hands out copies
/// ([`SessionManager::session`](crate::SessionManager::session)) for
/// reporting and tests.
///
/// The posterior sits behind an `Arc` that is written through only while
/// the session is its sole holder: a fresh session shares its prior with
/// every user registered with the same bits (and the service's prior table
/// keeps a weak handle on it), windows attached before the first
/// observation share it too, and the first observation installs the
/// session's own vector. Later observations overwrite that vector in
/// place — until a window attached in between shares it as its `π`, or the
/// session is cloned, after which the next observation again installs a
/// fresh one. A shared vector is never written.
#[derive(Debug, Clone)]
pub struct Session<P> {
    id: UserId,
    /// Filtered location posterior `Pr(u_t | o_1..o_t)` under the service's
    /// mobility model; the π handed to windows attached at time `t`.
    posterior: Arc<Vector>,
    pub(crate) windows: Vec<EventWindow<P>>,
    ledger: BudgetLedger,
    t: usize,
}

impl<P: TransitionProvider> Session<P> {
    pub(crate) fn new(id: UserId, pi: Arc<Vector>, budget: f64) -> Self {
        Session {
            id,
            posterior: pi,
            windows: Vec::new(),
            ledger: BudgetLedger::new(budget).expect("budget validated by OnlineConfig"),
            t: 0,
        }
    }

    /// Rebuilds a session from persisted state (durable recovery).
    pub(crate) fn from_parts(
        id: UserId,
        posterior: Arc<Vector>,
        windows: Vec<EventWindow<P>>,
        ledger: BudgetLedger,
        t: usize,
    ) -> Self {
        Session {
            id,
            posterior,
            windows,
            ledger,
            t,
        }
    }

    /// Mutable ledger access for the recovery path's conservative rounding.
    pub(crate) fn ledger_mut(&mut self) -> &mut BudgetLedger {
        &mut self.ledger
    }

    /// The user id.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// Observations consumed so far (user-local clock).
    pub fn observed(&self) -> usize {
        self.t
    }

    /// The current filtered location posterior.
    pub fn posterior(&self) -> &Vector {
        &self.posterior
    }

    /// The posterior's shared allocation (the π of the next attach).
    pub(crate) fn shared_posterior(&self) -> &Arc<Vector> {
        &self.posterior
    }

    /// The privacy-budget ledger, by value: it is four words.
    pub fn ledger(&self) -> BudgetLedger {
        self.ledger
    }

    /// Number of active event windows.
    pub fn active_windows(&self) -> usize {
        self.windows.len()
    }

    /// The active windows in attach order: each one's template index and
    /// quantifier.
    pub fn windows(&self) -> impl Iterator<Item = (usize, &IncrementalTwoWorld<P>)> {
        self.windows.iter().map(|w| (w.template, &w.state))
    }

    /// Attaches a new event window over the template's shared model from
    /// `start`, which the caller built (or took from a cache) on the
    /// *current* posterior — the sliding-window flavor of the journal
    /// extension: protection starts from the service's present belief about
    /// the user.
    pub(crate) fn attach(
        &mut self,
        template: usize,
        model: Arc<EventModel>,
        provider: P,
        start: WindowStart,
    ) {
        debug_assert!(Arc::ptr_eq(start.pi(), &self.posterior));
        let state = IncrementalTwoWorld::from_start(model, provider, start);
        self.windows.push(EventWindow { template, state });
    }

    /// Folds one observation into the filtered posterior. The transition
    /// propagation (`posterior · M`) is done by the caller so it can be
    /// batched across sessions; this applies the emission weighting and
    /// normalizes — in place when the session owns its posterior, into a
    /// fresh vector when anyone else holds it. A vanished posterior
    /// (observation impossible under the model) resets to uniform and
    /// reports `false`.
    pub(crate) fn weigh_posterior(&mut self, propagated: &[f64], emission: &Vector) -> bool {
        let weighed = propagated
            .iter()
            .zip(emission.as_slice())
            .map(|(a, b)| a * b);
        match Arc::get_mut(&mut self.posterior) {
            Some(owned) => {
                for (dst, x) in owned.as_mut_slice().iter_mut().zip(weighed) {
                    *dst = x;
                }
            }
            None => self.posterior = Arc::new(weighed.collect()),
        }
        let p = Arc::get_mut(&mut self.posterior).expect("owned or just installed");
        if p.normalize_mut().is_err() {
            let n = p.len();
            p.as_mut_slice().fill(1.0 / n as f64);
            return false;
        }
        true
    }

    /// Finishes one observation: charges the ledger with the step's worst
    /// window loss, advances the local clock, and evicts expired windows.
    pub(crate) fn finish_observation(
        &mut self,
        mut reports: Vec<WindowReport>,
        linger: usize,
    ) -> UserReport {
        // Mismatched windows carry loss = ∞ as a sentinel; only quantified
        // verdicts represent realized loss and may touch the ledger.
        let quantified = reports
            .iter()
            .filter(|r| r.verdict != Verdict::ModelMismatch);
        let worst_loss = quantified.clone().map(|r| r.loss).fold(0.0f64, f64::max);
        let violation = reports.iter().any(|r| r.verdict == Verdict::Violated);
        if quantified.count() > 0 {
            self.ledger.charge(worst_loss, violation);
        }
        self.t += 1;

        // Evict expired and mismatched windows. `reports` is in attach
        // order, mirroring `windows`.
        let mut evicted = 0;
        let mut keep = Vec::with_capacity(self.windows.len());
        for (i, w) in self.windows.drain(..).enumerate() {
            let mismatched = reports
                .get(i)
                .is_some_and(|r| r.verdict == Verdict::ModelMismatch);
            if mismatched || w.expired(linger) {
                evicted += 1;
            } else {
                keep.push(w);
            }
        }
        self.windows = keep;
        reports.shrink_to_fit();
        UserReport {
            user: self.id,
            t: self.t,
            worst_loss,
            windows: reports,
            evicted,
            budget_remaining: self.ledger.remaining(),
            exhausted: self.ledger.exhausted(),
        }
    }
}

/// Builds a [`WindowReport`] from one window's [`StreamStep`] against the
/// service ε.
pub(crate) fn report_from_step(template: usize, step: &StreamStep, epsilon: f64) -> WindowReport {
    WindowReport {
        template,
        window_t: step.t,
        loss: step.privacy_loss,
        posterior: step.posterior,
        verdict: if step.certifies(epsilon) {
            Verdict::Certified
        } else {
            Verdict::Violated
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_exhausts() {
        let mut l = BudgetLedger::new(1.0).unwrap();
        assert!(!l.exhausted());
        l.charge(0.4, false);
        l.charge(0.4, true);
        assert_eq!(l.observations(), 2);
        assert_eq!(l.violations(), 1);
        assert!((l.spent() - 0.8).abs() < 1e-12);
        assert!((l.remaining() - 0.2).abs() < 1e-12);
        assert!(!l.exhausted());
        l.charge(f64::INFINITY, true);
        assert!(l.exhausted());
        assert_eq!(l.remaining(), 0.0);
    }

    #[test]
    fn ledger_exhausts_exactly_at_zero_remaining() {
        // The boundary: spent == budget means remaining() == 0, and a
        // session with nothing left must not be treated as live.
        let mut l = BudgetLedger::new(1.0).unwrap();
        l.charge(0.5, false);
        assert!(!l.exhausted());
        l.charge(0.5, false);
        assert_eq!(l.remaining(), 0.0);
        assert!(
            l.exhausted(),
            "zero remaining budget must read as exhausted"
        );
        // And just past it stays exhausted.
        l.charge(1e-9, false);
        assert!(l.exhausted());
    }

    #[test]
    fn ledger_rejects_degenerate_budgets() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let err = BudgetLedger::new(bad).unwrap_err();
            assert!(
                matches!(err, crate::OnlineError::InvalidConfig { .. }),
                "budget {bad} must be rejected, got {err}"
            );
        }
        assert!(BudgetLedger::new(0.5).is_ok());
    }

    #[test]
    fn persisted_ledger_roundtrips_and_validates() {
        let l = BudgetLedger::from_parts(2.0, 1.5, 7, 2).unwrap();
        assert_eq!(l.budget(), 2.0);
        assert_eq!(l.spent(), 1.5);
        assert_eq!(l.observations(), 7);
        assert_eq!(l.violations(), 2);
        // +∞ spend (conservative torn-write rounding) survives a roundtrip.
        let l = BudgetLedger::from_parts(2.0, f64::INFINITY, 7, 2).unwrap();
        assert!(l.exhausted());
        assert!(BudgetLedger::from_parts(2.0, f64::NAN, 0, 0).is_err());
        assert!(BudgetLedger::from_parts(2.0, -0.5, 0, 0).is_err());
        assert!(BudgetLedger::from_parts(f64::NAN, 0.0, 0, 0).is_err());
    }

    #[test]
    fn force_exhaust_never_undercounts() {
        let mut l = BudgetLedger::new(10.0).unwrap();
        l.charge(0.25, false);
        l.force_exhaust();
        assert!(l.exhausted());
        assert_eq!(l.spent(), f64::INFINITY);
        assert_eq!(l.remaining(), 0.0);
    }

    #[test]
    fn user_id_displays_compactly() {
        assert_eq!(UserId(42).to_string(), "u42");
    }
}
