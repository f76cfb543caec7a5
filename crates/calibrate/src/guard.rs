//! The online guard: per-release budget backoff that wraps any
//! emission-matrix LPPM so that every committed release column certifies a
//! target ε-spatiotemporal event privacy level under the ledger's model
//! (see *What is certified* below).
//!
//! This is the per-timestamp calibration loop of the journal extension
//! (*Protecting Spatiotemporal Event Privacy in Continuous Location-Based
//! Services*, arXiv:1907.10814), built on the streaming quantifier instead
//! of full-horizon replay: before each release the candidate observation's
//! emission column is *peeked* through every protected event's
//! [`IncrementalTwoWorld`]; if the cumulative realized loss would exceed
//! the target, the location budget is shrunk geometrically — the
//! exponential decay of the paper's Algorithm 2, with the per-timestep
//! budget semantics of δ-location-set privacy under temporal correlations
//! (arXiv:1410.5919) — and a fresh candidate is drawn from the weaker
//! mechanism. When even the floor budget cannot certify, the configurable
//! [`OnExhaustion`] policy decides between suppressing the release and
//! shipping the floor candidate uncertified.
//!
//! A suppressed timestamp commits the **flat** emission column: every
//! state emits "nothing" with the same likelihood, so both possible worlds
//! scale identically and the adversary's posterior (hence the realized
//! loss) is unchanged while model time still advances. Under this
//! convention the suppression decision itself is treated as
//! observation-independent — the standard modelling assumption for
//! release/suppress mechanisms.
//!
//! **What is certified.** The guard checks the ledger's model of the
//! committed column: a release is charged as the accepted rung's column
//! `M_k(·, o)`, a suppression as the flat column. Neither is the
//! algorithm-aware likelihood an adversary who knows the guard would use.
//! Releasing `o` at rung `k` also reveals that the rungs before `k`
//! rejected their candidates, and a suppression that every rung did; both
//! events have probabilities that depend on the true location. The
//! certificate therefore bounds the loss of the committed-column model, not
//! the exact ε-ST-event privacy of the realized stream. Choosing the rung
//! from public state alone, by certifying every column of a rung before
//! sampling, would make the two coincide (`ROADMAP.md`, direction 1).

use crate::{CalibrateError, Result};
use priste_event::StEvent;
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_lppm::Lppm;
use priste_markov::TransitionProvider;
use priste_obs::{Counter, Histogram, Registry};
use priste_quantify::lifted::StepScratch;
use priste_quantify::{IncrementalTwoWorld, QuantifyError};
use rand::RngCore;
use std::collections::BTreeMap;
use std::fmt;

/// Safety cap on backoff attempts per release. A ladder that would exceed
/// it (backoff very close to 1) jumps straight to the floor for its final
/// rung, so the floor is still always evaluated before the exhaustion
/// policy fires.
const MAX_ATTEMPTS: usize = 200;

/// What the guard does when even the floor budget cannot certify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnExhaustion {
    /// Withhold the release and commit the flat (uninformative) column —
    /// the adversary learns only that time passed. **Default.**
    #[default]
    Suppress,
    /// Release the floor-budget candidate anyway and record it as
    /// uncertified — for deployments where availability outranks the
    /// guarantee; the realized loss may then exceed the target.
    ReleaseAtFloor,
}

/// Configuration of the online calibration guard.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// The ε-spatiotemporal event privacy level every committed prefix must
    /// certify.
    pub target_epsilon: f64,
    /// Geometric budget decay factor in `(0, 1)`; `0.5` is Algorithm 2's
    /// halving.
    pub backoff: f64,
    /// Smallest location budget the backoff may reach before the
    /// [`OnExhaustion`] policy fires.
    pub floor: f64,
    /// Policy when no feasible budget remains.
    pub on_exhaustion: OnExhaustion,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            target_epsilon: 1.0,
            backoff: 0.5,
            floor: 1e-3,
            on_exhaustion: OnExhaustion::Suppress,
        }
    }
}

impl GuardConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`CalibrateError::InvalidConfig`] naming the bad field.
    pub fn validate(&self) -> Result<()> {
        if !(self.target_epsilon > 0.0 && self.target_epsilon.is_finite()) {
            return Err(CalibrateError::InvalidConfig {
                message: format!(
                    "target_epsilon must be positive and finite, got {}",
                    self.target_epsilon
                ),
            });
        }
        if !(self.backoff > 0.0 && self.backoff < 1.0) {
            return Err(CalibrateError::InvalidConfig {
                message: format!("backoff must be in (0, 1), got {}", self.backoff),
            });
        }
        if !(self.floor > 0.0 && self.floor.is_finite()) {
            return Err(CalibrateError::InvalidConfig {
                message: format!("floor must be positive and finite, got {}", self.floor),
            });
        }
        Ok(())
    }
}

/// Shared construction-time validation for a mechanism entering guarded,
/// planned, or enforcing use: its domain must match the model's and the
/// backoff floor must not exceed its base budget (otherwise there is
/// nothing to back off to). One helper so the guard, the planner, and
/// `priste-online`'s enforcing mode cannot silently diverge.
///
/// # Errors
/// [`CalibrateError::InvalidConfig`] naming the violated rule.
pub fn validate_mechanism(lppm: &dyn Lppm, num_states: usize, floor: f64) -> Result<()> {
    if lppm.num_cells() != num_states {
        return Err(CalibrateError::InvalidConfig {
            message: format!(
                "mechanism domain ({} cells) does not match the model ({} states)",
                lppm.num_cells(),
                num_states
            ),
        });
    }
    if floor > lppm.budget() {
        return Err(CalibrateError::InvalidConfig {
            message: format!(
                "floor {} exceeds the mechanism's base budget {}",
                floor,
                lppm.budget()
            ),
        });
    }
    Ok(())
}

/// A prototype LPPM plus its budget-decayed variants, built via
/// [`Lppm::with_budget`] on first use (or all at once by
/// [`MechanismCache::prewarm`]) and cached by budget bits: the α, α·β,
/// α·β², … ladder repeats across timestamps, and a rebuild re-discretizes
/// the mechanism (for the Planar Laplace mechanism an `O(m)` kernel and
/// summed-area table: ~1 ms and ~120 KB per rung at m = 2500).
pub struct MechanismCache {
    base: Box<dyn Lppm>,
    base_budget: f64,
    variants: BTreeMap<u64, Box<dyn Lppm>>,
}

impl fmt::Debug for MechanismCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MechanismCache")
            .field("base_budget", &self.base_budget)
            .field("num_cells", &self.base.num_cells())
            .field("cached_variants", &self.variants.len())
            .finish()
    }
}

impl MechanismCache {
    /// Wraps a prototype mechanism; its construction-time budget is the
    /// ladder's starting rung.
    pub fn new(base: Box<dyn Lppm>) -> Self {
        let base_budget = base.budget();
        MechanismCache {
            base,
            base_budget,
            variants: BTreeMap::new(),
        }
    }

    /// The prototype's budget (the guard's first attempt each release).
    pub fn base_budget(&self) -> f64 {
        self.base_budget
    }

    /// State-domain size `m`.
    pub fn num_cells(&self) -> usize {
        self.base.num_cells()
    }

    /// The (cached) variant of the prototype at `budget`.
    ///
    /// # Errors
    /// Mechanism rebuild failures (non-positive budget).
    pub fn at(&mut self, budget: f64) -> Result<&dyn Lppm> {
        if budget == self.base_budget {
            return Ok(self.base.as_ref());
        }
        if !self.variants.contains_key(&budget.to_bits()) {
            let built = self.base.with_budget(budget)?;
            self.variants.insert(budget.to_bits(), built);
        }
        Ok(self.variants[&budget.to_bits()].as_ref())
    }

    /// Pre-builds every rung of `config`'s backoff ladder (the exact budget
    /// sequence [`run_guard`] walks), so subsequent lookups need no
    /// mutation and the cache can be shared read-only across the worker
    /// threads of a parallel release path ([`run_guard_prewarmed`]).
    ///
    /// # Errors
    /// Mechanism rebuild failures.
    pub fn prewarm(&mut self, config: &GuardConfig) -> Result<()> {
        let mut budget = self.base_budget.max(config.floor);
        let mut rungs = 0usize;
        loop {
            self.at(budget)?;
            rungs += 1;
            if budget <= config.floor || rungs >= MAX_ATTEMPTS {
                return Ok(());
            }
            budget = if rungs >= MAX_ATTEMPTS - 1 {
                config.floor
            } else {
                (budget * config.backoff).max(config.floor)
            };
        }
    }

    /// Read-only rung lookup; the rung must already exist (base budget or
    /// [`MechanismCache::prewarm`]ed / previously-built variant).
    ///
    /// # Errors
    /// [`CalibrateError::InvalidConfig`] naming the missing budget.
    pub fn get(&self, budget: f64) -> Result<&dyn Lppm> {
        if budget == self.base_budget {
            return Ok(self.base.as_ref());
        }
        self.variants
            .get(&budget.to_bits())
            .map(Box::as_ref)
            .ok_or_else(|| CalibrateError::InvalidConfig {
                message: format!("budget {budget} is not prewarmed in the mechanism cache"),
            })
    }
}

/// Where [`run_guard`]'s loop obtains the mechanism for each rung: a
/// mutable cache that builds variants on demand, or a prewarmed cache
/// shared read-only across threads.
trait RungSource {
    fn rung(&mut self, budget: f64) -> Result<&dyn Lppm>;
    fn num_cells(&self) -> usize;
    fn base_budget(&self) -> f64;
}

struct BuildOnDemand<'a>(&'a mut MechanismCache);

impl RungSource for BuildOnDemand<'_> {
    fn rung(&mut self, budget: f64) -> Result<&dyn Lppm> {
        self.0.at(budget)
    }

    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn base_budget(&self) -> f64 {
        self.0.base_budget()
    }
}

struct Prewarmed<'a>(&'a MechanismCache);

impl RungSource for Prewarmed<'_> {
    fn rung(&mut self, budget: f64) -> Result<&dyn Lppm> {
        self.0.get(budget)
    }

    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn base_budget(&self) -> f64 {
        self.0.base_budget()
    }
}

/// One rung of the backoff ladder: what was sampled and how it fared.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Location budget of the mechanism this candidate was drawn from.
    pub budget: f64,
    /// The sampled candidate observation.
    pub observed: CellId,
    /// Worst cumulative realized loss across the protected events had this
    /// candidate been committed (`+∞` on degenerate evidence).
    pub worst_loss: f64,
    /// Whether that loss stayed within the target.
    pub certified: bool,
}

/// The guard's verdict for one timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A candidate was released.
    Released {
        /// The released observation.
        observed: CellId,
        /// The budget it was drawn at.
        budget: f64,
        /// Whether the release certifies the target (`false` only under
        /// [`OnExhaustion::ReleaseAtFloor`]).
        certified: bool,
    },
    /// The release was withheld ([`OnExhaustion::Suppress`]); the flat
    /// column was committed instead.
    Suppressed,
}

impl Decision {
    /// Whether this timestamp's committed prefix certifies the target
    /// (suppression preserves the previous — certified — loss).
    pub fn certified(&self) -> bool {
        match self {
            Decision::Released { certified, .. } => *certified,
            Decision::Suppressed => true,
        }
    }
}

/// Outcome of one guard pass, decoupled from any particular world store so
/// both [`CalibratedMechanism`] and `priste-online`'s enforcing sessions
/// can share the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardOutcome {
    /// The verdict.
    pub decision: Decision,
    /// The full backoff trace, first attempt (base budget) first.
    pub attempts: Vec<Attempt>,
    /// The emission column the caller must commit to its quantifier state:
    /// the released candidate's column, or the flat column on suppression.
    pub column: Vector,
}

/// Observability handles for one guard instance — the privacy-vs-utility
/// signals an operator watches: releases vs suppressions vs floor
/// releases, the per-release location budget actually spent, and how deep
/// the backoff ladder had to walk.
///
/// All handles are cheap clonable atomics (`priste-obs`), so recording is
/// safe from the parallel batched release path. The
/// [`GuardInstruments::disabled`] default costs a few atomic loads per
/// release and never allocates.
#[derive(Debug, Clone)]
pub struct GuardInstruments {
    /// Certified releases (`guard_releases_total`).
    pub releases: Counter,
    /// Withheld releases — flat column committed
    /// (`guard_suppressions_total`).
    pub suppressions: Counter,
    /// Uncertified floor-budget releases under
    /// [`OnExhaustion::ReleaseAtFloor`] (`guard_floor_releases_total`).
    pub floor_releases: Counter,
    /// Location budget of each released candidate — the per-release ε
    /// spend (`guard_epsilon_spent`).
    pub epsilon_spent: Histogram,
    /// Backoff attempts evaluated per release (`guard_backoff_depth`).
    pub backoff_depth: Histogram,
}

impl GuardInstruments {
    /// Inert handles: recording is a few atomic loads, no allocation.
    pub fn disabled() -> Self {
        GuardInstruments {
            releases: Counter::disabled(),
            suppressions: Counter::disabled(),
            floor_releases: Counter::disabled(),
            epsilon_spent: Histogram::disabled(),
            backoff_depth: Histogram::disabled(),
        }
    }

    /// Handles registered in `registry` under the `guard_*` names above.
    pub fn from_registry(registry: &Registry) -> Self {
        GuardInstruments {
            releases: registry.counter("guard_releases_total"),
            suppressions: registry.counter("guard_suppressions_total"),
            floor_releases: registry.counter("guard_floor_releases_total"),
            epsilon_spent: registry.histogram("guard_epsilon_spent"),
            backoff_depth: registry.histogram("guard_backoff_depth"),
        }
    }

    /// Records one guard verdict.
    pub fn record(&self, outcome: &GuardOutcome) {
        match &outcome.decision {
            Decision::Released {
                budget,
                certified: true,
                ..
            } => {
                self.releases.inc();
                self.epsilon_spent.observe(*budget);
            }
            Decision::Released {
                budget,
                certified: false,
                ..
            } => {
                self.floor_releases.inc();
                self.epsilon_spent.observe(*budget);
            }
            Decision::Suppressed => self.suppressions.inc(),
        }
        self.backoff_depth.observe(outcome.attempts.len() as f64);
    }
}

impl Default for GuardInstruments {
    fn default() -> Self {
        GuardInstruments::disabled()
    }
}

/// Runs one release through the backoff loop. `worst_loss` evaluates a
/// candidate emission column against the caller's protected events and
/// returns the worst *cumulative* realized loss were it committed
/// (`peek`, not `observe` — nothing is mutated until the caller commits
/// [`GuardOutcome::column`]).
///
/// # Errors
/// Mechanism rebuild failures and whatever `worst_loss` raises.
pub fn run_guard<F>(
    cache: &mut MechanismCache,
    config: &GuardConfig,
    true_loc: CellId,
    rng: &mut dyn RngCore,
    worst_loss: F,
) -> Result<GuardOutcome>
where
    F: FnMut(&Vector) -> Result<f64>,
{
    run_guard_with(BuildOnDemand(cache), config, true_loc, rng, worst_loss)
}

/// [`run_guard`] against a **shared, read-only** cache: every rung of the
/// ladder must already exist ([`MechanismCache::prewarm`] with the same
/// `config`). This is the loop the parallel batched release path runs on —
/// many worker threads, one cache, no locks.
///
/// # Errors
/// As [`run_guard`], plus a missing (un-prewarmed) rung.
pub fn run_guard_prewarmed<F>(
    cache: &MechanismCache,
    config: &GuardConfig,
    true_loc: CellId,
    rng: &mut dyn RngCore,
    worst_loss: F,
) -> Result<GuardOutcome>
where
    F: FnMut(&Vector) -> Result<f64>,
{
    run_guard_with(Prewarmed(cache), config, true_loc, rng, worst_loss)
}

fn run_guard_with<S, F>(
    mut source: S,
    config: &GuardConfig,
    true_loc: CellId,
    rng: &mut dyn RngCore,
    mut worst_loss: F,
) -> Result<GuardOutcome>
where
    S: RungSource,
    F: FnMut(&Vector) -> Result<f64>,
{
    let mut attempts = Vec::new();
    let mut budget = source.base_budget().max(config.floor);
    loop {
        let mechanism = source.rung(budget)?;
        let observed = mechanism.perturb(true_loc, rng);
        let column = mechanism.emission_column(observed);
        let loss = worst_loss(&column)?;
        let certified = loss <= config.target_epsilon;
        attempts.push(Attempt {
            budget,
            observed,
            worst_loss: loss,
            certified,
        });
        if certified {
            return Ok(GuardOutcome {
                decision: Decision::Released {
                    observed,
                    budget,
                    certified: true,
                },
                attempts,
                column,
            });
        }
        // The floor is always the last rung actually evaluated; only after
        // it fails does the exhaustion policy fire (so `ReleaseAtFloor`
        // genuinely ships a floor-budget candidate).
        if budget <= config.floor || attempts.len() >= MAX_ATTEMPTS {
            return Ok(match config.on_exhaustion {
                OnExhaustion::Suppress => {
                    let m = source.num_cells();
                    GuardOutcome {
                        decision: Decision::Suppressed,
                        attempts,
                        column: Vector::filled(m, 1.0 / m as f64),
                    }
                }
                OnExhaustion::ReleaseAtFloor => GuardOutcome {
                    decision: Decision::Released {
                        observed,
                        budget,
                        certified: false,
                    },
                    attempts,
                    column,
                },
            });
        }
        budget = if attempts.len() >= MAX_ATTEMPTS - 1 {
            // Out of attempts: make the last rung the floor itself rather
            // than wherever a slow backoff happens to sit.
            config.floor
        } else {
            (budget * config.backoff).max(config.floor)
        };
    }
}

/// Record of one calibrated release.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedRelease {
    /// Timestep of this release (1-based).
    pub t: usize,
    /// The verdict.
    pub decision: Decision,
    /// The full backoff trace.
    pub attempts: Vec<Attempt>,
    /// Worst cumulative realized loss across the protected events *after*
    /// committing this timestamp (0 with no events).
    pub loss: f64,
}

/// An LPPM wrapped with the online calibration guard: every release is
/// certified against a target ε-spatiotemporal event privacy level across
/// a set of protected events before it leaves the mechanism.
///
/// Each protected event is tracked by an [`IncrementalTwoWorld`], so one
/// release of `k` events with `a` backoff attempts costs one lifted step
/// per window (`O(k·m²)`, `O(k·nnz)` on a CSR chain) plus `O(k·m)` per
/// attempt, and the commit's own step — no horizon replay. What it checks
/// (under [`OnExhaustion::Suppress`]): at every timestep the committed
/// column prefix satisfies `|ln odds-lift| ≤ target_epsilon` for every
/// protected event under the construction-time `π`, re-checkable offline
/// with [`TheoremBuilder`](priste_quantify::TheoremBuilder) (the
/// `guard_properties` proptest suite pins this). That is the ledger's model
/// of the committed columns, not the algorithm-aware likelihood of the
/// realized stream: the rung a release came from depends on the true
/// location too (see the module docs, *What is certified*).
#[derive(Debug)]
pub struct CalibratedMechanism<P> {
    cache: MechanismCache,
    config: GuardConfig,
    worlds: Vec<IncrementalTwoWorld<P>>,
    /// One staging scratch per world, kept across releases.
    staged: Vec<StepScratch>,
    t: usize,
    /// Always-on suppression counter — the single source of truth behind
    /// [`CalibratedMechanism::suppressed`] and, once
    /// [`CalibratedMechanism::observe_into`] has run, the registry's
    /// `guard_suppressions_total`.
    suppressed: Counter,
    instruments: GuardInstruments,
}

impl<P: TransitionProvider + Clone> CalibratedMechanism<P> {
    /// Wraps `lppm` so its releases certify `config.target_epsilon` for
    /// every event in `events` under the mobility model and initial
    /// distribution `pi`.
    ///
    /// # Errors
    /// Configuration validation; domain mismatches between the mechanism
    /// and the model; [`IncrementalTwoWorld::new`] failures (bad `π`,
    /// degenerate event priors).
    pub fn new(
        lppm: Box<dyn Lppm>,
        events: &[StEvent],
        provider: P,
        pi: Vector,
        config: GuardConfig,
    ) -> Result<Self> {
        config.validate()?;
        validate_mechanism(lppm.as_ref(), provider.num_states(), config.floor)?;
        let worlds = events
            .iter()
            .map(|ev| IncrementalTwoWorld::new(ev.clone(), provider.clone(), pi.clone()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Suppression is a service-semantics count (the `suppressed()`
        // accessor), not optional telemetry: it always counts, even while
        // the rest of the instruments are inert.
        let suppressed = Counter::new();
        let mut instruments = GuardInstruments::disabled();
        instruments.suppressions = suppressed.clone();
        Ok(CalibratedMechanism {
            cache: MechanismCache::new(lppm),
            config,
            worlds,
            staged: Vec::new(),
            t: 0,
            suppressed,
            instruments,
        })
    }

    /// Attaches observability: registers the `guard_*` instruments in
    /// `registry` (see [`GuardInstruments::from_registry`]) and adopts the
    /// always-on suppression counter — its pre-attach count is preserved
    /// in the exported snapshot.
    pub fn observe_into(&mut self, registry: &Registry) {
        let mut instruments = GuardInstruments::from_registry(registry);
        registry.adopt_counter("guard_suppressions_total", &self.suppressed);
        instruments.suppressions = self.suppressed.clone();
        self.instruments = instruments;
    }

    /// The guard configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// The prototype mechanism's budget (first rung of every release).
    pub fn base_budget(&self) -> f64 {
        self.cache.base_budget()
    }

    /// Timesteps committed so far.
    pub fn observed(&self) -> usize {
        self.t
    }

    /// Releases suppressed so far.
    ///
    /// Thin shim kept for compatibility: the count now lives in a metrics
    /// counter (`guard_suppressions_total` after
    /// [`CalibratedMechanism::observe_into`]). Prefer reading it from the
    /// registry snapshot in new code.
    pub fn suppressed(&self) -> usize {
        self.suppressed.get() as usize
    }

    /// The per-event incremental quantifiers (attach order).
    pub fn worlds(&self) -> &[IncrementalTwoWorld<P>] {
        &self.worlds
    }

    /// Calibrates and commits one release for the true location.
    ///
    /// # Errors
    /// Mechanism rebuild failures; quantification errors other than the
    /// zero-likelihood case (which the guard treats as an uncertifiable
    /// candidate, not an error).
    pub fn release(
        &mut self,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CalibratedRelease> {
        let outcome = run_guard(
            &mut self.cache,
            &self.config,
            true_loc,
            rng,
            peek_worst_loss(&self.worlds, &mut self.staged),
        )?;
        let mut loss = 0.0f64;
        for world in &mut self.worlds {
            loss = loss.max(world.observe(&outcome.column)?.privacy_loss);
        }
        self.t += 1;
        // One record call covers releases/suppressions/floor releases,
        // ε spend, and ladder depth; the suppression counter inside is
        // always-on, the rest follow the attached registry.
        self.instruments.record(&outcome);
        Ok(CalibratedRelease {
            t: self.t,
            decision: outcome.decision,
            attempts: outcome.attempts,
            loss,
        })
    }
}

/// The guard's per-attempt check for one release: the worst cumulative
/// realized loss across a set of worlds were a candidate column committed
/// next. Every world is staged once here ([`IncrementalTwoWorld::stage`],
/// into `staged`, one scratch per world, grown as needed and reusable
/// across releases); the returned closure then weighs each candidate
/// against the staged rows ([`IncrementalTwoWorld::peek_staged`]), so an
/// attempt costs `O(m)` per world and allocates nothing — bit-identical to
/// calling [`IncrementalTwoWorld::peek`] per world per attempt. A
/// zero-likelihood candidate (impossible under the model) is reported as
/// `+∞` — uncertifiable, so the backoff moves on — rather than an error.
/// Takes any cloneable iterator of worlds so both [`CalibratedMechanism`]
/// and `priste-online`'s enforcing sessions (whose windows wrap their
/// quantifiers) share one policy. The worlds must not observe while the
/// closure lives.
///
/// The closure fails with quantification errors other than zero
/// likelihood.
pub fn peek_worst_loss<'a, P, I>(
    worlds: I,
    staged: &'a mut Vec<StepScratch>,
) -> impl FnMut(&Vector) -> Result<f64> + 'a
where
    P: TransitionProvider + 'a,
    I: IntoIterator<Item = &'a IncrementalTwoWorld<P>>,
    I::IntoIter: Clone + 'a,
{
    let worlds = worlds.into_iter();
    for (i, world) in worlds.clone().enumerate() {
        if i == staged.len() {
            staged.push(StepScratch::default());
        }
        world.stage(&mut staged[i]);
    }
    move |column| {
        let mut worst = 0.0f64;
        for (world, scratch) in worlds.clone().zip(staged.iter_mut()) {
            let loss = match world.peek_staged(scratch, column) {
                Ok(step) => step.privacy_loss,
                Err(QuantifyError::ZeroLikelihood { .. }) => f64::INFINITY,
                Err(e) => return Err(e.into()),
            };
            worst = worst.max(loss);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_core::test_support::{homogeneous_world, plm, presence};
    use priste_geo::GridMap;
    use priste_markov::{gaussian_kernel_chain, Homogeneous};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (GridMap, Homogeneous) {
        homogeneous_world(3, 1.0)
    }

    fn guarded(
        alpha: f64,
        target: f64,
        on_exhaustion: OnExhaustion,
    ) -> CalibratedMechanism<Homogeneous> {
        let (grid, provider) = world();
        let m = grid.num_cells();
        let lppm = plm(&grid, alpha);
        CalibratedMechanism::new(
            lppm,
            &[presence(m, 3, 2, 4)],
            provider,
            Vector::uniform(m),
            GuardConfig {
                target_epsilon: target,
                on_exhaustion,
                ..GuardConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        for bad in [
            GuardConfig {
                target_epsilon: 0.0,
                ..GuardConfig::default()
            },
            GuardConfig {
                backoff: 1.0,
                ..GuardConfig::default()
            },
            GuardConfig {
                floor: 0.0,
                ..GuardConfig::default()
            },
        ] {
            assert!(matches!(
                bad.validate(),
                Err(CalibrateError::InvalidConfig { .. })
            ));
        }
        assert!(GuardConfig::default().validate().is_ok());
    }

    #[test]
    fn cache_reuses_variants_and_keeps_the_base() {
        let (grid, _) = world();
        let mut cache = MechanismCache::new(plm(&grid, 1.0));
        assert_eq!(cache.base_budget(), 1.0);
        assert_eq!(cache.at(1.0).unwrap().budget(), 1.0);
        assert_eq!(cache.at(0.5).unwrap().budget(), 0.5);
        assert_eq!(cache.at(0.5).unwrap().budget(), 0.5);
        assert!(cache.at(-1.0).is_err());
        let dbg = format!("{cache:?}");
        assert!(dbg.contains("cached_variants"), "{dbg}");
    }

    #[test]
    fn every_committed_step_certifies_under_suppress() {
        let mut mech = guarded(3.0, 0.6, OnExhaustion::Suppress);
        let mut rng = StdRng::seed_from_u64(5);
        for loc in [0usize, 0, 1, 4, 8, 2] {
            let rel = mech.release(CellId(loc), &mut rng).unwrap();
            assert!(rel.decision.certified());
            assert!(
                rel.loss <= 0.6 + 1e-9,
                "t={}: committed loss {} exceeds target",
                rel.t,
                rel.loss
            );
            assert!(rel.attempts[0].budget == 3.0, "first rung is the base");
        }
        assert_eq!(mech.observed(), 6);
    }

    #[test]
    fn tight_targets_trigger_backoff_or_suppression() {
        let mut mech = guarded(4.0, 0.05, OnExhaustion::Suppress);
        let mut rng = StdRng::seed_from_u64(9);
        let mut backed_off = 0usize;
        for loc in [0usize, 1, 0, 2] {
            let rel = mech.release(CellId(loc), &mut rng).unwrap();
            if rel.attempts.len() > 1 {
                backed_off += 1;
            }
            assert!(rel.loss <= 0.05 + 1e-9);
        }
        assert!(
            backed_off > 0 || mech.suppressed() > 0,
            "a 0.05 target under a sharp α=4 PLM must not certify first try every time"
        );
    }

    #[test]
    fn release_at_floor_ships_uncertified_candidates() {
        let (grid, provider) = world();
        let m = grid.num_cells();
        let lppm = plm(&grid, 4.0);
        let mut mech = CalibratedMechanism::new(
            lppm,
            &[presence(m, 3, 1, 3)],
            provider,
            Vector::uniform(m),
            GuardConfig {
                target_epsilon: 1e-3,
                floor: 2.0, // only two rungs: 4.0 and 2.0
                on_exhaustion: OnExhaustion::ReleaseAtFloor,
                ..GuardConfig::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rel = mech.release(CellId(0), &mut rng).unwrap();
        match rel.decision {
            Decision::Released {
                certified, budget, ..
            } => {
                assert!(!certified, "a 1e-3 target cannot certify at budget 2");
                assert_eq!(budget, 2.0);
            }
            Decision::Suppressed => panic!("policy was ReleaseAtFloor"),
        }
        assert_eq!(mech.suppressed(), 0);
    }

    #[test]
    fn suppression_commits_the_flat_column_and_preserves_loss() {
        let (grid, provider) = world();
        let m = grid.num_cells();
        let lppm = plm(&grid, 4.0);
        // A floor of 1.0 keeps every rung informative, so a 1e-4 target is
        // unreachable and the policy must fire.
        let mut mech = CalibratedMechanism::new(
            lppm,
            &[presence(m, 3, 2, 4)],
            provider,
            Vector::uniform(m),
            GuardConfig {
                target_epsilon: 1e-4,
                floor: 1.0,
                on_exhaustion: OnExhaustion::Suppress,
                ..GuardConfig::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r1 = mech.release(CellId(0), &mut rng).unwrap();
        assert_eq!(r1.decision, Decision::Suppressed);
        assert!(r1.loss < 1e-9, "flat commits carry no information");
        let r2 = mech.release(CellId(4), &mut rng).unwrap();
        assert_eq!(r2.decision, Decision::Suppressed);
        assert!(r2.loss < 1e-9);
        assert_eq!(mech.suppressed(), 2);
    }

    #[test]
    fn construction_rejects_a_floor_above_the_base_budget() {
        let (grid, provider) = world();
        let m = grid.num_cells();
        let lppm = plm(&grid, 0.5);
        assert!(matches!(
            CalibratedMechanism::new(
                lppm,
                &[presence(m, 3, 2, 4)],
                provider,
                Vector::uniform(m),
                GuardConfig {
                    floor: 1.0,
                    ..GuardConfig::default()
                },
            ),
            Err(CalibrateError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn construction_rejects_domain_mismatch() {
        let (grid, _) = world();
        let other = GridMap::new(2, 2, 1.0).unwrap();
        let provider = Homogeneous::new(gaussian_kernel_chain(&other, 1.0).unwrap());
        let lppm = plm(&grid, 1.0);
        assert!(matches!(
            CalibratedMechanism::new(
                lppm,
                &[presence(4, 2, 2, 3)],
                provider,
                Vector::uniform(4),
                GuardConfig::default(),
            ),
            Err(CalibrateError::InvalidConfig { .. })
        ));
    }
}
