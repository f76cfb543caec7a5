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
//! mechanism. When even the floor budget cannot certify, the release is
//! withheld: the guard never ships a candidate it could not certify (the
//! journal version's suppression, arXiv:1907.10814).
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
//! sampling, would make the two coincide (`ROADMAP.md`, direction 5).

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

/// Safety cap on a ladder's rungs, hence on backoff attempts per release.
/// A ladder that would exceed it (backoff very close to 1) jumps straight
/// to the floor for its final rung, so the floor is still always evaluated
/// before the release is suppressed.
const MAX_ATTEMPTS: usize = 200;

/// Configuration of the online calibration guard.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// The ε-spatiotemporal event privacy level every committed prefix must
    /// certify.
    pub target_epsilon: f64,
    /// Geometric budget decay factor in `(0, 1)`; `0.5` is Algorithm 2's
    /// halving.
    pub backoff: f64,
    /// Smallest location budget the backoff may reach before the release
    /// is suppressed.
    pub floor: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            target_epsilon: 1.0,
            backoff: 0.5,
            floor: 1e-3,
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
    check_floor(lppm, floor)
}

/// The backoff floor must not exceed the mechanism's base budget, or there
/// is nothing to back off to.
fn check_floor(lppm: &dyn Lppm, floor: f64) -> Result<()> {
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

/// The guard's backoff ladder, built once: the prototype mechanism (rung
/// 0) and its budget-decayed variants α·β, α·β², … down to the floor, in
/// the order [`run_guard`] walks them, plus the [`GuardConfig`] they were
/// built for. Immutable, so one ladder serves every release of a guard,
/// including the worker threads of `priste-online`'s parallel release
/// path, and every release of an α-PLM audit (`priste_core::Priste`). A rung re-discretizes the mechanism (for the Planar Laplace
/// mechanism an `O(m)` kernel and summed-area table: ~1 ms and ~100 KB at
/// m = 2500).
#[derive(Debug)]
pub struct GuardLadder {
    config: GuardConfig,
    rungs: Vec<Box<dyn Lppm>>,
}

impl GuardLadder {
    /// Validates `config` and builds every rung: the prototype itself,
    /// then geometric backoff clamped at the floor, which is always the
    /// last rung (a backoff so close to 1 that the ladder would exceed 200
    /// rungs jumps to the floor for its 200th).
    ///
    /// # Errors
    /// [`CalibrateError::InvalidConfig`] for a bad `config` or a floor
    /// above the prototype's budget; mechanism rebuild failures.
    pub fn new(lppm: Box<dyn Lppm>, config: GuardConfig) -> Result<Self> {
        config.validate()?;
        check_floor(lppm.as_ref(), config.floor)?;
        let mut budget = lppm.budget();
        let mut rungs = vec![lppm];
        while budget > config.floor && rungs.len() < MAX_ATTEMPTS {
            budget = if rungs.len() == MAX_ATTEMPTS - 1 {
                config.floor
            } else {
                (budget * config.backoff).max(config.floor)
            };
            let rung = rungs[0].with_budget(budget)?;
            rungs.push(rung);
        }
        Ok(GuardLadder { config, rungs })
    }

    /// The configuration the ladder was built for.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// The rungs in walk order; rung 0 is the prototype, the last the
    /// floor.
    pub fn rungs(&self) -> &[Box<dyn Lppm>] {
        &self.rungs
    }

    /// The prototype mechanism (rung 0).
    pub fn base(&self) -> &dyn Lppm {
        self.rungs[0].as_ref()
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

/// The guard's verdict for one timestamp. Either way the committed prefix
/// certifies the target: a release is the first candidate that did, and a
/// suppression preserves the previous (certified) loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A certified candidate was released.
    Released {
        /// The released observation.
        observed: CellId,
        /// The budget it was drawn at.
        budget: f64,
    },
    /// Every rung failed, so the release was withheld; the flat column was
    /// committed instead.
    Suppressed,
}

/// Outcome of one guard pass, decoupled from any particular world store so
/// [`CalibratedMechanism`], `priste-online`'s enforcing sessions and the
/// paper's Algorithm 2 audit (`priste_core::Priste::release`) share the
/// loop.
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
/// signals an operator watches: releases vs suppressions, the per-release
/// location budget actually spent, and how deep the backoff ladder had to
/// walk.
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
            epsilon_spent: Histogram::disabled(),
            backoff_depth: Histogram::disabled(),
        }
    }

    /// Handles registered in `registry` under the `guard_*` names above.
    pub fn from_registry(registry: &Registry) -> Self {
        GuardInstruments {
            releases: registry.counter("guard_releases_total"),
            suppressions: registry.counter("guard_suppressions_total"),
            epsilon_spent: registry.histogram("guard_epsilon_spent"),
            backoff_depth: registry.histogram("guard_backoff_depth"),
        }
    }

    /// Records one guard verdict.
    pub fn record(&self, outcome: &GuardOutcome) {
        match &outcome.decision {
            Decision::Released { budget, .. } => {
                self.releases.inc();
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

/// The flat column a suppressed release commits over `m` states: every
/// state emits "nothing" with the same likelihood, so the realized loss is
/// unchanged while model time advances.
pub fn suppression_column(m: usize) -> Vector {
    Vector::filled(m, 1.0 / m as f64)
}

/// Runs one release down `ladder`: each rung in turn samples a candidate
/// for `true_loc` until one certifies. `worst_loss` evaluates a candidate
/// emission column against the caller's protected events and returns the
/// worst *cumulative* realized loss were it committed (`peek`, not
/// `observe` — nothing is mutated until the caller commits
/// [`GuardOutcome::column`]). When the floor rung fails too, the release is
/// suppressed and the flat [`suppression_column`] is committed instead.
///
/// The one Algorithm 2 loop of the workspace: [`CalibratedMechanism`] and
/// `priste-online`'s enforcing sessions pass [`peek_worst_loss`], and
/// `priste_core::Priste::release` passes its any-π Theorem IV.1 check,
/// reading 0 when every event certifies and `+∞` otherwise (it then
/// releases through the uniform mechanism rather than suppress).
///
/// # Errors
/// Whatever `worst_loss` raises.
pub fn run_guard<F>(
    ladder: &GuardLadder,
    true_loc: CellId,
    rng: &mut dyn RngCore,
    mut worst_loss: F,
) -> Result<GuardOutcome>
where
    F: FnMut(&Vector) -> Result<f64>,
{
    let mut attempts = Vec::new();
    for mechanism in &ladder.rungs {
        let budget = mechanism.budget();
        let observed = mechanism.perturb(true_loc, rng);
        let column = mechanism.emission_column(observed);
        let loss = worst_loss(&column)?;
        let certified = loss <= ladder.config.target_epsilon;
        attempts.push(Attempt {
            budget,
            observed,
            worst_loss: loss,
            certified,
        });
        if certified {
            return Ok(GuardOutcome {
                decision: Decision::Released { observed, budget },
                attempts,
                column,
            });
        }
    }
    Ok(GuardOutcome {
        decision: Decision::Suppressed,
        attempts,
        column: suppression_column(ladder.base().num_cells()),
    })
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
/// per window (`O(k·m²)`, `O(k·nnz)` on a CSR chain), staged once and
/// shared by every attempt and by the commit, plus one `O(k·m)` readout
/// pass per attempt and one for the commit — no horizon replay. What it checks:
/// at every timestep the committed
/// column prefix satisfies `|ln odds-lift| ≤ target_epsilon` for every
/// protected event under the construction-time `π`, re-checkable offline
/// with [`TheoremBuilder`](priste_quantify::TheoremBuilder) (the
/// `guard_properties` proptest suite pins this). That is the ledger's model
/// of the committed columns, not the algorithm-aware likelihood of the
/// realized stream: the rung a release came from depends on the true
/// location too (see the module docs, *What is certified*).
#[derive(Debug)]
pub struct CalibratedMechanism<P> {
    ladder: GuardLadder,
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
    /// degenerate event priors); rung build failures.
    pub fn new(
        lppm: Box<dyn Lppm>,
        events: &[StEvent],
        provider: P,
        pi: Vector,
        config: GuardConfig,
    ) -> Result<Self> {
        validate_mechanism(lppm.as_ref(), provider.num_states(), config.floor)?;
        let ladder = GuardLadder::new(lppm, config)?;
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
            ladder,
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
        self.ladder.config()
    }

    /// The prototype mechanism's budget (first rung of every release).
    pub fn base_budget(&self) -> f64 {
        self.ladder.base().budget()
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
    /// Quantification errors other than the zero-likelihood case (which
    /// the guard treats as an uncertifiable candidate, not an error).
    pub fn release(
        &mut self,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<CalibratedRelease> {
        let outcome = run_guard(
            &self.ladder,
            true_loc,
            rng,
            peek_worst_loss(&self.worlds, &mut self.staged),
        )?;
        // Commit through the stages the guard just read its candidates
        // against: no world is stepped twice.
        let mut loss = 0.0f64;
        for (world, staged) in self.worlds.iter_mut().zip(&mut self.staged) {
            loss = loss.max(world.commit_staged(staged, &outcome.column)?.privacy_loss);
        }
        self.t += 1;
        // One record call covers releases/suppressions, ε spend, and
        // ladder depth; the suppression counter inside is
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
/// across releases); the returned closure then reads each candidate out
/// against the staged rows in one fused pass
/// ([`IncrementalTwoWorld::peek_staged`]), so an attempt costs `O(m)` per
/// world and writes no vector — bit-identical to calling
/// [`IncrementalTwoWorld::peek`] per world per attempt. A
/// zero-likelihood candidate (impossible under the model) is reported as
/// `+∞` — uncertifiable, so the backoff moves on — rather than an error.
/// Takes any cloneable iterator of worlds so both [`CalibratedMechanism`]
/// and `priste-online`'s enforcing sessions (whose windows wrap their
/// quantifiers) share one policy. The worlds must not observe while the
/// closure lives. Once it is dropped, `staged[i]` still holds world `i`'s
/// stage, and the chosen column is committed through it
/// ([`IncrementalTwoWorld::commit_staged`]) without stepping the world
/// again.
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

    fn guarded(alpha: f64, target: f64) -> CalibratedMechanism<Homogeneous> {
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
    fn ladder_runs_from_the_base_to_the_floor() {
        let (grid, _) = world();
        let budgets = |ladder: &GuardLadder| -> Vec<f64> {
            ladder.rungs().iter().map(|r| r.budget()).collect()
        };
        let halving = GuardConfig {
            floor: 0.1,
            ..GuardConfig::default()
        };
        let ladder = GuardLadder::new(plm(&grid, 1.0), halving.clone()).unwrap();
        assert_eq!(budgets(&ladder), [1.0, 0.5, 0.25, 0.125, 0.1]);
        assert_eq!(ladder.config(), &halving);

        // A backoff this slow would take thousands of rungs: the cap ends
        // the ladder at the floor instead.
        let slow = GuardConfig {
            backoff: 0.999,
            ..GuardConfig::default()
        };
        let ladder = GuardLadder::new(plm(&grid, 1.0), slow.clone()).unwrap();
        let b = budgets(&ladder);
        assert_eq!(b.len(), MAX_ATTEMPTS);
        assert_eq!(b[0], 1.0);
        assert!(
            b.windows(2).all(|w| w[1] < w[0]),
            "budgets strictly decrease"
        );
        assert!(
            b[MAX_ATTEMPTS - 2] > 0.8,
            "the last rung jumps to the floor"
        );
        assert_eq!(b[MAX_ATTEMPTS - 1], slow.floor);

        // An unreachable target walks every rung, the floor last, then
        // suppresses.
        let config = GuardConfig {
            target_epsilon: 1e-3,
            ..slow
        };
        let ladder = GuardLadder::new(plm(&grid, 1.0), config).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = run_guard(&ladder, CellId(4), &mut rng, |_| Ok(1.0)).unwrap();
        let walked: Vec<f64> = outcome.attempts.iter().map(|a| a.budget).collect();
        assert_eq!(walked, budgets(&ladder));
        let last = outcome.attempts.last().unwrap();
        assert_eq!(last.budget, ladder.config().floor);
        assert!(!last.certified);
        assert_eq!(outcome.decision, Decision::Suppressed);
        assert_eq!(outcome.column, suppression_column(grid.num_cells()));

        assert!(matches!(
            GuardLadder::new(
                plm(&grid, 1.0),
                GuardConfig {
                    floor: 2.0,
                    ..halving
                }
            ),
            Err(CalibrateError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn every_committed_step_certifies_under_suppress() {
        let mut mech = guarded(3.0, 0.6);
        let mut rng = StdRng::seed_from_u64(5);
        for loc in [0usize, 0, 1, 4, 8, 2] {
            let rel = mech.release(CellId(loc), &mut rng).unwrap();
            if let Decision::Released { .. } = rel.decision {
                assert!(rel.attempts.last().unwrap().certified);
            }
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
        let mut mech = guarded(4.0, 0.05);
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
    fn suppression_commits_the_flat_column_and_preserves_loss() {
        let (grid, provider) = world();
        let m = grid.num_cells();
        let lppm = plm(&grid, 4.0);
        // A floor of 1.0 keeps every rung informative, so a 1e-4 target is
        // unreachable and the release must be suppressed.
        let mut mech = CalibratedMechanism::new(
            lppm,
            &[presence(m, 3, 2, 4)],
            provider,
            Vector::uniform(m),
            GuardConfig {
                target_epsilon: 1e-4,
                floor: 1.0,
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
