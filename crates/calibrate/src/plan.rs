//! The offline budget planner: given a mobility model, a protected event,
//! a horizon, and a target event budget ε*, search per-timestep location
//! budgets ε_t such that *every observation the mechanism can emit*
//! certifies Theorem IV.1 at ε* — for every adversarial initial
//! distribution, the strongest guarantee the framework defines.
//!
//! Three planners share one evaluation oracle:
//!
//! * [`plan_greedy`] — greedy-forward: each timestep starts from the
//!   previous step's budget, descends the geometric ladder until all `m`
//!   emission columns certify at ε*, and climbs back toward the base
//!   budget when slack allows (utility recovers after the event window).
//! * [`plan_uniform_split`] — the sequential-composition baseline from
//!   the per-timestep budget semantics of arXiv:1410.5919: the target is
//!   split evenly, `ε_t = ε*/T` (clamped to the mechanism's `[floor,
//!   base]` range). Provably conservative; the planner evaluates it with
//!   the same oracle so the plans are directly comparable.
//! * [`plan_knapsack`] — utility-aware: maximizes `Σ_t u(ε_t)` for a
//!   pluggable [`UtilityModel`] by solving a piecewise-linear knapsack
//!   over `priste-qp`'s budgeted LP ([`priste_qp::max_budgeted`]) on the
//!   concavified per-step utility curves sampled on the geometric ladder,
//!   then restoring certified feasibility with the same
//!   descend-then-climb repair loop `plan_greedy` uses. Falls back to the
//!   greedy-feasible plan whenever the repaired allocation does not beat
//!   it (e.g. degenerate all-zero utility slopes).
//!
//! ### The canonical history
//! Theorem IV.1 at timestep `t` conditions on the committed prefix
//! `o_1..o_{t−1}`. A plan cannot enumerate all `m^{t−1}` prefixes, so the
//! planner advances its [`TheoremBuilder`] along the **worst-column
//! path**: after each step it commits the most revealing emission column
//! the planned mechanism could have produced, selected by its exact
//! uniform-prior realized loss (a closed form, so the choice is invariant
//! under the `threads` knob). Per-step verdicts are exact for that
//! canonical history and a deliberate stress test for the others; the
//! online [`guard`](crate::guard) is what certifies the *realized* prefix
//! at run time.

use crate::utility::UtilityModel;
use crate::{CalibrateError, Result};
use priste_event::StEvent;
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_lppm::Lppm;
use priste_markov::TransitionProvider;
use priste_qp::{knapsack::max_budgeted, SolverConfig, TheoremChecker};
use priste_quantify::sweep::min_certifiable_epsilons;
use priste_quantify::{TheoremBuilder, TheoremInputs};
use std::fmt;

/// Cap on the sampled budget-ladder length of the knapsack allocation
/// (mirrors the guard's attempt cap): a backoff close to 1 would otherwise
/// explode the item count. The final rung is always the floor.
const MAX_LADDER_RUNGS: usize = 64;

/// Lower end of the per-column ε-capacity bisection bracket.
const EPS_FLOOR: f64 = 1e-4;

/// Upper end of the ε-capacity bisection bracket (raised to the target
/// when the target is larger); capacities beyond it are reported as
/// `None`.
const EPS_CEILING: f64 = 16.0;

/// ε-capacity bisection tolerance.
const CAPACITY_TOLERANCE: f64 = 1e-3;

/// Tunables of the offline planners. The ε-capacity bisection that
/// reports each step's capacity is fixed: bracket `[1e-4, max(16, ε*)]`,
/// tolerance 1e-3, and every Theorem IV.1 check runs under
/// [`SolverConfig::default`].
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Geometric ladder factor in `(0, 1)` for the budget search.
    pub backoff: f64,
    /// Smallest per-step location budget before a step is declared
    /// infeasible.
    pub floor: f64,
    /// Worker threads for the per-column oracle fan-out (`std::thread`
    /// scoped; at least 1, and 1 = sequential).
    pub threads: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            backoff: 0.5,
            floor: 1e-3,
            threads: 1,
        }
    }
}

impl PlannerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`CalibrateError::InvalidConfig`] naming the bad field.
    pub fn validate(&self) -> Result<()> {
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
        if self.threads == 0 {
            return Err(CalibrateError::InvalidConfig {
                message: "threads must be at least 1, got 0".into(),
            });
        }
        Ok(())
    }
}

/// One timestep of a [`BudgetPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStep {
    /// Timestep (1-based).
    pub t: usize,
    /// The planned per-step location budget ε_t.
    pub budget: f64,
    /// Worst-case ε-capacity at that budget: the smallest event ε any of
    /// the mechanism's `m` emission columns can certify, maximized over
    /// columns. `None` when it exceeds the report ceiling.
    pub capacity: Option<f64>,
    /// `ε* − capacity` (`-∞` when the capacity is off the scale).
    pub slack: f64,
    /// Whether every emission column certifies ε* at this budget.
    pub certified: bool,
    /// Ladder rungs evaluated while searching this step's budget.
    pub rungs: usize,
}

/// A per-timestep budget assignment with its verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPlan {
    /// The target event budget ε* the plan was built for.
    pub target: f64,
    /// Per-timestep budgets and verdicts.
    pub steps: Vec<PlannedStep>,
}

impl BudgetPlan {
    /// Whether every step certifies the target.
    pub fn all_certified(&self) -> bool {
        self.steps.iter().all(|s| s.certified)
    }

    /// Number of certified steps.
    pub fn certified_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.certified).count()
    }

    /// The event budget the plan actually certifies — the worst per-step
    /// capacity — when every step is certified; `None` otherwise.
    pub fn certified_epsilon(&self) -> Option<f64> {
        if !self.all_certified() {
            return None;
        }
        self.steps
            .iter()
            .map(|s| s.capacity.unwrap_or(f64::INFINITY))
            .fold(None, |acc: Option<f64>, c| {
                Some(acc.map_or(c, |a| a.max(c)))
            })
    }

    /// Mean per-step location budget — the plan's legacy utility proxy
    /// (larger budgets mean less noise).
    pub fn mean_budget(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.budget).sum::<f64>() / self.steps.len() as f64
    }

    /// Total utility `Σ_t u(ε_t)` of the planned budgets under a model —
    /// the objective [`plan_knapsack`] maximizes and the axis on which the
    /// three planners are compared.
    pub fn total_utility(&self, model: &dyn UtilityModel) -> f64 {
        self.steps.iter().map(|s| model.utility(s.budget)).sum()
    }
}

impl fmt::Display for PlannedStep {
    /// One stable CSV row: `t,budget,capacity,slack,verdict` (off-scale
    /// capacities print as `off-scale,-inf`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.capacity {
            Some(c) => write!(
                f,
                "{},{:.6},{c:.4},{:.4},{}",
                self.t,
                self.budget,
                self.slack,
                if self.certified {
                    "certified"
                } else {
                    "INFEASIBLE"
                }
            ),
            None => write!(
                f,
                "{},{:.6},off-scale,-inf,{}",
                self.t,
                self.budget,
                if self.certified {
                    "certified"
                } else {
                    "INFEASIBLE"
                }
            ),
        }
    }
}

impl fmt::Display for BudgetPlan {
    /// The stable plan table the CLI prints: a `t,budget,capacity,slack,
    /// verdict` header followed by one [`PlannedStep`] row per timestep.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t,budget,capacity,slack,verdict")?;
        for step in &self.steps {
            write!(f, "\n{step}")?;
        }
        Ok(())
    }
}

/// Greedy-forward planner: per-step geometric budget search against the
/// all-columns Theorem IV.1 oracle, warm-started from the previous step.
/// See the module docs for the guarantee and the canonical-history caveat.
///
/// # Errors
/// Configuration validation; domain mismatches; mechanism rebuilds;
/// quantification failures.
pub fn plan_greedy<P: TransitionProvider>(
    lppm: Box<dyn Lppm>,
    event: &StEvent,
    provider: P,
    horizon: usize,
    target: f64,
    config: &PlannerConfig,
) -> Result<BudgetPlan> {
    let mut planner = Planner::new(lppm, event, provider, horizon, target, config)?;
    let mut previous = planner.lppm.budget();
    for _ in 0..horizon {
        previous = planner.plan_step_greedy(previous)?;
    }
    Ok(planner.finish())
}

/// Uniform-split baseline: every timestep gets `ε*/T`, evaluated by the
/// same oracle (no search). The sequential-composition bound makes the
/// split provably safe when the per-step budget is read as a location-DP
/// level; here it is evaluated exactly, so over-conservatism shows up as
/// large per-step slack. The split is clamped into the mechanism's
/// `[floor, base]` range — a mechanism cannot release above its base
/// budget, and the planner-conformance contract pins every planned budget
/// inside those bounds.
///
/// # Errors
/// See [`plan_greedy`].
pub fn plan_uniform_split<P: TransitionProvider>(
    lppm: Box<dyn Lppm>,
    event: &StEvent,
    provider: P,
    horizon: usize,
    target: f64,
    config: &PlannerConfig,
) -> Result<BudgetPlan> {
    let mut planner = Planner::new(lppm, event, provider, horizon, target, config)?;
    let base = planner.lppm.budget();
    let split = (target / horizon as f64).clamp(config.floor, base);
    for _ in 0..horizon {
        planner.plan_step_fixed(split)?;
    }
    Ok(planner.finish())
}

/// Utility-aware knapsack planner: maximizes the horizon's total utility
/// `Σ_t u(ε_t)` under a pluggable [`UtilityModel`], subject to every
/// prefix re-certifying ε* against the same all-columns, all-priors
/// Theorem IV.1 oracle the other planners use.
///
/// Three phases:
///
/// 1. **Probe** — run [`plan_greedy`] and [`plan_uniform_split`]; each
///    probe's per-step budgets form a feasible baseline, and the largest
///    *certified* total ε-mass among them is the knapsack capacity `C`
///    (the greedy mass is kept as the capacity floor even when greedy has
///    uncertified steps — it is per-step maximal along its own history).
/// 2. **Allocate** — sample `u` on the geometric budget ladder, take each
///    step's upper concave envelope, and hand the incremental segments to
///    [`priste_qp::max_budgeted`]: `max Σ w·x` s.t. `Σ a·x ≤ C − T·floor`,
///    `0 ≤ x ≤ 1`. Concavity makes the density-greedy LP solution a valid
///    per-step curve fill; item order prefers *later* steps on density
///    ties, since early spend is what tightens later prefixes.
/// 3. **Repair** — walk the proposal forward along the canonical
///    worst-column history with the descend-then-climb loop `plan_greedy`
///    uses: descend to certified feasibility, bank any shortfall in a
///    slack pool, and let later steps climb above their proposal by at
///    most the banked slack.
///
/// The returned plan is the best of {repaired knapsack, greedy, uniform}:
/// most certified steps first, strictly higher total utility under `model`
/// second — so by construction `plan_knapsack` never does worse than
/// either baseline on the model's own objective. Ties return the
/// greedy-feasible plan unchanged (this covers degenerate utility curves —
/// all-zero slopes propose the floor everywhere — without erroring).
///
/// # Errors
/// See [`plan_greedy`].
pub fn plan_knapsack<P: TransitionProvider + Clone>(
    lppm: Box<dyn Lppm>,
    event: &StEvent,
    provider: P,
    horizon: usize,
    target: f64,
    config: &PlannerConfig,
    model: &dyn UtilityModel,
) -> Result<BudgetPlan> {
    // Phase 1: probes — feasible baselines + the certified ε-mass.
    let greedy = plan_greedy(
        lppm.with_budget(lppm.budget())?,
        event,
        provider.clone(),
        horizon,
        target,
        config,
    )?;
    let uniform = plan_uniform_split(
        lppm.with_budget(lppm.budget())?,
        event,
        provider.clone(),
        horizon,
        target,
        config,
    )?;
    plan_knapsack_with_probes(
        lppm, event, provider, horizon, target, config, model, &greedy, &uniform,
    )
}

/// [`plan_knapsack`] phases 2–3 against caller-supplied probe plans — for
/// callers that already paid for the greedy and uniform oracle walks (the
/// CLI's three-way comparison table, `Pipeline::plan_all` in the facade)
/// and must not pay them twice. The probes must describe the same scenario:
/// horizon and target are checked; mechanism, model and config agreement is
/// the caller's responsibility.
///
/// # Errors
/// [`CalibrateError::InvalidConfig`] on probe/scenario mismatch; otherwise
/// see [`plan_greedy`].
#[allow(clippy::too_many_arguments)] // mirrors plan_knapsack plus the two probes
pub fn plan_knapsack_with_probes<P: TransitionProvider>(
    lppm: Box<dyn Lppm>,
    event: &StEvent,
    provider: P,
    horizon: usize,
    target: f64,
    config: &PlannerConfig,
    model: &dyn UtilityModel,
    greedy: &BudgetPlan,
    uniform: &BudgetPlan,
) -> Result<BudgetPlan> {
    for (name, probe) in [("greedy", greedy), ("uniform", uniform)] {
        if probe.steps.len() != horizon || (probe.target - target).abs() > 1e-12 {
            return Err(CalibrateError::InvalidConfig {
                message: format!(
                    "{name} probe plan describes horizon {} at ε* = {}, not horizon \
                     {horizon} at ε* = {target}",
                    probe.steps.len(),
                    probe.target
                ),
            });
        }
    }
    let mass = |plan: &BudgetPlan| plan.steps.iter().map(|s| s.budget).sum::<f64>();
    let mut capacity = mass(greedy);
    if uniform.all_certified() {
        capacity = capacity.max(mass(uniform));
    }

    // Phase 2: piecewise-linear knapsack over the concavified curves.
    let mut planner = Planner::new(lppm, event, provider, horizon, target, config)?;
    let base = planner.lppm.budget();
    let rungs = budget_ladder(base, config);
    let envelope = concave_envelope(&rungs, model);
    let proposal = allocate(
        &envelope,
        horizon,
        capacity - horizon as f64 * config.floor,
        config,
    );

    // Phase 3: certified repair along the canonical history.
    let mut pool = 0.0f64;
    for &proposed in &proposal {
        let proposed = proposed.clamp(config.floor, base);
        let cap = (proposed + pool).min(base);
        let realized = planner.plan_step_search(proposed, cap)?;
        pool = (pool + proposed - realized).max(0.0);
    }
    let knapsack = planner.finish();

    // Selection: greedy is the fallback; a candidate replaces the incumbent
    // only by certifying more steps or strictly beating it on the model.
    let mut best = greedy;
    for candidate in [uniform, &knapsack] {
        let improves = candidate.certified_steps() > best.certified_steps()
            || (candidate.certified_steps() == best.certified_steps()
                && candidate.total_utility(model) > best.total_utility(model) + 1e-12);
        if improves {
            best = candidate;
        }
    }
    Ok(best.clone())
}

/// The geometric budget ladder in ascending order: `floor` first, then the
/// backoff rungs `base·β^k` above it, `base` last (capped in length like
/// the guard's attempt budget).
fn budget_ladder(base: f64, config: &PlannerConfig) -> Vec<f64> {
    let mut rungs = vec![base.max(config.floor)];
    while *rungs.last().expect("non-empty") > config.floor && rungs.len() < MAX_LADDER_RUNGS {
        let next = (rungs.last().expect("non-empty") * config.backoff).max(config.floor);
        rungs.push(next);
    }
    if *rungs.last().expect("non-empty") > config.floor {
        rungs.push(config.floor);
    }
    rungs.reverse();
    rungs.dedup();
    rungs
}

/// Samples the utility model on the ladder and keeps the upper concave
/// envelope: the returned `(ε, u)` points have strictly increasing ε and
/// non-increasing marginal densities, so filling segments in density order
/// is a valid curve traversal.
fn concave_envelope(rungs: &[f64], model: &dyn UtilityModel) -> Vec<(f64, f64)> {
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(rungs.len());
    for &eps in rungs {
        let u = model.utility(eps);
        if !u.is_finite() {
            continue;
        }
        while hull.len() >= 2 {
            let (x1, y1) = hull[hull.len() - 2];
            let (x2, y2) = hull[hull.len() - 1];
            // Pop while the middle point sits on or below the chord.
            if (y2 - y1) * (eps - x2) <= (u - y2) * (x2 - x1) {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push((eps, u));
    }
    hull
}

/// Solves the budgeted LP over the per-step envelope segments and maps the
/// solution back to per-step budgets (`floor` plus the taken ε-mass).
/// Items are laid out step-major with identical curves per step; the LP's
/// documented tie-break (higher index wins at equal density) then prefers
/// later steps, which costs the least future capacity.
fn allocate(
    envelope: &[(f64, f64)],
    horizon: usize,
    extra_capacity: f64,
    config: &PlannerConfig,
) -> Vec<f64> {
    let mut weights = Vec::new();
    let mut masses = Vec::new();
    let mut owner = Vec::new();
    for t in 0..horizon {
        for pair in envelope.windows(2) {
            let ((lo, u_lo), (hi, u_hi)) = (pair[0], pair[1]);
            let gain = u_hi - u_lo;
            if gain <= 0.0 {
                // Concavity: once a segment stops paying, all later ones do
                // too — and zero-gain segments must not attract mass.
                break;
            }
            weights.push(gain);
            masses.push(hi - lo);
            owner.push(t);
        }
    }
    let mut budgets = vec![config.floor; horizon];
    if weights.is_empty() || extra_capacity <= 0.0 {
        return budgets;
    }
    let Some(solution) = max_budgeted(
        &Vector::from(weights),
        &Vector::from(masses.clone()),
        extra_capacity,
    ) else {
        return budgets;
    };
    for (i, &take) in solution.point.as_slice().iter().enumerate() {
        budgets[owner[i]] += take * masses[i];
    }
    budgets
}

/// Shared planner state: the prototype mechanism, the Theorem builder
/// advanced along the canonical worst-column history, and the accumulated
/// steps.
struct Planner<P> {
    /// The prototype; every other budget the search visits is built from
    /// it with [`Lppm::with_budget`], `O(m)` next to the `m` Theorem
    /// candidates computed per rung.
    lppm: Box<dyn Lppm>,
    builder: TheoremBuilder<P>,
    target: f64,
    eps_hi: f64,
    config: PlannerConfig,
    warm_capacity: Option<f64>,
    steps: Vec<PlannedStep>,
}

impl<P: TransitionProvider> Planner<P> {
    fn new(
        lppm: Box<dyn Lppm>,
        event: &StEvent,
        provider: P,
        horizon: usize,
        target: f64,
        config: &PlannerConfig,
    ) -> Result<Self> {
        config.validate()?;
        if horizon == 0 {
            return Err(CalibrateError::InvalidConfig {
                message: "horizon must be at least 1".into(),
            });
        }
        if !(target > 0.0 && target.is_finite()) {
            return Err(CalibrateError::InvalidConfig {
                message: format!("target must be positive and finite, got {target}"),
            });
        }
        crate::guard::validate_mechanism(lppm.as_ref(), provider.num_states(), config.floor)?;
        let builder = TheoremBuilder::new(event, provider)?;
        Ok(Planner {
            lppm,
            builder,
            target,
            eps_hi: EPS_CEILING.max(target),
            config: config.clone(),
            warm_capacity: None,
            steps: Vec::with_capacity(horizon),
        })
    }

    /// All `m` candidate emission columns and their Theorem inputs at one
    /// budget, against the current committed history.
    fn step_inputs(&mut self, budget: f64) -> Result<(Vec<Vector>, Vec<TheoremInputs>)> {
        let built;
        let mechanism = if budget == self.lppm.budget() {
            self.lppm.as_ref()
        } else {
            built = self.lppm.with_budget(budget)?;
            built.as_ref()
        };
        let m = mechanism.num_cells();
        let mut columns = Vec::with_capacity(m);
        let mut inputs = Vec::with_capacity(m);
        for o in 0..m {
            let col = mechanism.emission_column(CellId(o));
            inputs.push(self.builder.candidate(&col)?);
            columns.push(col);
        }
        Ok((columns, inputs))
    }

    /// Whether every candidate column certifies the target, fanned out over
    /// the configured worker threads.
    fn all_certify(&self, inputs: &[TheoremInputs]) -> bool {
        let checker = &TheoremChecker::new(self.target, SolverConfig::default());
        let check = |chunk: &[TheoremInputs]| {
            chunk
                .iter()
                .all(|inp| checker.check(&inp.a, &inp.b, &inp.c).satisfied())
        };
        let threads = self.config.threads.clamp(1, inputs.len().max(1));
        if threads == 1 {
            return check(inputs);
        }
        let chunk_len = inputs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(chunk_len)
                .map(|chunk| scope.spawn(move || check(chunk)))
                .collect();
            handles
                .into_iter()
                .all(|h| h.join().expect("planner worker panicked"))
        })
    }

    /// Greedy search for one timestep starting from `start` (the previous
    /// step's budget); returns the chosen budget for warm-starting the
    /// next step.
    fn plan_step_greedy(&mut self, start: f64) -> Result<f64> {
        let base = self.lppm.budget();
        self.plan_step_search(start, base)
    }

    /// The shared descend-then-climb search: descend the geometric ladder
    /// from `start` until every emission column certifies (the floor is
    /// always the last rung evaluated), then climb back up while slack
    /// allows — but never above `cap`. `plan_greedy` caps at the base
    /// budget; the knapsack repair caps at the proposed allocation plus
    /// whatever slack earlier steps banked.
    fn plan_step_search(&mut self, start: f64, cap: f64) -> Result<f64> {
        let cap = cap.clamp(self.config.floor, self.lppm.budget());
        let cfg = self.config.clone();
        let mut budget = start.clamp(cfg.floor, cap);
        let mut rungs = 0usize;

        // Descend until feasible; the floor is always the last rung
        // actually evaluated before a step is declared infeasible.
        let (mut columns, mut inputs, feasible) = loop {
            rungs += 1;
            let (cols, inp) = self.step_inputs(budget)?;
            if self.all_certify(&inp) {
                break (cols, inp, true);
            }
            if budget <= cfg.floor {
                break (cols, inp, false);
            }
            budget = (budget * cfg.backoff).max(cfg.floor);
        };

        // Climb back toward the cap while slack allows.
        if feasible {
            while budget < cap {
                let up = (budget / cfg.backoff).min(cap);
                rungs += 1;
                let (cols, inp) = self.step_inputs(up)?;
                if self.all_certify(&inp) {
                    budget = up;
                    columns = cols;
                    inputs = inp;
                } else {
                    break;
                }
            }
        }

        self.record_step(budget, feasible, rungs, &columns, &inputs)?;
        Ok(budget)
    }

    /// Evaluates one timestep at a fixed budget (no search).
    fn plan_step_fixed(&mut self, budget: f64) -> Result<()> {
        let budget = budget.max(self.config.floor);
        let (columns, inputs) = self.step_inputs(budget)?;
        let feasible = self.all_certify(&inputs);
        self.record_step(budget, feasible, 1, &columns, &inputs)
    }

    /// Bisects per-column capacities for reporting, records the step, and
    /// commits the most-revealing column as the canonical history.
    fn record_step(
        &mut self,
        budget: f64,
        certified: bool,
        rungs: usize,
        columns: &[Vector],
        inputs: &[TheoremInputs],
    ) -> Result<()> {
        let capacities = min_certifiable_epsilons(
            inputs,
            EPS_FLOOR,
            self.eps_hi,
            CAPACITY_TOLERANCE,
            &SolverConfig::default(),
            self.config.threads,
            self.warm_capacity,
        );
        // Step capacity: the worst per-column capacity; off-scale columns
        // (`None`) make the whole step off-scale.
        let capacity = capacities
            .iter()
            .map(|c| c.min_epsilon)
            .try_fold(f64::NEG_INFINITY, |acc, c| c.map(|v| acc.max(v)));
        // Canonical history: commit the most-revealing column, selected by
        // its *exact* closed-form realized loss under the uniform prior —
        // NOT by the bisected capacities, whose trailing bits shift with
        // warm-start chunk boundaries and would make the plan depend on
        // the `threads` knob whenever symmetric columns tie.
        let uniform = Vector::uniform(columns[0].len());
        let (worst_idx, _) = inputs
            .iter()
            .map(|inp| inp.privacy_loss(&uniform).unwrap_or(f64::INFINITY))
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |(bi, bv), (i, v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            });
        self.warm_capacity = capacity;
        self.steps.push(PlannedStep {
            t: self.steps.len() + 1,
            budget,
            capacity,
            slack: capacity.map_or(f64::NEG_INFINITY, |c| self.target - c),
            certified,
            rungs,
        });
        self.builder.commit(columns[worst_idx].clone())?;
        Ok(())
    }

    fn finish(self) -> BudgetPlan {
        BudgetPlan {
            target: self.target,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_core::test_support::{homogeneous_world, plm};
    use priste_geo::GridMap;
    use priste_markov::Homogeneous;

    fn world() -> (GridMap, Homogeneous) {
        homogeneous_world(3, 1.0)
    }

    fn presence(m: usize) -> StEvent {
        priste_core::test_support::presence(m, 3, 2, 3)
    }

    #[test]
    fn greedy_certifies_and_beats_uniform_split_on_utility() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        let greedy = plan_greedy(plm(&grid, 2.0), &event, provider.clone(), 4, 1.0, &cfg).unwrap();
        assert!(greedy.all_certified(), "greedy plan: {greedy:?}");
        let certified = greedy.certified_epsilon().unwrap();
        assert!(
            certified <= 1.0 + CAPACITY_TOLERANCE,
            "certified ε {certified} must not exceed the target"
        );
        let uniform = plan_uniform_split(plm(&grid, 2.0), &event, provider, 4, 1.0, &cfg).unwrap();
        assert!(
            greedy.mean_budget() >= uniform.mean_budget(),
            "greedy {} must not waste more budget than the uniform split {}",
            greedy.mean_budget(),
            uniform.mean_budget()
        );
    }

    #[test]
    fn per_step_slack_is_consistent() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let plan = plan_greedy(
            plm(&grid, 1.0),
            &event,
            provider,
            3,
            1.5,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.steps.len(), 3);
        for (i, s) in plan.steps.iter().enumerate() {
            assert_eq!(s.t, i + 1);
            assert!(s.rungs >= 1);
            if let Some(c) = s.capacity {
                assert!((s.slack - (1.5 - c)).abs() < 1e-12);
                if s.certified {
                    assert!(c <= 1.5 + 1e-3, "certified step with capacity {c}");
                }
            }
        }
    }

    #[test]
    fn threaded_planning_matches_sequential() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let seq_cfg = PlannerConfig::default();
        let par_cfg = PlannerConfig {
            threads: 3,
            ..PlannerConfig::default()
        };
        let seq = plan_greedy(plm(&grid, 2.0), &event, provider.clone(), 3, 0.8, &seq_cfg).unwrap();
        let par = plan_greedy(plm(&grid, 2.0), &event, provider, 3, 0.8, &par_cfg).unwrap();
        assert_eq!(seq.steps.len(), par.steps.len());
        for (s, p) in seq.steps.iter().zip(&par.steps) {
            assert_eq!(s.budget, p.budget, "budget choice must be thread-invariant");
            assert_eq!(s.certified, p.certified);
        }
    }

    #[test]
    fn infeasible_targets_are_reported_not_hidden() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        // A floor of 0.5 with a sharp mechanism cannot certify ε* = 1e-4.
        let cfg = PlannerConfig {
            floor: 0.5,
            ..PlannerConfig::default()
        };
        let plan = plan_greedy(plm(&grid, 2.0), &event, provider, 3, 1e-4, &cfg).unwrap();
        assert!(!plan.all_certified());
        assert_eq!(plan.certified_epsilon(), None);
        assert!(plan.steps.iter().any(|s| !s.certified && s.slack < 0.0));
    }

    #[test]
    fn planner_rejects_bad_inputs() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        assert!(matches!(
            plan_greedy(plm(&grid, 1.0), &event, provider.clone(), 0, 1.0, &cfg),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        assert!(matches!(
            plan_greedy(plm(&grid, 1.0), &event, provider.clone(), 3, -1.0, &cfg),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        let other = GridMap::new(2, 2, 1.0).unwrap();
        assert!(matches!(
            plan_greedy(plm(&other, 1.0), &event, provider, 3, 1.0, &cfg),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        let bad = PlannerConfig {
            backoff: 0.0,
            ..PlannerConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn planner_rejects_zero_threads() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig {
            threads: 0,
            ..PlannerConfig::default()
        };
        // `0` is not "all cores" here: it must be a config error, not a
        // silent single thread.
        match plan_greedy(plm(&grid, 2.0), &event, provider, 2, 1.0, &cfg) {
            Err(CalibrateError::InvalidConfig { message }) => {
                assert!(message.contains("threads"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn knapsack_with_concave_utility_matches_or_beats_greedy() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        let model = crate::utility::PlanarLaplaceError;
        let greedy = plan_greedy(plm(&grid, 2.0), &event, provider.clone(), 4, 1.0, &cfg).unwrap();
        let knap = plan_knapsack(plm(&grid, 2.0), &event, provider, 4, 1.0, &cfg, &model).unwrap();
        assert_eq!(knap.steps.len(), 4);
        assert!(
            knap.certified_steps() >= greedy.certified_steps(),
            "knapsack must not lose certification: {knap:?}"
        );
        assert!(
            knap.total_utility(&model) >= greedy.total_utility(&model) - 1e-12,
            "knapsack {} below greedy {}",
            knap.total_utility(&model),
            greedy.total_utility(&model)
        );
        if knap.all_certified() {
            let certified = knap.certified_epsilon().unwrap();
            assert!(
                certified <= 1.0 + CAPACITY_TOLERANCE,
                "certified ε {certified}"
            );
        }
    }

    #[test]
    fn knapsack_with_degenerate_flat_utility_falls_back_to_greedy() {
        struct Flat;
        impl crate::utility::UtilityModel for Flat {
            fn utility(&self, _epsilon: f64) -> f64 {
                0.0 // all-zero slopes: nothing to allocate
            }
            fn name(&self) -> &str {
                "flat"
            }
        }
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        let greedy = plan_greedy(plm(&grid, 2.0), &event, provider.clone(), 3, 1.0, &cfg).unwrap();
        let knap = plan_knapsack(plm(&grid, 2.0), &event, provider, 3, 1.0, &cfg, &Flat).unwrap();
        assert_eq!(knap, greedy, "flat utility must return the greedy plan");
    }

    #[test]
    fn knapsack_with_the_linear_legacy_proxy_falls_back_to_greedy() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        let greedy = plan_greedy(plm(&grid, 2.0), &event, provider.clone(), 3, 0.8, &cfg).unwrap();
        let knap = plan_knapsack(
            plm(&grid, 2.0),
            &event,
            provider,
            3,
            0.8,
            &cfg,
            &crate::utility::MeanEpsilon,
        )
        .unwrap();
        // Greedy already maximizes per-step budget; a linear objective
        // cannot beat it, so the fallback must fire.
        assert!(
            knap.total_utility(&crate::utility::MeanEpsilon) <= greedy.mean_budget() * 3.0 + 1e-9
        );
        assert!(knap.all_certified() == greedy.all_certified());
    }

    #[test]
    fn knapsack_with_probes_rejects_mismatched_probe_plans() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        let model = crate::utility::PlanarLaplaceError;
        let greedy = plan_greedy(plm(&grid, 2.0), &event, provider.clone(), 2, 1.0, &cfg).unwrap();
        let uniform =
            plan_uniform_split(plm(&grid, 2.0), &event, provider.clone(), 2, 1.0, &cfg).unwrap();
        // Wrong horizon.
        assert!(matches!(
            plan_knapsack_with_probes(
                plm(&grid, 2.0),
                &event,
                provider.clone(),
                3,
                1.0,
                &cfg,
                &model,
                &greedy,
                &uniform,
            ),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        // Wrong target.
        assert!(matches!(
            plan_knapsack_with_probes(
                plm(&grid, 2.0),
                &event,
                provider.clone(),
                2,
                0.5,
                &cfg,
                &model,
                &greedy,
                &uniform,
            ),
            Err(CalibrateError::InvalidConfig { .. })
        ));
        // Matching probes reproduce plan_knapsack exactly.
        let direct = plan_knapsack(
            plm(&grid, 2.0),
            &event,
            provider.clone(),
            2,
            1.0,
            &cfg,
            &model,
        )
        .unwrap();
        let reused = plan_knapsack_with_probes(
            plm(&grid, 2.0),
            &event,
            provider,
            2,
            1.0,
            &cfg,
            &model,
            &greedy,
            &uniform,
        )
        .unwrap();
        assert_eq!(direct, reused);
    }

    #[test]
    fn uniform_split_budget_is_clamped_into_the_mechanism_range() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig::default();
        // target/T = 8 would exceed the base budget α = 2: must clamp.
        let plan = plan_uniform_split(plm(&grid, 2.0), &event, provider, 2, 16.0, &cfg).unwrap();
        for s in &plan.steps {
            assert!(s.budget <= 2.0 + 1e-12, "budget {} above base", s.budget);
            assert!(s.budget >= cfg.floor);
        }
    }

    #[test]
    fn budget_ladder_is_ascending_and_bounded() {
        let cfg = PlannerConfig::default();
        let rungs = budget_ladder(2.0, &cfg);
        assert_eq!(rungs.first().copied(), Some(cfg.floor));
        assert_eq!(rungs.last().copied(), Some(2.0));
        assert!(rungs.windows(2).all(|w| w[0] < w[1]), "{rungs:?}");
        // A backoff of 0.999 must hit the length cap, not spin.
        let slow = PlannerConfig {
            backoff: 0.999,
            ..PlannerConfig::default()
        };
        let rungs = budget_ladder(2.0, &slow);
        assert!(rungs.len() <= MAX_LADDER_RUNGS + 1);
        assert_eq!(rungs.first().copied(), Some(slow.floor));
    }

    #[test]
    fn concave_envelope_bridges_convex_dips() {
        // A saturated quality-loss curve has a flat plateau then a concave
        // rise; the envelope must bridge the plateau with one chord so the
        // marginal densities are non-increasing.
        let model = crate::utility::PlmQualityLoss::new(4.0);
        let rungs = budget_ladder(2.0, &PlannerConfig::default());
        let hull = concave_envelope(&rungs, &model);
        assert!(hull.len() >= 2);
        let mut prev_density = f64::INFINITY;
        for pair in hull.windows(2) {
            let d = (pair[1].1 - pair[0].1) / (pair[1].0 - pair[0].0);
            assert!(
                d <= prev_density + 1e-12,
                "densities must be non-increasing: {hull:?}"
            );
            prev_density = d;
        }
    }

    #[test]
    fn plan_display_is_the_stable_csv_table() {
        let plan = BudgetPlan {
            target: 0.8,
            steps: vec![
                PlannedStep {
                    t: 1,
                    budget: 0.125,
                    capacity: Some(0.6459),
                    slack: 0.1541,
                    certified: true,
                    rungs: 5,
                },
                PlannedStep {
                    t: 2,
                    budget: 0.0625,
                    capacity: None,
                    slack: f64::NEG_INFINITY,
                    certified: false,
                    rungs: 1,
                },
            ],
        };
        assert_eq!(
            plan.to_string(),
            "t,budget,capacity,slack,verdict\n\
             1,0.125000,0.6459,0.1541,certified\n\
             2,0.062500,off-scale,-inf,INFEASIBLE"
        );
    }

    #[test]
    fn total_utility_sums_the_model_over_steps() {
        let plan = BudgetPlan {
            target: 1.0,
            steps: vec![
                PlannedStep {
                    t: 1,
                    budget: 0.5,
                    capacity: None,
                    slack: f64::NEG_INFINITY,
                    certified: true,
                    rungs: 1,
                },
                PlannedStep {
                    t: 2,
                    budget: 1.0,
                    capacity: None,
                    slack: f64::NEG_INFINITY,
                    certified: true,
                    rungs: 1,
                },
            ],
        };
        let u = plan.total_utility(&crate::utility::PlanarLaplaceError);
        assert!((u - (-4.0 - 2.0)).abs() < 1e-12, "{u}");
        assert!((plan.total_utility(&crate::utility::MeanEpsilon) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn planner_rejects_a_floor_above_the_base_budget() {
        let (grid, provider) = world();
        let event = presence(grid.num_cells());
        let cfg = PlannerConfig {
            floor: 3.0,
            ..PlannerConfig::default()
        };
        // α = 2 < floor = 3: must be a config error, not a clamp panic.
        assert!(matches!(
            plan_greedy(plm(&grid, 2.0), &event, provider, 2, 1.0, &cfg),
            Err(CalibrateError::InvalidConfig { .. })
        ));
    }
}
