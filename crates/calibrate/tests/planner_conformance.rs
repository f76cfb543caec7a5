//! Cross-planner conformance: the soundness contract every budget planner
//! must share, pinned once so future planner work (multi-event joint
//! calibration, horizon-sound prefixes) can build on all three without
//! re-deriving their guarantees.
//!
//! For random worlds, chains and events, every plan emitted by
//! [`plan_uniform_split`], [`plan_greedy`] and [`plan_knapsack`] must:
//!
//! 1. **Re-certify offline** — replaying the plan through a fresh
//!    [`TheoremBuilder`] along the same canonical worst-column history
//!    reproduces each step's verdict exactly: a `certified` step means
//!    *every* emission column of the planned mechanism satisfies Theorem
//!    IV.1 at ε* for every adversarial prior.
//! 2. **Respect the budget bounds** — every planned ε_t lies in the
//!    mechanism's `[floor, base]` range, and the recorded slack is
//!    consistent with the recorded capacity.
//! 3. **Order on utility, each under the planner's own model** — the
//!    knapsack plan beats (or ties) greedy *and* uniform under its own
//!    concave [`UtilityModel`] outright, by construction (certified plans
//!    only; an uncertified plan achieves −∞). Greedy's own objective is
//!    the legacy mean-ε proxy ([`MeanEpsilon`]): it beats uniform there,
//!    up to one geometric ladder rung (greedy only lands on
//!    `base·backoff^k` rungs, so when ε*/T falls between two rungs greedy
//!    may sit one rung below it — the comparison discounts the uniform
//!    plan by one backoff step). Greedy is deliberately *not* required to
//!    beat uniform under a concave model: its lexicographic grab can
//!    starve later steps, which is precisely the gap `plan_knapsack`
//!    closes.

use priste_calibrate::{
    plan_greedy, plan_knapsack, plan_uniform_split, BudgetPlan, MeanEpsilon, PlanarLaplaceError,
    PlannerConfig, UtilityModel,
};
use priste_core::test_support::{gaussian_world, plm, presence};
use priste_event::StEvent;
use priste_geo::{CellId, GridMap};
use priste_linalg::Vector;
use priste_markov::{Homogeneous, MarkovModel};
use priste_qp::{SolverConfig, TheoremChecker};
use priste_quantify::TheoremBuilder;
use proptest::prelude::*;

/// One random planning scenario.
#[derive(Debug, Clone)]
struct Scenario {
    side: usize,
    sigma: f64,
    alpha: f64,
    target: f64,
    horizon: usize,
    event: StEvent,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=3, 6u8..=14, 10u8..=25, 4u8..=12, 2usize..=3).prop_flat_map(
        |(side, sigma10, alpha10, target10, horizon)| {
            let m = side * side;
            (1usize..=m.saturating_sub(1).max(1), 1usize..=2, 1usize..=2).prop_map(
                move |(hi, start, len)| Scenario {
                    side,
                    sigma: sigma10 as f64 / 10.0,
                    alpha: alpha10 as f64 / 10.0,
                    target: target10 as f64 / 10.0,
                    horizon,
                    event: presence(m, hi, start, start + len - 1),
                },
            )
        },
    )
}

fn world_of(s: &Scenario) -> (GridMap, Homogeneous) {
    let (grid, chain) = gaussian_world(s.side, s.sigma);
    (grid, Homogeneous::new(chain))
}

/// Offline replay of a plan along the canonical worst-column history:
/// rebuilds the mechanism at each planned budget, checks all `m` emission
/// columns at ε* and commits the most-revealing column — exactly the
/// planner's own evaluation, reproduced from scratch through the public
/// offline APIs.
fn replay(plan: &BudgetPlan, s: &Scenario, chain: MarkovModel) {
    let grid = GridMap::new(s.side, s.side, 1.0).unwrap();
    let reference = plm(&grid, s.alpha);
    let m = grid.num_cells();
    let mut builder = TheoremBuilder::new(&s.event, Homogeneous::new(chain)).unwrap();
    let checker = TheoremChecker::new(s.target, SolverConfig::default());
    let uniform_pi = Vector::uniform(m);
    for step in &plan.steps {
        let mech = reference.with_budget(step.budget).unwrap();
        let mut all_satisfied = true;
        let mut worst = (0usize, f64::NEG_INFINITY);
        let mut worst_column = None;
        for o in 0..m {
            let column = mech.emission_column(CellId(o));
            let inputs = builder.candidate(&column).unwrap();
            if !checker.check(&inputs.a, &inputs.b, &inputs.c).satisfied() {
                all_satisfied = false;
            }
            let loss = inputs.privacy_loss(&uniform_pi).unwrap_or(f64::INFINITY);
            if loss > worst.1 {
                worst = (o, loss);
                worst_column = Some(column);
            }
        }
        assert_eq!(
            step.certified, all_satisfied,
            "t={}: plan verdict {} but offline replay says {} (budget {})",
            step.t, step.certified, all_satisfied, step.budget
        );
        builder.commit(worst_column.expect("m >= 1")).unwrap();
    }
}

/// Certified total utility: an uncertified plan achieves nothing at ε*.
fn certified_utility(plan: &BudgetPlan, model: &dyn UtilityModel) -> f64 {
    if plan.all_certified() {
        plan.total_utility(model)
    } else {
        f64::NEG_INFINITY
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The shared contract, asserted for all three planners on one random
    /// scenario per case.
    #[test]
    fn planners_share_the_soundness_contract(s in scenario()) {
        let cfg = PlannerConfig::default();
        let model = PlanarLaplaceError;
        let (grid, provider) = world_of(&s);
        let chain = provider.model().clone();
        let base = s.alpha;

        let uniform = plan_uniform_split(
            plm(&grid, s.alpha), &s.event, provider.clone(), s.horizon, s.target, &cfg,
        ).unwrap();
        let greedy = plan_greedy(
            plm(&grid, s.alpha), &s.event, provider.clone(), s.horizon, s.target, &cfg,
        ).unwrap();
        let knapsack = plan_knapsack(
            plm(&grid, s.alpha), &s.event, provider, s.horizon, s.target, &cfg, &model,
        ).unwrap();

        for (name, plan) in [("uniform", &uniform), ("greedy", &greedy), ("knapsack", &knapsack)] {
            // (b) Structural bounds: horizon length, 1-based timesteps,
            // budgets inside [floor, base], slack consistent with capacity.
            prop_assert_eq!(plan.steps.len(), s.horizon, "{} plan length", name);
            for (i, step) in plan.steps.iter().enumerate() {
                prop_assert_eq!(step.t, i + 1, "{} timestep index", name);
                prop_assert!(
                    step.budget >= cfg.floor - 1e-12 && step.budget <= base + 1e-12,
                    "{name} t={} budget {} outside [{}, {base}]",
                    step.t, step.budget, cfg.floor
                );
                prop_assert!(step.rungs >= 1);
                if let Some(c) = step.capacity {
                    prop_assert!(
                        (step.slack - (s.target - c)).abs() < 1e-9,
                        "{name} t={} slack {} inconsistent with capacity {c}",
                        step.t, step.slack
                    );
                } else {
                    prop_assert!(step.slack == f64::NEG_INFINITY);
                }
            }

            // (a) Offline re-certification along the canonical history.
            replay(plan, &s, chain.clone());
        }

        // (c) Utility ordering under the knapsack's own model.
        let ku = certified_utility(&knapsack, &model);
        let gu = certified_utility(&greedy, &model);
        let uu = certified_utility(&uniform, &model);
        prop_assert!(
            ku >= gu - 1e-9,
            "knapsack {ku} below greedy {gu}\nknapsack {knapsack:?}\ngreedy {greedy:?}"
        );
        prop_assert!(
            ku >= uu - 1e-9,
            "knapsack {ku} below uniform {uu}\nknapsack {knapsack:?}\nuniform {uniform:?}"
        );
        if greedy.all_certified() && uniform.all_certified() {
            // Greedy's own objective is mean ε; one-rung discount because
            // greedy can only land on ladder rungs.
            let mean = MeanEpsilon;
            let discounted: f64 = uniform
                .steps
                .iter()
                .map(|st| mean.utility((st.budget * cfg.backoff).max(cfg.floor)))
                .sum();
            prop_assert!(
                greedy.total_utility(&mean) >= discounted - 1e-9,
                "greedy mean-ε {} below one-rung-discounted uniform {discounted}\n\
                 greedy {greedy:?}\nuniform {uniform:?}",
                greedy.total_utility(&mean)
            );
        }
    }
}

/// The degenerate-curve contract, outside proptest so it always runs on
/// the same scenario: a utility model with all-zero slopes must yield the
/// greedy-feasible plan — not an error, not a floor-only plan.
#[test]
fn zero_slope_utility_falls_back_to_the_greedy_plan() {
    struct Flat;
    impl UtilityModel for Flat {
        fn utility(&self, _epsilon: f64) -> f64 {
            1.0 // constant: every segment gain is exactly zero
        }
        fn name(&self) -> &str {
            "flat"
        }
    }
    let (grid, chain) = gaussian_world(3, 1.0);
    let event = presence(9, 3, 2, 3);
    let cfg = PlannerConfig::default();
    let greedy = plan_greedy(
        plm(&grid, 1.8),
        &event,
        Homogeneous::new(chain.clone()),
        3,
        0.9,
        &cfg,
    )
    .unwrap();
    let knapsack = plan_knapsack(
        plm(&grid, 1.8),
        &event,
        Homogeneous::new(chain),
        3,
        0.9,
        &cfg,
        &Flat,
    )
    .unwrap();
    assert_eq!(knapsack, greedy);
}
