//! ε-capacity analysis: the *smallest* ε a release sequence can certify.
//!
//! The framework answers "does this release satisfy a given ε?"; users
//! tuning a deployment usually ask the inverse — "what is the strongest
//! guarantee this mechanism can give for my event?". Both Theorem IV.1
//! inequalities are monotone in ε (larger ε is never harder — the
//! `larger_epsilon_never_harder` test in `priste-qp` pins this), so the
//! answer is a bisection over ε with the exact checker as the oracle.
//!
//! Two accelerations matter once capacities are queried in bulk (the
//! `priste-calibrate` planner bisects once per emission column per budget
//! rung):
//!
//! * **warm starts** — consecutive queries (adjacent timesteps, adjacent
//!   budgets) move the answer slowly, so seeding the bracket from the
//!   previous answer replaces the full `[eps_min, eps_max]` bisection with
//!   a few probes around the hint ([`min_certifiable_epsilon_warm`]);
//! * **threading** — independent bisections parallelize perfectly;
//!   [`min_certifiable_epsilons`] chunks a batch of [`TheoremInputs`]
//!   across a caller-chosen number of workers
//!   ([`priste_linalg::par::map_chunks`]).

use crate::TheoremInputs;
use priste_linalg::par;
use priste_qp::{SolverConfig, TheoremChecker};

/// Relative half-width of the initial warm-start window around a hint;
/// misses expand outward by doubling (exponential search).
const WARM_SLACK: f64 = 2e-3;

/// Hard cap on bisection iterations — a numerical safety net; any practical
/// tolerance converges long before.
const MAX_BISECTIONS: usize = 200;

/// Result of an ε-capacity query.
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonCapacity {
    /// The smallest ε (within `tolerance`) for which the check certifies,
    /// or `None` if even `eps_max` fails.
    pub min_epsilon: Option<f64>,
    /// Oracle calls (Theorem IV.1 checks) spent answering the query — the
    /// quantity warm starts shrink.
    pub iterations: usize,
    /// The final isolating bracket `(lo, hi)`: the check fails at `lo` and
    /// certifies at `hi`. Degenerate cases use sentinel bounds —
    /// `(0.0, eps_min)` when even `eps_min` certifies, `(eps_max, +∞)`
    /// when nothing in range does. Callers chain this (or `min_epsilon`)
    /// into the `warm` hint of the next query.
    pub bracket: (f64, f64),
}

/// Finds the smallest certifiable ε for one timestep's Theorem inputs by
/// bisection on `[eps_min, eps_max]`.
///
/// # Panics
/// Panics on a non-positive or inverted bracket (caller bug).
pub fn min_certifiable_epsilon(
    inputs: &TheoremInputs,
    eps_min: f64,
    eps_max: f64,
    tolerance: f64,
    solver: &SolverConfig,
) -> EpsilonCapacity {
    min_certifiable_epsilon_warm(inputs, eps_min, eps_max, tolerance, solver, None)
}

/// [`min_certifiable_epsilon`] with an optional warm-start hint — typically
/// the previous timestep's (or previous budget rung's, or a near-identical
/// sibling column's) answer.
///
/// The hint seeds a tight probe window around itself; if the boundary sits
/// inside, the bisection runs over that sliver instead of the full
/// `[eps_min, eps_max]` range. When the answer drifted, the window expands
/// *outward by doubling* (exponential search), so a hint at distance `d`
/// costs `O(log d)` extra probes and the final bisection still runs over a
/// bracket proportional to the drift — a stale hint degrades gracefully
/// toward the cold cost instead of falling off a cliff.
///
/// # Panics
/// Panics on a non-positive or inverted bracket, or a non-positive
/// tolerance (caller bug).
pub fn min_certifiable_epsilon_warm(
    inputs: &TheoremInputs,
    eps_min: f64,
    eps_max: f64,
    tolerance: f64,
    solver: &SolverConfig,
    warm: Option<f64>,
) -> EpsilonCapacity {
    assert!(
        eps_min > 0.0 && eps_min < eps_max,
        "invalid bracket [{eps_min}, {eps_max}]"
    );
    assert!(tolerance > 0.0, "tolerance must be positive");

    let mut calls = 0usize;
    let mut certifies = |eps: f64| {
        calls += 1;
        TheoremChecker::new(eps, solver.clone())
            .check(&inputs.a, &inputs.b, &inputs.c)
            .satisfied()
    };
    let floor_result = |calls: usize| EpsilonCapacity {
        min_epsilon: Some(eps_min),
        iterations: calls,
        bracket: (0.0, eps_min),
    };
    let unreachable_result = |calls: usize| EpsilonCapacity {
        min_epsilon: None,
        iterations: calls,
        bracket: (eps_max, f64::INFINITY),
    };

    // Establish an isolating bracket (lo fails, hi certifies), preferring
    // an exponential search around the hint when one is given.
    let hint = warm
        .filter(|w| w.is_finite() && *w > 0.0)
        .map(|w| w.clamp(eps_min, eps_max));
    let (mut lo, mut hi) = 'bracket: {
        let Some(w) = hint else {
            if !certifies(eps_max) {
                return unreachable_result(calls);
            }
            if certifies(eps_min) {
                return floor_result(calls);
            }
            break 'bracket (eps_min, eps_max);
        };
        let slack = (2.0 * tolerance).max(w * WARM_SLACK);
        let hi_probe = (w + slack).min(eps_max);
        let lo_probe = (w - slack).max(eps_min);
        if certifies(hi_probe) {
            if !certifies(lo_probe) {
                break 'bracket (lo_probe, hi_probe); // hint window isolates
            }
            // Boundary below the window: expand downward by doubling.
            let mut upper = lo_probe; // certifies
            let mut step = slack;
            loop {
                let next = (upper - step).max(eps_min);
                if next <= eps_min {
                    if certifies(eps_min) {
                        return floor_result(calls);
                    }
                    break 'bracket (eps_min, upper);
                }
                if !certifies(next) {
                    break 'bracket (next, upper);
                }
                upper = next;
                step *= 2.0;
            }
        } else {
            // Boundary above the window: expand upward by doubling.
            let mut lower = hi_probe; // fails
            let mut step = slack;
            loop {
                let next = (lower + step).min(eps_max);
                if next >= eps_max {
                    if !certifies(eps_max) {
                        return unreachable_result(calls);
                    }
                    break 'bracket (lower, eps_max);
                }
                if certifies(next) {
                    break 'bracket (lower, next);
                }
                lower = next;
                step *= 2.0;
            }
        }
    };

    let mut bisections = 0usize;
    while hi - lo > tolerance && bisections < MAX_BISECTIONS {
        bisections += 1;
        let mid = 0.5 * (lo + hi);
        if certifies(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    EpsilonCapacity {
        min_epsilon: Some(hi),
        iterations: calls,
        bracket: (lo, hi),
    }
}

/// Bulk ε-capacity: one bisection per [`TheoremInputs`], fanned out over
/// `threads` workers ([`par::map_chunks`]: `0` = one per available core).
///
/// Every query is seeded with the caller's `warm` hint alone, so each
/// answer depends only on its own inputs and the result is bit-identical
/// for any `threads` value.
pub fn min_certifiable_epsilons(
    inputs: &[TheoremInputs],
    eps_min: f64,
    eps_max: f64,
    tolerance: f64,
    solver: &SolverConfig,
    threads: usize,
    warm: Option<f64>,
) -> Vec<EpsilonCapacity> {
    par::map_chunks(inputs, threads, |chunk| {
        chunk
            .iter()
            .map(|inp| min_certifiable_epsilon_warm(inp, eps_min, eps_max, tolerance, solver, warm))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TheoremBuilder;
    use priste_event::StEvent;
    use priste_linalg::Vector;
    use priste_markov::Homogeneous;

    fn setup() -> (StEvent, Homogeneous) {
        // Shared scaffolding: presence over the first two cells of the
        // paper's 3-state example, protected during timestamps 2–3.
        (
            priste_core::test_support::presence(3, 2, 2, 3),
            priste_core::test_support::paper_chain(),
        )
    }

    #[test]
    fn uninformative_columns_certify_tiny_epsilon() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let flat = Vector::from(vec![1.0 / 3.0; 3]);
        let inputs = builder.candidate(&flat).unwrap();
        let cap = min_certifiable_epsilon(&inputs, 1e-4, 4.0, 1e-4, &SolverConfig::default());
        assert_eq!(
            cap.min_epsilon,
            Some(1e-4),
            "flat column should certify at the floor"
        );
        assert_eq!(cap.bracket, (0.0, 1e-4));
    }

    #[test]
    fn informative_columns_need_more_epsilon() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let mild = Vector::from(vec![0.4, 0.35, 0.25]);
        let sharp = Vector::from(vec![0.9, 0.05, 0.05]);
        let cfg = SolverConfig::default();
        let mild_eps =
            min_certifiable_epsilon(&builder.candidate(&mild).unwrap(), 1e-4, 8.0, 1e-4, &cfg)
                .min_epsilon
                .unwrap();
        let sharp_eps =
            min_certifiable_epsilon(&builder.candidate(&sharp).unwrap(), 1e-4, 8.0, 1e-4, &cfg)
                .min_epsilon
                .unwrap();
        assert!(
            sharp_eps > mild_eps + 0.05,
            "sharper evidence must need more ε: {sharp_eps} vs {mild_eps}"
        );
    }

    #[test]
    fn bisection_result_is_a_boundary() {
        // Just below the returned ε the check fails; at it, it certifies.
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let col = Vector::from(vec![0.7, 0.2, 0.1]);
        let inputs = builder.candidate(&col).unwrap();
        let cfg = SolverConfig::default();
        let cap = min_certifiable_epsilon(&inputs, 1e-4, 8.0, 1e-5, &cfg);
        let eps = cap.min_epsilon.unwrap();
        let at = TheoremChecker::new(eps, cfg.clone()).check(&inputs.a, &inputs.b, &inputs.c);
        assert!(at.satisfied());
        let below =
            TheoremChecker::new((eps - 1e-3).max(1e-6), cfg).check(&inputs.a, &inputs.b, &inputs.c);
        assert!(!below.satisfied(), "ε − 0.001 should fail at the boundary");
        let (lo, hi) = cap.bracket;
        assert!(lo < hi && hi == eps, "bracket must end at the answer");
        assert!(hi - lo <= 1e-5, "bracket must be within tolerance");
    }

    #[test]
    fn warm_start_matches_cold_and_spends_fewer_oracle_calls() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let col = Vector::from(vec![0.7, 0.2, 0.1]);
        let inputs = builder.candidate(&col).unwrap();
        let cfg = SolverConfig::default();
        let cold = min_certifiable_epsilon(&inputs, 1e-4, 8.0, 1e-5, &cfg);
        let warm = min_certifiable_epsilon_warm(&inputs, 1e-4, 8.0, 1e-5, &cfg, cold.min_epsilon);
        assert!(
            (warm.min_epsilon.unwrap() - cold.min_epsilon.unwrap()).abs() <= 1e-5,
            "warm {warm:?} vs cold {cold:?}"
        );
        assert!(
            warm.iterations < cold.iterations,
            "a good hint must save oracle calls: warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn bad_warm_hints_still_converge() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let col = Vector::from(vec![0.7, 0.2, 0.1]);
        let inputs = builder.candidate(&col).unwrap();
        let cfg = SolverConfig::default();
        let cold = min_certifiable_epsilon(&inputs, 1e-4, 8.0, 1e-5, &cfg)
            .min_epsilon
            .unwrap();
        for hint in [1e-4, 7.9, 1e9, -3.0, f64::NAN] {
            let warm = min_certifiable_epsilon_warm(&inputs, 1e-4, 8.0, 1e-5, &cfg, Some(hint));
            assert!(
                (warm.min_epsilon.unwrap() - cold).abs() <= 2e-5,
                "hint {hint}: {warm:?} vs cold {cold}"
            );
        }
    }

    #[test]
    fn threaded_curve_matches_sequential() {
        let (ev, chain) = setup();
        let cols: Vec<Vector> = [
            vec![0.5, 0.3, 0.2],
            vec![0.7, 0.2, 0.1],
            vec![0.2, 0.6, 0.2],
            vec![0.4, 0.4, 0.2],
            vec![0.6, 0.1, 0.3],
        ]
        .into_iter()
        .map(Vector::from)
        .collect();
        // The per-timestep curve of one release sequence, as the planner
        // collects it: candidate, then commit, at every step.
        let mut builder = TheoremBuilder::new(&ev, chain).unwrap();
        let inputs: Vec<TheoremInputs> = cols
            .iter()
            .map(|col| {
                let inp = builder.candidate(col).unwrap();
                builder.commit(col.clone()).unwrap();
                inp
            })
            .collect();
        let cfg = SolverConfig::default();
        for warm in [None, Some(0.5)] {
            let seq = min_certifiable_epsilons(&inputs, 1e-4, 8.0, 1e-3, &cfg, 1, warm);
            let par = min_certifiable_epsilons(&inputs, 1e-4, 8.0, 1e-3, &cfg, 3, warm);
            assert_eq!((seq.len(), par.len()), (5, 5));
            // Moderately informative columns stay certifiable at every step.
            assert!(seq.iter().all(|c| c.min_epsilon.is_some()));
            assert_eq!(seq, par, "capacities must not depend on the thread count");
        }
    }

    #[test]
    fn unreachable_bracket_reports_none() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let sharp = Vector::from(vec![0.98, 0.01, 0.01]);
        let inputs = builder.candidate(&sharp).unwrap();
        // ε ≤ 1e-3 cannot absorb this column's evidence.
        let cap = min_certifiable_epsilon(&inputs, 1e-4, 1e-3, 1e-5, &SolverConfig::default());
        assert_eq!(cap.min_epsilon, None);
        assert_eq!(cap.bracket, (1e-3, f64::INFINITY));
        // A warm hint cannot resurrect an unreachable bracket.
        let warm = min_certifiable_epsilon_warm(
            &inputs,
            1e-4,
            1e-3,
            1e-5,
            &SolverConfig::default(),
            Some(5e-4),
        );
        assert_eq!(warm.min_epsilon, None);
    }
}
