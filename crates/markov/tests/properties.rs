//! Property-based tests for the Markov substrate.

use priste_geo::{CellId, GridMap};
use priste_linalg::{Matrix, Vector};
use priste_markov::{
    gaussian_kernel_chain, stationary_distribution, total_variation, train_mle, MarkovModel,
    TimeVarying, TransitionProvider,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stochastic(n: usize) -> impl Strategy<Value = MarkovModel> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, n), n).prop_map(|rows| {
        let mut m = Matrix::from_rows(&rows).unwrap();
        m.normalize_rows_mut();
        MarkovModel::new(m).unwrap()
    })
}

fn distribution(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.01f64..1.0, n).prop_map(|raw| {
        let mut v = Vector::from(raw);
        v.normalize_mut().unwrap();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// k-step propagation preserves probability mass and non-negativity.
    #[test]
    fn propagation_preserves_distributions(
        model in stochastic(4),
        pi in distribution(4),
        k in 0usize..12,
    ) {
        let p = model.step_k(&pi, k).unwrap();
        p.validate_distribution().unwrap();
    }

    /// Total variation is a metric-ish: symmetric, zero on identical
    /// inputs, bounded by 1 for distributions.
    #[test]
    fn total_variation_properties(a in distribution(5), b in distribution(5)) {
        let d = total_variation(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d));
        prop_assert!((total_variation(&b, &a) - d).abs() < 1e-12);
        prop_assert!(total_variation(&a, &a) < 1e-15);
    }

    /// The stationary distribution is a fixed point of every ergodic chain
    /// generated here (all entries positive ⇒ irreducible + aperiodic).
    #[test]
    fn stationary_is_fixed_point(model in stochastic(4)) {
        let pi = stationary_distribution(&model, 1e-12, 200_000).unwrap();
        let stepped = model.step(&pi).unwrap();
        prop_assert!(total_variation(&pi, &stepped) < 1e-8);
    }

    /// Sampled trajectories only use transitions with positive probability.
    #[test]
    fn sampling_respects_support(model in stochastic(4), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let traj = model.sample_trajectory(CellId(0), 40, &mut rng).unwrap();
        for w in traj.windows(2) {
            prop_assert!(model.prob(w[0], w[1]).unwrap() > 0.0);
        }
    }

    /// MLE training on data from a chain concentrates on observed support:
    /// every trained transition with mass was observed or smoothed.
    #[test]
    fn training_support_matches_observations(seed in 0u64..200) {
        let truth = MarkovModel::paper_example();
        let mut rng = StdRng::seed_from_u64(seed);
        let traj = truth.sample_trajectory(CellId(0), 400, &mut rng).unwrap();
        let fitted = train_mle(3, std::slice::from_ref(&traj), 0.0).unwrap();
        // Any transition the truth forbids must stay at zero (no smoothing).
        for i in 0..3 {
            let row_observed = traj.windows(2).any(|w| w[0].index() == i);
            for j in 0..3 {
                if row_observed && truth.transition_matrix().get(i, j) == 0.0 {
                    prop_assert_eq!(fitted.transition_matrix().get(i, j), 0.0);
                }
            }
        }
    }

    /// Gaussian kernels are monotone in σ at the diagonal: smaller σ means
    /// more self-transition mass.
    #[test]
    fn kernel_diagonal_monotone_in_sigma(s1 in 0.2f64..1.0, factor in 1.1f64..4.0) {
        let grid = GridMap::new(4, 4, 1.0).unwrap();
        let tight = gaussian_kernel_chain(&grid, s1).unwrap();
        let loose = gaussian_kernel_chain(&grid, s1 * factor).unwrap();
        for i in 0..16 {
            prop_assert!(
                tight.transition_matrix().get(i, i) >= loose.transition_matrix().get(i, i) - 1e-12
            );
        }
    }

    /// Time-varying providers agree with their schedule and persist the
    /// last regime.
    #[test]
    fn time_varying_schedule_semantics(
        models in proptest::collection::vec(stochastic(3), 1..4),
        t in 1usize..20,
    ) {
        let len = models.len();
        let tv = TimeVarying::new(models.clone()).unwrap();
        let expect = &models[(t - 1).min(len - 1)];
        prop_assert!(tv.transition_at(t).to_dense_matrix().max_abs_diff(&expect.transition_matrix().to_dense_matrix()) < 1e-15);
    }
}
