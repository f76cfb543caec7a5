//! Property-based tests over cross-crate invariants (proptest).

use priste::prelude::*;
use proptest::prelude::*;

/// Strategy: a random row-stochastic matrix of size m.
fn stochastic_matrix(m: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, m), m).prop_map(move |rows| {
        let mut mat = Matrix::from_rows(&rows).unwrap();
        mat.normalize_rows_mut();
        mat
    })
}

/// Strategy: a random probability distribution of length m.
fn distribution(m: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.01f64..1.0, m).prop_map(|raw| {
        let mut v = Vector::from(raw);
        v.normalize_mut().unwrap();
        v
    })
}

/// Strategy: a proper (non-empty, non-full) region over m cells.
fn region(m: usize) -> impl Strategy<Value = Region> {
    proptest::collection::vec(proptest::bool::ANY, m)
        .prop_filter("region must be proper", |bits| {
            let k = bits.iter().filter(|&&b| b).count();
            k > 0 && k < bits.len()
        })
        .prop_map(move |bits| {
            Region::from_cells(
                m,
                bits.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| CellId(i)),
            )
            .unwrap()
        })
}

/// Strategy: a random PRESENCE or PATTERN event over m cells.
fn st_event(m: usize) -> impl Strategy<Value = StEvent> {
    (1usize..=3, 1usize..=3, region(m), proptest::bool::ANY).prop_flat_map(
        move |(start, len, r, is_presence)| {
            let end = start + len - 1;
            if is_presence {
                Just(StEvent::from(Presence::new(r.clone(), start, end).unwrap())).boxed()
            } else {
                proptest::collection::vec(region(m), len)
                    .prop_map(move |rs| StEvent::from(Pattern::new(rs, start).unwrap()))
                    .boxed()
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prior(EVENT) + Prior(¬EVENT) = 1 for every chain, event and π.
    #[test]
    fn prior_and_complement_partition_unity(
        mat in stochastic_matrix(4),
        pi in distribution(4),
        ev in st_event(4),
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let engine = TwoWorldEngine::new(&ev, chain).unwrap();
        let p = engine.prior(&pi).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
    }

    /// Two-world prior equals naive enumeration.
    #[test]
    fn two_world_prior_is_exact(
        mat in stochastic_matrix(3),
        pi in distribution(3),
        ev in st_event(3),
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let engine = TwoWorldEngine::new(&ev, &chain).unwrap();
        let fast = engine.prior(&pi).unwrap();
        let slow = naive::prior(&ev, &&chain, &pi, 1 << 22).unwrap();
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow} ({ev})");
    }

    /// The joint-with-event never exceeds the total observation likelihood,
    /// and the prior read off the Theorem inputs is time-invariant.
    #[test]
    fn joint_dominance_and_prior_invariance(
        mat in stochastic_matrix(3),
        pi in distribution(3),
        ev in st_event(3),
        cols in proptest::collection::vec(
            proptest::collection::vec(0.05f64..1.0, 3), 5),
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let mut builder = TheoremBuilder::new(&ev, chain).unwrap();
        let mut first_prior = None;
        for raw in cols {
            let col = Vector::from(raw);
            let inputs = builder.candidate(&col).unwrap();
            let jb = pi.dot(&inputs.b).unwrap();
            let jc = pi.dot(&inputs.c).unwrap();
            prop_assert!(jb <= jc + 1e-12);
            let prior = inputs.prior(&pi);
            if let Some(p0) = first_prior {
                let p0: f64 = p0;
                prop_assert!((prior - p0).abs() < 1e-9);
            }
            first_prior = Some(prior);
            builder.commit(col).unwrap();
        }
    }

    /// The Theorem IV.1 checker is invariant under joint (b, c) rescaling
    /// across 200 orders of magnitude.
    #[test]
    fn checker_scale_invariance(
        a in proptest::collection::vec(0.0f64..1.0, 4),
        b_raw in proptest::collection::vec(0.0f64..0.5, 4),
        extra in proptest::collection::vec(0.01f64..0.5, 4),
        log_gamma in -100f64..100.0,
    ) {
        let a = Vector::from(a);
        let b = Vector::from(b_raw);
        let c = b.add(&Vector::from(extra)).unwrap();
        let checker = TheoremChecker::new(0.5, SolverConfig::default());
        let v1 = checker.check(&a, &b, &c).satisfied();
        let gamma = log_gamma.exp();
        let v2 = checker.check(&a, &b.scale(gamma), &c.scale(gamma)).satisfied();
        prop_assert_eq!(v1, v2);
    }

    /// Emission rows of the Planar Laplace mechanism are distributions for
    /// any budget, and tighter budgets concentrate more mass on the truth.
    #[test]
    fn plm_rows_are_distributions_and_monotone(alpha in 0.05f64..4.0) {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let plm = PlanarLaplace::new(grid.clone(), alpha).unwrap();
        let mut emission = Matrix::zeros(9, 9);
        for o in 0..9 {
            for (i, &p) in plm.emission_column(CellId(o)).as_slice().iter().enumerate() {
                emission.set(i, o, p);
            }
        }
        emission.validate_stochastic().unwrap();
        let tighter = PlanarLaplace::new(grid, alpha * 2.0).unwrap();
        for i in 0..9 {
            prop_assert!(
                tighter.emission_column(CellId(i))[i] >= emission.get(i, i) - 1e-12
            );
        }
    }

    /// δ-location sets shrink monotonically in δ and always carry ≥ 1−δ of
    /// the prior mass.
    #[test]
    fn delta_location_set_mass_invariant(
        prior in distribution(9),
        delta in 0.05f64..0.9,
    ) {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let dls = DeltaLocationSet::new(grid, delta).unwrap();
        let set = dls.location_set(&prior).unwrap();
        let mass: f64 = set.iter().map(|c| prior[c.index()]).sum();
        prop_assert!(mass >= 1.0 - delta - 1e-12);
        // Removing the lowest-prior member must drop below the target
        // (minimality), unless the set is a single cell.
        if set.len() > 1 {
            let min_cell = set
                .iter()
                .min_by(|a, b| {
                    prior[a.index()].partial_cmp(&prior[b.index()]).unwrap()
                })
                .unwrap();
            prop_assert!(mass - prior[min_cell.index()] < 1.0 - delta + 1e-12);
        }
    }

    /// Ground-truth evaluation agrees between structured events and their
    /// Boolean expansions on random trajectories.
    #[test]
    fn event_expansion_equivalence(
        ev in st_event(4),
        traj in proptest::collection::vec(0usize..4, 6),
    ) {
        let cells: Vec<CellId> = traj.into_iter().map(CellId).collect();
        let expr = ev.to_expr();
        prop_assert_eq!(ev.eval(&cells).unwrap(), expr.eval(&cells).unwrap());
    }

    /// The event DSL round-trips every structured event.
    #[test]
    fn dsl_round_trip(ev in st_event(6)) {
        let rendered = priste::event::dsl::format_event(&ev);
        let parsed = parse_event(&rendered, 6).unwrap();
        prop_assert_eq!(parsed, ev);
    }
}
