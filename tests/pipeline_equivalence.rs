//! Property-based equivalence: a [`Pipeline`]-constructed stack must be
//! **bit-identical** to the hand-constructed per-crate stacks on the same
//! seed — the builder is sugar, never a semantic fork.
//!
//! Covered: `.audit()` vs hand-built `Priste` (ReleaseRecord streams),
//! `.enforce()` vs hand-built `CalibratedMechanism` (CalibratedRelease
//! streams), `.serve_enforcing()` vs hand-built `SessionManager`
//! (EnforcedRelease streams), and the parallel batched ingest vs the
//! sequential path.

use priste::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use priste::core::test_support::{gaussian_world as world, presence};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `.audit()` replays Algorithm 2 exactly: same candidates, same
    /// budgets, same releases, bit for bit.
    #[test]
    fn audit_equals_hand_constructed_priste(
        seed in 0u64..1000,
        alpha in 0.3f64..2.0,
        epsilon in 0.4f64..1.5,
    ) {
        let (grid, chain) = world(3, 1.0);
        let m = grid.num_cells();
        let event = presence(m, 3, 2, 4);
        let steps = 6;

        // Hand-constructed: per-crate entry points.
        let events = vec![event.clone()];
        let source = PlmSource::new(grid.clone(), alpha).unwrap();
        let mut by_hand = Priste::new(
            &events,
            Homogeneous::new(chain.clone()),
            source,
            grid.clone(),
            PristeConfig::with_epsilon(epsilon),
        )
        .unwrap();

        // Pipeline-constructed.
        let mut piped = Pipeline::on(grid.clone())
            .mobility(chain.clone())
            .event(event)
            .planar_laplace(alpha)
            .target_epsilon(epsilon)
            .audit()
            .unwrap();

        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let traj = chain
            .sample_trajectory_from(&Vector::uniform(m), steps, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        for &loc in &traj {
            let a: ReleaseRecord = by_hand.release(loc, &mut rng_a).unwrap();
            let b: ReleaseRecord = piped.release(loc, &mut rng_b).unwrap();
            prop_assert_eq!(a, b, "audit streams diverged");
        }
    }

    /// `.enforce()` replays the calibration guard exactly.
    #[test]
    fn enforce_equals_hand_constructed_calibrated_mechanism(
        seed in 0u64..1000,
        alpha in 1.0f64..3.0,
        target in 0.2f64..1.0,
    ) {
        let (grid, chain) = world(3, 1.0);
        let m = grid.num_cells();
        let event = presence(m, 3, 2, 4);
        let guard = GuardConfig { target_epsilon: target, ..GuardConfig::default() };

        let mut by_hand = CalibratedMechanism::new(
            Box::new(PlanarLaplace::new(grid.clone(), alpha).unwrap()),
            std::slice::from_ref(&event),
            Homogeneous::new(chain.clone()),
            Vector::uniform(m),
            guard,
        )
        .unwrap();
        let mut piped = Pipeline::on(grid.clone())
            .mobility(chain.clone())
            .event(event)
            .planar_laplace(alpha)
            .target_epsilon(target)
            .enforce()
            .unwrap();

        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let traj = chain
            .sample_trajectory_from(&Vector::uniform(m), 5, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        for &loc in &traj {
            let a: CalibratedRelease = by_hand.release(loc, &mut rng_a).unwrap();
            let b: CalibratedRelease = piped.release(loc, &mut rng_b).unwrap();
            prop_assert_eq!(a, b, "calibrated streams diverged");
        }
    }

    /// `.serve_enforcing()` equals the hand-assembled enforcing service,
    /// release by release, and the parallel batch path equals per-user
    /// sequential guard semantics (same per-shard RNG streams).
    #[test]
    fn serve_enforcing_equals_hand_constructed_manager(
        seed in 0u64..500,
        users in 3u64..12,
        target in 0.5f64..1.2,
    ) {
        let (grid, chain) = world(3, 1.0);
        let m = grid.num_cells();
        let event = presence(m, 3, 2, 4);
        let alpha = 2.0;
        let online = OnlineConfig { epsilon: target, num_shards: 4, linger: 2, budget: 1e6 };
        let guard = GuardConfig { target_epsilon: target, ..GuardConfig::default() };

        // Hand-constructed.
        let provider = Arc::new(Homogeneous::new(chain.clone()));
        let mut by_hand = SessionManager::new(
            provider as SharedProvider,
            online.clone(),
        ).unwrap();
        let tpl = by_hand.register_template(event.clone()).unwrap();
        by_hand
            .enable_enforcement(
                Box::new(PlanarLaplace::new(grid.clone(), alpha).unwrap()),
                guard,
            )
            .unwrap();

        // Pipeline-constructed.
        let mut piped = Pipeline::on(grid.clone())
            .mobility(chain.clone())
            .event(event)
            .planar_laplace(alpha)
            .target_epsilon(target)
            .service_config(online)
            .serve_enforcing()
            .unwrap();

        for svc in [&mut by_hand, &mut piped] {
            for u in 0..users {
                svc.add_user(UserId(u), Vector::uniform(m)).unwrap();
                svc.attach_event(UserId(u), tpl).unwrap();
            }
        }

        for t in 0..3u64 {
            let batch: Vec<(UserId, CellId)> = (0..users)
                .map(|u| (UserId(u), CellId(((u + t * 3) % m as u64) as usize)))
                .collect();
            let a = by_hand.release_batch(&batch, seed + t, 1).unwrap();
            let b = piped.release_batch(&batch, seed + t, 3).unwrap();
            prop_assert_eq!(a, b, "enforced streams diverged at t={}", t);
        }
        prop_assert_eq!(by_hand.stats(), piped.stats());
    }

    /// The parallel audit-mode ingest is the sequential ingest, for any
    /// thread count and shard layout.
    #[test]
    fn parallel_ingest_equals_sequential(
        seed in 0u64..500,
        users in 4u64..16,
        shards in 1usize..6,
        threads in 1usize..5,
    ) {
        let (grid, chain) = world(3, 1.0);
        let m = grid.num_cells();
        let event = presence(m, 3, 2, 4);
        let online = OnlineConfig { epsilon: 1.0, num_shards: shards, linger: 2, budget: 1e6 };
        let pipeline = Pipeline::on(grid.clone())
            .mobility(chain.clone())
            .event(event)
            .planar_laplace(0.8)
            .service_config(online)
            .build()
            .unwrap();
        let mut seq = pipeline.serve().unwrap();
        let mut par = pipeline.serve().unwrap();
        for svc in [&mut seq, &mut par] {
            for u in 0..users {
                svc.add_user(UserId(u), Vector::uniform(m)).unwrap();
                svc.attach_event(UserId(u), 0).unwrap();
            }
        }
        let plm = pipeline.mechanism_instance().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            let batch: Vec<(UserId, Vector)> = (0..users)
                .map(|u| {
                    let obs = plm.perturb(CellId((u % m as u64) as usize), &mut rng);
                    (UserId(u), plm.emission_column(obs))
                })
                .collect();
            let a = seq.ingest_batch(&batch, 1).unwrap();
            let b = par.ingest_batch(&batch, threads).unwrap();
            prop_assert_eq!(a, b, "ingest reports diverged");
        }
        prop_assert_eq!(seq.stats(), par.stats());
    }
}
