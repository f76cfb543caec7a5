//! Cross-crate integration tests: the full PriSTE pipeline from world
//! construction through release to post-hoc verification, for both
//! framework instantiations.

use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (GridMap, MarkovModel) {
    priste::core::test_support::gaussian_world(4, 1.0)
}

/// Re-derives the emission column a release was produced under.
fn released_column(grid: &GridMap, rec: &ReleaseRecord) -> Vector {
    let mech: Box<dyn Lppm> = if rec.final_budget == 0.0 {
        Box::new(UniformMechanism::new(grid.num_cells()))
    } else {
        Box::new(PlanarLaplace::new(grid.clone(), rec.final_budget).unwrap())
    };
    mech.emission_column(rec.observed)
}

#[test]
fn algorithm2_guarantees_hold_for_many_adversarial_priors() {
    let (grid, chain) = world();
    let event = parse_event("PRESENCE(S={1:4}, T={2:4})", grid.num_cells()).unwrap();
    let events = vec![event.clone()];
    let epsilon = 0.7;
    let source = PlmSource::new(grid.clone(), 0.6).unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain.clone()),
        source,
        grid.clone(),
        PristeConfig::with_epsilon(epsilon),
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(123);
    let traj = chain.sample_trajectory(CellId(5), 7, &mut rng).unwrap();
    let mut columns = Vec::new();
    for &loc in &traj {
        let rec = priste.release(loc, &mut rng).unwrap();
        columns.push(released_column(&grid, &rec));
    }

    // Verify against a battery of adversarial priors: uniform, several
    // random simplex points, and near-point-masses (smoothed so the prior
    // is non-degenerate).
    let mut priors = vec![Vector::uniform(16)];
    let mut prior_rng = StdRng::seed_from_u64(321);
    for _ in 0..8 {
        let raw: Vec<f64> = (0..16)
            .map(|_| rand::Rng::gen::<f64>(&mut prior_rng) + 1e-3)
            .collect();
        let mut v = Vector::from(raw);
        v.normalize_mut().unwrap();
        priors.push(v);
    }
    for i in 0..16 {
        let mut v = Vector::filled(16, 0.002 / 15.0);
        v[i] = 0.998;
        priors.push(v);
    }

    for pi in priors {
        let Ok(mut q) =
            IncrementalTwoWorld::new(event.clone(), Homogeneous::new(chain.clone()), pi.clone())
        else {
            continue; // degenerate prior for this event — nothing to bound
        };
        for col in &columns {
            let step = q.observe(col).unwrap();
            assert!(
                step.privacy_loss <= epsilon + 1e-6,
                "π {:?} t={}: loss {} > ε",
                pi.as_slice(),
                step.t,
                step.privacy_loss
            );
        }
    }
}

#[test]
fn algorithm3_releases_stay_within_the_location_set_and_hold_epsilon() {
    let (grid, chain) = world();
    let event = parse_event("PRESENCE(S={1:4}, T={2:4})", grid.num_cells()).unwrap();
    let events = vec![event.clone()];
    let epsilon = 0.8;
    let delta = 0.3;
    let source =
        DeltaLocSource::new(grid.clone(), delta, 0.8, chain.clone(), Vector::uniform(16)).unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain.clone()),
        source,
        grid.clone(),
        PristeConfig::with_epsilon(epsilon),
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(5);
    let traj = chain.sample_trajectory(CellId(0), 6, &mut rng).unwrap();
    for &loc in &traj {
        let rec = priste.release(loc, &mut rng).unwrap();
        assert!(rec.observed.index() < 16);
        assert!(rec.final_budget <= 0.8);
    }
    // The posterior remains a valid distribution throughout.
    priste.source().posterior().validate_distribution().unwrap();
}

#[test]
fn multi_event_protection_binds_the_tighter_event() {
    let (grid, chain) = world();
    let near = parse_event("PRESENCE(S={1:4}, T={2:3})", 16).unwrap();
    let far = parse_event("PRESENCE(S={13:16}, T={5:6})", 16).unwrap();
    let both = vec![near.clone(), far.clone()];
    let single = vec![near.clone()];
    let mut budgets_both = Vec::new();
    let mut budgets_single = Vec::new();
    for (events, budgets) in [(&both, &mut budgets_both), (&single, &mut budgets_single)] {
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        let mut priste = Priste::new(
            events,
            Homogeneous::new(chain.clone()),
            source,
            grid.clone(),
            PristeConfig::with_epsilon(0.3),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let traj = chain.sample_trajectory(CellId(5), 7, &mut rng).unwrap();
        for &loc in &traj {
            budgets.push(priste.release(loc, &mut rng).unwrap().final_budget);
        }
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    assert!(
        sum(&budgets_both) <= sum(&budgets_single) + 1e-9,
        "protecting two events cannot be cheaper than one: {budgets_both:?} vs {budgets_single:?}"
    );
}

#[test]
fn dsl_specified_pattern_flows_through_the_framework() {
    let (grid, chain) = world();
    let event = parse_event("PATTERN(S=[{1:4},{5:8},{9:12}], T={2:4})", 16).unwrap();
    assert_eq!(event.window_len(), 3);
    let events = vec![event];
    let source = PlmSource::new(grid.clone(), 0.4).unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain.clone()),
        source,
        grid.clone(),
        PristeConfig::with_epsilon(1.0),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let traj = chain.sample_trajectory(CellId(10), 6, &mut rng).unwrap();
    for &loc in &traj {
        priste.release(loc, &mut rng).unwrap();
    }
    assert_eq!(priste.released(), 6);
}

#[test]
fn geolife_sim_world_supports_full_pipeline() {
    let world = geolife_sim::build(&geolife_sim::CommuterConfig {
        rows: 6,
        cols: 6,
        cell_size_km: 2.0,
        days: 8,
        steps_per_day: 16,
        seed: 3,
        ..Default::default()
    })
    .unwrap();
    let event = parse_event("PRESENCE(S={1:6}, T={3:5})", 36).unwrap();
    let events = vec![event];
    let source = PlmSource::new(world.grid.clone(), 0.5).unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(world.chain.clone()),
        source,
        world.grid.clone(),
        PristeConfig::with_epsilon(1.0),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    for &loc in world.trajectories[0].iter().take(10) {
        priste.release(loc, &mut rng).unwrap();
    }
    assert_eq!(priste.released(), 10);
}

#[test]
fn quantification_pipeline_matches_brute_force_on_released_stream() {
    // End-to-end agreement: run the framework, then confirm the committed
    // stream's joint probabilities against naive enumeration.
    let grid = GridMap::new(2, 2, 1.0).unwrap();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let event = parse_event("PRESENCE(S={1:2}, T={2:3})", 4).unwrap();
    let events = vec![event.clone()];
    let source = PlmSource::new(grid.clone(), 0.7).unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain.clone()),
        source,
        grid.clone(),
        PristeConfig::with_epsilon(1.5),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let traj = chain.sample_trajectory(CellId(0), 5, &mut rng).unwrap();
    let mut columns = Vec::new();
    for &loc in &traj {
        let rec = priste.release(loc, &mut rng).unwrap();
        columns.push(released_column(&grid, &rec));
    }

    let provider = Homogeneous::new(chain);
    let pi = Vector::uniform(4);
    let mut builder = TheoremBuilder::new(&event, provider.clone()).unwrap();
    for (t, col) in columns.iter().enumerate() {
        let inputs = builder.candidate(col).unwrap();
        let fast = pi.dot(&inputs.b).unwrap() * inputs.bc_log_scale.exp();
        let slow = naive::joint(&event, &&provider, &pi, &columns[..=t], 1 << 20).unwrap();
        assert!(
            (fast - slow).abs() <= 1e-10 * slow.max(1e-30),
            "t={}: {fast} vs {slow}",
            t + 1
        );
        builder.commit(col.clone()).unwrap();
    }
}
