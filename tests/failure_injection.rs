//! Failure-injection and adversarial-condition tests: the framework must
//! degrade with clear errors (or safe fallbacks), never silently.

use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn world() -> (GridMap, MarkovModel) {
    priste::core::test_support::gaussian_world(3, 1.0)
}

/// A mechanism source that fails after a configurable number of steps —
/// models an upstream fault (e.g. a posterior service going away).
struct FailingSource {
    inner: PlmSource,
    fail_after: usize,
    calls: usize,
}

impl MechanismSource for FailingSource {
    fn base_mechanism(&mut self, t: usize) -> priste::core::Result<Arc<Box<dyn Lppm>>> {
        self.calls += 1;
        if self.calls > self.fail_after {
            return Err(priste::core::CoreError::InvalidConfig {
                message: format!("injected fault at t={t}"),
            });
        }
        self.inner.base_mechanism(t)
    }

    fn on_release(&mut self, t: usize, observed: CellId, col: &Vector) -> priste::core::Result<()> {
        self.inner.on_release(t, observed, col)
    }
}

#[test]
fn source_faults_surface_as_errors_not_silent_releases() {
    let (grid, chain) = world();
    let events = vec![parse_event("PRESENCE(S={1:3}, T={2:3})", 9).unwrap()];
    let source = FailingSource {
        inner: PlmSource::new(grid.clone(), 0.5).unwrap(),
        fail_after: 2,
        calls: 0,
    };
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain),
        source,
        grid,
        PristeConfig::with_epsilon(1.0),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    assert!(priste.release(CellId(0), &mut rng).is_ok());
    assert!(priste.release(CellId(1), &mut rng).is_ok());
    let err = priste.release(CellId(2), &mut rng).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    // The framework did not advance past the failed step.
    assert_eq!(priste.released(), 2);
}

#[test]
fn invalid_configurations_are_rejected_up_front() {
    let (grid, chain) = world();
    let events = vec![parse_event("PRESENCE(S={1:3}, T={2:3})", 9).unwrap()];
    for config in [
        PristeConfig {
            epsilon: -1.0,
            ..Default::default()
        },
        PristeConfig {
            epsilon: f64::NAN,
            ..Default::default()
        },
    ] {
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        assert!(Priste::new(
            &events,
            Homogeneous::new(chain.clone()),
            source,
            grid.clone(),
            config
        )
        .is_err());
    }
}

#[test]
fn event_domain_mismatch_fails_at_construction() {
    let (grid, chain) = world();
    // Event over a 16-cell domain against a 9-cell world.
    let events = vec![parse_event("PRESENCE(S={1:4}, T={2:3})", 16).unwrap()];
    let source = PlmSource::new(grid.clone(), 0.5).unwrap();
    assert!(Priste::new(
        &events,
        Homogeneous::new(chain),
        source,
        grid,
        PristeConfig::default()
    )
    .is_err());
}

#[test]
fn one_pair_budget_forces_conservative_fallbacks_but_never_unsoundness() {
    // A work budget no check can complete: everything falls back to uniform
    // releases (budget 0) — maximum conservatism, zero leakage.
    let (grid, chain) = world();
    let event = parse_event("PRESENCE(S={1:3}, T={2:3})", 9).unwrap();
    let events = vec![event.clone()];
    let mut config = PristeConfig::with_epsilon(0.5);
    config.qp_work_budget = Some(1);
    let source = PlmSource::new(grid.clone(), 0.5).unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain.clone()),
        source,
        grid.clone(),
        config,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let traj = chain.sample_trajectory(CellId(4), 5, &mut rng).unwrap();
    let mut adversary =
        IncrementalTwoWorld::new(event, Homogeneous::new(chain), Vector::uniform(9)).unwrap();
    // Every rung of the guard's ladder (α = 0.5 halved to the 1e-3 floor)
    // draws one candidate whose check ends `Unknown`.
    let plm = Box::new(PlanarLaplace::new(grid.clone(), 0.5).unwrap());
    let rungs = GuardLadder::new(plm, GuardConfig::default())
        .unwrap()
        .rungs()
        .len() as u32;
    assert_eq!(rungs, 10);
    for &loc in &traj {
        let rec = priste.release(loc, &mut rng).unwrap();
        assert_eq!(
            rec.final_budget, 0.0,
            "nothing should certify within one pair"
        );
        assert_eq!(rec.conservative_hits, rungs);
        assert_eq!(rec.attempts, rungs);
        let uniform = UniformMechanism::new(9);
        let step = adversary
            .observe(&uniform.emission_column(rec.observed))
            .unwrap();
        assert!(
            (step.odds_lift - 1.0).abs() < 1e-9,
            "uniform releases leak nothing"
        );
    }
}

#[test]
fn reducible_chain_with_unreachable_event_region_is_degenerate_not_wrong() {
    // A chain that never leaves its half of the map: an event on the other
    // half has prior 0 for point priors there — quantification reports
    // degeneracy rather than fabricating a ratio.
    let m = Matrix::from_rows(&[
        vec![0.5, 0.5, 0.0, 0.0],
        vec![0.5, 0.5, 0.0, 0.0],
        vec![0.0, 0.0, 0.5, 0.5],
        vec![0.0, 0.0, 0.5, 0.5],
    ])
    .unwrap();
    let chain = MarkovModel::new(m).unwrap();
    let event = parse_event("PRESENCE(S={3:4}, T={2:3})", 4).unwrap();
    // Prior concentrated on the unreachable component.
    let pi = Vector::from(vec![0.5, 0.5, 0.0, 0.0]);
    assert!(IncrementalTwoWorld::new(event, Homogeneous::new(chain), pi).is_err());
}

#[test]
fn delta_source_survives_surprising_observations() {
    // Force observations that the posterior considered unlikely (true
    // location far from the posterior mode): the posterior update must stay
    // a valid distribution and never panic.
    let (grid, chain) = world();
    let events = vec![parse_event("PRESENCE(S={1:3}, T={2:3})", 9).unwrap()];
    let source = DeltaLocSource::new(
        grid.clone(),
        0.5, // aggressive restriction
        0.8,
        chain.clone(),
        Vector::uniform(9),
    )
    .unwrap();
    let mut priste = Priste::new(
        &events,
        Homogeneous::new(chain),
        source,
        grid,
        PristeConfig::with_epsilon(1.0),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    // Teleporting true locations (corner to corner) stress the tracker.
    for &loc in &[CellId(0), CellId(8), CellId(0), CellId(8), CellId(2)] {
        priste.release(loc, &mut rng).unwrap();
        priste.source().posterior().validate_distribution().unwrap();
    }
}
