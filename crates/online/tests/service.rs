//! Service-level tests: the batched multi-user ingest path must be
//! observationally identical to driving each user's incremental quantifier
//! by hand, across shard counts, and the lifecycle (attach → quantify →
//! evict, budget accounting) must behave.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous, MarkovModel};
use priste_online::{OnlineConfig, OnlineError, SessionManager, UserId, Verdict};
use priste_quantify::{IncrementalTwoWorld, QuantifyError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn region(num_cells: usize, ids: &[usize]) -> Region {
    Region::from_cells(num_cells, ids.iter().map(|&i| CellId(i))).unwrap()
}

fn paper_chain() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(MarkovModel::paper_example()))
}

fn presence_template() -> StEvent {
    Presence::new(region(3, &[0, 1]), 2, 3).unwrap().into()
}

fn pattern_template() -> StEvent {
    Pattern::new(vec![region(3, &[0, 1]), region(3, &[1, 2])], 2)
        .unwrap()
        .into()
}

/// Deterministic per-user emission column.
fn column_for(user: u64, t: usize) -> Vector {
    let a = 0.2 + 0.6 * ((user as f64 * 0.37 + t as f64 * 0.71).sin() * 0.5 + 0.5);
    let b = (1.0 - a) * 0.6;
    Vector::from(vec![a, b, 1.0 - a - b])
}

#[test]
fn batched_service_equals_hand_driven_incremental_state() {
    let chain = paper_chain();
    let config = OnlineConfig {
        epsilon: 0.8,
        num_shards: 3,
        linger: 50, // keep windows alive for the whole test
        budget: 1e6,
    };
    let mut svc = SessionManager::new(Arc::clone(&chain), config).unwrap();
    let tpl_presence = svc.register_template(presence_template()).unwrap();
    let tpl_pattern = svc.register_template(pattern_template()).unwrap();

    let users: Vec<UserId> = (0..12).map(UserId).collect();
    for &u in &users {
        svc.add_user(u, Vector::uniform(3)).unwrap();
        svc.attach_event(u, tpl_presence).unwrap();
        if u.0 % 2 == 0 {
            svc.attach_event(u, tpl_pattern).unwrap();
        }
    }

    // Hand-driven references: one IncrementalTwoWorld per (user, window).
    let mut refs: Vec<(u64, Vec<IncrementalTwoWorld<Arc<Homogeneous>>>)> = users
        .iter()
        .map(|&u| {
            let mut v = vec![IncrementalTwoWorld::new(
                presence_template(),
                Arc::clone(&chain),
                Vector::uniform(3),
            )
            .unwrap()];
            if u.0 % 2 == 0 {
                v.push(
                    IncrementalTwoWorld::new(
                        pattern_template(),
                        Arc::clone(&chain),
                        Vector::uniform(3),
                    )
                    .unwrap(),
                );
            }
            (u.0, v)
        })
        .collect();

    for t in 1..=5 {
        let batch: Vec<(UserId, Vector)> = users.iter().map(|&u| (u, column_for(u.0, t))).collect();
        let reports = svc.ingest_batch(&batch).unwrap();
        assert_eq!(reports.len(), users.len());
        for report in &reports {
            let (_, windows) = refs.iter_mut().find(|(u, _)| *u == report.user.0).unwrap();
            assert_eq!(report.t, t);
            assert_eq!(report.windows.len(), windows.len());
            for (wr, reference) in report.windows.iter().zip(windows.iter_mut()) {
                let expect = reference.observe(&column_for(report.user.0, t)).unwrap();
                assert_eq!(wr.window_t, expect.t);
                assert!(
                    (wr.loss - expect.privacy_loss).abs() < 1e-10,
                    "u{} t={t}: {} vs {}",
                    report.user.0,
                    wr.loss,
                    expect.privacy_loss
                );
                assert!((wr.posterior - expect.posterior).abs() < 1e-10);
                assert_eq!(wr.verdict == Verdict::Certified, expect.certifies(0.8));
            }
        }
    }
}

#[test]
fn shard_count_does_not_change_results() {
    let chain = paper_chain();
    let run = |num_shards: usize| {
        let config = OnlineConfig {
            epsilon: 1.0,
            num_shards,
            linger: 10,
            budget: 1e6,
        };
        let mut svc = SessionManager::new(Arc::clone(&chain), config).unwrap();
        let tpl = svc.register_template(presence_template()).unwrap();
        for u in 0..9 {
            svc.add_user(UserId(u), Vector::uniform(3)).unwrap();
            svc.attach_event(UserId(u), tpl).unwrap();
        }
        let mut all = Vec::new();
        for t in 1..=4 {
            let batch: Vec<(UserId, Vector)> =
                (0..9).map(|u| (UserId(u), column_for(u, t))).collect();
            all.extend(svc.ingest_batch(&batch).unwrap());
        }
        all
    };
    let one = run(1);
    let five = run(5);
    assert_eq!(one, five);
}

#[test]
fn windows_expire_and_are_evicted() {
    let chain = paper_chain();
    let config = OnlineConfig {
        epsilon: 5.0,
        num_shards: 2,
        linger: 1,
        budget: 1e6,
    };
    let mut svc = SessionManager::new(Arc::clone(&chain), config).unwrap();
    // Event ends at t=3; with linger 1 the window dies after observation 4.
    let tpl = svc.register_template(presence_template()).unwrap();
    svc.add_user(UserId(7), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(7), tpl).unwrap();
    assert_eq!(svc.active_windows(), 1);

    let flat = Vector::from(vec![1.0 / 3.0; 3]);
    for t in 1..=3 {
        let r = svc.ingest(UserId(7), flat.clone()).unwrap();
        assert_eq!(r.evicted, 0, "t={t}");
        assert_eq!(r.windows.len(), 1);
    }
    let r = svc.ingest(UserId(7), flat.clone()).unwrap();
    assert_eq!(r.evicted, 1, "end (3) + linger (1) = evict after obs 4");
    assert_eq!(svc.active_windows(), 0);
    assert_eq!(svc.stats().evicted_windows, 1);
    // Later observations still track the posterior, with no windows.
    let r = svc.ingest(UserId(7), flat).unwrap();
    assert!(r.windows.is_empty());
    assert_eq!(r.worst_loss, 0.0);
}

#[test]
fn zero_likelihood_observation_drops_the_window_not_the_user() {
    let chain = paper_chain();
    let mut svc = SessionManager::new(
        Arc::clone(&chain),
        OnlineConfig {
            epsilon: 1.0,
            num_shards: 1,
            linger: 10,
            budget: 1e6,
        },
    )
    .unwrap();
    let tpl = svc.register_template(presence_template()).unwrap();
    svc.add_user(UserId(1), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(1), tpl).unwrap();

    // Pin the user to s3, then claim an emission only reachable from s1:
    // impossible under the chain (row s3 = [0, 0.1, 0.9]).
    svc.ingest(UserId(1), Vector::from(vec![0.0, 0.0, 1.0]))
        .unwrap();
    let r = svc
        .ingest(UserId(1), Vector::from(vec![1.0, 0.0, 0.0]))
        .unwrap();
    assert_eq!(r.windows.len(), 1);
    assert_eq!(r.windows[0].verdict, Verdict::ModelMismatch);
    assert_eq!(r.evicted, 1);
    assert_eq!(svc.stats().mismatched, 1);
    assert_eq!(svc.num_users(), 1, "the session itself survives");
    // A model mismatch is not a realized privacy loss: it must not poison
    // the reported worst loss or exhaust the budget ledger.
    assert_eq!(r.worst_loss, 0.0);
    assert!(!r.exhausted);
    assert!(svc.session(UserId(1)).unwrap().ledger().spent().is_finite());
    // The filtered posterior was reset to uniform rather than dying.
    let s = svc.session(UserId(1)).unwrap();
    assert!((s.posterior().sum() - 1.0).abs() < 1e-12);
}

#[test]
fn budget_ledger_accumulates_and_flags_exhaustion() {
    let chain = paper_chain();
    let mut svc = SessionManager::new(
        Arc::clone(&chain),
        OnlineConfig {
            epsilon: 1e-6, // everything informative violates
            num_shards: 1,
            linger: 10,
            budget: 0.5,
        },
    )
    .unwrap();
    let tpl = svc.register_template(presence_template()).unwrap();
    svc.add_user(UserId(3), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(3), tpl).unwrap();

    let sharp = Vector::from(vec![0.8, 0.1, 0.1]);
    let mut exhausted_at = None;
    for t in 1..=6 {
        let r = svc.ingest(UserId(3), sharp.clone()).unwrap();
        if r.exhausted && exhausted_at.is_none() {
            exhausted_at = Some(t);
        }
    }
    let ledger = svc.session(UserId(3)).unwrap().ledger();
    assert!(ledger.spent() > 0.0);
    assert!(ledger.violations() > 0);
    assert!(
        exhausted_at.is_some(),
        "informative stream must exhaust a 0.5 budget: spent {}",
        ledger.spent()
    );
}

#[test]
fn service_rejects_bad_inputs_without_mutating_state() {
    let chain = paper_chain();
    let mut svc = SessionManager::new(Arc::clone(&chain), OnlineConfig::default()).unwrap();
    let tpl = svc.register_template(presence_template()).unwrap();
    svc.add_user(UserId(1), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(1), tpl).unwrap();

    // Config validation.
    assert!(matches!(
        SessionManager::new(
            Arc::clone(&chain),
            OnlineConfig {
                epsilon: 0.0,
                ..OnlineConfig::default()
            }
        ),
        Err(OnlineError::InvalidConfig { .. })
    ));
    // Unknown + duplicate users, unknown templates.
    assert!(matches!(
        svc.ingest(UserId(9), Vector::uniform(3)),
        Err(OnlineError::UnknownUser { user: 9 })
    ));
    assert!(matches!(
        svc.add_user(UserId(1), Vector::uniform(3)),
        Err(OnlineError::DuplicateUser { user: 1 })
    ));
    assert!(matches!(
        svc.attach_event(UserId(1), 99),
        Err(OnlineError::UnknownTemplate { template: 99 })
    ));
    // Domain mismatches.
    assert!(matches!(
        svc.register_template(StEvent::from(Presence::new(region(4, &[0]), 1, 1).unwrap())),
        Err(OnlineError::Quantify(QuantifyError::DomainMismatch { .. }))
    ));
    assert!(svc.add_user(UserId(2), Vector::uniform(4)).is_err());
    // A batch with a duplicate user fails atomically: state unchanged.
    svc.add_user(UserId(2), Vector::uniform(3)).unwrap();
    let before = svc.stats();
    let dup = vec![
        (UserId(1), Vector::uniform(3)),
        (UserId(2), Vector::uniform(3)),
        (UserId(1), Vector::uniform(3)),
    ];
    assert!(matches!(
        svc.ingest_batch(&dup),
        Err(OnlineError::DuplicateObservation { user: 1 })
    ));
    assert_eq!(svc.stats(), before);
    assert_eq!(svc.session(UserId(1)).unwrap().observed(), 0);
    // Malformed emission columns.
    assert!(svc.ingest(UserId(1), Vector::uniform(4)).is_err());
    assert!(svc
        .ingest(UserId(1), Vector::from(vec![0.5, -0.1, 0.6]))
        .is_err());
}

#[test]
fn attach_uses_the_current_posterior_and_can_reject_degenerate_events() {
    let chain = paper_chain();
    let mut svc = SessionManager::new(
        Arc::clone(&chain),
        OnlineConfig {
            epsilon: 1.0,
            num_shards: 1,
            linger: 10,
            budget: 1e6,
        },
    )
    .unwrap();
    // Event: in {s1} at local t=2 of the window.
    let tpl = svc
        .register_template(StEvent::from(Presence::new(region(3, &[0]), 2, 2).unwrap()))
        .unwrap();
    svc.add_user(UserId(1), Vector::uniform(3)).unwrap();
    // Pin the posterior to s3 (the chain cannot reach s1 from s3 in one
    // step), then attach: the event has prior 0 under the current belief.
    svc.ingest(UserId(1), Vector::from(vec![0.0, 0.0, 1.0]))
        .unwrap();
    assert!(matches!(
        svc.attach_event(UserId(1), tpl),
        Err(OnlineError::Quantify(QuantifyError::DegeneratePrior { .. }))
    ));
    // From a fresh uniform belief the same template attaches fine.
    svc.add_user(UserId(2), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(2), tpl).unwrap();
    assert_eq!(svc.active_windows(), 1);
}

#[test]
fn plm_driven_feed_runs_end_to_end_on_a_grid_world() {
    // Smoke the intended deployment shape: a grid world, a Planar-Laplace
    // mechanism, many users, multi-step feed.
    let grid = priste_geo::GridMap::new(4, 4, 1.0).unwrap();
    let chain = Arc::new(Homogeneous::new(gaussian_kernel_chain(&grid, 1.0).unwrap()));
    let plm = PlanarLaplace::new(grid.clone(), 0.8).unwrap();
    let mut svc = SessionManager::new(
        Arc::clone(&chain),
        OnlineConfig {
            epsilon: 2.0,
            num_shards: 4,
            linger: 2,
            budget: 100.0,
        },
    )
    .unwrap();
    let tpl = svc
        .register_template(StEvent::from(
            Presence::new(Region::from_one_based_range(16, 1, 4).unwrap(), 2, 4).unwrap(),
        ))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let users = 20u64;
    let mut trajs = Vec::new();
    for u in 0..users {
        svc.add_user(UserId(u), Vector::uniform(16)).unwrap();
        svc.attach_event(UserId(u), tpl).unwrap();
        trajs.push(
            chain
                .model()
                .sample_trajectory_from(&Vector::uniform(16), 8, &mut rng)
                .unwrap(),
        );
    }
    #[allow(clippy::needless_range_loop)] // column-wise access across per-user rows
    for t in 0..8 {
        let batch: Vec<(UserId, Vector)> = (0..users)
            .map(|u| {
                let obs = plm.perturb(trajs[u as usize][t], &mut rng);
                (UserId(u), plm.emission_column(obs))
            })
            .collect();
        let reports = svc.ingest_batch(&batch).unwrap();
        assert_eq!(reports.len(), users as usize);
        for r in &reports {
            assert!(r.worst_loss >= 0.0);
            for w in &r.windows {
                assert!((0.0..=1.0).contains(&w.posterior));
            }
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.observations, 8 * users as usize);
    assert!(stats.certified + stats.violated + stats.mismatched > 0);
    assert_eq!(svc.active_windows(), 0, "all windows evicted by t=8");
}

// --------------------------------------------------------------------------
// Enforcing mode: the guard consults the session's windows before release.
// --------------------------------------------------------------------------

fn enforcing_service(
    target: f64,
) -> (
    SessionManager<Arc<Homogeneous>>,
    priste_geo::GridMap,
    Homogeneous,
) {
    let grid = priste_geo::GridMap::new(3, 3, 1.0).unwrap();
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let provider = Arc::new(Homogeneous::new(chain.clone()));
    let mut service = SessionManager::new(
        Arc::clone(&provider),
        OnlineConfig {
            epsilon: target,
            num_shards: 2,
            linger: 2,
            budget: 1e6,
        },
    )
    .unwrap();
    let tpl = service
        .register_template(
            Presence::new(Region::from_one_based_range(m, 1, 3).unwrap(), 2, 4)
                .unwrap()
                .into(),
        )
        .unwrap();
    service.add_user(UserId(1), Vector::uniform(m)).unwrap();
    service.attach_event(UserId(1), tpl).unwrap();
    let plm: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid.clone(), 3.0).unwrap());
    service
        .enable_enforcement(
            plm,
            priste_calibrate::GuardConfig {
                target_epsilon: target,
                ..priste_calibrate::GuardConfig::default()
            },
        )
        .unwrap();
    (service, grid, Homogeneous::new(chain))
}

#[test]
fn enforcing_release_certifies_every_step() {
    let (service, _grid, _) = enforcing_service(0.6);
    assert!(service.enforcing());
    let mut rng = StdRng::seed_from_u64(11);
    for &loc in &[0usize, 1, 4, 0, 8, 2] {
        let rel = service.release(UserId(1), CellId(loc), &mut rng).unwrap();
        assert!(
            rel.report.worst_loss <= 0.6 + 1e-9,
            "t={}: committed loss {} exceeds target",
            rel.report.t,
            rel.report.worst_loss
        );
        assert!(rel.attempts >= 1);
        assert!(rel
            .report
            .windows
            .iter()
            .all(|w| w.verdict != Verdict::Violated));
    }
    assert_eq!(service.session(UserId(1)).unwrap().observed(), 6);
}

#[test]
fn enforcing_release_suppresses_when_nothing_feasible() {
    let grid = priste_geo::GridMap::new(3, 3, 1.0).unwrap();
    let m = grid.num_cells();
    let provider = Arc::new(Homogeneous::new(gaussian_kernel_chain(&grid, 1.0).unwrap()));
    let mut service = SessionManager::new(Arc::clone(&provider), OnlineConfig::default()).unwrap();
    let tpl = service
        .register_template(
            Presence::new(Region::from_one_based_range(m, 1, 3).unwrap(), 1, 3)
                .unwrap()
                .into(),
        )
        .unwrap();
    service.add_user(UserId(7), Vector::uniform(m)).unwrap();
    service.attach_event(UserId(7), tpl).unwrap();
    let plm: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid, 4.0).unwrap());
    // Floor 1.0 keeps every rung informative: a 1e-4 target must suppress.
    service
        .enable_enforcement(
            plm,
            priste_calibrate::GuardConfig {
                target_epsilon: 1e-4,
                floor: 1.0,
                ..priste_calibrate::GuardConfig::default()
            },
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let rel = service.release(UserId(7), CellId(0), &mut rng).unwrap();
    assert_eq!(rel.decision, priste_calibrate::Decision::Suppressed);
    assert!(rel.report.worst_loss < 1e-9, "flat commit is uninformative");
    assert_eq!(service.stats().suppressed, 1);
}

#[test]
fn enforcing_mode_validates_requests() {
    let (service, _grid, _) = enforcing_service(1.0);
    let mut rng = StdRng::seed_from_u64(1);
    assert!(matches!(
        service.release(UserId(99), CellId(0), &mut rng),
        Err(OnlineError::UnknownUser { user: 99 })
    ));
    assert!(matches!(
        service.release(UserId(1), CellId(40), &mut rng),
        Err(OnlineError::InvalidLocation { cell: 40, .. })
    ));
    // The failed calls must not have consumed a timestep.
    assert_eq!(service.session(UserId(1)).unwrap().observed(), 0);

    let mut plain = SessionManager::new(paper_chain(), OnlineConfig::default()).unwrap();
    plain.add_user(UserId(1), Vector::uniform(3)).unwrap();
    assert!(matches!(
        plain.release(UserId(1), CellId(0), &mut rng),
        Err(OnlineError::NotEnforcing)
    ));
    let bad: Box<dyn Lppm> =
        Box::new(PlanarLaplace::new(priste_geo::GridMap::new(2, 2, 1.0).unwrap(), 1.0).unwrap());
    assert!(matches!(
        plain.enable_enforcement(bad, priste_calibrate::GuardConfig::default()),
        Err(OnlineError::InvalidConfig { .. })
    ));
}

#[test]
fn enforcing_and_audit_paths_share_the_session_state() {
    let (service, grid, chain) = enforcing_service(1.2);
    let mut rng = StdRng::seed_from_u64(21);
    let rel = service.release(UserId(1), CellId(4), &mut rng).unwrap();
    assert_eq!(rel.report.t, 1);
    // An audited observation continues the same window clock.
    let plm = PlanarLaplace::new(grid, 0.5).unwrap();
    let report = service
        .ingest(UserId(1), plm.emission_column(CellId(3)))
        .unwrap();
    assert_eq!(report.t, 2);
    assert_eq!(report.windows[0].window_t, 2);
    let _ = chain;
}

/// Counts every [`Lppm::with_budget`] call of a PLM and of the rungs built
/// from it.
struct CountingPlm {
    inner: Box<dyn Lppm>,
    builds: Arc<AtomicUsize>,
}

impl Lppm for CountingPlm {
    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn budget(&self) -> f64 {
        self.inner.budget()
    }

    fn emission_matrix(&self) -> &priste_linalg::Matrix {
        self.inner.emission_matrix()
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        self.inner.emission_column(observation)
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn rand::RngCore) -> CellId {
        self.inner.perturb(true_loc, rng)
    }

    fn with_budget(&self, budget: f64) -> priste_lppm::Result<Box<dyn Lppm>> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(CountingPlm {
            inner: self.inner.with_budget(budget)?,
            builds: Arc::clone(&self.builds),
        }))
    }
}

#[test]
fn enable_enforcement_builds_the_whole_ladder_up_front() {
    let grid = priste_geo::GridMap::new(3, 3, 1.0).unwrap();
    let m = grid.num_cells();
    let provider = Arc::new(Homogeneous::new(gaussian_kernel_chain(&grid, 1.0).unwrap()));
    let mut service = SessionManager::new(Arc::clone(&provider), OnlineConfig::default()).unwrap();
    let tpl = service
        .register_template(
            Presence::new(Region::from_one_based_range(m, 1, 3).unwrap(), 1, 3)
                .unwrap()
                .into(),
        )
        .unwrap();
    for u in 0..4 {
        service.add_user(UserId(u), Vector::uniform(m)).unwrap();
        service.attach_event(UserId(u), tpl).unwrap();
    }
    let builds = Arc::new(AtomicUsize::new(0));
    let plm = CountingPlm {
        inner: Box::new(PlanarLaplace::new(grid, 4.0).unwrap()),
        builds: Arc::clone(&builds),
    };
    // An unreachable target walks every rung down to the floor.
    let guard = priste_calibrate::GuardConfig {
        target_epsilon: 1e-4,
        floor: 0.25,
        ..priste_calibrate::GuardConfig::default()
    };
    service.enable_enforcement(Box::new(plm), guard).unwrap();
    // 4 → 2 → 1 → 0.5 → 0.25: every rung but the base is a build.
    assert_eq!(builds.load(Ordering::SeqCst), 4);

    let mut rng = StdRng::seed_from_u64(5);
    let rel = service.release(UserId(0), CellId(0), &mut rng).unwrap();
    assert_eq!(rel.attempts, 5, "the release must walk the whole ladder");
    let batch: Vec<(UserId, CellId)> = (0..4).map(|u| (UserId(u), CellId(u as usize))).collect();
    service.release_batch(&batch, 9, 1).unwrap();
    service.release_batch(&batch, 10, 2).unwrap();
    assert_eq!(
        builds.load(Ordering::SeqCst),
        4,
        "releases must not build rungs"
    );
}

/// A multi-user enforcing service over an 8-shard 3×3 world.
fn enforcing_fleet(users: u64, shards: usize, target: f64) -> SessionManager<Arc<Homogeneous>> {
    let grid = priste_geo::GridMap::new(3, 3, 1.0).unwrap();
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let provider = Arc::new(Homogeneous::new(chain));
    let mut service = SessionManager::new(
        Arc::clone(&provider),
        OnlineConfig {
            epsilon: target,
            num_shards: shards,
            linger: 2,
            budget: 1e6,
        },
    )
    .unwrap();
    let tpl = service
        .register_template(
            Presence::new(Region::from_one_based_range(m, 1, 3).unwrap(), 2, 4)
                .unwrap()
                .into(),
        )
        .unwrap();
    for u in 0..users {
        service.add_user(UserId(u), Vector::uniform(m)).unwrap();
        service.attach_event(UserId(u), tpl).unwrap();
    }
    let plm: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid, 3.0).unwrap());
    service
        .enable_enforcement(
            plm,
            priste_calibrate::GuardConfig {
                target_epsilon: target,
                ..priste_calibrate::GuardConfig::default()
            },
        )
        .unwrap();
    service
}

#[test]
fn parallel_ingest_equals_sequential_ingest() {
    let chain = paper_chain();
    let config = OnlineConfig {
        epsilon: 0.8,
        num_shards: 5,
        linger: 3,
        budget: 1e6,
    };
    let mut seq = SessionManager::new(Arc::clone(&chain), config.clone()).unwrap();
    let mut par = SessionManager::new(Arc::clone(&chain), config).unwrap();
    for svc in [&mut seq, &mut par] {
        let tpl = svc.register_template(presence_template()).unwrap();
        for u in 0..23u64 {
            svc.add_user(UserId(u), Vector::uniform(3)).unwrap();
            svc.attach_event(UserId(u), tpl).unwrap();
        }
    }
    for t in 1..=6 {
        let batch: Vec<(UserId, Vector)> =
            (0..23u64).map(|u| (UserId(u), column_for(u, t))).collect();
        let sequential = seq.ingest_batch(&batch).unwrap();
        let parallel = par.ingest_batch_parallel(&batch, 4).unwrap();
        assert_eq!(sequential, parallel, "t={t}");
    }
    assert_eq!(seq.stats(), par.stats());
    for u in 0..23u64 {
        assert_eq!(
            seq.session(UserId(u)).unwrap().posterior().as_slice(),
            par.session(UserId(u)).unwrap().posterior().as_slice()
        );
    }
}

#[test]
fn release_batch_is_deterministic_across_thread_counts() {
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut service = enforcing_fleet(17, 4, 0.9);
        let mut all = Vec::new();
        for t in 0..3u64 {
            let batch: Vec<(UserId, CellId)> = (0..17u64)
                .map(|u| (UserId(u), CellId(((u + t) % 9) as usize)))
                .collect();
            all.push(service.release_batch(&batch, 1000 + t, threads).unwrap());
        }
        outputs.push((all, service.stats()));
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 threads");
}

#[test]
fn release_batch_certifies_and_reports_every_user() {
    let mut service = enforcing_fleet(12, 3, 0.8);
    let batch: Vec<(UserId, CellId)> = (0..12u64)
        .map(|u| (UserId(u), CellId((u % 9) as usize)))
        .collect();
    let releases = service.release_batch(&batch, 7, 0).unwrap();
    assert_eq!(releases.len(), 12);
    for (i, rel) in releases.iter().enumerate() {
        assert_eq!(rel.report.user, UserId(i as u64), "sorted by user id");
        assert_eq!(rel.report.t, 1);
        assert!(rel.report.worst_loss <= 0.8 + 1e-9);
        assert!(rel.attempts >= 1);
    }
    assert_eq!(service.stats().observations, 12);
}

#[test]
fn release_batch_validates_before_mutating() {
    let mut service = enforcing_fleet(4, 2, 0.9);
    let cases: Vec<Vec<(UserId, CellId)>> = vec![
        vec![(UserId(0), CellId(0)), (UserId(99), CellId(1))],
        vec![(UserId(0), CellId(40))],
        vec![(UserId(1), CellId(0)), (UserId(1), CellId(1))],
    ];
    for batch in cases {
        assert!(service.release_batch(&batch, 1, 2).is_err(), "{batch:?}");
    }
    for u in 0..4u64 {
        assert_eq!(
            service.session(UserId(u)).unwrap().observed(),
            0,
            "failed batches must not consume timesteps"
        );
    }
    let mut plain = SessionManager::new(paper_chain(), OnlineConfig::default()).unwrap();
    plain.add_user(UserId(1), Vector::uniform(3)).unwrap();
    assert!(matches!(
        plain.release_batch(&[(UserId(1), CellId(0))], 1, 1),
        Err(OnlineError::NotEnforcing)
    ));
}

/// A service observed before it is made durable counts, sizes and times its
/// opening checkpoint like every later one.
#[test]
fn opening_checkpoint_of_an_observed_service_is_measured() {
    let registry = priste_obs::Registry::new();
    let mut svc = SessionManager::new(paper_chain(), OnlineConfig::default()).unwrap();
    svc.register_template(presence_template()).unwrap();
    svc.add_user(UserId(1), Vector::uniform(3)).unwrap();
    svc.attach_event(UserId(1), 0).unwrap();
    svc.observe(&registry);
    let dir = std::env::temp_dir().join(format!(
        "priste-service-opening-checkpoint-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    svc.make_durable(
        &dir,
        priste_online::DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .unwrap();
    let checkpoints = registry.counter("durable_checkpoints_total");
    let bytes = registry.gauge("durable_snapshot_bytes");
    let seconds = registry.histogram("durable_snapshot_seconds");
    let on_disk = std::fs::metadata(dir.join("snap-0000000000000001.bin"))
        .unwrap()
        .len();
    assert_eq!(checkpoints.get(), 1);
    assert_eq!(bytes.get(), on_disk as f64);
    assert_eq!(seconds.count(), 1);
    svc.checkpoint().unwrap();
    assert_eq!(checkpoints.get(), 2);
    assert_eq!(seconds.count(), 2);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}
