//! Property suite for the calibration guard, pinning the crate's two core
//! guarantees against the *offline* machinery:
//!
//! 1. **Re-certification** — every prefix a [`CalibratedMechanism`] commits
//!    (it suppresses what it cannot certify) must re-certify at the target
//!    ε* when replayed through the offline [`TheoremBuilder`] — the
//!    any-horizon ground truth the incremental peeks are supposed to
//!    shortcut.
//! 2. **No spurious suppression** — a release is only ever suppressed when
//!    the *uncalibrated* (base-budget) candidate genuinely violates the
//!    target under the same offline replay.
//!
//! A third property pins the staged guard ([`peek_worst_loss`], one lifted
//! step per window per release) to the guard it replaced, which peeked
//! every window afresh on every attempt: same outcome, same RNG draws, in
//! every entry point that runs it.

use priste_calibrate::{
    peek_worst_loss, run_guard, CalibratedMechanism, Decision, GuardConfig, GuardLadder,
};
use priste_core::test_support::homogeneous_world;
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{Homogeneous, TransitionProvider};
use priste_online::{OnlineConfig, SessionManager, UserId};
use priste_quantify::{IncrementalTwoWorld, QuantifyError, TheoremBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

const SIDE: usize = 3;
const M: usize = SIDE * SIDE;

fn world() -> (GridMap, Homogeneous) {
    homogeneous_world(SIDE, 1.0)
}

/// Strategy: a presence event whose window sits inside a short horizon.
fn event() -> impl Strategy<Value = StEvent> {
    (1usize..=3, 1usize..=2, 1usize..M).prop_map(|(start, len, hi)| {
        Presence::new(
            Region::from_one_based_range(M, 1, hi.max(1)).unwrap(),
            start,
            start + len - 1,
        )
        .unwrap()
        .into()
    })
}

/// The scenario: mechanism sharpness, privacy target, trajectory, seed.
#[derive(Debug, Clone)]
struct Scenario {
    alpha: f64,
    target: f64,
    floor: f64,
    event: StEvent,
    trajectory: Vec<usize>,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0.5f64..4.0,
        0.1f64..1.5,
        // Floors up to 1.0 make suppression reachable for tight targets.
        0usize..3,
        event(),
        proptest::collection::vec(0usize..M, 3..7),
        0u64..u64::MAX,
    )
        .prop_map(|(alpha, target, floor, event, trajectory, seed)| Scenario {
            alpha,
            target,
            // Floors above the base budget are rejected at construction.
            floor: [1e-3f64, 0.25, 1.0][floor].min(alpha),
            event,
            trajectory,
            seed,
        })
}

/// Reconstructs the emission column the guard committed: budget +
/// observation fully determine it ([`Lppm::with_budget`] is deterministic).
fn col_at(reference: &PlanarLaplace, base: f64, budget: f64, observed: CellId) -> Vector {
    if budget == base {
        reference.emission_column(observed)
    } else {
        reference
            .with_budget(budget)
            .unwrap()
            .emission_column(observed)
    }
}

/// The unstaged guard check: every world peeked afresh per attempt, a
/// zero-likelihood candidate scored `+∞`.
fn plain_worst_loss<'w, P: TransitionProvider + 'w>(
    worlds: impl IntoIterator<Item = &'w IncrementalTwoWorld<P>>,
    column: &Vector,
) -> priste_calibrate::Result<f64> {
    let mut worst = 0.0f64;
    for world in worlds {
        let loss = match world.peek(column) {
            Ok(step) => step.privacy_loss,
            Err(QuantifyError::ZeroLikelihood { .. }) => f64::INFINITY,
            Err(e) => return Err(e.into()),
        };
        worst = worst.max(loss);
    }
    Ok(worst)
}

/// The RNG `release_batch` draws a shard's candidates from.
fn shard_rng(seed: u64, shard: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

proptest! {
    /// Guarantee 1: the committed release stream always re-certifies at ε*
    /// under the offline builder, step by step — including suppressed
    /// timestamps (their flat column adds no evidence).
    #[test]
    fn committed_stream_recertifies_offline_at_the_target(s in scenario()) {
        let (grid, provider) = world();
        let pi = Vector::uniform(M);
        let base: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid.clone(), s.alpha).unwrap());
        let mut guard = CalibratedMechanism::new(
            base,
            std::slice::from_ref(&s.event),
            provider.clone(),
            pi.clone(),
            GuardConfig {
                target_epsilon: s.target,
                floor: s.floor,
                ..GuardConfig::default()
            },
        )
        .unwrap();

        // Drive the guard, reconstructing each committed emission column
        // from the release record (budget + observation fully determine it).
        let reference = PlanarLaplace::new(grid, s.alpha).unwrap();
        let mut rng = StdRng::seed_from_u64(s.seed);
        let mut committed = Vec::new();
        for &loc in &s.trajectory {
            let release = guard.release(CellId(loc), &mut rng).unwrap();
            let column = match &release.decision {
                Decision::Released { observed, budget } => {
                    // The guard ships only the candidate its last attempt
                    // certified.
                    let last = release.attempts.last().unwrap();
                    prop_assert!(last.certified, "released an uncertified candidate");
                    prop_assert!(
                        last.worst_loss <= s.target,
                        "released at loss {} above target {}",
                        last.worst_loss,
                        s.target
                    );
                    col_at(&reference, s.alpha, *budget, *observed)
                }
                Decision::Suppressed => Vector::filled(M, 1.0 / M as f64),
            };
            committed.push(column);
        }

        // Offline replay: the fixed-π realized loss of every committed
        // prefix stays within ε*.
        let mut builder = TheoremBuilder::new(&s.event, provider).unwrap();
        for (i, column) in committed.iter().enumerate() {
            let inputs = builder.candidate(column).unwrap();
            let loss = inputs
                .privacy_loss(&pi)
                .expect("guarded streams never reach degenerate evidence");
            prop_assert!(
                loss <= s.target + 1e-6,
                "t={}: offline replay loss {} exceeds target {}",
                i + 1,
                loss,
                s.target
            );
            builder.commit(column.clone()).unwrap();
        }
    }

    /// Guarantee 2: suppression only fires when the uncalibrated candidate
    /// (the first attempt, drawn at the base budget) genuinely violates ε*
    /// under the offline replay of the previously committed history.
    #[test]
    fn suppression_only_on_genuine_uncalibrated_violation(s in scenario()) {
        let (grid, provider) = world();
        let pi = Vector::uniform(M);
        let base: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid.clone(), s.alpha).unwrap());
        let mut guard = CalibratedMechanism::new(
            base,
            std::slice::from_ref(&s.event),
            provider.clone(),
            pi.clone(),
            GuardConfig {
                target_epsilon: s.target,
                floor: s.floor,
                ..GuardConfig::default()
            },
        )
        .unwrap();

        let reference = PlanarLaplace::new(grid, s.alpha).unwrap();
        let mut rng = StdRng::seed_from_u64(s.seed);
        let mut builder = TheoremBuilder::new(&s.event, provider).unwrap();
        for &loc in &s.trajectory {
            let release = guard.release(CellId(loc), &mut rng).unwrap();
            let first = &release.attempts[0];
            prop_assert!(
                (first.budget - s.alpha.max(guard.config().floor)).abs() < 1e-12,
                "first rung must be the base budget"
            );
            if release.decision == Decision::Suppressed {
                // Replaying the first (base-budget) candidate through the
                // offline builder must show a real violation.
                let candidate = col_at(&reference, s.alpha, first.budget, first.observed);
                let inputs = builder.candidate(&candidate).unwrap();
                let loss = inputs
                    .privacy_loss(&pi)
                    .map_or(f64::INFINITY, |l| l);
                prop_assert!(
                    loss > s.target - 1e-6,
                    "suppressed although the uncalibrated candidate only lost {} < target {}",
                    loss,
                    s.target
                );
            }
            // Advance the offline mirror with what was actually committed.
            let column = match &release.decision {
                Decision::Released { observed, budget } => {
                    col_at(&reference, s.alpha, *budget, *observed)
                }
                Decision::Suppressed => Vector::filled(M, 1.0 / M as f64),
            };
            builder.commit(column).unwrap();
        }
    }

    /// The staged guard decides exactly as the per-attempt `peek` guard:
    /// the bare closure returns an equal [`GuardOutcome`] and leaves the
    /// RNG at the same draw, and [`CalibratedMechanism::release`],
    /// [`SessionManager::release`] and [`SessionManager::release_batch`]
    /// report that outcome's decision and attempts. Sessions carry windows
    /// of two ages, so staging is exercised at `t = 0` and `t ≥ 1`.
    ///
    /// [`GuardOutcome`]: priste_calibrate::GuardOutcome
    #[test]
    fn staged_guard_equals_per_attempt_peek_guard(s in scenario()) {
        let (grid, provider) = world();
        let pi = Vector::uniform(M);
        let config = GuardConfig {
            target_epsilon: s.target,
            floor: s.floor,
            ..GuardConfig::default()
        };
        let plm = || -> Box<dyn Lppm> { Box::new(PlanarLaplace::new(grid.clone(), s.alpha).unwrap()) };
        let reference = GuardLadder::new(plm(), config.clone()).unwrap();

        let mut guard = CalibratedMechanism::new(
            plm(),
            std::slice::from_ref(&s.event),
            provider.clone(),
            pi.clone(),
            config.clone(),
        )
        .unwrap();
        let mut staged = Vec::new();
        let mut rng = StdRng::seed_from_u64(s.seed);
        for &loc in &s.trajectory {
            let loc = CellId(loc);
            let mut plain_rng = rng.clone();
            let plain = run_guard(&reference, loc, &mut plain_rng, |column| {
                plain_worst_loss(guard.worlds(), column)
            })
            .unwrap();
            let mut staged_rng = rng.clone();
            let got = run_guard(
                &reference,
                loc,
                &mut staged_rng,
                peek_worst_loss(guard.worlds(), &mut staged),
            )
            .unwrap();
            prop_assert_eq!(&got, &plain);
            prop_assert_eq!(staged_rng.next_u64(), plain_rng.clone().next_u64());
            let release = guard.release(loc, &mut rng).unwrap();
            prop_assert_eq!(&release.decision, &plain.decision);
            prop_assert_eq!(&release.attempts, &plain.attempts);
            prop_assert_eq!(rng.clone().next_u64(), plain_rng.next_u64());
        }

        let mut svc = SessionManager::new(
            Arc::new(provider),
            OnlineConfig { num_shards: 1, budget: 1e6, ..OnlineConfig::default() },
        )
        .unwrap();
        svc.enable_enforcement(plm(), config.clone()).unwrap();
        let template = svc.register_template(s.event.clone()).unwrap();
        let users = [UserId(1), UserId(2)];
        for id in users {
            svc.add_user(id, pi.clone()).unwrap();
            svc.attach_event(id, template).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(s.seed);
        for (step, &loc) in s.trajectory.iter().enumerate() {
            let loc = CellId(loc);
            let id = users[0];
            let mut plain_rng = rng.clone();
            let plain = run_guard(&reference, loc, &mut plain_rng, |column| {
                plain_worst_loss(svc.session(id).unwrap().windows().map(|(_, w)| w), column)
            })
            .unwrap();
            let release = svc.release(id, loc, &mut rng).unwrap();
            prop_assert_eq!(&release.decision, &plain.decision);
            prop_assert_eq!(release.attempts, plain.attempts.len());
            prop_assert_eq!(rng.clone().next_u64(), plain_rng.next_u64());

            let seed = s.seed ^ step as u64;
            let batch = [(users[0], loc), (users[1], CellId((loc.index() + 1) % M))];
            let mut batch_rng = shard_rng(seed, 0);
            let mut want = Vec::new();
            for &(id, loc) in &batch {
                let session = svc.session(id).unwrap();
                want.push(
                    run_guard(&reference, loc, &mut batch_rng, |column| {
                        plain_worst_loss(session.windows().map(|(_, w)| w), column)
                    })
                    .unwrap(),
                );
            }
            let got = svc.release_batch(&batch, seed, 1).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (release, plain) in got.iter().zip(&want) {
                prop_assert_eq!(&release.decision, &plain.decision);
                prop_assert_eq!(release.attempts, plain.attempts.len());
            }
            if step == 0 {
                // A second, younger window over the user's posterior; the
                // event may already be certain under it.
                let _ = svc.attach_event(users[0], template);
            }
        }
    }
}
