//! A fixed enforcing scenario on the 50×50 CSR world, pinned to constants:
//! three rounds of guarded releases through [`SessionManager::release`]
//! and through [`SessionManager::release_batch`] at one and at three
//! threads. The released cells, the attempts each release spent and the
//! final `state_digest` were recorded from the build that staged the guard
//! once per release and committed through a second lifted step, so any
//! change to how a release is read out or committed must keep every bit.
//! The digests were re-pinned when sessions began reading their posterior
//! off the window attached before their first observation: that moved the
//! posteriors by about 1e-13, and nothing else (the digest with every
//! posterior slot left out stayed the same).

use priste_calibrate::{Decision, GuardConfig};
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::PlanarLaplace;
use priste_markov::{gaussian_kernel_chain_sparse, Homogeneous};
use priste_online::{EnforcedRelease, OnlineConfig, SessionManager, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const USERS: u64 = 5;
const ROUNDS: usize = 3;

/// `(released cell, attempts)` per in-process release, round-major.
const PINNED_RELEASES: [(Option<usize>, usize); 15] = [
    (Some(828), 5),
    (Some(663), 1),
    (Some(1086), 5),
    (Some(1841), 6),
    (Some(2403), 7),
    (Some(898), 4),
    (Some(710), 1),
    (Some(1300), 6),
    (Some(983), 6),
    (Some(1235), 6),
    (Some(1263), 6),
    (Some(764), 3),
    (Some(911), 5),
    (Some(4), 8),
    (Some(88), 6),
];
/// `state_digest` after the in-process releases.
const PINNED_RELEASE_DIGEST: u64 = 0x289b_5d17_708d_4e49;
/// `(released cell, attempts)` per batched release, round-major.
const PINNED_BATCH_RELEASES: [(Option<usize>, usize); 15] = [
    (Some(700), 5),
    (Some(1217), 6),
    (Some(883), 5),
    (Some(1789), 6),
    (Some(2093), 7),
    (Some(795), 4),
    (Some(658), 3),
    (Some(817), 4),
    (Some(938), 8),
    (Some(660), 5),
    (Some(539), 5),
    (Some(854), 3),
    (Some(1212), 5),
    (Some(1856), 9),
    (Some(2367), 6),
];
/// `state_digest` after the batched releases.
const PINNED_BATCH_DIGEST: u64 = 0xf589_f06f_6d40_3419;

/// The enforcing service: σ = 0.5 km banded chain, a PRESENCE event over
/// the first quarter of the map at window times 2..=5, the α = 2 Planar
/// Laplace mechanism behind the default guard, three shards.
fn service() -> SessionManager<Arc<Homogeneous>> {
    let grid = GridMap::new(50, 50, 1.0).unwrap();
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain_sparse(&grid, 0.5).unwrap();
    let event: StEvent = Presence::new(Region::from_one_based_range(m, 1, m / 4).unwrap(), 2, 5)
        .unwrap()
        .into();
    let config = OnlineConfig {
        num_shards: 3,
        ..OnlineConfig::default()
    };
    let mut svc = SessionManager::new(Arc::new(Homogeneous::new(chain)), config).unwrap();
    let template = svc.register_template(event).unwrap();
    for u in 0..USERS {
        svc.add_user(UserId(u), Vector::uniform(m)).unwrap();
        svc.attach_event(UserId(u), template).unwrap();
    }
    svc.enable_enforcement(
        Box::new(PlanarLaplace::new(grid, 2.0).unwrap()),
        GuardConfig::default(),
    )
    .unwrap();
    svc
}

/// The true location of user `u` in `round`.
fn location(u: u64, round: usize) -> CellId {
    CellId((u as usize * 613 + round * 97) % 2500)
}

fn summary(release: &EnforcedRelease) -> (Option<usize>, usize) {
    let cell = match release.decision {
        Decision::Released { observed, .. } => Some(observed.index()),
        Decision::Suppressed => None,
    };
    (cell, release.attempts)
}

#[test]
fn single_user_releases_keep_their_pinned_bits() {
    let svc = service();
    let mut rng = StdRng::seed_from_u64(41);
    let mut got = Vec::new();
    for round in 0..ROUNDS {
        for u in 0..USERS {
            let release = svc
                .release(UserId(u), location(u, round), &mut rng)
                .unwrap();
            got.push(summary(&release));
        }
    }
    assert_eq!(got, PINNED_RELEASES);
    assert_eq!(svc.state_digest(), PINNED_RELEASE_DIGEST);
}

#[test]
fn batched_releases_keep_their_pinned_bits_at_any_thread_count() {
    for threads in [1, 3] {
        let mut svc = service();
        let mut got = Vec::new();
        for round in 0..ROUNDS {
            let batch: Vec<(UserId, CellId)> = (0..USERS)
                .map(|u| (UserId(u), location(u, round)))
                .collect();
            let releases = svc
                .release_batch(&batch, 17 + round as u64, threads)
                .unwrap();
            got.extend(releases.iter().map(summary));
        }
        assert_eq!(got, PINNED_BATCH_RELEASES, "threads {threads}");
        assert_eq!(svc.state_digest(), PINNED_BATCH_DIGEST, "threads {threads}");
    }
}
