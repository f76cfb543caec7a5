//! One filter per session: while a window attached before a user's first
//! observation (an age-0 window) is live, the session reads its posterior
//! off that window instead of running a filter of its own. Every posterior
//! the service reports must match the eager filter — propagate by the
//! chain, weigh by the emission, normalize — run beside it here, within
//! 1e-12 relative error on every entry ≥ 1e-200: with PRESENCE and PATTERN
//! windows, uniform and skewed priors, on the 50×50 CSR world and the dense
//! 6×6 one, through windows attached later, the eviction of the last age-0
//! window (after which the session filters eagerly again) and a model
//! mismatch (uniform, exactly). A session whose windows were all attached
//! after its first observation filters eagerly throughout, bit for bit.
//!
//! A derived posterior exists only while it is read, so the snapshot writer
//! must write each one inline: a checkpoint of several sessions whose
//! derived posteriors differ recovers every one of them bit for bit.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{GridMap, Region};
use priste_linalg::Vector;
use priste_markov::{gaussian_kernel_chain, gaussian_kernel_chain_sparse, Homogeneous};
use priste_markov::{MarkovModel, TransitionProvider};
use priste_online::{DurableOptions, OnlineConfig, Session, SessionManager, UserId};
use std::borrow::Cow;
use std::sync::Arc;

/// Relative error allowed between a derived posterior and the eager one.
const TOLERANCE: f64 = 1e-12;
/// Entries below this are too small for a relative bound to mean much.
const FLOOR: f64 = 1e-200;
/// Observations per user.
const STEPS: usize = 10;

/// The templates every service registers, in index order.
const SHORT_PRESENCE: usize = 0;
const PATTERN: usize = 1;
const LONG_PRESENCE: usize = 2;

fn templates(m: usize) -> Vec<StEvent> {
    let quarter = |k: usize| Region::from_one_based_range(m, k * m / 4 + 1, (k + 1) * m / 4);
    vec![
        Presence::new(quarter(0).unwrap(), 2, 3).unwrap().into(),
        Pattern::new(vec![quarter(0).unwrap(), quarter(1).unwrap()], 2)
            .unwrap()
            .into(),
        Presence::new(quarter(2).unwrap(), 2, 6).unwrap().into(),
    ]
}

fn csr_world() -> Arc<Homogeneous> {
    let grid = GridMap::new(50, 50, 1.0).unwrap();
    Arc::new(Homogeneous::new(
        gaussian_kernel_chain_sparse(&grid, 0.5).unwrap(),
    ))
}

fn dense_world() -> Arc<Homogeneous> {
    let grid = GridMap::new(6, 6, 1.0).unwrap();
    Arc::new(Homogeneous::new(gaussian_kernel_chain(&grid, 1.0).unwrap()))
}

fn uniform(m: usize) -> Vector {
    Vector::uniform(m)
}

/// Mass falling off as `1/(1+i)²`: entries spread over eight orders of
/// magnitude at m = 2500.
fn skewed(m: usize) -> Vector {
    let raw: Vec<f64> = (0..m).map(|i| 1.0 / ((1 + i) * (1 + i)) as f64).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / sum).collect()
}

/// A deterministic emission column, positive everywhere.
fn column(m: usize, user: u64, t: usize) -> Vector {
    (0..m)
        .map(|i| 0.05 + ((i * 7 + t * 13 + user as usize * 5) % 11) as f64 / 10.0)
        .collect()
}

/// The eager filter: one observation of `column` at session age `age`.
fn eager_step(chain: &Homogeneous, age: usize, posterior: &Vector, column: &Vector) -> Vector {
    let m = posterior.len();
    let mut moved = posterior.as_slice().to_vec();
    if age > 0 {
        chain
            .transition_at(age)
            .vecmat_into(posterior.as_slice(), &mut moved);
    }
    let weighed: Vec<f64> = moved
        .iter()
        .zip(column.as_slice())
        .map(|(a, b)| a * b)
        .collect();
    let sum: f64 = weighed.iter().sum();
    if !(sum.is_finite() && sum > 0.0) {
        return Vector::uniform(m);
    }
    weighed.into_iter().map(|x| x * (1.0 / sum)).collect()
}

fn bits(v: &Vector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_close(got: &Vector, want: &Vector, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        if w.abs() >= FLOOR {
            let rel = (g - w).abs() / w.abs();
            assert!(
                rel <= TOLERANCE,
                "{what}: entry {i} is {g}, eager {w} (rel {rel:e})"
            );
        }
    }
}

/// Whether the session stores its posterior (the eager filter) rather than
/// reading it off a window.
fn stored(s: &Session<Arc<Homogeneous>>) -> bool {
    matches!(s.posterior(), Cow::Borrowed(_))
}

/// One user's script: templates attached before the first observation,
/// templates attached after a given observation, and the observation whose
/// column is all zeros (a model mismatch for every window).
struct Script {
    at_start: &'static [usize],
    later: &'static [(usize, usize)],
    mismatch_at: Option<usize>,
}

const SCRIPTS: [Script; 4] = [
    // The short PRESENCE carries the filter until it is evicted at t = 4;
    // the PATTERN attached at t = 1 never does.
    Script {
        at_start: &[SHORT_PRESENCE],
        later: &[(1, PATTERN)],
        mismatch_at: None,
    },
    // Two age-0 windows: the PATTERN is evicted first (t = 4), the long
    // PRESENCE carries on alone until t = 7.
    Script {
        at_start: &[PATTERN, LONG_PRESENCE],
        later: &[(2, SHORT_PRESENCE)],
        mismatch_at: None,
    },
    // No age-0 window: the session filters eagerly from the start, and the
    // windows attached later do not change that.
    Script {
        at_start: &[],
        later: &[(1, LONG_PRESENCE), (2, SHORT_PRESENCE)],
        mismatch_at: None,
    },
    // A mismatch at t = 3 evicts every window: the posterior is uniform.
    Script {
        at_start: &[LONG_PRESENCE],
        later: &[(1, PATTERN)],
        mismatch_at: Some(3),
    },
];

fn service(chain: &Arc<Homogeneous>) -> SessionManager<Arc<Homogeneous>> {
    let config = OnlineConfig {
        num_shards: 2,
        linger: 1,
        budget: 1e6,
        ..OnlineConfig::default()
    };
    let mut svc = SessionManager::new(Arc::clone(chain), config).unwrap();
    for t in templates(chain.num_states()) {
        svc.register_template(t).unwrap();
    }
    svc
}

/// Runs every script for one world and prior, checking each user's
/// posterior against the eager filter after every observation.
fn check_against_eager(chain: &Arc<Homogeneous>, prior: &Vector, world: &str) {
    let m = chain.num_states();
    let svc = service(chain);
    let mut eager = Vec::new();
    for (u, script) in SCRIPTS.iter().enumerate() {
        let id = UserId(u as u64);
        svc.add_user(id, prior.clone()).unwrap();
        for &tpl in script.at_start {
            svc.attach_event(id, tpl).unwrap();
        }
        eager.push(prior.clone());
    }
    let mut derived_steps = 0;
    for t in 0..STEPS {
        for (u, script) in SCRIPTS.iter().enumerate() {
            let id = UserId(u as u64);
            let what = format!("{world}, user {u}, after observation {}", t + 1);
            let col = if script.mismatch_at == Some(t + 1) {
                Vector::zeros(m)
            } else {
                column(m, u as u64, t)
            };
            svc.ingest(id, col.clone()).unwrap();
            eager[u] = eager_step(chain, t, &eager[u], &col);
            let s = svc.session(id).unwrap();
            let carried = s.windows().any(|(_, w)| w.observed() == s.observed());
            assert_eq!(stored(&s), !carried, "{what}: stored while carried");
            if script.at_start.is_empty() {
                assert!(stored(&s), "{what}: no age-0 window, yet derived");
                assert_eq!(bits(&s.posterior()), bits(&eager[u]), "{what}");
            } else if script.mismatch_at == Some(t + 1) {
                assert_eq!(s.active_windows(), 0, "{what}: the mismatch evicts");
                assert_eq!(bits(&s.posterior()), bits(&Vector::uniform(m)), "{what}");
                assert_eq!(bits(&eager[u]), bits(&Vector::uniform(m)), "{what}");
            } else {
                assert_close(&s.posterior(), &eager[u], &what);
            }
            derived_steps += usize::from(!stored(&s));
            for &(after, tpl) in script.later {
                if after == t + 1 {
                    svc.attach_event(id, tpl).unwrap();
                }
            }
        }
    }
    // Users 0, 1 and 3 read the windows for 3, 6 and 2 observations, and
    // every one of them has filtered eagerly since.
    assert_eq!(derived_steps, 11, "{world}");
    for u in 0..SCRIPTS.len() {
        assert!(
            stored(&svc.session(UserId(u as u64)).unwrap()),
            "{world}, user {u}"
        );
    }
}

#[test]
fn derived_posteriors_match_the_eager_filter_on_the_csr_world() {
    let chain = csr_world();
    let m = chain.num_states();
    check_against_eager(&chain, &uniform(m), "CSR 50x50, uniform prior");
    check_against_eager(&chain, &skewed(m), "CSR 50x50, skewed prior");
}

#[test]
fn derived_posteriors_match_the_eager_filter_on_the_dense_world() {
    let chain = dense_world();
    let m = chain.num_states();
    check_against_eager(&chain, &uniform(m), "dense 6x6, uniform prior");
    check_against_eager(&chain, &skewed(m), "dense 6x6, skewed prior");
}

/// The paper's 3-state chain: the posterior of a session whose window
/// carries it is bit-equal to the eager one at its first observation.
#[test]
fn the_first_derived_posterior_is_the_eager_one() {
    let chain = Arc::new(Homogeneous::new(MarkovModel::paper_example()));
    let mut svc = SessionManager::new(Arc::clone(&chain), OnlineConfig::default()).unwrap();
    let event = Presence::new(Region::from_one_based_range(3, 1, 2).unwrap(), 2, 3).unwrap();
    let tpl = svc.register_template(event.into()).unwrap();
    let prior = Vector::from(vec![0.5, 0.3, 0.2]);
    svc.add_user(UserId(0), prior.clone()).unwrap();
    svc.attach_event(UserId(0), tpl).unwrap();
    let col = Vector::from(vec![0.7, 0.2, 0.1]);
    svc.ingest(UserId(0), col.clone()).unwrap();
    let s = svc.session(UserId(0)).unwrap();
    assert!(!stored(&s));
    assert_eq!(
        bits(&s.posterior()),
        bits(&eager_step(&chain, 0, &prior, &col))
    );
}

/// Four sessions whose windows carry different posteriors are
/// checkpointed and recovered: every posterior comes back bit for bit,
/// still read off its window, and the state digests agree.
#[test]
fn derived_posteriors_are_checkpointed_inline() {
    let chain = dense_world();
    let m = chain.num_states();
    let dir = std::env::temp_dir().join(format!("priste-one-filter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut svc = service(&chain);
    let users: Vec<UserId> = (0..4).map(UserId).collect();
    for &id in &users {
        svc.add_user(id, uniform(m)).unwrap();
        svc.attach_event(id, LONG_PRESENCE).unwrap();
    }
    for t in 0..2 {
        for &id in &users {
            svc.ingest(id, column(m, id.0, t)).unwrap();
        }
    }
    let posteriors: Vec<Vec<u64>> = users
        .iter()
        .map(|&id| {
            let s = svc.session(id).unwrap();
            assert!(!stored(&s));
            bits(&s.posterior())
        })
        .collect();
    for (i, a) in posteriors.iter().enumerate() {
        for b in &posteriors[i + 1..] {
            assert_ne!(a, b, "the sessions' posteriors must differ");
        }
    }
    svc.make_durable(
        &dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .unwrap();
    let digest = svc.state_digest();
    drop(svc);
    let back = SessionManager::recover(
        Arc::clone(&chain),
        service(&chain).config().clone(),
        templates(m),
        &dir,
        None,
    )
    .unwrap();
    assert_eq!(back.state_digest(), digest);
    for (&id, want) in users.iter().zip(&posteriors) {
        let s = back.session(id).unwrap();
        assert!(
            !stored(&s),
            "user {}: recovered with a stored posterior",
            id.0
        );
        assert_eq!(&bits(&s.posterior()), want, "user {}", id.0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
