//! Copy-on-write session state: users registered with the same prior share
//! one posterior, and windows attached before a user's first observation
//! share one `π` and one lifted initial vector. Sharing must never be
//! observable: every user of a shared service must end up bit-identical to
//! the same user replayed alone, and a write must un-share only the writer.
//! Once a session owns its vectors, observations overwrite them in place;
//! a vector anyone else holds is never written.

use priste_calibrate::GuardConfig;
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_online::{DurableOptions, OnlineConfig, Session, SessionManager, UserId};
use priste_quantify::IncrementalTwoWorld;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

const USERS: u64 = 6;

fn grid() -> GridMap {
    GridMap::new(3, 3, 1.0).unwrap()
}

fn chain() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(
        gaussian_kernel_chain(&grid(), 1.0).unwrap(),
    ))
}

fn templates() -> Vec<StEvent> {
    vec![
        Presence::new(Region::from_one_based_range(9, 1, 3).unwrap(), 2, 3)
            .unwrap()
            .into(),
        Presence::new(Region::from_one_based_range(9, 4, 6).unwrap(), 1, 2)
            .unwrap()
            .into(),
    ]
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 1.0,
        num_shards: 3,
        linger: 1,
        budget: 1e6,
    }
}

/// An enforcing service with both templates registered.
fn service() -> SessionManager<Arc<Homogeneous>> {
    let mut svc = SessionManager::new(chain(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    let plm: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid(), 2.0).unwrap());
    svc.enable_enforcement(plm, GuardConfig::default()).unwrap();
    svc
}

/// The prior pool: a uniform prior, a prior with an exact zero and its
/// `-0.0` twin (equal under `==`, different bits), and a prior one ulp away
/// from the zero one in another entry (equal within any tolerance).
fn prior_pool() -> Vec<Vector> {
    let zero = vec![0.0, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2];
    let mut negative = zero.clone();
    negative[0] = -0.0;
    let mut ulp = zero.clone();
    ulp[1] = f64::from_bits(0.2f64.to_bits() + 1);
    vec![
        Vector::uniform(9),
        Vector::from(zero),
        Vector::from(negative),
        Vector::from(ulp),
    ]
}

/// One service call, concrete enough to replay against another service.
#[derive(Debug, Clone)]
enum Op {
    Add(u64, usize),
    Attach(u64, usize),
    Ingest(Vec<(u64, Vector)>),
    Release(u64, CellId, u64),
}

/// Turns raw draws into a valid script: users are added before they are
/// used, and every ingest column is a Planar Laplace release of some cell.
fn script(raw: &[(u8, u64, u64, u64)]) -> Vec<Op> {
    let plm = PlanarLaplace::new(grid(), 1.5).unwrap();
    let pool = prior_pool().len();
    let mut added = [false; USERS as usize];
    let mut ops = Vec::new();
    for &(kind, user, a, seed) in raw {
        let u = user % USERS;
        if !added[u as usize] {
            added[u as usize] = true;
            ops.push(Op::Add(u, (a as usize) % pool));
            continue;
        }
        ops.push(match kind % 4 {
            0 => Op::Attach(u, (a as usize) % templates().len()),
            1 | 2 => {
                let mut rng = StdRng::seed_from_u64(seed);
                let batch = (0..USERS)
                    .filter(|&v| added[v as usize] && (v == u || (a >> v) & 1 == 1))
                    .map(|v| {
                        let cell = CellId(((seed >> (4 * v)) % 9) as usize);
                        (v, plm.emission_column(plm.perturb(cell, &mut rng)))
                    })
                    .collect();
                Op::Ingest(batch)
            }
            _ => Op::Release(u, CellId((a % 9) as usize), seed),
        });
    }
    ops
}

/// Applies one op; returns each touched user's report, rendered with
/// `{:?}` (which tells `-0.0` from `0.0`).
fn apply(svc: &mut SessionManager<Arc<Homogeneous>>, op: &Op) -> Vec<(u64, String)> {
    let pool = prior_pool();
    match op {
        Op::Add(u, p) => {
            svc.add_user(UserId(*u), pool[*p].clone()).unwrap();
            vec![]
        }
        Op::Attach(u, t) => {
            svc.attach_event(UserId(*u), *t).unwrap();
            vec![]
        }
        Op::Ingest(batch) => {
            let batch: Vec<(UserId, Vector)> =
                batch.iter().map(|(u, c)| (UserId(*u), c.clone())).collect();
            svc.ingest_batch(&batch, 1)
                .unwrap()
                .into_iter()
                .map(|r| (r.user.0, format!("{r:?}")))
                .collect()
        }
        Op::Release(u, cell, seed) => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let release = svc.release(UserId(*u), *cell, &mut rng).unwrap();
            vec![(*u, format!("{release:?}"))]
        }
    }
}

fn bits(v: &Vector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Everything a session holds, as bits.
fn state_bits(s: &Session<Arc<Homogeneous>>) -> String {
    let windows: Vec<_> = s
        .windows()
        .map(|(tpl, w)| {
            (
                tpl,
                w.observed(),
                bits(w.pi()),
                bits(&w.lifted_state()),
                w.log_scale().to_bits(),
            )
        })
        .collect();
    format!(
        "t={} spent={:x} obs={} posterior={:?} windows={windows:?}",
        s.observed(),
        s.ledger().spent().to_bits(),
        s.ledger().observations(),
        bits(&s.posterior()),
    )
}

/// Where a session stores its posterior: `None` while a window attached
/// before its first observation carries it.
fn stored(s: &Session<Arc<Homogeneous>>) -> Option<*const Vector> {
    match s.posterior() {
        Cow::Borrowed(p) => Some(p as *const Vector),
        Cow::Owned(_) => None,
    }
}

/// Where a window's forward vector lives: its false half's address and,
/// once the window's event has opened, its true half's.
type Halves = (*const Vector, Option<*const Vector>);

fn halves(w: &IncrementalTwoWorld<Arc<Homogeneous>>) -> Halves {
    (
        w.false_half() as *const Vector,
        w.true_half().map(|t| t as *const Vector),
    )
}

/// Where a session's vectors live: the stored posterior's address, and
/// each window's age, `π` and forward-vector address.
struct Addresses {
    observed: usize,
    posterior: Option<*const Vector>,
    windows: Vec<(usize, *const Vector, Halves)>,
}

fn addresses(s: &Session<Arc<Homogeneous>>) -> Addresses {
    Addresses {
        observed: s.observed(),
        posterior: stored(s),
        windows: s
            .windows()
            .map(|(_, w)| (w.observed(), w.pi() as *const _, halves(w)))
            .collect(),
    }
}

/// The users an op observes.
fn observed_by(op: &Op) -> Vec<u64> {
    match op {
        Op::Ingest(batch) => batch.iter().map(|(u, _)| *u).collect(),
        Op::Release(u, _, _) => vec![*u],
        Op::Add(..) | Op::Attach(..) => vec![],
    }
}

/// Applies `op` and checks where it wrote. A session that owns its vectors
/// keeps their addresses: its posterior after the first observation,
/// unless a window attached since shares it as `π` (that first write must
/// move it), and every window's forward vector after the window's first
/// observation (a true half from the observation that opens the window's
/// event). Nothing shared is written: users the op does not touch
/// keep every bit, every window keeps its `π`, and with `clone` set every
/// session is cloned first — sharing all of its vectors — and the clones
/// keep every bit while the service moves on.
fn apply_checking_writes(
    svc: &mut SessionManager<Arc<Homogeneous>>,
    op: &Op,
    clone: bool,
) -> Vec<(u64, String)> {
    let live: Vec<u64> = (0..USERS)
        .filter(|&u| svc.session(UserId(u)).is_some())
        .collect();
    let session = |svc: &SessionManager<_>, u: u64| svc.session(UserId(u)).unwrap().clone();
    let before: Vec<(Addresses, String, Vec<Vec<u64>>)> = live
        .iter()
        .map(|&u| {
            let s = svc.session(UserId(u)).unwrap();
            let pis = s.windows().map(|(_, w)| bits(w.pi())).collect();
            (addresses(&s), state_bits(&s), pis)
        })
        .collect();
    let clones: Vec<Session<_>> = if clone {
        live.iter().map(|&u| session(svc, u)).collect()
    } else {
        Vec::new()
    };
    let reports = apply(svc, op);
    let observed = observed_by(op);
    let touched =
        |u: u64| observed.contains(&u) || matches!(op, Op::Add(v, _) | Op::Attach(v, _) if *v == u);
    for (&u, (was, was_bits, was_pis)) in live.iter().zip(&before) {
        let s = svc.session(UserId(u)).unwrap();
        if !touched(u) {
            assert_eq!(&state_bits(&s), was_bits, "untouched user {u} changed");
            continue;
        }
        if !observed.contains(&u) {
            continue;
        }
        for (_, w) in s.windows() {
            assert!(
                was_pis.contains(&bits(w.pi())),
                "user {u}: a window π changed"
            );
        }
        if clone {
            continue;
        }
        let now = addresses(&s);
        if let (Some(was_at), Some(now_at)) = (was.posterior, now.posterior) {
            let posterior_shared = was.windows.iter().any(|&(_, pi, _)| pi == was_at);
            if posterior_shared {
                assert_ne!(now_at, was_at, "user {u}: wrote a shared posterior");
            } else if was.observed >= 1 {
                assert_eq!(now_at, was_at, "user {u}: posterior moved");
            }
        }
        for &(age, _, alpha) in &now.windows {
            if age >= 2 {
                assert!(
                    was.windows
                        .iter()
                        .any(|&(_, _, a)| a.0 == alpha.0 && (a.1.is_none() || a.1 == alpha.1)),
                    "user {u}: an observed window's forward vector moved"
                );
            }
        }
    }
    for (c, (_, was_bits, _)) in clones.iter().zip(&before) {
        assert_eq!(
            &state_bits(c),
            was_bits,
            "a clone of user {} changed",
            c.id().0
        );
    }
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shared_state_never_leaks_between_users(
        raw in proptest::collection::vec((0u8..4, 0u64..USERS, 0u64..64, 0u64..u64::MAX), 8..40),
    ) {
        let ops = script(&raw);
        let mut shared = service();
        let mut shared_reports: Vec<Vec<String>> = vec![Vec::new(); USERS as usize];
        for (i, op) in ops.iter().enumerate() {
            for (u, report) in apply_checking_writes(&mut shared, op, i % 4 == 3) {
                shared_reports[u as usize].push(report);
            }
        }
        for u in 0..USERS {
            let mut alone = service();
            let mut reports = Vec::new();
            for op in &ops {
                let mine = match op {
                    Op::Ingest(batch) => match batch.iter().find(|(v, _)| *v == u) {
                        Some(entry) => Op::Ingest(vec![entry.clone()]),
                        None => continue,
                    },
                    Op::Add(v, _) | Op::Attach(v, _) | Op::Release(v, _, _) if *v == u => {
                        op.clone()
                    }
                    _ => continue,
                };
                reports.extend(apply(&mut alone, &mine).into_iter().map(|(_, r)| r));
            }
            prop_assert_eq!(&reports, &shared_reports[u as usize], "user {}", u);
            match (shared.session(UserId(u)), alone.session(UserId(u))) {
                (Some(a), Some(b)) => prop_assert_eq!(state_bits(&a), state_bits(&b), "user {}", u),
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }
}

#[test]
fn idle_users_share_and_a_write_unshares_only_the_writer() {
    let svc = service();
    let pool = prior_pool();
    for u in 0..3 {
        svc.add_user(UserId(u), pool[0].clone()).unwrap();
        svc.attach_event(UserId(u), 0).unwrap();
    }
    // Value-equal but bit-distinct priors never merge.
    svc.add_user(UserId(3), pool[1].clone()).unwrap();
    svc.add_user(UserId(4), pool[2].clone()).unwrap();
    fn session(svc: &SessionManager<Arc<Homogeneous>>, u: u64) -> Session<Arc<Homogeneous>> {
        svc.session(UserId(u)).unwrap()
    }
    let window = |s: &Session<Arc<Homogeneous>>| {
        let (_, w) = s.windows().next().unwrap();
        (w.pi() as *const Vector, halves(w))
    };
    let (a, b, c) = (session(&svc, 0), session(&svc, 1), session(&svc, 2));
    assert!(stored(&a).is_some());
    assert_eq!(stored(&a), stored(&b));
    assert_eq!(stored(&b), stored(&c));
    assert_eq!(window(&a), window(&b));
    assert_eq!(Some(window(&a).0), stored(&a));
    drop((a, b, c));
    assert_ne!(stored(&session(&svc, 3)), stored(&session(&svc, 4)));
    assert_eq!(session(&svc, 3).posterior(), session(&svc, 4).posterior());

    // The writer's window carries its filter: it stores no posterior.
    svc.ingest(UserId(0), Vector::from(vec![0.5; 9])).unwrap();
    let (a, b, c) = (session(&svc, 0), session(&svc, 1), session(&svc, 2));
    assert_eq!(stored(&a), None);
    assert!(stored(&b).is_some());
    assert_eq!(stored(&b), stored(&c));
    assert_ne!(window(&a).1, window(&b).1);
    assert_eq!(window(&b), window(&c));
    assert_eq!(*b.posterior(), pool[0], "the idle users kept the prior");
    drop((a, b, c));

    // A template attached after the write starts from the writer's own
    // posterior; the idle users' cached start is untouched.
    svc.attach_event(UserId(1), 1).unwrap();
    svc.attach_event(UserId(2), 1).unwrap();
    let (b, c) = (session(&svc, 1), session(&svc, 2));
    let second = |s: &Session<Arc<Homogeneous>>| halves(s.windows().nth(1).unwrap().1);
    assert_eq!(second(&b), second(&c));
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("priste-cow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn recovery_shares_idle_state_again() {
    let dir = tempdir("recover");
    let mut svc = SessionManager::new(chain(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    let idle = 8;
    for u in 0..=idle {
        svc.add_user(UserId(u), Vector::uniform(9)).unwrap();
        svc.attach_event(UserId(u), 0).unwrap();
    }
    svc.ingest(UserId(idle), Vector::from(vec![0.3; 9]))
        .unwrap();
    // The signed-zero twins: equal under `==`, so only the digest (over the
    // snapshot bytes) tells a merge apart.
    let (zero, negative) = (100, 101);
    svc.add_user(UserId(zero), prior_pool()[1].clone()).unwrap();
    svc.add_user(UserId(negative), prior_pool()[2].clone())
        .unwrap();
    let opts = DurableOptions {
        fsync: false,
        snapshot_every: 0,
    };
    svc.make_durable(&dir, opts).unwrap();
    // Journaled after the checkpoint: replayed from the WAL on recovery.
    for u in idle + 1..idle + 3 {
        svc.add_user(UserId(u), Vector::uniform(9)).unwrap();
        svc.attach_event(UserId(u), 0).unwrap();
    }
    let digest = svc.state_digest();
    drop(svc);

    let recovered = SessionManager::recover(chain(), config(), templates(), &dir, None).unwrap();
    assert_eq!(recovered.state_digest(), digest);
    let first = recovered.session(UserId(0)).unwrap();
    let (_, first_window) = first.windows().next().unwrap();
    for u in (1..idle).chain(idle + 1..idle + 3) {
        let s = recovered.session(UserId(u)).unwrap();
        let (_, w) = s.windows().next().unwrap();
        assert!(stored(&s).is_some(), "user {u}");
        assert_eq!(stored(&s), stored(&first), "user {u}");
        assert_eq!(Some(w.pi() as *const Vector), stored(&first), "user {u}");
        assert_eq!(halves(w), halves(first_window));
    }
    assert_ne!(
        stored(&recovered.session(UserId(zero)).unwrap()),
        stored(&recovered.session(UserId(negative)).unwrap())
    );
    // The active user's window carries its filter, live and recovered.
    let active = recovered.session(UserId(idle)).unwrap();
    assert_eq!(stored(&active), None);
    let (_, active_window) = active.windows().next().unwrap();
    assert_eq!(Some(active_window.pi() as *const Vector), stored(&first));
    assert_ne!(halves(active_window), halves(first_window));
    // A copy shares the session's vectors, so holding it across the
    // observations below would make them write fresh ones.
    drop(active);

    // Observing a recovered idle user never writes the vectors the idle
    // population shares; the active user's recovered vectors are its own,
    // so its next observation writes them in place (that observation opens
    // its window's event, so the window's true half appears then).
    let idle_bits = state_bits(&recovered.session(UserId(2)).unwrap());
    let at = |svc: &SessionManager<Arc<Homogeneous>>, u: u64| {
        let s = svc.session(UserId(u)).unwrap();
        let (_, w) = s.windows().next().unwrap();
        (stored(&s), halves(w).0)
    };
    let active_at = at(&recovered, idle);
    for u in [1, idle] {
        recovered
            .ingest(UserId(u), Vector::from(vec![0.4; 9]))
            .unwrap();
    }
    assert_eq!(
        state_bits(&recovered.session(UserId(2)).unwrap()),
        idle_bits
    );
    assert_eq!(
        at(&recovered, idle),
        active_at,
        "recovered owned vectors moved"
    );
    assert_ne!(at(&recovered, 1).0, at(&recovered, 2).0);
    std::fs::remove_dir_all(&dir).unwrap();
}
