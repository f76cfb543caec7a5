//! The worker daemon under concurrent load, with one lock per shard:
//! requests for users in different shards run at the same time, requests
//! within a shard one after another, and every answer, spend and journal
//! record is what a sequential run of the same per-user requests gives.

use priste_calibrate::GuardConfig;
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::{Matrix, Vector};
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_obs::{json, Registry};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use priste_serve::http::read_response;
use priste_serve::{Server, ServerConfig};
use rand::RngCore;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

const SHARDS: usize = 4;
const USERS: u64 = 8;
const ROUNDS: u64 = 5;

fn grid() -> GridMap {
    GridMap::new(3, 3, 1.0).unwrap()
}

fn plm() -> PlanarLaplace {
    PlanarLaplace::new(grid(), 3.0).unwrap()
}

fn provider() -> Arc<Homogeneous> {
    Arc::new(Homogeneous::new(
        gaussian_kernel_chain(&grid(), 1.0).unwrap(),
    ))
}

fn templates() -> Vec<StEvent> {
    vec![
        Presence::new(Region::from_one_based_range(9, 1, 3).unwrap(), 2, 4)
            .unwrap()
            .into(),
    ]
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 0.8,
        num_shards: SHARDS,
        linger: 2,
        budget: 1e6,
    }
}

fn durable_options() -> DurableOptions {
    DurableOptions {
        fsync: false,
        // Small, so that checkpoints run while other requests append.
        snapshot_every: 5,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("priste-serve-shards-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An empty service (users register on first contact), durable in `dir`
/// when given, enforcing when asked; its metrics land in the returned
/// registry.
fn service(dir: Option<&Path>, enforcing: bool) -> (SessionManager<Arc<Homogeneous>>, Registry) {
    let mut svc = SessionManager::new(provider(), config()).unwrap();
    for t in templates() {
        svc.register_template(t).unwrap();
    }
    if enforcing {
        svc.enable_enforcement(
            Box::new(plm()),
            GuardConfig {
                target_epsilon: 0.8,
                ..GuardConfig::default()
            },
        )
        .unwrap();
    }
    let registry = Registry::new();
    svc.observe(&registry);
    if let Some(dir) = dir {
        svc.make_durable(dir, durable_options()).unwrap();
    }
    (svc, registry)
}

fn start(
    svc: SessionManager<Arc<Homogeneous>>,
    mechanism: Option<Box<dyn Lppm>>,
    registry: &Registry,
) -> Server<Arc<Homogeneous>> {
    Server::start(
        svc,
        mechanism,
        registry.clone(),
        ServerConfig {
            workers: 8,
            poll_interval: Duration::from_millis(5),
            seed: 11,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap()
}

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(server: &Server<Arc<Homogeneous>>) -> Client {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(wire.as_bytes()).unwrap();
        let resp = read_response(&mut self.stream, &mut self.buf).expect("read response");
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    fn ingest(&mut self, user: u64, cell: usize) -> (u16, String) {
        let body = format!("{{\"user\": {user}, \"observed\": {cell}}}");
        self.request("POST", "/v1/ingest", &body)
    }

    /// The spend document's `field`, or `None` on a 404.
    fn spend(&mut self, user: u64, field: &str) -> Option<f64> {
        let (status, body) = self.request("GET", &format!("/v1/users/{user}/spend"), "");
        if status == 404 {
            return None;
        }
        assert_eq!(status, 200, "{body}");
        json::parse(&body)
            .unwrap()
            .get(field)
            .and_then(|j| j.as_f64())
    }

    fn users(&mut self) -> u64 {
        let (status, body) = self.request("GET", "/v1/config", "");
        assert_eq!(status, 200, "{body}");
        json::parse(&body)
            .unwrap()
            .get("users")
            .and_then(|j| j.as_u64())
            .unwrap()
    }
}

/// The cell user `user` reports in round `round`.
fn cell(user: u64, round: u64) -> usize {
    ((user * 5 + round * 7) % 9) as usize
}

/// Drives every user's rounds of observed-cell ingests on 4 connections
/// at once, each owning two users, and returns each user's spend as the
/// daemon reports it.
fn drive_concurrently(server: &Server<Arc<Homogeneous>>) -> Vec<f64> {
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for k in 0..4u64 {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(server);
                barrier.wait();
                for round in 0..ROUNDS {
                    for user in [2 * k, 2 * k + 1] {
                        let (status, body) = client.ingest(user, cell(user, round));
                        assert_eq!(status, 200, "{body}");
                    }
                }
            });
        }
    });
    let mut client = Client::connect(server);
    (0..USERS)
        .map(|u| client.spend(u, "spent").unwrap())
        .collect()
}

/// Each user's spend after the same ingests, one at a time, in process.
fn sequential_spend() -> Vec<f64> {
    let (mut svc, _) = service(None, false);
    svc.set_mechanism(Box::new(plm())).unwrap();
    (0..USERS)
        .map(|u| {
            svc.enroll(UserId(u), || Vector::uniform(9), &[0]).unwrap();
            for round in 0..ROUNDS {
                svc.ingest_observed(UserId(u), CellId(cell(u, round)))
                    .unwrap();
            }
            svc.session(UserId(u)).unwrap().ledger().spent()
        })
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn concurrent_ingests_match_a_sequential_replay_bit_for_bit() {
    let (svc, registry) = service(None, false);
    let server = start(svc, Some(Box::new(plm())), &registry);
    let spent = drive_concurrently(&server);
    assert_eq!(bits(&spent), bits(&sequential_spend()));
    let requests = USERS * ROUNDS;
    assert_eq!(
        registry.counter("online_observations_total").get(),
        requests
    );
    // Every single-user call records its wait for the shard lock: one for
    // first contact, one for the ingest, one for the spend read.
    let waits = registry.histogram("online_shard_lock_wait_seconds");
    assert!(waits.count() >= requests, "{} waits", waits.count());
    server.drain_handle().drain();
    server.wait().unwrap();
}

#[test]
fn a_concurrent_durable_load_recovers_every_spend_without_a_drain() {
    let dir = tempdir("durable");
    let (svc, registry) = service(Some(&dir), false);
    let server = start(svc, Some(Box::new(plm())), &registry);
    let spent = drive_concurrently(&server);
    assert!(registry.counter("durable_checkpoints_total").get() > 1);
    // Read-only recovery from the live directory: the snapshot the last
    // checkpoint wrote plus the WAL records appended since.
    let recovered = SessionManager::recover(
        provider(),
        config(),
        templates(),
        &dir,
        Some(Box::new(plm())),
    )
    .unwrap();
    let back: Vec<f64> = (0..USERS)
        .map(|u| recovered.session(UserId(u)).unwrap().ledger().spent())
        .collect();
    assert_eq!(bits(&back), bits(&spent));
    assert_eq!(bits(&spent), bits(&sequential_spend()));
    server.drain_handle().drain();
    server.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simultaneous_first_requests_register_a_user_once() {
    let dir = tempdir("first-contact");
    let (svc, registry) = service(Some(&dir), false);
    let server = start(svc, Some(Box::new(plm())), &registry);
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for k in 0..8 {
            let (barrier, server) = (&barrier, &server);
            scope.spawn(move || {
                let mut client = Client::connect(server);
                barrier.wait();
                let (status, body) = client.ingest(42, k);
                assert_eq!(status, 200, "{body}");
            });
        }
    });
    let mut client = Client::connect(&server);
    assert_eq!(client.users(), 1);
    assert_eq!(client.spend(42, "observed"), Some(8.0));
    // A second registration would be a second AddUser record, which fails
    // replay as a duplicate.
    let recovered = SessionManager::recover(
        provider(),
        config(),
        templates(),
        &dir,
        Some(Box::new(plm())),
    )
    .unwrap();
    assert_eq!(recovered.num_users(), 1);
    let session = recovered.session(UserId(42)).unwrap();
    assert_eq!(session.observed(), 8);
    server.drain_handle().drain();
    server.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_rejected_request_registers_nobody() {
    let dir = tempdir("rejected");
    let (svc, registry) = service(Some(&dir), false);
    // No mechanism: an in-range observed cell is refused too.
    let server = start(svc, None, &registry);
    let mut client = Client::connect(&server);
    let wal_bytes = || registry.counter("durable_wal_bytes_total").get();
    let before = wal_bytes();
    let short = ["0.5"; 8].join(", ");
    let negative = format!("-0.1, {}", ["0.5"; 8].join(", "));
    for (path, body, expected) in [
        (
            "/v1/ingest",
            "{\"user\": 77, \"observed\": 9}".to_owned(),
            400,
        ),
        (
            "/v1/ingest",
            format!("{{\"user\": 77, \"column\": [{short}]}}"),
            400,
        ),
        (
            "/v1/ingest",
            format!("{{\"user\": 77, \"column\": [{negative}]}}"),
            400,
        ),
        (
            "/v1/ingest",
            "{\"user\": 77, \"observed\": 3}".to_owned(),
            409,
        ),
        (
            "/v1/release",
            "{\"user\": 77, \"true_location\": 3}".to_owned(),
            409,
        ),
    ] {
        let (status, answer) = client.request("POST", path, &body);
        assert_eq!(status, expected, "{body}: {answer}");
        assert_eq!(client.users(), 0, "{body}");
        assert_eq!(wal_bytes(), before, "{body}");
        assert_eq!(client.spend(77, "spent"), None, "{body}");
    }
    server.drain_handle().drain();
    server.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Per-user release bodies from an enforcing daemon seeded like every
/// other, for the same per-user requests; `threaded` sends each shard's
/// users from their own connection, all shards at once, and otherwise
/// one request after another, round-robin over the shards.
fn release_bodies(threaded: bool) -> Vec<String> {
    let (svc, registry) = service(None, true);
    let server = start(svc, Some(Box::new(plm())), &registry);
    // Shard s holds users s and s + 4; both orders send them in that
    // order every round.
    let send = |client: &mut Client, user: u64, round: u64| {
        let body = format!(
            "{{\"user\": {user}, \"true_location\": {}}}",
            cell(user, round)
        );
        let (status, answer) = client.request("POST", "/v1/release", &body);
        assert_eq!(status, 200, "{answer}");
        answer
    };
    let mut bodies = vec![String::new(); USERS as usize];
    if threaded {
        let per_shard: Vec<Vec<(u64, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SHARDS as u64)
                .map(|shard| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut client = Client::connect(server);
                        let mut out = Vec::new();
                        for round in 0..ROUNDS {
                            for user in [shard, shard + SHARDS as u64] {
                                out.push((user, send(&mut client, user, round)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (user, answer) in per_shard.into_iter().flatten() {
            bodies[user as usize].push_str(&answer);
        }
    } else {
        let mut client = Client::connect(&server);
        for round in 0..ROUNDS {
            for user in 0..USERS {
                bodies[user as usize].push_str(&send(&mut client, user, round));
            }
        }
    }
    server.drain_handle().drain();
    server.wait().unwrap();
    bodies
}

#[test]
fn releases_draw_per_shard_so_interleaving_across_shards_does_not_matter() {
    let sequential = release_bodies(false);
    assert_eq!(release_bodies(true), sequential);
}

/// Where two callers of [`Gate`] must meet: each waits, up to `patience`,
/// until a second one is inside at the same time.
struct Rendezvous {
    state: Mutex<Meeting>,
    met: Condvar,
    patience: Duration,
}

#[derive(Default)]
struct Meeting {
    inside: usize,
    most_inside: usize,
    passed: usize,
}

impl Rendezvous {
    fn new(patience: Duration) -> Arc<Rendezvous> {
        Arc::new(Rendezvous {
            state: Mutex::default(),
            met: Condvar::new(),
            patience,
        })
    }

    fn meet(&self) {
        let mut meeting = self.state.lock().unwrap();
        meeting.inside += 1;
        meeting.most_inside = meeting.most_inside.max(meeting.inside);
        self.met.notify_all();
        let (mut meeting, _) = self
            .met
            .wait_timeout_while(meeting, self.patience, |m| m.most_inside < 2)
            .unwrap();
        if meeting.most_inside >= 2 {
            meeting.passed += 1;
        }
        meeting.inside -= 1;
    }

    fn seen(&self) -> (usize, usize) {
        let meeting = self.state.lock().unwrap();
        (meeting.most_inside, meeting.passed)
    }
}

/// The cell whose emission column waits at the rendezvous.
const GATE: usize = 4;

/// The test mechanism, except that the column of [`GATE`] waits at the
/// rendezvous: the daemon builds an observed cell's column inside the
/// user's shard lock.
struct Gate(PlanarLaplace, Arc<Rendezvous>);

impl Lppm for Gate {
    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }

    fn budget(&self) -> f64 {
        self.0.budget()
    }

    fn emission_matrix(&self) -> &Matrix {
        self.0.emission_matrix()
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        if observation == CellId(GATE) {
            self.1.meet();
        }
        self.0.emission_column(observation)
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        self.0.perturb(true_loc, rng)
    }

    fn with_budget(&self, budget: f64) -> priste_lppm::Result<Box<dyn Lppm>> {
        self.0.with_budget(budget)
    }
}

/// Sends a gated ingest for each of `users` at once, after registering
/// them; returns what the rendezvous saw.
fn gated_ingests(users: [u64; 2], patience: Duration) -> (usize, usize) {
    let rendezvous = Rendezvous::new(patience);
    let (svc, registry) = service(None, false);
    let gate = Gate(plm(), Arc::clone(&rendezvous));
    let server = start(svc, Some(Box::new(gate)), &registry);
    let mut client = Client::connect(&server);
    for user in users {
        assert_eq!(client.ingest(user, 0).0, 200);
    }
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for user in users {
            let (barrier, server) = (&barrier, &server);
            scope.spawn(move || {
                let mut client = Client::connect(server);
                barrier.wait();
                let (status, body) = client.ingest(user, GATE);
                assert_eq!(status, 200, "{body}");
            });
        }
    });
    server.drain_handle().drain();
    server.wait().unwrap();
    rendezvous.seen()
}

#[test]
fn users_in_different_shards_are_inside_the_service_at_once() {
    // Users 1 and 2 live in shards 1 and 2. A failure waits out the
    // patience and then fails the assertion.
    let (most_inside, passed) = gated_ingests([1, 2], Duration::from_secs(20));
    assert_eq!((most_inside, passed), (2, 2));
}

#[test]
fn users_in_one_shard_enter_the_service_one_at_a_time() {
    // Users 1 and 5 share shard 1: the second ingest cannot build its
    // column until the first has returned, so nobody ever meets.
    let (most_inside, passed) = gated_ingests([1, 5], Duration::from_millis(300));
    assert_eq!((most_inside, passed), (1, 0));
}
