//! The worker daemon's panic policy, pinned by injecting a panic into the
//! service itself: the mechanism's column for one cell panics, and an
//! `"observed"` ingest computes that column inside the state lock. The
//! panicking request is answered 500; from then on every `/v1` route
//! answers 503, `/readyz` reports unready, and the drain writes no
//! checkpoint of the possibly half-committed state. The journal is the
//! truth: recovering from it yields at least the spend the clients saw
//! committed.

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
use std::sync::Arc;
use std::time::Duration;

/// The cell whose emission column panics.
const TRIPWIRE: CellId = CellId(4);

/// The α = 3 Planar Laplace mechanism, except that asking for the column
/// of [`TRIPWIRE`] panics.
struct Tripwire(PlanarLaplace);

impl Lppm for Tripwire {
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
        assert_ne!(observation, TRIPWIRE, "tripwire cell observed");
        self.0.emission_column(observation)
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        self.0.perturb(true_loc, rng)
    }

    fn with_budget(&self, budget: f64) -> priste_lppm::Result<Box<dyn Lppm>> {
        self.0.with_budget(budget)
    }
}

fn grid() -> GridMap {
    GridMap::new(3, 3, 1.0).unwrap()
}

fn tripwire() -> Box<dyn Lppm> {
    Box::new(Tripwire(PlanarLaplace::new(grid(), 3.0).unwrap()))
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
        num_shards: 2,
        linger: 2,
        budget: 1e6,
    }
}

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
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

    fn spent(&mut self, user: u64) -> f64 {
        let (status, body) = self.request("GET", &format!("/v1/users/{user}/spend"), "");
        assert_eq!(status, 200, "{body}");
        json::parse(&body)
            .unwrap()
            .get("spent")
            .and_then(|j| j.as_f64())
            .unwrap()
    }
}

#[test]
fn a_panic_in_the_service_fences_mutations_and_recovery_keeps_committed_spend() {
    let dir = std::env::temp_dir().join(format!("priste-serve-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = SessionManager::new(provider(), config()).unwrap();
    for t in templates() {
        service.register_template(t).unwrap();
    }
    service
        .make_durable(
            &dir,
            DurableOptions {
                fsync: false,
                snapshot_every: 0,
            },
        )
        .unwrap();
    let server = Server::start(
        service,
        Some(tripwire()),
        Registry::new(),
        ServerConfig {
            workers: 2,
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(&server.local_addr().to_string());

    let users = [1u64, 2];
    for cell in [0, 8, 2] {
        for user in users {
            let body = format!("{{\"user\": {user}, \"observed\": {cell}}}");
            let (status, body) = client.request("POST", "/v1/ingest", &body);
            assert_eq!(status, 200, "{body}");
        }
    }
    let committed: Vec<f64> = users.iter().map(|&u| client.spent(u)).collect();
    assert!(committed.iter().all(|&s| s > 0.0), "{committed:?}");

    let tripped = format!("{{\"user\": 1, \"observed\": {}}}", TRIPWIRE.0);
    let (status, body) = client.request("POST", "/v1/ingest", &tripped);
    assert_eq!(status, 500, "{body}");

    // Every route over the state is fenced off; liveness still answers.
    for (path, body) in [
        ("/v1/ingest", "{\"user\": 2, \"observed\": 0}".to_owned()),
        (
            "/v1/ingest",
            format!("{{\"user\": 3, \"column\": [{}]}}", ["0.5"; 9].join(", ")),
        ),
        (
            "/v1/release",
            "{\"user\": 2, \"true_location\": 0}".to_owned(),
        ),
    ] {
        let (status, body) = client.request("POST", path, &body);
        assert_eq!(status, 503, "{path}: {body}");
    }
    for path in ["/v1/users/1/spend", "/v1/config", "/readyz"] {
        assert_eq!(client.request("GET", path, "").0, 503, "{path}");
    }
    assert_eq!(client.request("GET", "/healthz", "").0, 200);

    server.drain_handle().drain();
    let summary = server.wait().unwrap();
    assert!(
        !summary.checkpointed,
        "a poisoned state is never checkpointed"
    );

    // Replay never asks for the tripwire's column: that ingest panicked
    // before it reached the journal.
    let recovered =
        SessionManager::recover(provider(), config(), templates(), &dir, Some(tripwire())).unwrap();
    for (&user, &spent) in users.iter().zip(&committed) {
        let ledger = recovered.session(UserId(user)).unwrap().ledger();
        assert!(
            ledger.spent() >= spent,
            "user {user}: recovered {} < committed {spent}",
            ledger.spent()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
