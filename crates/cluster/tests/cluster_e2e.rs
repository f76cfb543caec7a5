//! End-to-end tests for the router tier over real TCP: in-process
//! `priste_serve` workers on ephemeral ports fronted by a `Router`,
//! driven by a hand-rolled keep-alive client. Covers routing, the admin
//! plane, shard handoff over the durable substrate, and every upstream
//! failure mode the at-most-once policy distinguishes.

use priste_calibrate::GuardConfig;
use priste_cluster::{jump_hash, PoolConfig, Router, RouterConfig, ShardMap, METRIC_SCHEMA};
use priste_event::Presence;
use priste_geo::{GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_obs::{json, Registry};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use priste_serve::daemon::DaemonConfig;
use priste_serve::http::read_response;
use priste_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "priste-cluster-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn online_config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 0.8,
        num_shards: 2,
        linger: 2,
        budget: 1e6,
    }
}

fn presence_template(grid: &GridMap) -> Presence {
    Presence::new(
        Region::from_one_based_range(grid.num_cells(), 1, 3).unwrap(),
        2,
        4,
    )
    .unwrap()
}

/// A 3×3 enforcing commuter worker, optionally durable — the same
/// service every serve e2e uses, so the router fronts real spends.
fn build_worker(durable: Option<&Path>) -> (Server<Arc<Homogeneous>>, Registry) {
    let grid = GridMap::new(3, 3, 1.0).unwrap();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let provider = Arc::new(Homogeneous::new(chain));
    let mut service = SessionManager::new(provider, online_config()).unwrap();
    service
        .register_template(presence_template(&grid).into())
        .unwrap();
    service
        .add_user(UserId(1), Vector::uniform(grid.num_cells()))
        .unwrap();
    service.attach_event(UserId(1), 0).unwrap();
    if let Some(dir) = durable {
        service
            .make_durable(
                dir,
                DurableOptions {
                    fsync: false,
                    snapshot_every: 0,
                },
            )
            .unwrap();
    }
    finish_worker(service, &grid)
}

/// Adopts a moved durable directory: recover-or-create, then the same
/// enforcement and server wiring as a fresh worker. This is step 3 of
/// the shard-handoff runbook.
fn adopt_worker(dir: &Path) -> (Server<Arc<Homogeneous>>, Registry) {
    let grid = GridMap::new(3, 3, 1.0).unwrap();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let provider = Arc::new(Homogeneous::new(chain));
    let service = SessionManager::open_durable(
        provider,
        online_config(),
        vec![presence_template(&grid).into()],
        dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
        Some(Box::new(PlanarLaplace::new(grid.clone(), 3.0).unwrap())),
    )
    .unwrap();
    finish_worker(service, &grid)
}

fn finish_worker(
    mut service: SessionManager<Arc<Homogeneous>>,
    grid: &GridMap,
) -> (Server<Arc<Homogeneous>>, Registry) {
    let mechanism = PlanarLaplace::new(grid.clone(), 3.0).unwrap();
    service
        .enable_enforcement(
            Box::new(mechanism.clone()),
            GuardConfig {
                target_epsilon: 0.8,
                ..GuardConfig::default()
            },
        )
        .unwrap();
    let registry = Registry::new();
    service.observe(&registry);
    let server = Server::start(
        service,
        Some(Box::new(mechanism) as Box<dyn Lppm>),
        registry.clone(),
        ServerConfig {
            daemon: DaemonConfig {
                workers: 2,
                poll_interval: Duration::from_millis(5),
                ..DaemonConfig::default()
            },
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    (server, registry)
}

/// Router tuning for tests: fast probes, short timeouts, a recognisable
/// `Retry-After`.
fn quick_router_config() -> RouterConfig {
    RouterConfig {
        daemon: DaemonConfig {
            workers: 4,
            max_body_bytes: 64 * 1024,
            poll_interval: Duration::from_millis(5),
            metrics_snapshot: None,
            handle_signals: false,
        },
        probe_interval: Duration::from_millis(50),
        pool: PoolConfig {
            connect_attempts: 2,
            connect_backoff: Duration::from_millis(2),
            connect_timeout: Duration::from_millis(250),
            exchange_timeout: Duration::from_secs(5),
            pool_capacity: 8,
        },
        retry_after_seconds: 7,
    }
}

fn start_router(addrs: &[String], registry: &Registry) -> Router {
    let map = ShardMap::from_workers(addrs.iter().cloned()).unwrap();
    Router::start(map, registry.clone(), quick_router_config(), "127.0.0.1:0").unwrap()
}

/// Tiny blocking test client over one keep-alive connection.
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

    fn send_raw(&mut self, wire: &str) {
        self.stream.write_all(wire.as_bytes()).unwrap();
    }

    /// Reads one response: (status, its header lines, body).
    fn read_response(&mut self) -> (u16, String, String) {
        let resp = read_response(&mut self.stream, &mut self.buf).expect("read response");
        let head = resp
            .headers
            .iter()
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .collect();
        (resp.status, head, String::from_utf8(resp.body).unwrap())
    }

    fn get(&mut self, path: &str) -> (u16, String, String) {
        self.send_raw(&format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n"));
        self.read_response()
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String, String) {
        self.send_raw(&format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ));
        self.read_response()
    }

    fn ingest(&mut self, user: u64, observed: u64) -> (u16, String, String) {
        self.post(
            "/v1/ingest",
            &format!("{{\"user\": {user}, \"observed\": {observed}}}"),
        )
    }
}

/// First user id that jump-hashes onto `slot` of `buckets`.
fn user_on_slot(slot: u32, buckets: u32) -> u64 {
    (0..).find(|&u| jump_hash(u, buckets) == slot).unwrap()
}

#[test]
fn routes_by_user_id_and_exposes_the_cluster_plane() {
    let (worker_a, _) = build_worker(None);
    let (worker_b, _) = build_worker(None);
    let addrs = vec![
        worker_a.local_addr().to_string(),
        worker_b.local_addr().to_string(),
    ];
    let registry = Registry::new();
    let router = start_router(&addrs, &registry);
    let router_addr = router.local_addr().to_string();
    let mut client = Client::connect(&router_addr);

    let (status, _, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    let (status, _, body) = client.get("/readyz");
    assert_eq!(status, 200);
    assert_eq!(body, "ready\n");
    let (status, _, body) = client.get("/v1/config");
    assert_eq!(status, 200, "body: {body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("num_cells").and_then(|j| j.as_u64()), Some(9));

    // Two ingests per user; each user's timestep advances monotonically
    // regardless of which worker its slot lives on — routing is sticky.
    // Not user 1: build_worker pre-registers it on every worker, so it
    // is the one id whose ledger legitimately exists on both.
    let users: Vec<u64> = (100..116).collect();
    for round in 1..=2u64 {
        for &user in &users {
            let (status, _, body) = client.ingest(user, (user + round) % 9);
            assert_eq!(status, 200, "user {user}: {body}");
            let doc = json::parse(&body).unwrap();
            assert_eq!(doc.get("t").and_then(|j| j.as_u64()), Some(round));
        }
    }

    // The spend ledger for a user lives on exactly the worker its slot
    // maps to: present through the router, present on that worker,
    // absent on the other.
    for &user in &users {
        let (status, _, body) = client.get(&format!("/v1/users/{user}/spend"));
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("observed").and_then(|j| j.as_u64()), Some(2));
        let slot = jump_hash(user, 2) as usize;
        let mut home = Client::connect(&addrs[slot]);
        let (status, _, _) = home.get(&format!("/v1/users/{user}/spend"));
        assert_eq!(status, 200, "user {user} missing from its home worker");
        let mut other = Client::connect(&addrs[1 - slot]);
        let (status, _, _) = other.get(&format!("/v1/users/{user}/spend"));
        assert_eq!(status, 404, "user {user} leaked onto the wrong worker");
    }

    // Request identity: a client-supplied id is propagated and echoed;
    // without one the router mints a cluster-scoped id.
    client.send_raw(
        "POST /v1/ingest HTTP/1.1\r\nhost: t\r\nx-request-id: trace-me\r\n\
         content-length: 26\r\n\r\n{\"user\": 0, \"observed\": 3}",
    );
    let (status, head, _) = client.read_response();
    assert_eq!(status, 200);
    assert!(head.contains("x-request-id: trace-me"), "head: {head}");
    let (status, head, _) = client.ingest(1, 4);
    assert_eq!(status, 200);
    assert!(head.contains("x-request-id: cluster-"), "head: {head}");

    // Admin plane: the live shard map with health.
    let (status, _, body) = client.get("/cluster/workers");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("slots").and_then(|j| j.as_u64()), Some(2));
    assert_eq!(doc.get("draining").and_then(|j| j.as_bool()), Some(false));
    let workers = doc.get("workers").and_then(|j| j.as_array()).unwrap();
    assert_eq!(workers.len(), 2);
    for (slot, row) in workers.iter().enumerate() {
        assert_eq!(row.get("slot").and_then(|j| j.as_u64()), Some(slot as u64));
        assert_eq!(
            row.get("addr").and_then(|j| j.as_str()),
            Some(addrs[slot].as_str())
        );
        assert_eq!(row.get("healthy").and_then(|j| j.as_bool()), Some(true));
    }
    assert_eq!(
        router
            .workers_snapshot()
            .iter()
            .filter(|w| w.healthy)
            .count(),
        2
    );

    // Router metrics aggregate the cluster view.
    let (status, _, text) = client.get("/metrics");
    assert_eq!(status, 200);
    for series in [
        "# TYPE cluster_request_seconds histogram",
        "cluster_request_seconds_bucket{route=\"/v1/ingest\",status=\"200\",le=",
        "cluster_upstream_request_seconds_bucket{worker=\"0\",route=\"/v1/ingest\",status=\"200\",le=",
        "cluster_worker_up{worker=\"0\"} 1",
        "cluster_worker_up{worker=\"1\"} 1",
        "cluster_slots 2",
        "cluster_connections_total 1",
        "priste_build_info{version=\"0.1.0\"} 1",
        "span_cluster_request_seconds_count",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }

    // Unroutable traffic is answered by the router itself.
    let (status, _, _) = client.get("/no/such/route");
    assert_eq!(status, 404);
    let (status, _, _) = client.get("/v1/ingest");
    assert_eq!(status, 405);

    router.drain_handle().drain();
    let summary = router.wait().unwrap();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.errors, 2); // the 404 and the 405
    for worker in [worker_a, worker_b] {
        worker.drain_handle().drain();
        worker.wait().unwrap();
    }
}

#[test]
fn shard_handoff_preserves_committed_spend() {
    // Slot 0's worker is durable; we hand its shard off to a new worker
    // by drain → move dir → adopt → remap, through the router the whole
    // way. The moved ledger must recover at least every committed spend.
    let dir_old = unique_dir("handoff-old");
    let dir_new = unique_dir("handoff-new");
    let (worker_a, _) = build_worker(Some(&dir_old));
    let (worker_b, _) = build_worker(None);
    let registry = Registry::new();
    let router = start_router(
        &[
            worker_a.local_addr().to_string(),
            worker_b.local_addr().to_string(),
        ],
        &registry,
    );
    let mut client = Client::connect(&router.local_addr().to_string());

    let user = user_on_slot(0, 2);
    let committed = 5u64;
    for t in 1..=committed {
        let (status, _, body) = client.ingest(user, t % 9);
        assert_eq!(status, 200, "step {t}: {body}");
    }

    // 1. Drain the old worker: wait() writes the durable checkpoint.
    worker_a.drain_handle().drain();
    let summary = worker_a.wait().unwrap();
    assert!(
        summary.checkpointed,
        "drain must checkpoint a durable worker"
    );

    // 2. Move the durable directory to its new home.
    std::fs::rename(&dir_old, &dir_new).unwrap();

    // 3. Adopt: recovery replays snapshot + WAL.
    let (worker_c, registry_c) = adopt_worker(&dir_new);

    // 4. Remap slot 0 through the admin plane.
    let (status, _, body) = client.post(
        "/cluster/remap",
        &format!("{{\"slot\": 0, \"addr\": \"{}\"}}", worker_c.local_addr()),
    );
    assert_eq!(status, 200, "body: {body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("healthy").and_then(|j| j.as_bool()), Some(true));
    assert_eq!(registry.counter("cluster_remaps_total").get(), 1);

    // Recovered spend ≥ committed spend, observed through the router.
    let (status, _, body) = client.get(&format!("/v1/users/{user}/spend"));
    assert_eq!(status, 200, "body: {body}");
    let doc = json::parse(&body).unwrap();
    let recovered = doc.get("observed").and_then(|j| j.as_u64()).unwrap();
    assert!(
        recovered >= committed,
        "recovered {recovered} observations < committed {committed}"
    );
    // The adopted worker really did go through recovery.
    assert!(registry_c.gauge("online_recovery_duration_seconds").get() >= 0.0);

    // Certification continues where the old worker stopped: the next
    // ingest lands at the next timestep, not at 1.
    let (status, _, body) = client.ingest(user, 0);
    assert_eq!(status, 200, "body: {body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("t").and_then(|j| j.as_u64()),
        Some(committed + 1),
        "handoff reset the user's session"
    );

    router.drain_handle().drain();
    router.wait().unwrap();
    for worker in [worker_b, worker_c] {
        worker.drain_handle().drain();
        worker.wait().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir_new);
}

#[test]
fn downed_workers_fail_fast_with_retry_after() {
    // An address nothing listens on: the bind succeeds, the listener is
    // dropped, and every connect is refused.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let registry = Registry::new();
    let router = start_router(&[dead_addr], &registry);
    let mut client = Client::connect(&router.local_addr().to_string());

    // The synchronous startup probe already marked the worker down, so
    // requests fail fast — no connect timeout on the request path.
    assert_eq!(registry.gauge("cluster_worker_up{worker=\"0\"}").get(), 0.0);
    let started = std::time::Instant::now();
    let (status, head, body) = client.ingest(4, 2);
    assert_eq!(status, 503, "body: {body}");
    let head = head.to_ascii_lowercase();
    assert!(head.contains("retry-after: 7"), "head: {head}");
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "fail-fast took {:?}",
        started.elapsed()
    );

    // Readiness reflects the cluster: no healthy workers → 503 too.
    let (status, head, _) = client.get("/readyz");
    assert_eq!(status, 503);
    assert!(head.to_ascii_lowercase().contains("retry-after: 7"));

    // Fail-fast means no connection retries were spent on the request.
    assert_eq!(registry.counter("cluster_upstream_retries_total").get(), 0);
    assert_eq!(
        registry
            .counter("cluster_errors_total{route=\"/v1/ingest\"}")
            .get(),
        1
    );

    router.drain_handle().drain();
    let summary = router.wait().unwrap();
    assert_eq!(summary.errors, 2);
}

/// A TCP endpoint that answers `/readyz` probes like a healthy worker
/// and hands every other request to `misbehave` — so the router trusts
/// it right up to the moment it forwards a spend.
fn spawn_fake_worker(misbehave: fn(&mut TcpStream)) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
            if String::from_utf8_lossy(&buf).starts_with("GET /readyz") {
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-length: 6\r\n\
                      connection: close\r\n\r\nready\n",
                );
            } else {
                misbehave(&mut stream);
            }
        }
    });
    addr
}

#[test]
fn malformed_upstream_bytes_are_a_502_and_counted() {
    let addr = spawn_fake_worker(|stream| {
        let _ = stream.write_all(b"BLARG NOT HTTP\r\n\r\n");
    });
    let registry = Registry::new();
    let router = start_router(&[addr], &registry);
    let mut client = Client::connect(&router.local_addr().to_string());

    let (status, _, body) = client.ingest(3, 1);
    assert_eq!(status, 502, "body: {body}");
    assert!(body.contains("malformed"), "body: {body}");
    assert_eq!(
        registry
            .counter("cluster_upstream_errors_total{worker=\"0\",kind=\"malformed\"}")
            .get(),
        1
    );

    router.drain_handle().drain();
    let summary = router.wait().unwrap();
    assert_eq!(summary.errors, 1);
}

#[test]
fn mid_request_connection_loss_is_a_502_with_no_retry() {
    // The fake worker reads the request and closes without answering.
    // The spend may or may not have been applied, so the at-most-once
    // policy forbids a retry: the client gets a 502 and the worker's
    // durable ledger arbitrates.
    let addr = spawn_fake_worker(|stream| {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    });
    let registry = Registry::new();
    let router = start_router(&[addr], &registry);
    let mut client = Client::connect(&router.local_addr().to_string());

    let (status, _, body) = client.ingest(3, 1);
    assert_eq!(status, 502, "body: {body}");
    assert_eq!(
        registry
            .counter("cluster_upstream_errors_total{worker=\"0\",kind=\"io\"}")
            .get(),
        1
    );
    // No bytes were re-sent: the retry counter only ever moves for
    // connection establishment, which succeeded first try here.
    assert_eq!(registry.counter("cluster_upstream_retries_total").get(), 0);

    router.drain_handle().drain();
    let summary = router.wait().unwrap();
    assert_eq!(summary.errors, 1);
}

#[test]
fn metrics_schema_covers_router_exports() {
    // Exercise every router code path that creates a series — traffic,
    // errors, a remap, probes — then require each exported name to be a
    // documented METRIC_SCHEMA row. `priste_build_info` and
    // `process_uptime_seconds` are the process-wide rows every daemon
    // shares; the CLI metrics table documents them once.
    let (worker, _) = build_worker(None);
    let worker_addr = worker.local_addr().to_string();
    let registry = Registry::new();
    let router = start_router(std::slice::from_ref(&worker_addr), &registry);
    let mut client = Client::connect(&router.local_addr().to_string());

    client.ingest(2, 1);
    client.get("/v1/users/2/spend");
    client.get("/v1/config");
    client.get("/readyz");
    client.get("/no/such/route");
    client.post(
        "/cluster/remap",
        &format!("{{\"slot\": 0, \"addr\": \"{worker_addr}\"}}"),
    );
    client.get("/metrics");
    // A malformed client request is answered by the router itself.
    let mut garbage = Client::connect(&router.local_addr().to_string());
    garbage.send_raw("THIS IS NOT HTTP\r\n\r\n");
    assert_eq!(garbage.read_response().0, 400);
    // So is a body nested past json::MAX_DEPTH, and the router keeps serving.
    assert_eq!(client.post("/v1/ingest", &"[".repeat(10_000)).0, 400);
    assert_eq!(client.ingest(2, 2).0, 200);
    assert_eq!(
        registry
            .counter("cluster_errors_total{route=\"malformed\"}")
            .get(),
        1
    );

    router.drain_handle().drain();
    router.wait().unwrap();
    worker.drain_handle().drain();
    worker.wait().unwrap();

    let documented: Vec<&str> = METRIC_SCHEMA
        .iter()
        .map(|(name, _, _)| *name)
        .chain(["priste_build_info", "process_uptime_seconds"])
        .collect();
    let doc = json::parse(&registry.render_json()).unwrap();
    let mut seen = 0;
    for section in ["counters", "gauges", "histograms"] {
        for name in doc.get(section).unwrap().as_object().unwrap().keys() {
            let base = name.split('{').next().unwrap();
            assert!(
                documented.contains(&base),
                "{name} exported but missing from METRIC_SCHEMA"
            );
            seen += 1;
        }
    }
    assert!(seen >= 10, "scenario exported only {seen} series");
}
