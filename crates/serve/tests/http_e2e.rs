//! End-to-end tests over real TCP: a `Server` on an ephemeral port,
//! driven by hand-rolled client connections and the crate's own load
//! generator.

use priste_calibrate::GuardConfig;
use priste_event::Presence;
use priste_geo::{GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_obs::{json, Registry};
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use priste_serve::http::read_response;
use priste_serve::{LoadMode, LoadgenOptions, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "priste-serve-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 3×3 enforcing commuter service, optionally durable, plus the
/// registry its metrics land in.
fn build_server(
    durable: Option<&Path>,
    config: ServerConfig,
) -> (Server<Arc<Homogeneous>>, Registry) {
    let grid = GridMap::new(3, 3, 1.0).unwrap();
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let provider = Arc::new(Homogeneous::new(chain));
    let mut service = SessionManager::new(
        provider,
        OnlineConfig {
            epsilon: 0.8,
            num_shards: 2,
            linger: 2,
            budget: 1e6,
        },
    )
    .unwrap();
    service
        .register_template(
            Presence::new(Region::from_one_based_range(m, 1, 3).unwrap(), 2, 4)
                .unwrap()
                .into(),
        )
        .unwrap();
    service.add_user(UserId(1), Vector::uniform(m)).unwrap();
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
        config,
        "127.0.0.1:0",
    )
    .unwrap();
    (server, registry)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
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
}

#[test]
fn serves_the_protocol_and_the_observability_plane() {
    let (server, _registry) = build_server(None, quick_config());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr);

    let (status, _, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    let (status, _, body) = client.get("/readyz");
    assert_eq!(status, 200);
    assert_eq!(body, "ready\n");

    let (status, _, body) = client.get("/v1/config");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("num_cells").and_then(|j| j.as_u64()), Some(9));
    assert_eq!(doc.get("enforcing").and_then(|j| j.as_bool()), Some(true));

    // Ingest auto-registers user 7 and returns the audit report.
    let (status, head, body) = client.post("/v1/ingest", "{\"user\": 7, \"observed\": 4}");
    assert_eq!(status, 200, "body: {body}");
    assert!(
        head.to_ascii_lowercase().contains("x-request-id:"),
        "head: {head}"
    );
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("user").and_then(|j| j.as_u64()), Some(7));
    assert_eq!(doc.get("t").and_then(|j| j.as_u64()), Some(1));
    assert!(doc.get("windows").and_then(|j| j.as_array()).is_some());

    // A client-supplied request id is echoed back verbatim.
    client.send_raw(
        "POST /v1/ingest HTTP/1.1\r\nhost: t\r\nx-request-id: trace-me\r\n\
         content-length: 26\r\n\r\n{\"user\": 7, \"observed\": 2}",
    );
    let (status, head, _) = client.read_response();
    assert_eq!(status, 200);
    assert!(head.contains("x-request-id: trace-me"), "head: {head}");

    // Enforcing release for the pre-registered user.
    let (status, _, body) = client.post("/v1/release", "{\"user\": 1, \"true_location\": 0}");
    assert_eq!(status, 200, "body: {body}");
    let doc = json::parse(&body).unwrap();
    let outcome = doc.get("outcome").and_then(|j| j.as_str()).unwrap();
    assert!(outcome == "released" || outcome == "suppressed");
    assert!(doc.get("report").and_then(|j| j.get("user")).is_some());

    // Spend reflects both users' ledgers.
    let (status, _, body) = client.get("/v1/users/7/spend");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("observed").and_then(|j| j.as_u64()), Some(2));
    let (status, _, _) = client.get("/v1/users/999/spend");
    assert_eq!(status, 404);

    // The metrics plane exposes server + service series together.
    let (status, _, text) = client.get("/metrics");
    assert_eq!(status, 200);
    for series in [
        "# TYPE serve_request_seconds histogram",
        "serve_request_seconds_bucket{route=\"/v1/ingest\",status=\"200\",le=",
        "serve_connections_total 1",
        "serve_requests_in_flight",
        "priste_build_info{version=\"0.1.0\"} 1",
        "process_uptime_seconds",
        "span_http_request_seconds_count",
        "online_sessions",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }

    server.drain_handle().drain();
    let summary = server.wait().unwrap();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.requests, 9);
    assert_eq!(summary.errors, 1); // the 404 spend probe
    assert!(!summary.checkpointed);
}

#[test]
fn concurrent_clients_each_get_coherent_sessions() {
    let (server, _registry) = build_server(None, quick_config());
    let addr = server.local_addr().to_string();
    let per_client = 25u64;
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                for t in 1..=per_client {
                    let (status, _, body) = client.post(
                        "/v1/ingest",
                        &format!("{{\"user\": {}, \"observed\": {}}}", 100 + c, t % 9),
                    );
                    assert_eq!(status, 200, "client {c} step {t}: {body}");
                    let doc = json::parse(&body).unwrap();
                    // Per-user timestep advances monotonically: no
                    // cross-talk between concurrent sessions.
                    assert_eq!(doc.get("t").and_then(|j| j.as_u64()), Some(t));
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    server.drain_handle().drain();
    let summary = server.wait().unwrap();
    assert_eq!(summary.requests, 4 * per_client);
    assert_eq!(summary.errors, 0);
}

#[test]
fn malformed_traffic_gets_4xx_and_bumps_error_counters() {
    let (server, registry) = build_server(None, quick_config());
    let addr = server.local_addr().to_string();

    // Wire-level garbage: 400 and a closed connection.
    let mut garbage = Client::connect(&addr);
    garbage.send_raw("THIS IS NOT HTTP\r\n\r\n");
    let (status, _, _) = garbage.read_response();
    assert_eq!(status, 400);

    let mut client = Client::connect(&addr);
    let (status, _, _) = client.post("/v1/ingest", "{\"user\": 1}");
    assert_eq!(status, 400); // neither observed nor column
    let (status, _, _) = client.post("/v1/ingest", "not json");
    assert_eq!(status, 400);
    // Nested past json::MAX_DEPTH: refused, and the worker keeps serving.
    let (status, _, _) = client.post("/v1/ingest", &"[".repeat(10_000));
    assert_eq!(status, 400);
    let (status, _, _) = client.post("/v1/ingest", "{\"user\": 1, \"observed\": 3}");
    assert_eq!(status, 200);
    let (status, _, _) = client.post("/v1/ingest", "{\"user\": 1, \"observed\": 99}");
    assert_eq!(status, 400); // outside the 9-cell domain
    let (status, _, _) = client.get("/no/such/route");
    assert_eq!(status, 404);
    let (status, _, body) = client.get("/v1/ingest");
    assert_eq!(status, 405, "body: {body}");

    assert_eq!(
        registry
            .counter("serve_errors_total{route=\"malformed\"}")
            .get(),
        1
    );
    assert_eq!(
        registry
            .counter("serve_errors_total{route=\"/v1/ingest\"}")
            .get(),
        5
    );
    server.drain_handle().drain();
    let summary = server.wait().unwrap();
    assert_eq!(summary.errors, 7);
}

#[test]
fn graceful_drain_checkpoints_and_snapshots_metrics() {
    let dir = unique_dir("drain");
    let snapshot = unique_dir("snap").with_extension("json");
    let config = ServerConfig {
        metrics_snapshot: Some(snapshot.clone()),
        ..quick_config()
    };
    let (server, _registry) = build_server(Some(&dir), config);
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr);
    for t in 0..3 {
        let (status, _, _) = client.post(
            "/v1/release",
            &format!("{{\"user\": 1, \"true_location\": {t}}}"),
        );
        assert_eq!(status, 200);
    }
    // An idle keep-alive connection must not stall the drain.
    let idle = Client::connect(&addr);

    let handle = server.drain_handle();
    assert!(!handle.is_draining());
    handle.drain();
    let summary = server.wait().unwrap();
    assert_eq!(summary.requests, 3);
    assert!(
        summary.checkpointed,
        "durable service must checkpoint on drain"
    );
    drop(idle);

    // The drain wrote a parseable metrics snapshot with the serve series.
    let text = std::fs::read_to_string(&snapshot).unwrap();
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|j| j.as_str()),
        Some("priste-metrics/1")
    );
    let histograms = doc.get("histograms").and_then(|j| j.as_object()).unwrap();
    assert!(
        histograms
            .keys()
            .any(|k| k.starts_with("serve_request_seconds{")),
        "snapshot histograms: {:?}",
        histograms.keys().collect::<Vec<_>>()
    );
    // And the durable directory holds a fresh snapshot to recover from.
    assert!(dir.join("shard-0").exists() || std::fs::read_dir(&dir).unwrap().count() > 0);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn loadgen_drives_the_server_and_reports_quantiles() {
    let (server, _registry) = build_server(None, quick_config());
    let addr = server.local_addr().to_string();
    let report = priste_serve::loadgen::run(&LoadgenOptions {
        addr,
        requests: 300,
        connections: 3,
        users: 10,
        mode: LoadMode::Mixed,
        seed: 9,
        rate: None,
    })
    .unwrap();
    assert_eq!(report.requests, 300);
    assert_eq!(report.errors, 0);
    assert!(report.elapsed_seconds > 0.0);
    assert!(report.throughput() > 0.0);
    let p50 = report.quantile_ms(0.5);
    let p99 = report.quantile_ms(0.99);
    assert!(p50 > 0.0, "p50 {p50}");
    assert!(p99 >= p50, "p50 {p50} p99 {p99}");
    server.drain_handle().drain();
    let summary = server.wait().unwrap();
    // The config probe plus every measured request.
    assert_eq!(summary.requests, 301);
    assert_eq!(summary.errors, 0);
}
