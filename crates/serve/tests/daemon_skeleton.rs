//! The daemon skeleton on its own, over real TCP: a stub `Handler`
//! stands in for the worker and the router, so what is pinned here is
//! the part both share — the 400/413 close policy, the drain, and
//! request identity.

use priste_obs::Registry;
use priste_serve::daemon::{Daemon, DaemonConfig, DrainHandle, Handler};
use priste_serve::http::{read_response, ClientResponse, Request, Response};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One POST route that answers with the request id it was handed.
struct Stub;

impl Handler for Stub {
    const FAMILY: &'static str = "stub";
    const SPAN: &'static str = "stub_request";
    const ID_PREFIX: &'static str = "stub-";

    fn route(&self, path: &str) -> Option<&'static str> {
        (path == "/echo").then_some("/echo")
    }

    fn handle(&self, _route: &'static str, req: &Request, request_id: &str) -> Option<Response> {
        (req.method == "POST").then(|| Response::text(200, request_id))
    }
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn exchange(stream: &mut TcpStream, wire: &str) -> ClientResponse {
    stream.write_all(wire.as_bytes()).unwrap();
    read_response(stream, &mut Vec::new()).unwrap()
}

/// Everything the peer sends until it closes the connection.
fn read_to_close(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn skeleton_closes_bad_requests_drains_idle_connections_and_tags_requests() {
    let registry = Registry::new();
    let config = DaemonConfig {
        workers: 2,
        max_body_bytes: 64,
        poll_interval: Duration::from_millis(5),
        metrics_snapshot: None,
        handle_signals: false,
    };
    let daemon = Daemon::start(
        Stub,
        DrainHandle::default(),
        registry.clone(),
        config,
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = daemon.local_addr().to_string();
    let malformed = registry.counter("stub_errors_total{route=\"malformed\"}");

    // Request identity: echoed when sent, minted with the prefix when not.
    let mut idle = connect(&addr);
    let resp = exchange(
        &mut idle,
        "POST /echo HTTP/1.1\r\nx-request-id: trace-me\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), Some("trace-me"));
    assert_eq!(resp.body, b"trace-me");
    let resp = exchange(
        &mut idle,
        "POST /echo HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
    );
    let minted = resp.header("x-request-id").unwrap();
    assert!(minted.starts_with("stub-"), "minted {minted:?}");
    assert_eq!(resp.body, minted.as_bytes());
    assert_eq!(
        exchange(&mut idle, "GET /echo HTTP/1.1\r\n\r\n").status,
        405
    );
    assert_eq!(
        exchange(&mut idle, "GET /nope HTTP/1.1\r\n\r\n").status,
        404
    );
    assert_eq!(
        exchange(&mut idle, "GET /healthz HTTP/1.1\r\n\r\n").status,
        200
    );

    // A malformed head: 400, then the connection closes.
    let mut garbage = connect(&addr);
    garbage.write_all(b"NOT HTTP\r\n\r\n").unwrap();
    let answer = read_to_close(&mut garbage);
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    assert!(answer.contains("connection: close\r\n"), "{answer}");
    assert_eq!(malformed.get(), 1);

    // A header value carrying a lone CR is malformed too, so the line it
    // tries to smuggle never reaches the response head.
    let mut smuggler = connect(&addr);
    smuggler
        .write_all(
            b"POST /echo HTTP/1.1\r\nx-request-id: a\rset-cookie: x\r\ncontent-length: 0\r\n\r\n",
        )
        .unwrap();
    let answer = read_to_close(&mut smuggler);
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
    let head = answer.split("\r\n\r\n").next().unwrap();
    assert!(!head.contains("set-cookie"), "{head}");
    assert_eq!(malformed.get(), 2);

    // An oversized body: 413, then the connection closes.
    let mut large = connect(&addr);
    large
        .write_all(b"POST /echo HTTP/1.1\r\ncontent-length: 65\r\n\r\n")
        .unwrap();
    let answer = read_to_close(&mut large);
    assert!(answer.starts_with("HTTP/1.1 413 "), "{answer}");
    assert_eq!(malformed.get(), 3);

    // Draining closes the idle keep-alive connection a worker still owns.
    daemon.drain_handle().drain();
    assert_eq!(read_to_close(&mut idle), "");
    let summary = daemon.wait(|_| Ok::<_, std::io::Error>(false)).unwrap();
    assert_eq!(summary.connections, 4);
    assert_eq!(summary.requests, 8);
    assert_eq!(summary.errors, 5); // the 405, the 404, two 400s, the 413
    assert!(!summary.checkpointed);
}
