//! A new connection is accepted the moment it arrives: the acceptor
//! blocks in `accept` (bounded by the poll interval, so drains are still
//! noticed) instead of sleeping between non-blocking polls. A client that
//! opens one connection after another would otherwise wait out the
//! acceptor's sleep on every one of them.

use priste_obs::Registry;
use priste_serve::daemon::{Daemon, DaemonConfig, DrainHandle, Handler};
use priste_serve::http::{read_response, Request, Response};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// No routes of its own: the skeleton answers `/healthz` itself.
struct Stub;

impl Handler for Stub {
    const FAMILY: &'static str = "stub";
    const SPAN: &'static str = "stub_request";
    const ID_PREFIX: &'static str = "stub-";

    fn route(&self, _path: &str) -> Option<&'static str> {
        None
    }

    fn handle(&self, _route: &'static str, _req: &Request, _id: &str) -> Option<Response> {
        None
    }
}

/// Fresh connections opened one after another, each answered.
const CONNECTIONS: u32 = 40;

/// Opens `CONNECTIONS` connections in turn, each sending one `/healthz`
/// and reading its answer before the next opens; the wall time of all.
fn sequential_connections(addr: &str) -> Duration {
    let started = Instant::now();
    for _ in 0..CONNECTIONS {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut stream, &mut Vec::new()).unwrap();
        assert_eq!(resp.status, 200);
    }
    started.elapsed()
}

#[test]
fn fresh_connections_are_accepted_without_waiting_out_a_poll() {
    let drain = DrainHandle::default();
    let daemon = Daemon::start(
        Stub,
        drain.clone(),
        Registry::new(),
        DaemonConfig {
            workers: 2,
            max_body_bytes: 1024,
            poll_interval: Duration::from_millis(25),
            metrics_snapshot: None,
            handle_signals: false,
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = daemon.local_addr().to_string();

    // The best of three rounds, so one stall of a loaded host does not
    // decide the verdict. An acceptor that sleeps 5 ms after every empty
    // poll makes each round take at least ~4 ms per connection (the next
    // connection arrives just after the sleep began), ≥ 160 ms in all.
    let best = (0..3).map(|_| sequential_connections(&addr)).min().unwrap();
    eprintln!("{CONNECTIONS} sequential connections: {best:?} at best");
    let bound = Duration::from_millis(2) * CONNECTIONS;
    assert!(
        best < bound,
        "{CONNECTIONS} sequential connections took {best:?} at best, not under {bound:?}"
    );

    // The bounded accept still notices a drain.
    let asked = Instant::now();
    drain.drain();
    let summary = daemon.wait(|_| Ok::<_, std::io::Error>(false)).unwrap();
    assert_eq!(summary.connections, 3 * u64::from(CONNECTIONS));
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "the drain took {:?}",
        asked.elapsed()
    );
}
