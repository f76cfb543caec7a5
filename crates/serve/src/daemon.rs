//! The HTTP daemon skeleton both PriSTE services run on: the worker
//! daemon ([`crate::Server`]) and the cluster router are each a
//! [`Handler`] on one [`Daemon`].
//!
//! # Architecture
//!
//! One acceptor thread blocks in `accept` for at most
//! [`DaemonConfig::poll_interval`] at a time, so a new connection is taken
//! the moment it arrives and an idle acceptor still wakes to check the
//! signal/drain flags; accepted connections flow over a channel to a
//! fixed pool of worker threads, each serving one keep-alive connection
//! at a time (effective request concurrency = `workers`). A malformed
//! head is answered 400, an oversized one 413, and the connection
//! closed.
//!
//! Every request runs inside one envelope: `x-request-id` echoed or
//! minted as `<ID_PREFIX><n>`, a span named [`Handler::SPAN`], and the
//! `<FAMILY>_request_seconds{route,status}` histogram, with 4xx/5xx
//! answers counted in `<FAMILY>_errors_total{route}`. A handler that
//! panics answers 500 and its worker keeps serving; what the panic left
//! behind is the handler's to report, through [`Handler::not_ready`]. The skeleton also
//! keeps `<FAMILY>_requests_in_flight`, `<FAMILY>_connections_total`,
//! `priste_build_info` and `process_uptime_seconds`, and serves
//! `/metrics`, `/healthz` and `/readyz` itself; every other path goes to
//! the handler.
//!
//! # Graceful drain
//!
//! [`DrainHandle::drain`] (or SIGINT/SIGTERM when
//! [`DaemonConfig::handle_signals`] is set) stops the acceptor and flips
//! `/readyz` to 503; workers finish every in-flight request, answer with
//! `connection: close`, and exit. [`Daemon::wait`] then runs the
//! handler's final step, writes the last metrics snapshot, and returns
//! the [`DrainSummary`].

use crate::http::{write_response, ReadError, Request, RequestReader, Response};
use crate::proto::encode_error;
use crate::signal;
use priste_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The routes one daemon serves on top of the skeleton.
pub trait Handler: Send + Sync + 'static {
    /// Metric family prefix: `serve` exports `serve_request_seconds`.
    const FAMILY: &'static str;
    /// Name of the span every request runs under.
    const SPAN: &'static str;
    /// Prefix of minted request ids.
    const ID_PREFIX: &'static str;

    /// Stable metric label of the route `path` belongs to (path
    /// parameters collapsed); `None` answers 404.
    fn route(&self, path: &str) -> Option<&'static str>;

    /// Answers a request on `route`. `request_id` is the echoed or
    /// minted id, for handlers that forward the request. `None` answers
    /// 405: the route exists, the method does not.
    fn handle(&self, route: &'static str, req: &Request, request_id: &str) -> Option<Response>;

    /// A `/readyz` answer for a not-ready condition besides draining.
    fn not_ready(&self) -> Option<Response> {
        None
    }
}

/// The connection-model knobs every daemon shares; each daemon's own
/// config fills them in.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads — also the effective request concurrency, since
    /// each worker owns one keep-alive connection at a time.
    pub workers: usize,
    /// Largest accepted request body (413 beyond it).
    pub max_body_bytes: usize,
    /// Socket read timeout; bounds how quickly idle connections and the
    /// acceptor notice a drain.
    pub poll_interval: Duration,
    /// Where `wait` writes the final `render_json` metrics snapshot.
    pub metrics_snapshot: Option<PathBuf>,
    /// Install SIGINT/SIGTERM handlers and treat them as a drain.
    pub handle_signals: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 8,
            max_body_bytes: 64 * 1024,
            poll_interval: Duration::from_millis(25),
            metrics_snapshot: None,
            handle_signals: false,
        }
    }
}

/// What the drained daemon did, returned by `wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status, plus unparseable ones.
    pub errors: u64,
    /// Whether a final durable checkpoint was written (never, for the
    /// router).
    pub checkpointed: bool,
}

/// Clonable switch that starts a graceful drain.
#[derive(Debug, Clone, Default)]
pub struct DrainHandle {
    flag: Arc<AtomicBool>,
}

impl DrainHandle {
    /// Flips the daemon into draining mode (idempotent).
    pub fn drain(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

struct Shared<H> {
    handler: H,
    registry: Registry,
    config: DaemonConfig,
    drain: DrainHandle,
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    next_request_id: AtomicU64,
    in_flight: Gauge,
    connections_total: Counter,
    uptime: Gauge,
}

impl<H: Handler> Shared<H> {
    fn bump_error(&self, route: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.registry
            .counter(&format!("{}_errors_total{{route=\"{route}\"}}", H::FAMILY))
            .inc();
    }
}

/// A running daemon; dropping it without [`Daemon::wait`] detaches the
/// threads.
pub struct Daemon<H> {
    shared: Arc<Shared<H>>,
    local_addr: SocketAddr,
    /// The acceptor, then the workers: joined in that order.
    threads: Vec<JoinHandle<()>>,
}

impl<H: Handler> Daemon<H> {
    /// Binds `addr` (port 0 for an ephemeral port) and starts serving
    /// `handler` on a worker pool. `drain` is the handle that stops it;
    /// the handler may hold a clone to watch it.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(
        handler: H,
        drain: DrainHandle,
        registry: Registry,
        config: DaemonConfig,
        addr: &str,
    ) -> io::Result<Daemon<H>> {
        let listener = bound_accept(TcpListener::bind(addr)?, config.poll_interval)?;
        let local_addr = listener.local_addr()?;

        registry
            .gauge(&format!(
                "priste_build_info{{version=\"{}\"}}",
                env!("CARGO_PKG_VERSION")
            ))
            .set(1.0);
        let family = H::FAMILY;
        let shared = Arc::new(Shared {
            handler,
            uptime: registry.gauge("process_uptime_seconds"),
            in_flight: registry.gauge(&format!("{family}_requests_in_flight")),
            connections_total: registry.counter(&format!("{family}_connections_total")),
            registry,
            config,
            drain,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
        });
        if shared.config.handle_signals {
            signal::install();
        }

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = vec![{
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener, &tx))
        }];
        threads.extend((0..shared.config.workers.max(1)).map(|_| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            thread::spawn(move || worker_loop(&shared, &rx))
        }));
        Ok(Daemon {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (the resolved port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable handle that can start a drain from any thread.
    pub fn drain_handle(&self) -> DrainHandle {
        self.shared.drain.clone()
    }

    /// The handler the daemon serves.
    pub fn handler(&self) -> &H {
        &self.shared.handler
    }

    /// Blocks until a drain is requested and every in-flight request has
    /// been answered, then runs `finish` on the handler — its `true`
    /// becomes [`DrainSummary::checkpointed`] — and writes the final
    /// metrics snapshot when configured.
    ///
    /// # Errors
    /// `finish`'s error, or a snapshot-write failure.
    pub fn wait<E: From<io::Error>>(
        self,
        finish: impl FnOnce(&H) -> Result<bool, E>,
    ) -> Result<DrainSummary, E> {
        for thread in self.threads {
            let _ = thread.join();
        }
        let shared = self.shared;
        let checkpointed = finish(&shared.handler)?;
        shared.uptime.set(shared.started.elapsed().as_secs_f64());
        if let Some(path) = &shared.config.metrics_snapshot {
            std::fs::write(path, shared.registry.render_json())?;
        }
        Ok(DrainSummary {
            connections: shared.connections_total.get(),
            requests: shared.requests.load(Ordering::Relaxed),
            errors: shared.errors.load(Ordering::Relaxed),
            checkpointed,
        })
    }
}

/// Makes each `accept` on `listener` wait at most `timeout` (at least
/// 1 ms). std sets no timeout on a listener, but Linux bounds `accept` by
/// the socket's receive timeout, which std sets on a stream: the socket
/// takes a round trip through a `TcpStream` to get one. Elsewhere the
/// listener polls without blocking, and the acceptor sleeps between polls.
#[cfg(target_os = "linux")]
fn bound_accept(listener: TcpListener, timeout: Duration) -> io::Result<TcpListener> {
    use std::os::fd::OwnedFd;
    let socket = TcpStream::from(OwnedFd::from(listener));
    socket.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    Ok(TcpListener::from(OwnedFd::from(socket)))
}

#[cfg(not(target_os = "linux"))]
fn bound_accept(listener: TcpListener, _timeout: Duration) -> io::Result<TcpListener> {
    listener.set_nonblocking(true)?;
    Ok(listener)
}

fn accept_loop<H: Handler>(
    shared: &Shared<H>,
    listener: &TcpListener,
    tx: &mpsc::Sender<TcpStream>,
) {
    loop {
        if shared.config.handle_signals && signal::triggered() {
            shared.drain.drain();
        }
        if shared.drain.is_draining() {
            // Dropping `tx` (by returning) disconnects the channel once
            // queued connections are handled; workers then exit.
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections_total.inc();
                if tx.send(stream).is_err() {
                    return;
                }
            }
            // On Linux a timed-out accept has already waited; a polling
            // listener's WouldBlock, or any other (transient) error, backs
            // off before the next try.
            Err(e) if cfg!(target_os = "linux") && e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One worker's `<FAMILY>_request_seconds{route,status}` handles, looked
/// up in the registry once per (route, status) pair instead of once per
/// request.
type Latencies = HashMap<(&'static str, u16), Histogram>;

fn worker_loop<H: Handler>(shared: &Shared<H>, rx: &Mutex<Receiver<TcpStream>>) {
    let mut latencies = Latencies::new();
    loop {
        // Hold the receiver lock only for the blocking recv; handling
        // happens with the lock released so other workers can pick up.
        let stream = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(shared, stream, &mut latencies),
            Err(_) => return, // Acceptor gone and queue drained.
        }
    }
}

fn handle_connection<H: Handler>(shared: &Shared<H>, stream: TcpStream, latencies: &mut Latencies) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = RequestReader::new(stream, shared.config.max_body_bytes);
    loop {
        let (status, message) = match reader.read_request() {
            Ok(req) => {
                shared.in_flight.add(1.0);
                let mut resp = handle_request(shared, &req, latencies);
                shared.in_flight.add(-1.0);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if shared.drain.is_draining() || req.wants_close() {
                    resp.close = true;
                }
                if write_response(&mut writer, &resp).is_err() || resp.close {
                    return;
                }
                continue;
            }
            Err(ReadError::Idle) if !shared.drain.is_draining() => continue,
            Err(ReadError::Idle | ReadError::Closed | ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => (400, msg),
            Err(ReadError::TooLarge) => (413, "request too large".to_owned()),
        };
        shared.bump_error("malformed");
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let mut resp = Response::json(status, encode_error(&message));
        resp.close = true;
        let _ = write_response(&mut writer, &resp);
        return;
    }
}

/// The envelope around every parsed request: route label, request id,
/// span, latency histogram, error counter.
fn handle_request<H: Handler>(
    shared: &Shared<H>,
    req: &Request,
    latencies: &mut Latencies,
) -> Response {
    let route = match req.path.as_str() {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        path => shared.handler.route(path).unwrap_or("unknown"),
    };
    let start = Instant::now();
    let request_id = match req.header("x-request-id") {
        Some(id) => id.to_owned(),
        None => format!(
            "{}{}",
            H::ID_PREFIX,
            shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
        ),
    };
    let mut span = shared.registry.span(H::SPAN);
    let dispatched = panic::catch_unwind(AssertUnwindSafe(|| {
        dispatch(shared, route, req, &request_id)
    }));
    let mut resp = match dispatched {
        Ok(Some(resp)) => resp,
        Ok(None) => Response::json(405, encode_error("method not allowed on this route")),
        Err(_) => Response::json(500, encode_error("internal error: the handler panicked")),
    };
    let status = resp.status;
    span.annotate("status", f64::from(status));
    drop(span);
    latencies
        .entry((route, status))
        .or_insert_with(|| {
            shared.registry.histogram(&format!(
                "{}_request_seconds{{route=\"{route}\",status=\"{status}\"}}",
                H::FAMILY
            ))
        })
        .observe(start.elapsed().as_secs_f64());
    if status >= 400 {
        shared.bump_error(route);
    }
    resp.request_id = Some(request_id);
    resp
}

/// The skeleton's own routes, then the handler's; `None` is a 405.
fn dispatch<H: Handler>(
    shared: &Shared<H>,
    route: &'static str,
    req: &Request,
    request_id: &str,
) -> Option<Response> {
    let get = req.method == "GET";
    match route {
        "/metrics" => get.then(|| {
            shared.uptime.set(shared.started.elapsed().as_secs_f64());
            Response {
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: shared.registry.render_prometheus().into_bytes(),
                ..Response::text(200, "")
            }
        }),
        "/healthz" => get.then(|| Response::text(200, "ok\n")),
        "/readyz" => get.then(|| {
            if shared.drain.is_draining() {
                Response::json(503, encode_error("draining"))
            } else {
                shared
                    .handler
                    .not_ready()
                    .unwrap_or_else(|| Response::text(200, "ready\n"))
            }
        }),
        "unknown" => Some(Response::json(404, encode_error("no such route"))),
        _ => shared.handler.handle(route, req, request_id),
    }
}
