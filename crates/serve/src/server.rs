//! The daemon: a thread-pool HTTP/1.1 server fronting one
//! [`SessionManager`], with the observability plane mounted on the same
//! [`Registry`] the service records into.
//!
//! # Architecture
//!
//! One non-blocking acceptor thread polls the listener and the
//! signal/drain flags; accepted connections flow over a channel to a
//! fixed pool of worker threads, each serving one keep-alive connection
//! at a time (effective request concurrency = `workers`). Service state
//! sits behind a single mutex — JSON parsing and serialization happen
//! outside the lock, so the critical section is just the posterior
//! update or guarded release itself.
//!
//! # Graceful drain
//!
//! [`DrainHandle::drain`] (or SIGINT/SIGTERM when
//! [`ServerConfig::handle_signals`] is set) stops the acceptor; workers
//! finish every in-flight request, answer with `connection: close`, and
//! exit. [`Server::wait`] then writes a final durable checkpoint (when
//! the service is durable) and a last metrics snapshot to disk, and
//! returns the [`DrainSummary`].

use crate::http::{write_response, ReadError, Request, RequestReader, Response};
use crate::proto;
use crate::signal;
use crate::Result;
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_lppm::Lppm;
use priste_markov::TransitionProvider;
use priste_obs::{Counter, Gauge, Registry};
use priste_online::{OnlineError, SessionManager, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
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
    /// Seed for the server-side release RNG.
    pub seed: u64,
    /// Synthetic serialized-commit stall: hold the state lock this much
    /// longer on every ingest/release. Zero (the default) disables it.
    /// This exists for capacity benchmarks and drain/failover drills —
    /// it models a worker whose throughput is bounded by a serialized
    /// downstream commit (e.g. a slow WAL device) rather than by CPU,
    /// which is the regime where horizontal sharding pays off.
    pub request_stall: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_body_bytes: 64 * 1024,
            poll_interval: Duration::from_millis(25),
            metrics_snapshot: None,
            handle_signals: false,
            seed: 7,
            request_stall: Duration::ZERO,
        }
    }
}

/// What the drained daemon did, returned by [`Server::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status, plus unparseable ones.
    pub errors: u64,
    /// Whether a final durable checkpoint was written.
    pub checkpointed: bool,
}

/// Clonable switch that starts a graceful drain.
#[derive(Debug, Clone)]
pub struct DrainHandle {
    flag: Arc<AtomicBool>,
}

impl DrainHandle {
    /// Flips the server into draining mode (idempotent).
    pub fn drain(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The mutexed mutable core: the service, the release RNG, and the
/// mechanism used to derive emission columns for `"observed"` ingests.
struct ServiceState<P> {
    service: SessionManager<P>,
    rng: StdRng,
    column_source: Option<Box<dyn Lppm>>,
}

impl<P: TransitionProvider + Clone> ServiceState<P> {
    /// The state-domain size requests are validated against.
    fn domain_size(&self) -> Option<usize> {
        self.service
            .templates()
            .first()
            .map(|t| t.event().num_cells())
            .or_else(|| self.column_source.as_ref().map(|s| s.num_cells()))
    }
}

struct Shared<P> {
    state: Mutex<ServiceState<P>>,
    registry: Registry,
    config: ServerConfig,
    draining: Arc<AtomicBool>,
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    next_request_id: AtomicU64,
    in_flight: Gauge,
    connections_total: Counter,
    uptime: Gauge,
}

impl<P: TransitionProvider + Clone> Shared<P> {
    fn lock_state(&self) -> MutexGuard<'_, ServiceState<P>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies [`ServerConfig::request_stall`] while the caller holds
    /// the state lock, so the stall serializes like a real commit would.
    fn stall(&self) {
        if !self.config.request_stall.is_zero() {
            thread::sleep(self.config.request_stall);
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn bump_error(&self, route: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.registry
            .counter(&format!("serve_errors_total{{route=\"{route}\"}}"))
            .inc();
    }
}

/// A running daemon; dropping it without [`Server::wait`] detaches the
/// threads.
pub struct Server<P> {
    shared: Arc<Shared<P>>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl<P: TransitionProvider + Clone + Send + 'static> Server<P> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` on a worker pool.
    ///
    /// `column_source` is the mechanism used to turn an `"observed"`
    /// cell into an emission column (and is orthogonal to the enforcing
    /// guard, which the service carries internally). `registry` should
    /// be the same registry the service's `observe` was pointed at, so
    /// `/metrics` exposes service, guard, durable, and server series
    /// together.
    ///
    /// # Errors
    /// [`crate::ServeError::Io`] when the bind fails.
    pub fn start(
        service: SessionManager<P>,
        column_source: Option<Box<dyn Lppm>>,
        registry: Registry,
        config: ServerConfig,
        addr: &str,
    ) -> Result<Server<P>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        registry
            .gauge(&format!(
                "priste_build_info{{version=\"{}\"}}",
                env!("CARGO_PKG_VERSION")
            ))
            .set(1.0);
        let uptime = registry.gauge("process_uptime_seconds");
        let in_flight = registry.gauge("serve_requests_in_flight");
        let connections_total = registry.counter("serve_connections_total");
        if config.handle_signals {
            signal::install();
        }

        let draining = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            state: Mutex::new(ServiceState {
                service,
                rng: StdRng::seed_from_u64(config.seed),
                column_source,
            }),
            registry,
            config,
            draining,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
            in_flight,
            connections_total,
            uptime,
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener, &tx))
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor,
            workers,
        })
    }

    /// The bound address (the resolved port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable handle that can start a drain from any thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            flag: Arc::clone(&self.shared.draining),
        }
    }

    /// Blocks until a drain is requested (via [`DrainHandle::drain`] or
    /// a handled signal) and every in-flight request has been answered,
    /// then finalizes: a durable checkpoint when the service is
    /// durable, and the final metrics snapshot when configured.
    ///
    /// # Errors
    /// Checkpoint or snapshot-write failures; the drain itself cannot
    /// fail.
    pub fn wait(self) -> Result<DrainSummary> {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        let shared = self.shared;
        let mut checkpointed = false;
        {
            let mut st = shared.lock_state();
            if st.service.durable_dir().is_some() {
                st.service.checkpoint()?;
                checkpointed = true;
            }
        }
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

fn accept_loop<P: TransitionProvider + Clone>(
    shared: &Shared<P>,
    listener: &TcpListener,
    tx: &mpsc::Sender<TcpStream>,
) {
    loop {
        if shared.config.handle_signals && signal::triggered() {
            shared.draining.store(true, Ordering::SeqCst);
        }
        if shared.draining() {
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
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop<P: TransitionProvider + Clone>(shared: &Shared<P>, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the receiver lock only for the blocking recv; handling
        // happens with the lock released so other workers can pick up.
        let stream = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => return, // Acceptor gone and queue drained.
        }
    }
}

fn handle_connection<P: TransitionProvider + Clone>(shared: &Shared<P>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = RequestReader::new(stream, shared.config.max_body_bytes);
    loop {
        match reader.read_request() {
            Ok(req) => {
                shared.in_flight.add(1.0);
                let mut resp = handle_request(shared, &req);
                shared.in_flight.add(-1.0);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if shared.draining() || req.wants_close() {
                    resp.close = true;
                }
                if write_response(&mut writer, &resp).is_err() || resp.close {
                    return;
                }
            }
            Err(ReadError::Idle) => {
                if shared.draining() {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => {
                shared.bump_error("malformed");
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::json(400, proto::encode_error(&msg));
                resp.close = true;
                let _ = write_response(&mut writer, &resp);
                return;
            }
            Err(ReadError::TooLarge) => {
                shared.bump_error("malformed");
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let mut resp = Response::json(413, proto::encode_error("request too large"));
                resp.close = true;
                let _ = write_response(&mut writer, &resp);
                return;
            }
        }
    }
}

/// Stable route label for metrics (path parameters collapsed).
fn route_label(path: &str) -> &'static str {
    match path {
        "/v1/ingest" => "/v1/ingest",
        "/v1/release" => "/v1/release",
        "/v1/config" => "/v1/config",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        _ if spend_user(path).is_some() => "/v1/users/:id/spend",
        _ => "unknown",
    }
}

/// Parses `/v1/users/<id>/spend`.
fn spend_user(path: &str) -> Option<u64> {
    path.strip_prefix("/v1/users/")?
        .strip_suffix("/spend")?
        .parse()
        .ok()
}

fn handle_request<P: TransitionProvider + Clone>(shared: &Shared<P>, req: &Request) -> Response {
    let route = route_label(&req.path);
    let start = Instant::now();
    let mut span = shared.registry.span("http_request");
    let mut resp = dispatch(shared, route, req);
    let status = resp.status;
    span.annotate("status", f64::from(status));
    drop(span);
    shared
        .registry
        .histogram(&format!(
            "serve_request_seconds{{route=\"{route}\",status=\"{status}\"}}"
        ))
        .observe(start.elapsed().as_secs_f64());
    if status >= 400 {
        shared.bump_error(route);
    }
    resp.request_id = Some(match req.header("x-request-id") {
        Some(id) => id.to_owned(),
        None => format!(
            "priste-{}",
            shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
        ),
    });
    resp
}

fn dispatch<P: TransitionProvider + Clone>(
    shared: &Shared<P>,
    route: &'static str,
    req: &Request,
) -> Response {
    match (req.method.as_str(), route) {
        ("POST", "/v1/ingest") => ingest(shared, &req.body),
        ("POST", "/v1/release") => release(shared, &req.body),
        ("GET", "/v1/users/:id/spend") => spend(shared, &req.path),
        ("GET", "/v1/config") => config(shared),
        ("GET", "/metrics") => {
            shared.uptime.set(shared.started.elapsed().as_secs_f64());
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: shared.registry.render_prometheus().into_bytes(),
                request_id: None,
                retry_after: None,
                close: false,
            }
        }
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if shared.draining() {
                Response::json(503, proto::encode_error("draining"))
            } else {
                Response::text(200, "ready\n")
            }
        }
        (_, "unknown") => Response::json(404, proto::encode_error("no such route")),
        _ => Response::json(405, proto::encode_error("method not allowed on this route")),
    }
}

/// Maps a service error onto the HTTP status it deserves.
fn online_status(e: &OnlineError) -> u16 {
    match e {
        OnlineError::UnknownUser { .. } | OnlineError::UnknownTemplate { .. } => 404,
        OnlineError::InvalidLocation { .. } | OnlineError::Quantify(_) => 400,
        OnlineError::NotEnforcing => 409,
        _ => 500,
    }
}

fn online_error(e: &OnlineError) -> Response {
    Response::json(online_status(e), proto::encode_error(&e.to_string()))
}

/// Registers `user` with a uniform prior and the first template on
/// first contact, mirroring the CLI stream scenario's registration.
fn ensure_user<P: TransitionProvider + Clone>(
    st: &mut ServiceState<P>,
    user: u64,
    m: usize,
) -> std::result::Result<(), Response> {
    let id = UserId(user);
    if st.service.session(id).is_some() {
        return Ok(());
    }
    st.service
        .add_user(id, Vector::uniform(m))
        .map_err(|e| online_error(&e))?;
    if !st.service.templates().is_empty() {
        st.service
            .attach_event(id, 0)
            .map_err(|e| online_error(&e))?;
    }
    Ok(())
}

fn ingest<P: TransitionProvider + Clone>(shared: &Shared<P>, body: &[u8]) -> Response {
    let parsed = match proto::decode_ingest(body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::json(400, proto::encode_error(&msg)),
    };
    let mut st = shared.lock_state();
    let Some(m) = st.domain_size() else {
        return Response::json(
            500,
            proto::encode_error("service has no templates and no mechanism"),
        );
    };
    if let Err(resp) = ensure_user(&mut st, parsed.user, m) {
        return resp;
    }
    let column = match (parsed.observed, parsed.column) {
        (Some(cell), _) => {
            if cell >= m {
                return Response::json(
                    400,
                    proto::encode_error(&format!("observed cell {cell} outside domain of {m}")),
                );
            }
            let Some(source) = &st.column_source else {
                return Response::json(
                    409,
                    proto::encode_error(
                        "no mechanism configured; send an explicit \"column\" instead",
                    ),
                );
            };
            source.emission_column(CellId(cell))
        }
        (None, Some(column)) => {
            if column.len() != m {
                return Response::json(
                    400,
                    proto::encode_error(&format!(
                        "column has {} entries, domain has {m}",
                        column.len()
                    )),
                );
            }
            Vector::from(column)
        }
        (None, None) => unreachable!("decode_ingest enforces one-of"),
    };
    shared.stall();
    match st.service.ingest(UserId(parsed.user), column) {
        Ok(report) => Response::json(200, proto::encode_report(&report)),
        Err(e) => online_error(&e),
    }
}

fn release<P: TransitionProvider + Clone>(shared: &Shared<P>, body: &[u8]) -> Response {
    let parsed = match proto::decode_release(body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::json(400, proto::encode_error(&msg)),
    };
    let mut st = shared.lock_state();
    let Some(m) = st.domain_size() else {
        return Response::json(
            500,
            proto::encode_error("service has no templates and no mechanism"),
        );
    };
    if parsed.true_location >= m {
        return Response::json(
            400,
            proto::encode_error(&format!(
                "true_location {} outside domain of {m}",
                parsed.true_location
            )),
        );
    }
    if let Err(resp) = ensure_user(&mut st, parsed.user, m) {
        return resp;
    }
    shared.stall();
    let st = &mut *st;
    match st.service.release(
        UserId(parsed.user),
        CellId(parsed.true_location),
        &mut st.rng,
    ) {
        Ok(release) => Response::json(200, proto::encode_release(&release)),
        Err(e) => online_error(&e),
    }
}

fn spend<P: TransitionProvider + Clone>(shared: &Shared<P>, path: &str) -> Response {
    let Some(user) = spend_user(path) else {
        return Response::json(404, proto::encode_error("no such route"));
    };
    let st = shared.lock_state();
    match st.service.session(UserId(user)) {
        Some(session) => Response::json(200, proto::encode_spend(session)),
        None => Response::json(404, proto::encode_error(&format!("unknown user {user}"))),
    }
}

fn config<P: TransitionProvider + Clone>(shared: &Shared<P>) -> Response {
    let st = shared.lock_state();
    let cfg = st.service.config();
    Response::json(
        200,
        proto::encode_config(
            st.domain_size().unwrap_or(0),
            cfg.epsilon,
            cfg.budget,
            st.service.enforcing(),
            st.service.templates().len(),
            st.service.num_users(),
            shared.draining(),
        ),
    )
}
