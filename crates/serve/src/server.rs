//! The worker daemon: a [`SessionManager`] [`Handler`] on the shared
//! [`Daemon`] skeleton, with the observability plane mounted on the same
//! [`Registry`] the service records into.
//!
//! The skeleton owns the connection model, the request envelope and
//! `/metrics`, `/healthz`, `/readyz`; this module owns the `/v1` routes.
//! The handler holds the service itself, with no lock of its own: each
//! route calls one of the service's `&self` entry points, which locks only
//! the shard of the request's user (see [`SessionManager`]'s concurrency
//! notes). Requests for users in different shards therefore run in
//! parallel, and JSON parsing and serialization happen outside any lock.
//! Releases draw from one RNG stream per shard ([`shard_rng`] of
//! [`ServerConfig::seed`]), so a shard's released cells depend only on the
//! order of its own requests, not on how connections interleave.
//!
//! A request is validated before its user is registered: a `/v1` answer
//! of 400 or 409 never registers anyone. First contact registers the user
//! with a uniform prior and the first template in one call
//! ([`SessionManager::enroll`]), so concurrent first requests for one user
//! register it once.
//!
//! # Panics
//!
//! A request whose handling panics is answered 500 by the skeleton. If it
//! panicked inside a shard's critical section, that shard's state may be
//! half-committed ([`SessionManager::is_poisoned`]), so from then on every
//! `/v1` route answers 503, `/readyz` reports unready, and the drain writes
//! no final checkpoint. The journal holds every acknowledged commit:
//! restart the worker to recover from it.
//!
//! # Graceful drain
//!
//! [`DrainHandle::drain`] (or SIGINT/SIGTERM when
//! [`ServerConfig::handle_signals`] is set) starts the skeleton's drain.
//! [`Server::wait`] then writes a final durable checkpoint (when the
//! service is durable) and a last metrics snapshot to disk, and returns
//! the [`DrainSummary`].

use crate::daemon::{Daemon, DaemonConfig, DrainHandle, DrainSummary, Handler};
use crate::http::{Request, Response};
use crate::proto;
use crate::Result;
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_lppm::Lppm;
use priste_markov::TransitionProvider;
use priste_obs::Registry;
use priste_online::{shard_rng, OnlineError, SessionManager, UserId};
use rand::rngs::StdRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

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
    /// Seed of the server-side release RNG streams, one per shard.
    pub seed: u64,
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
        }
    }
}

/// The [`Handler`] behind [`Server`]: the `/v1` routes over one
/// [`SessionManager`].
struct Service<P> {
    service: SessionManager<P>,
    /// One release stream per shard. A release holds its shard's stream
    /// while it runs, taking it before the shard's lock, so the stream's
    /// draws follow the shard's order of releases.
    streams: Vec<Mutex<StdRng>>,
    drain: DrainHandle,
}

impl<P: TransitionProvider + Clone> Service<P> {
    /// The service, or the 503 every route answers once a panic has
    /// poisoned a shard: its state may be half-committed.
    fn live(&self) -> std::result::Result<&SessionManager<P>, Response> {
        if self.service.is_poisoned() {
            Err(poisoned())
        } else {
            Ok(&self.service)
        }
    }
}

impl<P: TransitionProvider + Clone + Send + Sync + 'static> Handler for Service<P> {
    const FAMILY: &'static str = "serve";
    const SPAN: &'static str = "http_request";
    const ID_PREFIX: &'static str = "priste-";

    fn route(&self, path: &str) -> Option<&'static str> {
        proto::route(path)
    }

    fn handle(&self, route: &'static str, req: &Request, _request_id: &str) -> Option<Response> {
        Some(match (req.method.as_str(), route) {
            ("POST", "/v1/ingest") => ingest(self, &req.body),
            ("POST", "/v1/release") => release(self, &req.body),
            ("GET", "/v1/users/:id/spend") => spend(self, &req.path),
            ("GET", "/v1/config") => config(self),
            _ => return None,
        })
    }

    fn not_ready(&self) -> Option<Response> {
        self.service.is_poisoned().then(poisoned)
    }
}

/// A running daemon; dropping it without [`Server::wait`] detaches the
/// threads.
pub struct Server<P> {
    daemon: Daemon<Service<P>>,
}

impl<P: TransitionProvider + Clone + Send + Sync + 'static> Server<P> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` on a worker pool.
    ///
    /// `column_source`, when given, becomes the service's mechanism
    /// ([`SessionManager::set_mechanism`]): it turns an `"observed"` cell
    /// into an emission column, and a durable service journals such an
    /// ingest by reference to it. It is orthogonal to the enforcing guard,
    /// which the service carries internally. `registry` should be the same
    /// registry the service's `observe` was pointed at, so `/metrics`
    /// exposes service, guard, durable, and server series together.
    ///
    /// # Errors
    /// [`crate::ServeError::Online`] when the mechanism's domain does not
    /// match the service's; [`crate::ServeError::Io`] when the bind fails.
    pub fn start(
        mut service: SessionManager<P>,
        column_source: Option<Box<dyn Lppm>>,
        registry: Registry,
        config: ServerConfig,
        addr: &str,
    ) -> Result<Server<P>> {
        if let Some(mechanism) = column_source {
            service.set_mechanism(mechanism)?;
        }
        let drain = DrainHandle::default();
        let handler = Service {
            streams: (0..service.config().num_shards)
                .map(|shard| Mutex::new(shard_rng(config.seed, shard)))
                .collect(),
            service,
            drain: drain.clone(),
        };
        let config = DaemonConfig {
            workers: config.workers,
            max_body_bytes: config.max_body_bytes,
            poll_interval: config.poll_interval,
            metrics_snapshot: config.metrics_snapshot,
            handle_signals: config.handle_signals,
        };
        let daemon = Daemon::start(handler, drain, registry, config, addr)?;
        Ok(Server { daemon })
    }

    /// The bound address (the resolved port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// A clonable handle that can start a drain from any thread.
    pub fn drain_handle(&self) -> DrainHandle {
        self.daemon.drain_handle()
    }

    /// Blocks until a drain is requested (via [`DrainHandle::drain`] or
    /// a handled signal) and every in-flight request has been answered,
    /// then finalizes: a durable checkpoint when the service is
    /// durable and its state was not poisoned by a panic, and the final
    /// metrics snapshot when configured.
    ///
    /// # Errors
    /// Checkpoint or snapshot-write failures; the drain itself cannot
    /// fail.
    pub fn wait(self) -> Result<DrainSummary> {
        self.daemon.wait(|handler| {
            let Ok(service) = handler.live() else {
                return Ok(false);
            };
            if service.durable_dir().is_none() {
                return Ok(false);
            }
            service.checkpoint()?;
            Ok(true)
        })
    }
}

/// The answer of a service whose state a panic poisoned.
fn poisoned() -> Response {
    Response::json(
        503,
        proto::encode_error("service state poisoned by a panic; restart to recover"),
    )
}

/// Maps a service error onto the HTTP status it deserves.
fn online_status(e: &OnlineError) -> u16 {
    match e {
        OnlineError::UnknownUser { .. } | OnlineError::UnknownTemplate { .. } => 404,
        OnlineError::InvalidLocation { .. } | OnlineError::Quantify(_) => 400,
        OnlineError::NotEnforcing | OnlineError::NoMechanism => 409,
        OnlineError::ShardPanicked { .. } => 503,
        _ => 500,
    }
}

fn online_error(e: &OnlineError) -> Response {
    Response::json(online_status(e), proto::encode_error(&e.to_string()))
}

fn bad_request(message: &str) -> Response {
    Response::json(400, proto::encode_error(message))
}

/// Registers `user` with a uniform prior and the first template on first
/// contact, mirroring the CLI stream scenario's registration.
fn enroll<P: TransitionProvider + Clone>(
    service: &SessionManager<P>,
    user: UserId,
) -> std::result::Result<(), Response> {
    let first: &[usize] = if service.templates().is_empty() {
        &[]
    } else {
        &[0]
    };
    let m = service.num_states();
    match service.enroll(user, || Vector::uniform(m), first) {
        Ok(_) => Ok(()),
        Err(e) => Err(online_error(&e)),
    }
}

fn ingest<P: TransitionProvider + Clone>(handler: &Service<P>, body: &[u8]) -> Response {
    let parsed = match proto::decode_ingest(body) {
        Ok(parsed) => parsed,
        Err(msg) => return bad_request(&msg),
    };
    let service = match handler.live() {
        Ok(service) => service,
        Err(resp) => return resp,
    };
    let m = service.num_states();
    let id = UserId(parsed.user);
    // Everything the request can be refused for is checked before its
    // user is registered.
    let column = match (parsed.observed, parsed.column) {
        (Some(cell), _) => {
            if cell >= m {
                return bad_request(&format!("observed cell {cell} outside domain of {m}"));
            }
            if !service.has_mechanism() {
                return online_error(&OnlineError::NoMechanism);
            }
            None
        }
        (None, Some(column)) => {
            if column.len() != m {
                return bad_request(&format!(
                    "column has {} entries, domain has {m}",
                    column.len()
                ));
            }
            if let Err(e) = service.check_emission(&column) {
                return online_error(&e);
            }
            Some(Vector::from(column))
        }
        (None, None) => unreachable!("decode_ingest enforces one-of"),
    };
    if let Err(resp) = enroll(service, id) {
        return resp;
    }
    let outcome = match (column, parsed.observed) {
        (Some(column), _) => service.ingest(id, column),
        (None, Some(cell)) => service.ingest_observed(id, CellId(cell)),
        (None, None) => unreachable!("decode_ingest enforces one-of"),
    };
    match outcome {
        Ok(report) => Response::json(200, proto::encode_report(&report)),
        Err(e) => online_error(&e),
    }
}

fn release<P: TransitionProvider + Clone>(handler: &Service<P>, body: &[u8]) -> Response {
    let parsed = match proto::decode_release(body) {
        Ok(parsed) => parsed,
        Err(msg) => return bad_request(&msg),
    };
    let service = match handler.live() {
        Ok(service) => service,
        Err(resp) => return resp,
    };
    let m = service.num_states();
    if parsed.true_location >= m {
        return bad_request(&format!(
            "true_location {} outside domain of {m}",
            parsed.true_location
        ));
    }
    if !service.enforcing() {
        return online_error(&OnlineError::NotEnforcing);
    }
    let id = UserId(parsed.user);
    if let Err(resp) = enroll(service, id) {
        return resp;
    }
    let outcome = {
        let mut rng = handler.streams[service.shard_of(id)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        service.release(id, CellId(parsed.true_location), &mut *rng)
    };
    match outcome {
        Ok(release) => Response::json(200, proto::encode_release(&release)),
        Err(e) => online_error(&e),
    }
}

fn spend<P: TransitionProvider + Clone>(handler: &Service<P>, path: &str) -> Response {
    let user = proto::spend_user(path).expect("route matched");
    let service = match handler.live() {
        Ok(service) => service,
        Err(resp) => return resp,
    };
    match service.session(UserId(user)) {
        Some(session) => Response::json(200, proto::encode_spend(&session)),
        None => Response::json(404, proto::encode_error(&format!("unknown user {user}"))),
    }
}

fn config<P: TransitionProvider + Clone>(handler: &Service<P>) -> Response {
    let service = match handler.live() {
        Ok(service) => service,
        Err(resp) => return resp,
    };
    let cfg = service.config();
    Response::json(
        200,
        proto::encode_config(
            service.num_states(),
            cfg.epsilon,
            cfg.budget,
            service.enforcing(),
            service.templates().len(),
            service.num_users(),
            handler.drain.is_draining(),
        ),
    )
}
