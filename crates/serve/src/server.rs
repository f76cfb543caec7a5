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
//! with a uniform prior and the first template inside the request's own
//! critical section ([`Enrollment`], [`SessionManager::ingest_enrolling`]
//! and its siblings), so concurrent first requests for one user register
//! it once, and every `/v1` ingest or release takes its shard lock once.
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
//! [`DaemonConfig::handle_signals`] is set) starts the skeleton's drain.
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
use priste_online::{shard_rng, Enrollment, OnlineError, SessionManager, UserId};
use rand::rngs::StdRng;
use std::net::SocketAddr;
use std::sync::{Mutex, PoisonError};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The connection model every daemon shares.
    pub daemon: DaemonConfig,
    /// Seed of the server-side release RNG streams, one per shard.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            daemon: DaemonConfig::default(),
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
        let daemon = Daemon::start(handler, drain, registry, config.daemon, addr)?;
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

/// The templates a user is registered with on first contact: the first
/// one, mirroring the CLI stream scenario's registration (the prior is
/// uniform).
fn first_templates<P: TransitionProvider + Clone>(service: &SessionManager<P>) -> &'static [usize] {
    if service.templates().is_empty() {
        &[]
    } else {
        &[0]
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
    let prior = || Vector::uniform(m);
    let enroll = Enrollment {
        prior: &prior,
        templates: first_templates(service),
    };
    let outcome = match (column, parsed.observed) {
        (Some(column), _) => service.ingest_enrolling(id, column, &enroll),
        (None, Some(cell)) => service.ingest_observed_enrolling(id, CellId(cell), &enroll),
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
    let prior = || Vector::uniform(m);
    let enroll = Enrollment {
        prior: &prior,
        templates: first_templates(service),
    };
    let outcome = {
        let mut rng = handler.streams[service.shard_of(id)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        service.release_enrolling(id, CellId(parsed.true_location), &mut *rng, &enroll)
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
