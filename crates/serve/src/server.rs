//! The worker daemon: a [`SessionManager`] [`Handler`] on the shared
//! [`Daemon`] skeleton, with the observability plane mounted on the same
//! [`Registry`] the service records into.
//!
//! The skeleton owns the connection model, the request envelope and
//! `/metrics`, `/healthz`, `/readyz`; this module owns the `/v1` routes.
//! Service state sits behind a single mutex — JSON parsing and
//! serialization happen outside the lock, so the critical section is
//! just the posterior update or guarded release itself.
//!
//! # Panics
//!
//! A request whose handling panics is answered 500 by the skeleton. If it
//! panicked inside the service, the state lock is poisoned and the
//! in-memory state may be half-committed, so from then on every `/v1`
//! route answers 503, `/readyz` reports unready, and the drain writes no
//! final checkpoint. The journal holds every acknowledged commit: restart
//! the worker to recover from it.
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
use priste_online::{OnlineError, SessionManager, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
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
    /// Seed for the server-side release RNG.
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

/// The mutexed mutable core: the service and the release RNG.
struct ServiceState<P> {
    service: SessionManager<P>,
    rng: StdRng,
}

/// The [`Handler`] behind [`Server`]: the `/v1` routes over one
/// mutexed [`ServiceState`].
struct Service<P> {
    state: Mutex<ServiceState<P>>,
    drain: DrainHandle,
}

impl<P: TransitionProvider + Clone> Service<P> {
    /// The state, or the 503 every route answers once a panic has
    /// poisoned the lock: the state may be half-committed.
    fn lock_state(&self) -> std::result::Result<MutexGuard<'_, ServiceState<P>>, Response> {
        self.state.lock().map_err(|_| poisoned())
    }
}

impl<P: TransitionProvider + Clone + Send + 'static> Handler for Service<P> {
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
        self.state.is_poisoned().then(poisoned)
    }
}

/// A running daemon; dropping it without [`Server::wait`] detaches the
/// threads.
pub struct Server<P> {
    daemon: Daemon<Service<P>>,
}

impl<P: TransitionProvider + Clone + Send + 'static> Server<P> {
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
            state: Mutex::new(ServiceState {
                service,
                rng: StdRng::seed_from_u64(config.seed),
            }),
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
        self.daemon.wait(|service| {
            let Ok(mut st) = service.lock_state() else {
                return Ok(false);
            };
            if st.service.durable_dir().is_none() {
                return Ok(false);
            }
            st.service.checkpoint()?;
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

fn ingest<P: TransitionProvider + Clone>(handler: &Service<P>, body: &[u8]) -> Response {
    let parsed = match proto::decode_ingest(body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::json(400, proto::encode_error(&msg)),
    };
    let mut st = match handler.lock_state() {
        Ok(st) => st,
        Err(resp) => return resp,
    };
    let m = st.service.num_states();
    if let Err(resp) = ensure_user(&mut st, parsed.user, m) {
        return resp;
    }
    let id = UserId(parsed.user);
    let outcome = match (parsed.observed, parsed.column) {
        (Some(cell), _) => {
            if cell >= m {
                return Response::json(
                    400,
                    proto::encode_error(&format!("observed cell {cell} outside domain of {m}")),
                );
            }
            st.service.ingest_observed(id, CellId(cell))
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
            st.service.ingest(id, Vector::from(column))
        }
        (None, None) => unreachable!("decode_ingest enforces one-of"),
    };
    drop(st);
    match outcome {
        Ok(report) => Response::json(200, proto::encode_report(&report)),
        Err(e) => online_error(&e),
    }
}

fn release<P: TransitionProvider + Clone>(handler: &Service<P>, body: &[u8]) -> Response {
    let parsed = match proto::decode_release(body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::json(400, proto::encode_error(&msg)),
    };
    let mut st = match handler.lock_state() {
        Ok(st) => st,
        Err(resp) => return resp,
    };
    let m = st.service.num_states();
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
    let state = &mut *st;
    let outcome = state.service.release(
        UserId(parsed.user),
        CellId(parsed.true_location),
        &mut state.rng,
    );
    drop(st);
    match outcome {
        Ok(release) => Response::json(200, proto::encode_release(&release)),
        Err(e) => online_error(&e),
    }
}

fn spend<P: TransitionProvider + Clone>(handler: &Service<P>, path: &str) -> Response {
    let user = proto::spend_user(path).expect("route matched");
    let st = match handler.lock_state() {
        Ok(st) => st,
        Err(resp) => return resp,
    };
    match st.service.session(UserId(user)) {
        Some(session) => Response::json(200, proto::encode_spend(session)),
        None => Response::json(404, proto::encode_error(&format!("unknown user {user}"))),
    }
}

fn config<P: TransitionProvider + Clone>(handler: &Service<P>) -> Response {
    let st = match handler.lock_state() {
        Ok(st) => st,
        Err(resp) => return resp,
    };
    let cfg = st.service.config();
    Response::json(
        200,
        proto::encode_config(
            st.service.num_states(),
            cfg.epsilon,
            cfg.budget,
            st.service.enforcing(),
            st.service.templates().len(),
            st.service.num_users(),
            handler.drain.is_draining(),
        ),
    )
}
