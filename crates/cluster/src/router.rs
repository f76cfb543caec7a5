//! The router daemon: the upstream-forwarding [`Handler`] on
//! `priste_serve`'s daemon skeleton, plus a prober thread.
//!
//! # Architecture
//!
//! The worker daemon and the router are two handlers on one
//! [`Daemon`]: the skeleton owns the acceptor, the serving pool, the
//! keep-alive loop, the request envelope and `/metrics`, `/healthz`,
//! `/readyz` (which also answers 503 + `Retry-After` while no worker is
//! healthy). This module maps each request's user id onto a slot and
//! relays the exchange to that slot's worker. A dedicated prober thread
//! walks every upstream's `/readyz` on a fixed interval, until the
//! daemon's [`DrainHandle`] drains, so a dead worker is noticed (and its
//! slots fail fast with 503 + `Retry-After`) without any client paying
//! the discovery timeout.
//!
//! # Request identity across processes
//!
//! The router assigns (or echoes) `x-request-id` and forwards it to the
//! worker, which echoes it back on its own response; one id therefore
//! traces a request through both processes' logs and spans.
//!
//! # Admin plane
//!
//! `GET /cluster/workers` reports the live shard map with health;
//! `POST /cluster/remap {"slot": N, "addr": "H:P"}` rebinds a slot to a
//! new worker — the last step of a shard handoff — and counts into
//! `cluster_remaps_total`.

use crate::error::{ClusterError, Result};
use crate::hash::ShardMap;
use crate::pool::{validate_addr, ForwardError, PoolConfig, Upstream};
use priste_obs::json::{self, Json};
use priste_obs::{Counter, Registry};
use priste_serve::daemon::{Daemon, DaemonConfig, DrainHandle, DrainSummary, Handler};
use priste_serve::http::{Request, Response};
use priste_serve::proto::{self, encode_error};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The connection model every daemon shares; its `workers` are the
    /// router's serving threads, the effective client-request concurrency.
    pub daemon: DaemonConfig,
    /// How often the prober re-checks every worker's `/readyz`.
    pub probe_interval: Duration,
    /// Upstream transport tuning (retries, backoff, timeouts, pool).
    pub pool: PoolConfig,
    /// `Retry-After` seconds advertised on fail-fast 503s.
    pub retry_after_seconds: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            daemon: DaemonConfig::default(),
            probe_interval: Duration::from_millis(250),
            pool: PoolConfig::default(),
            retry_after_seconds: 1,
        }
    }
}

/// One row of [`Router::workers_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// Slot index.
    pub slot: usize,
    /// Address currently bound to the slot.
    pub addr: String,
    /// Last probe/exchange verdict.
    pub healthy: bool,
}

/// The [`Handler`] behind [`Router`]: slot routing, forwarding, and the
/// admin plane over the upstream set the prober shares.
struct Routes {
    upstreams: Arc<[Upstream]>,
    drain: DrainHandle,
    retry_after_seconds: u64,
    remaps_total: Counter,
}

impl Routes {
    fn slot_of(&self, user: u64) -> usize {
        crate::hash::jump_hash(user, self.upstreams.len() as u32) as usize
    }

    fn first_healthy(&self) -> Option<&Upstream> {
        self.upstreams.iter().find(|u| u.is_healthy())
    }

    /// A 503 the client should retry after `Retry-After` seconds.
    fn unavailable(&self, message: &str) -> Response {
        let mut resp = Response::json(503, encode_error(message));
        resp.retry_after = Some(self.retry_after_seconds);
        resp
    }
}

impl Handler for Routes {
    const FAMILY: &'static str = "cluster";
    const SPAN: &'static str = "cluster_request";
    const ID_PREFIX: &'static str = "cluster-";

    fn route(&self, path: &str) -> Option<&'static str> {
        match path {
            "/cluster/workers" => Some("/cluster/workers"),
            "/cluster/remap" => Some("/cluster/remap"),
            _ => proto::route(path),
        }
    }

    fn handle(&self, route: &'static str, req: &Request, request_id: &str) -> Option<Response> {
        Some(match (req.method.as_str(), route) {
            ("POST", "/v1/ingest") | ("POST", "/v1/release") => {
                route_by_body(self, route, req, request_id)
            }
            ("GET", "/v1/users/:id/spend") => {
                let user = proto::spend_user(&req.path).expect("route matched");
                forward_to(self, self.slot_of(user), route, req, request_id)
            }
            ("GET", "/v1/config") => match self.first_healthy() {
                Some(upstream) => forward_to(self, upstream.slot(), route, req, request_id),
                None => self.unavailable("no healthy workers"),
            },
            ("GET", "/cluster/workers") => workers_response(self),
            ("POST", "/cluster/remap") => remap_response(self, &req.body),
            _ => return None,
        })
    }

    fn not_ready(&self) -> Option<Response> {
        self.first_healthy()
            .is_none()
            .then(|| self.unavailable("no healthy workers"))
    }
}

/// A running router; dropping it without [`Router::wait`] detaches the
/// threads.
pub struct Router {
    daemon: Daemon<Routes>,
    prober: JoinHandle<()>,
}

impl Router {
    /// Binds `addr` (port 0 for ephemeral) and starts routing onto the
    /// workers in `map`. Every worker address is resolved eagerly and
    /// probed once synchronously, so the health picture is accurate
    /// before the first client request arrives.
    ///
    /// # Errors
    /// [`ClusterError::Io`] when the bind fails, or
    /// [`ClusterError::Config`] for an unresolvable worker address.
    pub fn start(
        map: ShardMap,
        registry: Registry,
        config: RouterConfig,
        addr: &str,
    ) -> Result<Router> {
        for addr in map.addrs() {
            validate_addr(addr)?;
        }
        registry.gauge("cluster_slots").set(map.len() as f64);
        let upstreams: Arc<[Upstream]> = map
            .addrs()
            .iter()
            .enumerate()
            .map(|(slot, addr)| Upstream::new(slot, addr.clone(), config.pool.clone(), &registry))
            .collect();
        for upstream in upstreams.iter() {
            upstream.probe();
        }

        let drain = DrainHandle::default();
        let routes = Routes {
            upstreams: Arc::clone(&upstreams),
            drain: drain.clone(),
            retry_after_seconds: config.retry_after_seconds,
            remaps_total: registry.counter("cluster_remaps_total"),
        };
        let daemon = Daemon::start(routes, drain.clone(), registry, config.daemon, addr)?;
        let probe_interval = config.probe_interval;
        let prober = thread::spawn(move || probe_loop(&upstreams, &drain, probe_interval));
        Ok(Router { daemon, prober })
    }

    /// The bound address (the resolved port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// A clonable handle that can start a drain from any thread.
    pub fn drain_handle(&self) -> DrainHandle {
        self.daemon.drain_handle()
    }

    /// The live shard map with per-worker health.
    pub fn workers_snapshot(&self) -> Vec<WorkerStatus> {
        self.daemon
            .handler()
            .upstreams
            .iter()
            .map(|u| WorkerStatus {
                slot: u.slot(),
                addr: u.addr(),
                healthy: u.is_healthy(),
            })
            .collect()
    }

    /// Rebinds `slot` to `addr` in-process — the programmatic face of
    /// `POST /cluster/remap`, used by handoff orchestration.
    ///
    /// # Errors
    /// [`ClusterError::Config`] for an out-of-range slot or an
    /// unresolvable address.
    pub fn rebind_slot(&self, slot: usize, addr: &str) -> Result<()> {
        rebind(self.daemon.handler(), slot, addr)
    }

    /// Blocks until a drain is requested and every in-flight client
    /// request has been answered, stops the prober, then writes the
    /// final metrics snapshot (when configured) and returns the
    /// [`DrainSummary`] (`checkpointed` is always false: the router
    /// holds no state).
    ///
    /// # Errors
    /// Snapshot-write failures; the drain itself cannot fail.
    pub fn wait(self) -> Result<DrainSummary> {
        let prober = self.prober;
        self.daemon.wait(|_| {
            let _ = prober.join();
            Ok::<_, ClusterError>(false)
        })
    }
}

fn rebind(routes: &Routes, slot: usize, addr: &str) -> Result<()> {
    let Some(upstream) = routes.upstreams.get(slot) else {
        return Err(ClusterError::Config(format!(
            "slot {slot} out of range (map has {} slots)",
            routes.upstreams.len()
        )));
    };
    validate_addr(addr)?;
    upstream.rebind(addr);
    routes.remaps_total.inc();
    Ok(())
}

fn probe_loop(upstreams: &[Upstream], drain: &DrainHandle, interval: Duration) {
    while !drain.is_draining() {
        for upstream in upstreams {
            upstream.probe();
        }
        // Sleep in poll-sized slices so a drain is noticed promptly.
        let mut remaining = interval;
        while !remaining.is_zero() && !drain.is_draining() {
            let step = remaining.min(Duration::from_millis(25));
            thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
    }
}

/// Routes an ingest/release by the `"user"` field of its JSON body.
fn route_by_body(
    routes: &Routes,
    route: &'static str,
    req: &Request,
    request_id: &str,
) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::json(400, encode_error("body is not valid UTF-8"));
    };
    let Ok(doc) = json::parse(text) else {
        return Response::json(400, encode_error("body is not valid JSON"));
    };
    let Some(user) = doc.get("user").and_then(Json::as_u64) else {
        return Response::json(400, encode_error("missing or non-integer field \"user\""));
    };
    let slot = routes.slot_of(user);
    forward_to(routes, slot, route, req, request_id)
}

/// Serializes `req` for the upstream (minimal rebuilt head, request id
/// propagated) and relays the worker's answer.
fn forward_to(
    routes: &Routes,
    slot: usize,
    route: &str,
    req: &Request,
    request_id: &str,
) -> Response {
    let upstream = &routes.upstreams[slot];
    let mut wire = format!(
        "{} {} HTTP/1.1\r\nhost: cluster\r\nx-request-id: {request_id}\r\n",
        req.method, req.path
    );
    if !req.body.is_empty() {
        let _ = write!(
            wire,
            "content-type: application/json\r\ncontent-length: {}\r\n",
            req.body.len()
        );
    } else {
        wire.push_str("content-length: 0\r\n");
    }
    wire.push_str("\r\n");
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(&req.body);

    match upstream.forward(&wire, route) {
        Ok(up) => Response {
            content_type: content_type_static(up.header("content-type").unwrap_or("")),
            body: up.body,
            ..Response::json(up.status, String::new())
        },
        Err(ForwardError::Down) => {
            routes.unavailable(&format!("worker {slot} ({}) is down", upstream.addr()))
        }
        Err(ForwardError::Io(e)) => Response::json(
            502,
            encode_error(&format!("worker {slot} failed mid-exchange: {e}")),
        ),
        Err(ForwardError::Malformed(msg)) => Response::json(
            502,
            encode_error(&format!("worker {slot} sent a malformed response: {msg}")),
        ),
    }
}

/// [`Response::content_type`] is a `&'static str`; map the handful of
/// types a worker actually sends back onto their static spellings.
fn content_type_static(ct: &str) -> &'static str {
    match ct {
        "application/json" => "application/json",
        "text/plain; charset=utf-8" => "text/plain; charset=utf-8",
        "text/plain; version=0.0.4; charset=utf-8" => "text/plain; version=0.0.4; charset=utf-8",
        _ => "application/octet-stream",
    }
}

fn workers_response(routes: &Routes) -> Response {
    let rows: Vec<String> = routes
        .upstreams
        .iter()
        .map(|u| {
            format!(
                "{{\"slot\": {}, \"addr\": {}, \"healthy\": {}}}",
                u.slot(),
                json::quote(&u.addr()),
                u.is_healthy()
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"slots\": {}, \"draining\": {}, \"workers\": [{}]}}",
            routes.upstreams.len(),
            routes.drain.is_draining(),
            rows.join(", ")
        ),
    )
}

fn remap_response(routes: &Routes, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::json(400, encode_error("body is not valid UTF-8"));
    };
    let Ok(doc) = json::parse(text) else {
        return Response::json(400, encode_error("body is not valid JSON"));
    };
    let Some(slot) = doc.get("slot").and_then(Json::as_u64) else {
        return Response::json(400, encode_error("missing or non-integer field \"slot\""));
    };
    let Some(addr) = doc.get("addr").and_then(Json::as_str) else {
        return Response::json(400, encode_error("missing or non-string field \"addr\""));
    };
    match rebind(routes, slot as usize, addr) {
        Ok(()) => {
            let upstream = &routes.upstreams[slot as usize];
            Response::json(
                200,
                format!(
                    "{{\"slot\": {slot}, \"addr\": {}, \"healthy\": {}}}",
                    json::quote(&upstream.addr()),
                    upstream.is_healthy()
                ),
            )
        }
        Err(e) => Response::json(400, encode_error(&e.to_string())),
    }
}
