//! Per-worker upstream client: keep-alive connection pool, `/readyz`
//! health probes, and the at-most-once forwarding policy.
//!
//! # At-most-once forwarding
//!
//! Application requests spend privacy budget, so the router must never
//! make a worker apply one request twice. The policy is therefore:
//!
//! * **Connection establishment** is retried with backoff — nothing has
//!   been sent, so retries are free ([`PoolConfig::connect_attempts`]).
//! * **Pooled connections are preflight-checked** (a non-blocking peek)
//!   before reuse, so a worker's idle keep-alive close is detected and
//!   the connection discarded instead of racing a request against it.
//! * **Once request bytes are on the wire, there are no retries.** A
//!   transport failure mid-exchange surfaces as [`ForwardError::Io`]
//!   (502 to the client), because the worker may or may not have
//!   committed the spend — only the client, which sees the error, may
//!   decide to retry, and the worker's durable ledger arbitrates.
//!
//! A worker that cannot be reached at all is marked unhealthy and every
//! request for its slots fails fast as [`ForwardError::Down`] (503 with
//! `Retry-After`) until a [`Upstream::probe`] — run by the router's
//! prober thread — sees `/readyz` answer 200 again.

use crate::error::{ClusterError, Result};
use priste_obs::{Counter, Gauge, Registry};
use priste_serve::http::{read_response, ClientResponse, ReadError};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Transport tuning shared by every upstream.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Fresh-connection attempts per request (at least 1); only
    /// connection *establishment* is ever retried.
    pub connect_attempts: u32,
    /// Sleep between connection attempts, doubled each retry.
    pub connect_backoff: Duration,
    /// Per-attempt connection timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout on an established upstream exchange.
    pub exchange_timeout: Duration,
    /// Idle keep-alive connections retained per worker.
    pub pool_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(5),
            connect_timeout: Duration::from_millis(500),
            exchange_timeout: Duration::from_secs(10),
            pool_capacity: 16,
        }
    }
}

/// Why a forward produced no upstream response.
#[derive(Debug)]
pub enum ForwardError {
    /// The worker is marked down or unreachable: fail fast, 503 +
    /// `Retry-After`.
    Down,
    /// Transport failed after request bytes were sent: 502, no retry.
    Io(io::Error),
    /// The worker answered bytes that do not parse as HTTP: 502.
    Malformed(String),
}

/// One worker endpoint: remappable address, health flag, idle pool, and
/// its slice of the cluster metrics.
pub struct Upstream {
    slot: usize,
    addr: Mutex<String>,
    healthy: AtomicBool,
    idle: Mutex<Vec<TcpStream>>,
    config: PoolConfig,
    registry: Registry,
    up: Gauge,
    errors_connect: Counter,
    errors_io: Counter,
    errors_malformed: Counter,
    retries: Counter,
}

impl Upstream {
    /// A new upstream for `slot`, initially presumed healthy (the
    /// router probes synchronously at startup, so the presumption is
    /// corrected before traffic arrives).
    pub fn new(slot: usize, addr: String, config: PoolConfig, registry: &Registry) -> Upstream {
        let label = |name: &str, kind: &str| format!("{name}{{worker=\"{slot}\",kind=\"{kind}\"}}");
        Upstream {
            slot,
            addr: Mutex::new(addr),
            healthy: AtomicBool::new(true),
            idle: Mutex::new(Vec::new()),
            config,
            registry: registry.clone(),
            up: registry.gauge(&format!("cluster_worker_up{{worker=\"{slot}\"}}")),
            errors_connect: registry.counter(&label("cluster_upstream_errors_total", "connect")),
            errors_io: registry.counter(&label("cluster_upstream_errors_total", "io")),
            errors_malformed: registry
                .counter(&label("cluster_upstream_errors_total", "malformed")),
            retries: registry.counter("cluster_upstream_retries_total"),
        }
    }

    /// The slot this upstream serves.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Current address (changes across remaps).
    pub fn addr(&self) -> String {
        self.addr.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Rebinds the upstream to `addr` (shard handoff): the idle pool is
    /// discarded (those sockets point at the old worker) and health is
    /// re-established by an immediate probe.
    pub fn rebind(&self, addr: &str) {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner()) = addr.to_owned();
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.set_healthy(self.probe());
    }

    /// Whether the last probe or exchange found the worker serving.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    fn set_healthy(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::SeqCst);
        self.up.set(if healthy { 1.0 } else { 0.0 });
        if !healthy {
            self.idle.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// One `/readyz` round trip on a fresh connection; updates the
    /// health flag and returns the verdict. A draining worker answers
    /// 503 and is treated as down, which is exactly what a handoff
    /// wants: the router stops sending while the worker checkpoints.
    pub fn probe(&self) -> bool {
        let verdict = self.probe_once().is_some_and(|status| status == 200);
        self.set_healthy(verdict);
        verdict
    }

    fn probe_once(&self) -> Option<u16> {
        let mut stream = self.connect_once().ok()?;
        let wire = "GET /readyz HTTP/1.1\r\nhost: cluster\r\nconnection: close\r\n\r\n";
        stream.write_all(wire.as_bytes()).ok()?;
        let resp = read_response(&mut stream, &mut Vec::new()).ok()?;
        Some(resp.status)
    }

    fn connect_once(&self) -> io::Result<TcpStream> {
        let addr = self.addr();
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses resolved");
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.config.exchange_timeout))?;
                    stream.set_write_timeout(Some(self.config.exchange_timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Pops an idle connection that still looks alive. A worker closing
    /// an idle keep-alive connection leaves a readable EOF behind; the
    /// non-blocking peek sees it (or any stray bytes) and the stale
    /// socket is dropped instead of being raced against a request.
    fn checkout_idle(&self) -> Option<TcpStream> {
        loop {
            let conn = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop()?;
            if connection_is_fresh(&conn) {
                return Some(conn);
            }
        }
    }

    fn checkin(&self, conn: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < self.config.pool_capacity {
            idle.push(conn);
        }
    }

    /// Obtains a connection: pooled if fresh, otherwise fresh connects
    /// with exponential backoff. Failure here means the worker is
    /// unreachable — mark it down and fail fast.
    fn obtain(&self) -> std::result::Result<TcpStream, ForwardError> {
        if !self.is_healthy() {
            return Err(ForwardError::Down);
        }
        if let Some(conn) = self.checkout_idle() {
            return Ok(conn);
        }
        let mut backoff = self.config.connect_backoff;
        for attempt in 0..self.config.connect_attempts.max(1) {
            if attempt > 0 {
                self.retries.inc();
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match self.connect_once() {
                Ok(conn) => return Ok(conn),
                Err(_) => self.errors_connect.inc(),
            }
        }
        self.set_healthy(false);
        Err(ForwardError::Down)
    }

    /// Sends `wire` (a fully serialized request) and reads the response.
    /// This is the single-attempt exchange the at-most-once policy
    /// allows once bytes are moving; `route` labels the latency series.
    pub fn forward(
        &self,
        wire: &[u8],
        route: &str,
    ) -> std::result::Result<ClientResponse, ForwardError> {
        let started = std::time::Instant::now();
        let mut conn = self.obtain()?;
        let outcome = exchange(&mut conn, wire);
        match &outcome {
            Ok(resp) => {
                self.registry
                    .histogram(&format!(
                        "cluster_upstream_request_seconds{{worker=\"{}\",route=\"{route}\",\
                         status=\"{}\"}}",
                        self.slot, resp.status
                    ))
                    .observe(started.elapsed().as_secs_f64());
                if !resp.wants_close() {
                    self.checkin(conn);
                }
            }
            Err(ForwardError::Io(_)) => self.errors_io.inc(),
            Err(ForwardError::Malformed(_)) => self.errors_malformed.inc(),
            Err(ForwardError::Down) => {}
        }
        outcome
    }
}

/// One request/response round trip on `conn`. An EOF before any
/// response byte is [`ForwardError::Io`] — the worker may have died
/// after committing — and a bad or partial response is
/// [`ForwardError::Malformed`].
fn exchange(
    conn: &mut TcpStream,
    wire: &[u8],
) -> std::result::Result<ClientResponse, ForwardError> {
    conn.write_all(wire).map_err(ForwardError::Io)?;
    read_response(conn, &mut Vec::new()).map_err(|e| match e {
        ReadError::Io(e) => ForwardError::Io(e),
        ReadError::Closed => ForwardError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "worker closed before responding",
        )),
        ReadError::Malformed(msg) => ForwardError::Malformed(msg),
        other => ForwardError::Malformed(other.to_string()),
    })
}

/// `true` when the socket has no pending EOF or stray bytes.
fn connection_is_fresh(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let verdict = match conn.peek(&mut probe) {
        // EOF (0) or unsolicited bytes: the worker is done with it.
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
        Err(_) => false,
    };
    conn.set_nonblocking(false).is_ok() && verdict
}

/// Resolves an address string eagerly, so a typo'd `--worker-addrs`
/// entry fails at startup instead of on the first routed request.
pub fn validate_addr(addr: &str) -> Result<()> {
    addr.to_socket_addrs()
        .map_err(|e| ClusterError::Config(format!("cannot resolve {addr:?}: {e}")))?
        .next()
        .map(|_| ())
        .ok_or_else(|| ClusterError::Config(format!("{addr:?} resolves to no addresses")))
}
