//! Closed- and open-loop load generator for the daemon.
//!
//! Closed-loop (the default) means each connection issues its next
//! request only after the previous response arrives, so the offered
//! load self-limits to what the server sustains and the recorded
//! latency distribution is a service-time measurement, not a queueing
//! artifact. Latencies land in a shared thread-safe [`Histogram`] and
//! are reported through the same interpolated [`Histogram::quantile`]
//! estimator `/metrics` uses.
//!
//! Open-loop ([`LoadgenOptions::rate`]) instead schedules request *k*
//! at `start + k/rate` on an absolute timeline: a connection that falls
//! behind does not sleep, so transient stalls are corrected by catching
//! up rather than silently shifting every later request (coordinated
//! omission). The report then carries the offered rate alongside the
//! achieved one, and the latency quantiles are genuine
//! latency-under-load measurements that include queueing delay.

use crate::error::{Result, ServeError};
use crate::http::read_response;
use priste_obs::json::{self, Json};
use priste_obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What each synthetic request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Ingest only if the server is not enforcing, otherwise alternate —
    /// resolved from `/v1/config` before traffic starts.
    Auto,
    /// `POST /v1/ingest` with an `"observed"` cell.
    Ingest,
    /// `POST /v1/release` with a `"true_location"` cell.
    Release,
    /// Alternate ingest / release per request.
    Mixed,
}

impl LoadMode {
    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<LoadMode> {
        match s {
            "auto" => Some(LoadMode::Auto),
            "ingest" => Some(LoadMode::Ingest),
            "release" => Some(LoadMode::Release),
            "mixed" => Some(LoadMode::Mixed),
            _ => None,
        }
    }
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:8750`.
    pub addr: String,
    /// Total requests across all connections.
    pub requests: u64,
    /// Concurrent keep-alive connections (keep at or below the server's
    /// worker count — each server worker serves one connection at a
    /// time).
    pub connections: usize,
    /// Synthetic user population (requests round-robin over user ids).
    pub users: u64,
    /// Request mix.
    pub mode: LoadMode,
    /// Seed for the per-connection cell streams.
    pub seed: u64,
    /// Open-loop target rate in requests/second across all connections;
    /// `None` keeps the closed-loop behaviour.
    pub rate: Option<f64>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: "127.0.0.1:8750".to_owned(),
            requests: 1000,
            connections: 4,
            users: 50,
            mode: LoadMode::Auto,
            seed: 42,
            rate: None,
        }
    }
}

/// Client-side measurement of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests completed (including error responses).
    pub requests: u64,
    /// Responses with a non-200 status, plus transport failures.
    pub errors: u64,
    /// Wall-clock duration of the measured window.
    pub elapsed_seconds: f64,
    /// The open-loop target rate the run was scheduled at, when one was
    /// set; compare with [`LoadgenReport::throughput`] (the achieved
    /// rate) to see whether the server kept up.
    pub offered_rate: Option<f64>,
    /// Client-observed request latencies in seconds.
    pub latency: Histogram,
}

impl LoadgenReport {
    /// Interpolated latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q) * 1e3
    }

    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.requests as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One GET, used for the config probe.
fn get_json(addr: &str, path: &str) -> Result<Json> {
    let mut stream = connect(addr)?;
    let request = format!("GET {path} HTTP/1.1\r\nhost: priste\r\nconnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let resp = read_response(&mut stream, &mut Vec::new())?;
    if resp.status != 200 {
        return Err(ServeError::Protocol(format!(
            "{path} answered {}",
            resp.status
        )));
    }
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    json::parse(&text).map_err(|e| ServeError::Protocol(format!("{path} body: {e}")))
}

fn post_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nhost: priste\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Drives `opts.requests` closed-loop requests against a live server
/// and returns the client-side measurement.
///
/// # Errors
/// Connection or protocol failures against `/v1/config`; individual
/// request failures during the run are counted, not fatal.
pub fn run(opts: &LoadgenOptions) -> Result<LoadgenReport> {
    let config = get_json(&opts.addr, "/v1/config")?;
    let num_cells = config
        .get("num_cells")
        .and_then(|j| j.as_u64())
        .ok_or_else(|| ServeError::Protocol("config missing num_cells".into()))?
        as usize;
    if num_cells == 0 {
        return Err(ServeError::Protocol("server has an empty domain".into()));
    }
    let enforcing = config
        .get("enforcing")
        .and_then(|j| j.as_bool())
        .unwrap_or(false);
    let mode = match opts.mode {
        LoadMode::Auto => {
            if enforcing {
                LoadMode::Mixed
            } else {
                LoadMode::Ingest
            }
        }
        other => other,
    };

    let latency = Histogram::new();
    let issued = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let workers: Vec<_> = (0..opts.connections.max(1))
        .map(|w| {
            let opts = opts.clone();
            let latency = latency.clone();
            let issued = Arc::clone(&issued);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                connection_loop(
                    &opts, w as u64, num_cells, mode, started, &latency, &issued, &errors,
                )
            })
        })
        .collect();
    let mut first_failure = None;
    for worker in workers {
        if let Ok(Err(e)) = worker.join() {
            first_failure.get_or_insert(e);
        }
    }
    let elapsed_seconds = started.elapsed().as_secs_f64();
    // A run where no request completed is a failure; partial runs report.
    if latency.count() == 0 {
        if let Some(e) = first_failure {
            return Err(e);
        }
    }
    Ok(LoadgenReport {
        requests: latency.count(),
        errors: errors.load(Ordering::Relaxed),
        elapsed_seconds,
        offered_rate: opts.rate,
        latency,
    })
}

#[allow(clippy::too_many_arguments)]
fn connection_loop(
    opts: &LoadgenOptions,
    worker: u64,
    num_cells: usize,
    mode: LoadMode,
    started: Instant,
    latency: &Histogram,
    issued: &AtomicU64,
    errors: &AtomicU64,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(worker));
    let mut stream = connect(&opts.addr)?;
    let mut buf = Vec::new();
    loop {
        let i = issued.fetch_add(1, Ordering::Relaxed);
        if i >= opts.requests {
            return Ok(());
        }
        // Open loop: request `i` is due at `started + i/rate` on the
        // absolute schedule. Sleeping only when ahead means a connection
        // that fell behind catches up instead of dragging the offered
        // rate down for the rest of the run.
        if let Some(rate) = opts.rate.filter(|r| *r > 0.0) {
            let due = Duration::from_secs_f64(i as f64 / rate);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let user = i % opts.users.max(1);
        let cell = rng.gen_range(0..num_cells);
        let release_turn =
            matches!(mode, LoadMode::Release) || (matches!(mode, LoadMode::Mixed) && i % 2 == 1);
        let wire = if release_turn {
            post_request(
                "/v1/release",
                &format!("{{\"user\": {user}, \"true_location\": {cell}}}"),
            )
        } else {
            post_request(
                "/v1/ingest",
                &format!("{{\"user\": {user}, \"observed\": {cell}}}"),
            )
        };
        let t0 = Instant::now();
        stream.write_all(wire.as_bytes())?;
        let status = read_response(&mut stream, &mut buf)?.status;
        latency.observe(t0.elapsed().as_secs_f64());
        if status != 200 {
            errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// Integration coverage for `run` lives in the crate's `http_e2e` test,
// which drives it against a real in-process server; `proto`/`http` unit
// tests cover the wire pieces.
