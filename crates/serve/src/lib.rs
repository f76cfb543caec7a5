//! `priste_serve`: the PriSTE streaming service as a network daemon.
//!
//! A dependency-free HTTP/1.1 server (hand-rolled on [`std::net`], same
//! zero-dependency discipline as `priste_obs`) that fronts one
//! [`SessionManager`](priste_online::SessionManager) and mounts a live
//! observability plane on the registry the service already records
//! into:
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/ingest` | Feed one observation (`{"user", "observed"}` or `{"user", "column"}`), get the audit [`UserReport`](priste_online::UserReport) |
//! | `POST /v1/release` | Enforcing-mode guarded release (`{"user", "true_location"}`) |
//! | `GET /v1/users/:id/spend` | A user's budget-ledger position |
//! | `GET /v1/config` | Domain size, ε, enforcement state — what a client needs to drive traffic |
//! | `GET /metrics` | Prometheus text exposition of the shared registry |
//! | `GET /healthz` | Liveness (always 200 while the process serves) |
//! | `GET /readyz` | Readiness (503 once draining) |
//!
//! The connection model, the per-request envelope and the health/metrics
//! plane are [`daemon`]'s, a skeleton the `priste_cluster` router runs on
//! too; [`Server`] is the `SessionManager` handler on it. Every request
//! runs under a `priste_obs` span (`span_http_request_seconds`) and lands
//! in `serve_request_seconds{route,status}`; the `x-request-id` header
//! is echoed (or assigned) for correlation. SIGINT/SIGTERM — or
//! [`DrainHandle::drain`] — trigger a graceful drain: stop accepting,
//! answer in-flight requests, write a final durable checkpoint and
//! metrics snapshot.
//!
//! [`loadgen`] is the matching load-generation client: closed-loop by
//! default (each connection waits for its response, so latency is a
//! service-time measurement), or open-loop at a target `--rate` with an
//! absolute schedule (so latency-under-load includes queueing delay and
//! the report carries offered vs achieved rate). Either way it drives
//! synthetic commuter traffic over keep-alive connections and reports
//! p50/p90/p99 and throughput from client-side histograms.
//!
//! ```no_run
//! use priste_markov::{Homogeneous, MarkovModel};
//! use priste_obs::Registry;
//! use priste_online::{OnlineConfig, SessionManager};
//! use priste_serve::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let chain = Arc::new(Homogeneous::new(MarkovModel::paper_example()));
//! let mut service = SessionManager::new(chain, OnlineConfig::default()).unwrap();
//! let registry = Registry::new();
//! service.observe(&registry);
//! let server = Server::start(
//!     service,
//!     None,
//!     registry,
//!     ServerConfig::default(),
//!     "127.0.0.1:0",
//! )
//! .unwrap();
//! println!("listening on {}", server.local_addr());
//! let summary = server.wait().unwrap(); // blocks until drained
//! println!("served {} requests", summary.requests);
//! ```

pub mod daemon;
pub mod error;
pub mod http;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod signal;

pub use daemon::{DrainHandle, DrainSummary};
pub use error::{Result, ServeError};
pub use loadgen::{LoadMode, LoadgenOptions, LoadgenReport};
pub use server::{Server, ServerConfig};
