//! `priste_cluster`: multi-process sharded serving for the PriSTE
//! streaming service.
//!
//! PriSTE's per-user ε-event accounting is independent across users, so
//! scaling past one `priste_serve` process is a correctness-preserving
//! horizontal split: every user's sessions, budget ledger, and durable
//! journal live in exactly one **worker** daemon, and a **router**
//! daemon consistent-hashes user ids onto workers. This crate is the
//! router tier — std-only, like the serve crate it fronts.
//!
//! | Piece | Contents |
//! |---|---|
//! | [`hash`] | jump consistent hash + the slot→address [`ShardMap`] |
//! | [`pool`] | per-worker keep-alive pools, `/readyz` probes, the at-most-once forward policy |
//! | [`router`] | the [`Router`]: the upstream-forwarding handler on `priste_serve`'s daemon skeleton, its prober, the admin plane |
//!
//! # Topology
//!
//! ```text
//!              clients (JSON over HTTP/1.1, keep-alive)
//!                │
//!           ┌────▼────┐   slot = jump_hash(user, N)
//!           │ router  │───────────────┐
//!           └────┬────┘               │
//!       ┌────────┼────────┐          probes /readyz,
//!       ▼        ▼        ▼          remaps slots on handoff
//!   worker 0  worker 1  worker N-1
//!   (serve +  (serve +  (serve +
//!    durable   durable   durable
//!    dir 0)    dir 1)    dir N-1)
//! ```
//!
//! Workers are plain `priste_serve` daemons: same JSON protocol, same
//! drain semantics, each with its own durable directory. The router is
//! a second `Handler` on the same `priste_serve::daemon` skeleton, so
//! acceptor, serving pool, request envelope, health/metrics plane and
//! drain are one piece of code for both tiers. The router adds fail-fast 503 + `Retry-After` when a worker is down,
//! retry-with-backoff on connection establishment (never after request
//! bytes are sent — budget spends must be at-most-once), and an
//! `x-request-id` that traces one request across both processes.
//!
//! # Shard handoff
//!
//! Moving a slot to a new worker never rehashes users:
//!
//! 1. **Drain** the old worker (SIGTERM or `DrainHandle::drain`) — its
//!    `wait()` writes a durable checkpoint.
//! 2. **Move** its durable directory to the new worker's host.
//! 3. **Adopt**: start a fresh worker on that directory
//!    (`SessionManager::open_durable`); recovery replays the journal,
//!    so recovered spend ≥ committed spend.
//! 4. **Remap**: `POST /cluster/remap {"slot": i, "addr": "H:P"}` — the
//!    router rebinds the slot, probes the new worker, and traffic
//!    resumes.
//!
//! # Cluster metrics
//!
//! The router exports [`METRIC_SCHEMA`] on the registry passed to
//! [`Router::start`]: request latency by route/status, per-worker
//! upstream latency and health, error/retry/remap counters. Scrape
//! `GET /metrics` on the router for the aggregated cluster view.

#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod pool;
pub mod router;

pub use error::{ClusterError, Result};
pub use hash::{jump_hash, ShardMap};
pub use pool::PoolConfig;
pub use router::{Router, RouterConfig, WorkerStatus};

/// Every metric the router exports, as `(base name, kind, help)` rows —
/// the cluster rows of the CLI `metrics` reference table, kept honest
/// by the crate's `metrics_schema_covers_router_exports` test.
pub const METRIC_SCHEMA: &[(&str, &str, &str)] = &[
    (
        "cluster_request_seconds",
        "histogram",
        "client-observed router request latency (also per route/status as {route=\"R\",status=\"S\"})",
    ),
    (
        "cluster_upstream_request_seconds",
        "histogram",
        "router→worker exchange latency per worker slot, route, and status",
    ),
    (
        "cluster_upstream_errors_total",
        "counter",
        "upstream failures per worker slot and kind (connect, io, malformed)",
    ),
    (
        "cluster_upstream_retries_total",
        "counter",
        "connection-establishment retries (the only retries the at-most-once policy allows)",
    ),
    (
        "cluster_worker_up",
        "gauge",
        "per-worker health from the /readyz prober (1 serving, 0 down or draining)",
    ),
    (
        "cluster_remaps_total",
        "counter",
        "slot rebinds applied via /cluster/remap or Router::rebind_slot (shard handoffs)",
    ),
    (
        "cluster_requests_in_flight",
        "gauge",
        "client requests currently being routed",
    ),
    (
        "cluster_connections_total",
        "counter",
        "client connections accepted by the router",
    ),
    (
        "cluster_errors_total",
        "counter",
        "router responses with a 4xx/5xx status, per route",
    ),
    (
        "cluster_slots",
        "gauge",
        "number of slots in the shard map (fixed at router start)",
    ),
    (
        "span_cluster_request_seconds",
        "histogram",
        "span timings for routed requests (same data as cluster_request_seconds, via the span API)",
    ),
];
