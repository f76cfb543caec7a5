//! Observability wiring for the service: instrument bundles and recovery
//! telemetry.
//!
//! Two cost classes coexist here, mirroring the `priste-obs` contract:
//!
//! * **Always-on counters** back [`ServiceStats`] (and the shard-panic
//!   total): they are service semantics — snapshotted, restored, and
//!   asserted on by callers — so they count whether or not a registry is
//!   attached. The registry *adopts* them on
//!   [`SessionManager::observe`](crate::SessionManager::observe), values
//!   intact.
//! * **Gated telemetry** (latency histograms, batch sizes, gauges) starts
//!   as disabled handles whose record path is a few atomic loads with no
//!   allocation, and is swapped for live registry handles on attach. The
//!   hot per-observation loops never see any of it: deltas stay plain
//!   structs on worker threads and instruments are touched once per
//!   batch/append.

use crate::manager::ServiceStats;
use priste_calibrate::GuardInstruments;
use priste_obs::{Counter, Gauge, Histogram, Registry};

/// The service-level instrument bundle owned by a `SessionManager`.
#[derive(Debug, Clone)]
pub(crate) struct ServiceInstruments {
    /// `online_observations_total` (always-on; `ServiceStats`).
    pub(crate) observations: Counter,
    /// `online_windows_evicted_total` (always-on; `ServiceStats`).
    pub(crate) evicted_windows: Counter,
    /// `online_verdicts_certified_total` (always-on; `ServiceStats`).
    pub(crate) certified: Counter,
    /// `online_verdicts_violated_total` (always-on; `ServiceStats`).
    pub(crate) violated: Counter,
    /// `online_verdicts_mismatched_total` (always-on; `ServiceStats`).
    pub(crate) mismatched: Counter,
    /// `online_suppressed_total` (always-on; `ServiceStats`).
    pub(crate) suppressed: Counter,
    /// `online_shard_panics_total` (always-on: a degraded fan-out must be
    /// visible even without a registry attached).
    pub(crate) shard_panics: Counter,
    /// `online_ingest_batch_seconds` (gated).
    pub(crate) ingest_seconds: Histogram,
    /// `online_ingest_batch_size` (gated).
    pub(crate) ingest_batch_size: Histogram,
    /// `online_release_seconds` — singleton enforcing releases (gated).
    pub(crate) release_seconds: Histogram,
    /// `online_release_batch_seconds` (gated).
    pub(crate) release_batch_seconds: Histogram,
    /// `online_release_batch_size` (gated).
    pub(crate) release_batch_size: Histogram,
    /// `online_shard_lock_wait_seconds`: how long a single-user call
    /// waited for its shard's lock (gated).
    pub(crate) shard_lock_wait_seconds: Histogram,
    /// `online_sessions` gauge (gated).
    pub(crate) sessions: Gauge,
    /// `online_shard_imbalance` gauge: fullest shard ÷ mean shard
    /// occupancy, 1.0 = perfectly balanced (gated).
    pub(crate) shard_imbalance: Gauge,
    /// Guard instruments shared with the enforcing paths (`guard_*`).
    pub(crate) guard: GuardInstruments,
    /// The attached registry, kept for cold-path dynamic names (per-shard
    /// panic labels) and recovery publication.
    pub(crate) registry: Option<Registry>,
}

impl ServiceInstruments {
    /// Fresh bundle: always-on stats counters, inert telemetry.
    pub(crate) fn new() -> Self {
        ServiceInstruments {
            observations: Counter::new(),
            evicted_windows: Counter::new(),
            certified: Counter::new(),
            violated: Counter::new(),
            mismatched: Counter::new(),
            suppressed: Counter::new(),
            shard_panics: Counter::new(),
            ingest_seconds: Histogram::disabled(),
            ingest_batch_size: Histogram::disabled(),
            release_seconds: Histogram::disabled(),
            release_batch_seconds: Histogram::disabled(),
            release_batch_size: Histogram::disabled(),
            shard_lock_wait_seconds: Histogram::disabled(),
            sessions: Gauge::disabled(),
            shard_imbalance: Gauge::disabled(),
            guard: GuardInstruments::disabled(),
            registry: None,
        }
    }

    /// Attaches `registry`: adopts the always-on counters (values intact)
    /// and replaces the gated telemetry with live registry handles.
    pub(crate) fn attach(&mut self, registry: &Registry) {
        registry.adopt_counter("online_observations_total", &self.observations);
        registry.adopt_counter("online_windows_evicted_total", &self.evicted_windows);
        registry.adopt_counter("online_verdicts_certified_total", &self.certified);
        registry.adopt_counter("online_verdicts_violated_total", &self.violated);
        registry.adopt_counter("online_verdicts_mismatched_total", &self.mismatched);
        registry.adopt_counter("online_suppressed_total", &self.suppressed);
        registry.adopt_counter("online_shard_panics_total", &self.shard_panics);
        self.ingest_seconds = registry.histogram("online_ingest_batch_seconds");
        self.ingest_batch_size = registry.histogram("online_ingest_batch_size");
        self.release_seconds = registry.histogram("online_release_seconds");
        self.release_batch_seconds = registry.histogram("online_release_batch_seconds");
        self.release_batch_size = registry.histogram("online_release_batch_size");
        self.shard_lock_wait_seconds = registry.histogram("online_shard_lock_wait_seconds");
        self.sessions = registry.gauge("online_sessions");
        self.shard_imbalance = registry.gauge("online_shard_imbalance");
        self.guard = GuardInstruments::from_registry(registry);
        self.registry = Some(registry.clone());
    }

    /// Adds a (possibly worker-thread-merged) stats delta.
    pub(crate) fn absorb(&self, delta: &ServiceStats) {
        self.observations.add(delta.observations as u64);
        self.evicted_windows.add(delta.evicted_windows as u64);
        self.certified.add(delta.certified as u64);
        self.violated.add(delta.violated as u64);
        self.mismatched.add(delta.mismatched as u64);
        self.suppressed.add(delta.suppressed as u64);
    }

    /// The counters as a [`ServiceStats`] snapshot.
    pub(crate) fn stats(&self) -> ServiceStats {
        ServiceStats {
            observations: self.observations.get() as usize,
            evicted_windows: self.evicted_windows.get() as usize,
            certified: self.certified.get() as usize,
            violated: self.violated.get() as usize,
            mismatched: self.mismatched.get() as usize,
            suppressed: self.suppressed.get() as usize,
        }
    }

    /// Overwrites the counters from a restored snapshot.
    pub(crate) fn store_stats(&self, stats: ServiceStats) {
        self.observations.store(stats.observations as u64);
        self.evicted_windows.store(stats.evicted_windows as u64);
        self.certified.store(stats.certified as u64);
        self.violated.store(stats.violated as u64);
        self.mismatched.store(stats.mismatched as u64);
        self.suppressed.store(stats.suppressed as u64);
    }

    /// Records a contained worker panic: bumps the always-on total and,
    /// when a registry is attached, a per-shard labeled counter (cold
    /// path — the dynamic name allocation only happens on an actual
    /// panic).
    pub(crate) fn record_shard_panic(&self, shard: usize) {
        self.shard_panics.inc();
        if let Some(registry) = &self.registry {
            registry
                .counter(&format!("online_shard_panics_total{{shard=\"{shard}\"}}"))
                .inc();
        }
    }

    /// Refreshes the occupancy gauges; skipped entirely while disabled.
    pub(crate) fn update_occupancy(&self, shard_lens: impl Iterator<Item = usize>) {
        if !self.sessions.is_enabled() {
            return;
        }
        let mut total = 0usize;
        let mut max = 0usize;
        let mut shards = 0usize;
        for len in shard_lens {
            total += len;
            max = max.max(len);
            shards += 1;
        }
        self.sessions.set(total as f64);
        let imbalance = if total == 0 || shards == 0 {
            1.0
        } else {
            max as f64 * shards as f64 / total as f64
        };
        self.shard_imbalance.set(imbalance);
    }

    /// Publishes recovery telemetry into the attached registry.
    pub(crate) fn publish_recovery(&self, info: &RecoveryInfo) {
        let Some(registry) = &self.registry else {
            return;
        };
        registry
            .gauge("online_recovery_duration_seconds")
            .set(info.duration_seconds);
        registry
            .gauge("online_recovery_replayed_records")
            .set(info.replayed_records as f64);
        // `store` is ungated, so the round-up count survives even if the
        // registry is toggled off at publish time.
        registry
            .counter("online_recovery_torn_records_total")
            .store(info.torn_records);
        registry
            .gauge("online_recovery_skipped_newer")
            .set(if info.skipped_newer { 1.0 } else { 0.0 });
    }
}

/// Instrument bundle for the durable substrate (WAL + snapshots).
#[derive(Debug, Clone)]
pub(crate) struct StoreInstruments {
    /// `durable_wal_append_seconds`: full append (encode + write + sync).
    pub(crate) append_seconds: Histogram,
    /// `durable_wal_fsync_seconds`: the sync portion alone.
    pub(crate) fsync_seconds: Histogram,
    /// `durable_wal_bytes_total`: framed bytes journaled.
    pub(crate) bytes: Counter,
    /// `durable_snapshot_seconds`: checkpoint write duration.
    pub(crate) snapshot_seconds: Histogram,
    /// `durable_snapshot_bytes`: size of the newest snapshot file.
    pub(crate) snapshot_bytes: Gauge,
    /// `durable_checkpoints_total`.
    pub(crate) checkpoints: Counter,
}

impl StoreInstruments {
    /// Inert handles (the default for a store without observability).
    pub(crate) fn disabled() -> Self {
        StoreInstruments {
            append_seconds: Histogram::disabled(),
            fsync_seconds: Histogram::disabled(),
            bytes: Counter::disabled(),
            snapshot_seconds: Histogram::disabled(),
            snapshot_bytes: Gauge::disabled(),
            checkpoints: Counter::disabled(),
        }
    }

    /// Handles registered under the `durable_*` names above.
    pub(crate) fn from_registry(registry: &Registry) -> Self {
        StoreInstruments {
            append_seconds: registry.histogram("durable_wal_append_seconds"),
            fsync_seconds: registry.histogram("durable_wal_fsync_seconds"),
            bytes: registry.counter("durable_wal_bytes_total"),
            snapshot_seconds: registry.histogram("durable_snapshot_seconds"),
            snapshot_bytes: registry.gauge("durable_snapshot_bytes"),
            checkpoints: registry.counter("durable_checkpoints_total"),
        }
    }
}

/// What crash recovery measured — captured before any registry can be
/// attached (recovery is a constructor), published on
/// [`SessionManager::observe`](crate::SessionManager::observe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryInfo {
    /// Wall time of the full recover (snapshot load + WAL replay +
    /// conservative round-ups).
    pub duration_seconds: f64,
    /// Committed WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn WAL tails rounded up (each exhausts a user's — or shard's —
    /// ledger).
    pub torn_records: u64,
    /// Whether a newer-but-unreadable snapshot generation was skipped
    /// (every ledger exhausted).
    pub skipped_newer: bool,
}
