//! `priste-online` — a streaming multi-user spatiotemporal event-privacy
//! service built on incremental quantification.
//!
//! The offline pipeline ([`priste_quantify`], `priste_core`) answers "is
//! this release safe?" by replaying an event's whole horizon for a single
//! user. This crate turns that checker into a **service**: many users, one
//! shared mobility model, per-timestamp updates.
//!
//! * [`Session`] — per-user state: the filtered location posterior, active
//!   event windows (each an [`IncrementalTwoWorld`] running `O(m²)` per
//!   observation — the per-timestamp recursion of the journal extension,
//!   arXiv:1907.10814), and a conservative [`BudgetLedger`]. The sliding
//!   per-user window state is in the spirit of δ-location-set privacy under
//!   temporal correlations (arXiv:1410.5919).
//! * [`SessionManager`] — shards users behind one lock per shard (calls
//!   for users in different shards run in parallel), commits each
//!   observation in one per-user critical section that a same-timestep
//!   batch runs once per user, shard by shard, and evicts expired windows.
//!   A session that owns its vectors is updated in place, in kept scratch
//!   buffers, so steady-state observations allocate no `O(m)` buffer.
//! * [`OnlineConfig`] — ε threshold, shard count, window linger, budget.
//!
//! Beyond the audit path, the service runs in **enforcing mode**:
//! [`SessionManager::enable_enforcement`] hands it an
//! [`Lppm`](priste_lppm::Lppm) plus a
//! [`GuardConfig`](priste_calibrate::GuardConfig), and
//! [`SessionManager::release`] then calibrates each user's release against
//! their event windows (geometric budget backoff, suppression on
//! exhaustion) *before* the observation leaves the mechanism — the windows
//! consult the `priste-calibrate` guard instead of merely auditing.
//!
//! Sessions can be made **durable**: [`SessionManager::make_durable`] (or
//! the `Pipeline::durable` builder knob in the facade) journals every
//! committed mutation to a per-shard CRC-framed write-ahead log *before*
//! its result returns, compacts periodically into atomic snapshots, and
//! [`SessionManager::recover`] restores the exact committed state after a
//! crash — rounding torn-tail ledger spend *up*, never down. An observation
//! the service's own mechanism produced
//! ([`SessionManager::ingest_observed`], a guarded release) is journaled by
//! reference, so recovery takes that mechanism. See the [`durable`] module
//! docs for the file format and recovery guarantees.
//!
//! Share the mobility model across the fleet with `Arc`:
//!
//! ```
//! use priste_event::{Presence, StEvent};
//! use priste_geo::Region;
//! use priste_linalg::Vector;
//! use priste_markov::{Homogeneous, MarkovModel};
//! use priste_online::{OnlineConfig, SessionManager, UserId};
//! use std::sync::Arc;
//!
//! let chain = Arc::new(Homogeneous::new(MarkovModel::paper_example()));
//! let mut svc = SessionManager::new(Arc::clone(&chain), OnlineConfig::default())?;
//! let region = Region::from_one_based_range(3, 1, 2)?;
//! let tpl = svc.register_template(StEvent::from(Presence::new(region, 2, 3)?))?;
//! svc.add_user(UserId(1), Vector::uniform(3))?;
//! svc.attach_event(UserId(1), tpl)?;
//! let report = svc.ingest(UserId(1), Vector::from(vec![0.5, 0.3, 0.2]))?;
//! assert_eq!(report.t, 1);
//! assert_eq!(report.windows.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`IncrementalTwoWorld`]: priste_quantify::IncrementalTwoWorld
//! [`BudgetLedger`]: session::BudgetLedger

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
mod error;
mod manager;
mod obs;
mod priors;
pub mod session;

pub use durable::{DurableError, DurableOptions};
pub use error::OnlineError;
pub use manager::{
    shard_rng, EnforcedRelease, Enrollment, OnlineConfig, ServiceStats, SessionManager,
};
pub use obs::RecoveryInfo;
pub use session::{BudgetLedger, Session, UserId, UserReport, Verdict, WindowReport};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, OnlineError>;
