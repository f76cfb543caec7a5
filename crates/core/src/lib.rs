//! The PriSTE framework (paper §IV.B–D): converting a location-privacy
//! mechanism into one that additionally guarantees ε-spatiotemporal event
//! privacy.
//!
//! The framework couples three pieces at every timestamp (Fig. 6 /
//! Algorithm 1):
//!
//! 1. an **LPPM** generates a candidate perturbed location;
//! 2. the **Quantification** component ([`priste_quantify::TheoremBuilder`])
//!    turns the candidate's emission column into the Theorem IV.1
//!    coefficient vectors;
//! 3. the **QP checker** ([`priste_qp::TheoremChecker`]) certifies (or
//!    refutes) ε-spatiotemporal event privacy for *every* adversarial
//!    initial probability; on failure a new candidate is drawn from the
//!    next rung of the guard's budget ladder
//!    ([`priste_calibrate::GuardLadder`], walked by
//!    [`priste_calibrate::run_guard`]), each rung half the budget of the
//!    last (Algorithm 2 line 19). Below the floor rung the uniform mechanism
//!    releases: the α→0 limit that ends the exponential decay.
//!
//! Concrete instantiations:
//!
//! * [`PlmSource`] — Algorithm 2: PriSTE with Geo-indistinguishability
//!   (α-Planar-Laplace), one mechanism whose ladder is built once.
//! * [`DeltaLocSource`] — Algorithm 3: PriSTE with δ-location-set privacy,
//!   whose mechanism is rebuilt each step from the adversarial posterior
//!   (Eq. (21) update).
//! * [`Priste`] — the engine: multi-event protection (all user events
//!   checked simultaneously, §V.B "Protecting multiple events"),
//!   conservative release accounting (§IV.C, Table III), and per-release
//!   utility records.
//! * [`runner`] — multi-run experiment driver producing the per-timestamp
//!   and aggregate utility series the paper plots (mean PLM budget,
//!   Euclidean distance in km).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
mod framework;
pub mod runner;
mod source;
#[cfg(feature = "test-support")]
pub mod test_support;

pub use config::PristeConfig;
pub use error::CoreError;
pub use framework::{Priste, ReleaseRecord};
pub use source::{DeltaLocSource, MechanismSource, PlmSource};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
