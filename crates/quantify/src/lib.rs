//! Quantifying ε-spatiotemporal event privacy (paper §III and §IV.A).
//!
//! The central objects are the *two-possible-world* lifted transition
//! matrices: `2m×2m` matrices over the doubled state space
//! `(state, EVENT-false) ⊎ (state, EVENT-true)` that encode a PRESENCE or
//! PATTERN event inside ordinary Markov propagation (Eqs. (3)–(8)). With
//! them, prior probabilities (Lemma III.1), joint probabilities with
//! observations (Lemmas III.2/III.3), and the Theorem IV.1 coefficient
//! vectors `a`, `b`, `c` all cost *linear* work in the number of event
//! predicates — versus the exponential enumeration of Appendix B, which is
//! also implemented here ([`naive`]) as the correctness oracle and the
//! Fig. 14 runtime baseline.
//!
//! Module map:
//!
//! * [`lifted`] — structured lifted transition steps; every application is
//!   four `m`-dimensional operations instead of one dense `2m×2m` product.
//! * [`TwoWorldEngine`] — per-event schedule of lifted steps, initial-state
//!   lifting, suffix products and the prior of Lemma III.1.
//! * [`TheoremBuilder`] — the incremental `A`/`B` recurrences of
//!   Algorithm 2 (lines 3–15) with candidate/commit semantics matching the
//!   release-retry loop, emitting [`TheoremInputs`] for the QP check.
//! * [`IncrementalTwoWorld`] — the streaming face: carries the lifted
//!   forward vector across timestamps so each observation costs `O(m²)`
//!   instead of replaying the horizon (the journal extension's per-timestamp
//!   recursion, arXiv:1907.10814); what `priste-online` sessions hold. Its
//!   per-event suffix table is an [`EventModel`] shared across windows.
//!   It is also the fixed-π and exact-Bayes face: each [`StreamStep`]
//!   reports §III's realized privacy loss for a *known* initial
//!   probability, and the posterior and odds lift of an exact Bayesian
//!   adversary — the lift Definition II.4 bounds by `e^ε`.
//! * [`naive`] — Appendix B exponential baselines (general Boolean events
//!   via [`priste_event::EventExpr`], plus Algorithm 4's PATTERN-specific
//!   enumeration).
//! * [`sweep`] — ε-capacity analysis: the smallest certifiable ε per
//!   timestep, by bisection over the exact Theorem IV.1 checker.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod error;
mod incremental;
pub mod lifted;
pub mod naive;
pub mod sweep;
mod theorem;

pub use engine::TwoWorldEngine;
pub use error::QuantifyError;
pub use incremental::{EventModel, IncrementalTwoWorld, StreamStep, WeakWindowStart, WindowStart};
pub use theorem::{TheoremBuilder, TheoremInputs};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, QuantifyError>;
