//! Location Privacy-Preserving Mechanisms (LPPMs) for PriSTE.
//!
//! The paper models every LPPM as an *emission matrix* (§II.A): a
//! row-stochastic matrix taking the true cell as input and emitting a
//! perturbed cell. This crate provides:
//!
//! * [`Lppm`] — the emission-matrix abstraction consumed by the
//!   quantification engine and the PriSTE framework: a mechanism is its
//!   emission columns `p̃_o` and the rows [`Lppm::perturb`] samples, stored
//!   however the mechanism likes, plus the budget-scaling hook that
//!   Algorithm 2's exponential decay drives.
//! * [`PlanarLaplace`] — the α-Planar-Laplace mechanism of
//!   Geo-indistinguishability (Andrés et al., CCS'13), §IV.C's case study,
//!   as a grid-discretized emission matrix kept as one `O(m)` kernel.
//! * [`DeltaLocationSet`] — δ-location-set privacy (Xiao & Xiong, CCS'15),
//!   §IV.D's case study: the emission domain restricted to the smallest cell
//!   set carrying prior mass ≥ 1−δ, with the Eq. (21) posterior update.
//!   Its restricted mechanism reads a Planar Laplace kernel through each
//!   cell's surrogate and keeps one normalizer per set cell, `O(m)` too.
//! * [`UniformMechanism`] — the baseline: the α→0 limit that §IV.C's
//!   convergence argument relies on; it stores only `m`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delta_loc;
mod error;
mod mechanism;
mod planar_laplace;
mod simple;

pub use delta_loc::{DeltaLocationSet, PosteriorTracker};
pub use error::LppmError;
pub use mechanism::Lppm;
pub use planar_laplace::PlanarLaplace;
pub use simple::UniformMechanism;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LppmError>;
