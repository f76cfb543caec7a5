//! Markov mobility models for PriSTE.
//!
//! The paper models temporal correlation in a user's movement with a
//! first-order time-homogeneous Markov chain over the `m` grid cells
//! (§III.A), trained from the user's full trajectory (§V.A trains with R's
//! `markovchain` on Geolife) or synthesized from a two-dimensional Gaussian
//! kernel with scale `σ` (§V.A synthetic data). Footnotes 2–3 note that the
//! machinery extends to higher-order and time-varying chains; the
//! [`TransitionProvider`] trait is that extension point, and the
//! quantification engine consumes transitions exclusively through it.
//!
//! Contents:
//!
//! * [`MarkovModel`] — validated row-stochastic transition matrix with
//!   propagation, sampling and analysis helpers; it keeps the matrix on
//!   the backend its fill calls for.
//! * [`train_mle`] / [`TransitionCounts`] — maximum-likelihood estimation
//!   from observed state sequences with additive smoothing (replaces the R
//!   `markovchain` dependency).
//! * [`gaussian_kernel_chain`] / [`gaussian_kernel_chain_sparse`] — the
//!   §V.A synthetic world generator, dense and truncated-banded CSR.
//! * [`stationary_distribution`] — power-iteration stationary analysis.
//! * [`TransitionMatrix`] — dense/CSR backend enum with the
//!   [`SPARSE_DENSITY_CUTOVER`] auto-selection rule that
//!   [`MarkovModel::new`] applies.
//! * [`TransitionProvider`], [`Homogeneous`], [`TimeVarying`] — the chain
//!   abstraction used by `priste-quantify`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod model;
mod provider;
mod stationary;
mod synthetic;
mod train;
mod transition;

pub use model::{MarkovError, MarkovModel};
pub use provider::{Homogeneous, TimeVarying, TransitionProvider};
pub use stationary::{stationary_distribution, total_variation};
pub use synthetic::{
    gaussian_kernel_chain, gaussian_kernel_chain_sparse, SPARSE_KERNEL_TRUNCATION,
};
pub use train::{train_mle, TransitionCounts};
pub use transition::{TransitionMatrix, SPARSE_DENSITY_CUTOVER};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MarkovError>;
