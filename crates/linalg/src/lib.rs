//! Dense `f64` linear algebra substrate for the PriSTE workspace.
//!
//! The PriSTE quantification engine (lifted two-possible-world Markov
//! products, forward–backward recurrences, Theorem IV.1 quadratic forms)
//! needs a small, predictable set of dense operations over probability
//! vectors and row-stochastic matrices. Owning the kernel — instead of
//! pulling a general-purpose linear algebra crate — lets the engine exploit
//! the block structure of lifted `2m×2m` matrices (four structured `m×m`
//! blocks) and keeps numerical behaviour fully under our control.
//!
//! Provided here:
//!
//! * [`Vector`] — owned dense row vector with the dot/Hadamard/normalize
//!   operations used by the probability pipelines.
//! * [`Matrix`] — owned row-major dense matrix with matrix–vector products in
//!   both orientations (`x·M` drives forward recurrences, `M·x` drives
//!   backward/suffix products), matrix products, block composition and
//!   stochasticity checks.
//! * [`SparseMatrix`] — compressed sparse row (CSR) storage for banded
//!   mobility kernels, with `O(nnz)` products in both orientations and a
//!   `from_dense(threshold)` compressor; see the density cutover in
//!   `priste_markov`.
//! * [`scaling`] — HMM-style rescaled vectors that keep long products of
//!   sub-stochastic factors inside `f64` range while tracking the logarithm
//!   of the accumulated scale.
//!
//! All operations are deterministic; no randomness lives in this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod matrix;
pub mod scaling;
mod sparse;
mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use sparse::SparseMatrix;
pub use vector::Vector;

/// Convenience result alias for fallible linear algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Absolute tolerance used by stochasticity checks.
///
/// Row sums of trained/synthetic transition matrices accumulate rounding from
/// normalization, and repeated lifted products compound it; `1e-9` is tight
/// enough to catch construction bugs while loose enough for honest rounding.
pub const STOCHASTIC_TOL: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip_smoke() {
        let m = Matrix::identity(3);
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(m.vecmat(&v).as_slice(), &[1.0, 2.0, 3.0]);
    }
}
