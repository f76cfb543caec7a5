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
//! * [`par`] — the workspace's one fan-out helper ([`par::map_chunks`]):
//!   contiguous chunks on scoped threads, results in input order, and the
//!   one `threads` rule (`0` = one worker per available core).
//!
//! All operations are deterministic; no randomness lives in this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod matrix;
pub mod par;
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

/// Whether every entry is finite and not below zero (`-0.0` counts as
/// zero): the check every emission column passes. It reads bits, without
/// a branch per entry, so it vectorizes: a non-negative finite `f64` is
/// one whose bits lie below those of `+∞`, and `-0.0` is the sign bit
/// alone.
pub fn all_non_negative_finite(xs: &[f64]) -> bool {
    const INFINITY: u64 = f64::INFINITY.to_bits();
    const NEG_ZERO: u64 = (-0.0f64).to_bits();
    xs.iter().fold(true, |ok, x| {
        let bits = x.to_bits();
        ok & ((bits < INFINITY) | (bits == NEG_ZERO))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip_smoke() {
        let m = Matrix::identity(3);
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(m.vecmat(&v).as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_negative_finite_matches_the_float_comparisons() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in values {
            let invalid = x < 0.0 || !x.is_finite();
            assert_eq!(all_non_negative_finite(&[x]), !invalid, "{x:?}");
            assert_eq!(all_non_negative_finite(&[0.5, x, 0.25]), !invalid, "{x:?}");
        }
        assert!(all_non_negative_finite(&[]));
    }
}
