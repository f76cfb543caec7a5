//! Backend-polymorphic transition matrices with a density cutover.
//!
//! Real mobility chains are banded: from any cell, mass only reaches nearby
//! cells, so the `m × m` transition matrix holds `O(m · band)` non-zeros.
//! [`TransitionMatrix`] lets every consumer of [`TransitionProvider`]
//! (engine, incremental quantifier, session manager, …) run against either a
//! dense [`Matrix`] or a CSR [`SparseMatrix`] without caring which — the
//! forward/backward products dispatch to the backend, costing `O(m²)` or
//! `O(nnz)` respectively.
//!
//! The cutover rule: CSR wins while the fill ratio stays below
//! [`SPARSE_DENSITY_CUTOVER`]. Above it, the indirection and scattered writes
//! of CSR lose to the dense kernel's sequential streaming, so
//! [`TransitionMatrix::auto`] keeps the blocked dense path. [`MarkovModel::new`]
//! applies that rule to every dense matrix it is given, so a chain picks its
//! own backend; [`MarkovModel::new_sparse`] and
//! [`MarkovModel::from_transition_matrix`] keep an explicit choice.
//!
//! [`MarkovModel::new`]: crate::MarkovModel::new
//! [`MarkovModel::new_sparse`]: crate::MarkovModel::new_sparse
//! [`MarkovModel::from_transition_matrix`]: crate::MarkovModel::from_transition_matrix
//!
//! [`TransitionProvider`]: crate::TransitionProvider

use priste_linalg::{Matrix, Result as LinalgResult, SparseMatrix, Vector};
use rand::Rng;

/// Fill ratio `nnz/m²` above which the dense backend is preferred.
///
/// CSR trades sequential streaming for an index indirection per entry; on
/// the row-oriented products used here it stops paying for itself somewhere
/// between 25% and 50% fill. We cut over in the middle of that band: a
/// matrix more than ~⅓ full runs dense.
pub const SPARSE_DENSITY_CUTOVER: f64 = 0.35;

/// A transition matrix with a dense or sparse (CSR) backend.
///
/// Both backends expose identical product semantics: the sparse kernels skip
/// only structurally-zero terms, whose contribution to any sum is a literal
/// `+ 0.0`, so a [`TransitionMatrix::Sparse`] built by
/// [`SparseMatrix::from_dense`] with threshold `0.0` reproduces the dense
/// results bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionMatrix {
    /// Blocked dense backend (row-major [`Matrix`]).
    Dense(Matrix),
    /// CSR backend for banded/sparse chains.
    Sparse(SparseMatrix),
}

impl TransitionMatrix {
    /// Picks the backend for a dense matrix by the density cutover: CSR when
    /// the fill ratio is at most [`SPARSE_DENSITY_CUTOVER`], dense otherwise.
    pub fn auto(m: Matrix) -> TransitionMatrix {
        let cells = m.rows() * m.cols();
        if cells == 0 {
            return TransitionMatrix::Dense(m);
        }
        let nnz = m.as_slice().iter().filter(|&&v| v != 0.0).count();
        if nnz as f64 / cells as f64 <= SPARSE_DENSITY_CUTOVER {
            TransitionMatrix::Sparse(SparseMatrix::from_dense(&m, 0.0))
        } else {
            TransitionMatrix::Dense(m)
        }
    }

    /// Whether the CSR backend is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self, TransitionMatrix::Sparse(_))
    }

    /// Dense backend view, if active.
    pub fn as_dense(&self) -> Option<&Matrix> {
        match self {
            TransitionMatrix::Dense(m) => Some(m),
            TransitionMatrix::Sparse(_) => None,
        }
    }

    /// Sparse backend view, if active.
    pub fn as_sparse(&self) -> Option<&SparseMatrix> {
        match self {
            TransitionMatrix::Dense(_) => None,
            TransitionMatrix::Sparse(s) => Some(s),
        }
    }

    /// Materializes a dense copy regardless of backend (`O(m²)` memory —
    /// oracle/test path).
    pub fn to_dense_matrix(&self) -> Matrix {
        match self {
            TransitionMatrix::Dense(m) => m.clone(),
            TransitionMatrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            TransitionMatrix::Dense(m) => m.rows(),
            TransitionMatrix::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            TransitionMatrix::Dense(m) => m.cols(),
            TransitionMatrix::Sparse(s) => s.cols(),
        }
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows() == self.cols()
    }

    /// Stored non-zero count: structural for CSR, exact for dense.
    pub fn nnz(&self) -> usize {
        match self {
            TransitionMatrix::Dense(m) => m.as_slice().iter().filter(|&&v| v != 0.0).count(),
            TransitionMatrix::Sparse(s) => s.nnz(),
        }
    }

    /// Fill ratio `nnz / m²`.
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            TransitionMatrix::Dense(m) => m.get(r, c),
            TransitionMatrix::Sparse(s) => s.get(r, c),
        }
    }

    /// Row-vector × matrix product `x · M` (forward orientation).
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &Vector) -> Vector {
        match self {
            TransitionMatrix::Dense(m) => m.vecmat(x),
            TransitionMatrix::Sparse(s) => s.vecmat(x),
        }
    }

    /// Fallible variant of [`TransitionMatrix::vecmat`].
    ///
    /// # Errors
    /// Dimension mismatch from the backend.
    pub fn try_vecmat(&self, x: &Vector) -> LinalgResult<Vector> {
        match self {
            TransitionMatrix::Dense(m) => m.try_vecmat(x),
            TransitionMatrix::Sparse(s) => s.try_vecmat(x),
        }
    }

    /// Allocation-free `x · M` into `out` (overwritten).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn vecmat_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            TransitionMatrix::Dense(m) => m.vecmat_into(x, out),
            TransitionMatrix::Sparse(s) => s.vecmat_into(x, out),
        }
    }

    /// Matrix × column-vector product `M · x` (suffix/backward orientation).
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        match self {
            TransitionMatrix::Dense(m) => m.matvec(x),
            TransitionMatrix::Sparse(s) => s.matvec(x),
        }
    }

    /// Allocation-free `M · x` into `out`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            TransitionMatrix::Dense(m) => m.matvec_into(x, out),
            TransitionMatrix::Sparse(s) => s.matvec_into(x, out),
        }
    }

    /// Validates row-stochasticity on the active backend.
    ///
    /// # Errors
    /// As [`Matrix::validate_stochastic`] / [`SparseMatrix::validate_stochastic`].
    pub fn validate_stochastic(&self) -> LinalgResult<()> {
        match self {
            TransitionMatrix::Dense(m) => m.validate_stochastic(),
            TransitionMatrix::Sparse(s) => s.validate_stochastic(),
        }
    }

    /// Samples a next state from row `r`'s categorical distribution. CSR
    /// rows sample among the stored entries only (structural zeros carry no
    /// probability mass by construction).
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    pub fn sample_row<R: Rng + ?Sized>(&self, r: usize, rng: &mut R) -> usize {
        match self {
            TransitionMatrix::Dense(m) => crate::model::sample_categorical(m.row(r), rng),
            TransitionMatrix::Sparse(s) => {
                let (cols, vals) = s.row_entries(r);
                cols[crate::model::sample_categorical(vals, rng)] as usize
            }
        }
    }
}

impl From<Matrix> for TransitionMatrix {
    fn from(m: Matrix) -> Self {
        TransitionMatrix::Dense(m)
    }
}

impl From<SparseMatrix> for TransitionMatrix {
    fn from(s: SparseMatrix) -> Self {
        TransitionMatrix::Sparse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded4() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.25, 0.5, 0.25, 0.0],
            vec![0.0, 0.25, 0.5, 0.25],
            vec![0.0, 0.0, 0.5, 0.5],
        ])
        .unwrap()
    }

    #[test]
    fn auto_picks_sparse_below_cutover_and_dense_above() {
        // Density 10/16 = 0.625 > 0.35 → dense.
        let dense_pick = TransitionMatrix::auto(banded4());
        assert!(!dense_pick.is_sparse());
        assert!(dense_pick.as_dense().is_some());

        // Identity: density 4/16 = 0.25 ≤ 0.35 → sparse.
        let sparse_pick = TransitionMatrix::auto(Matrix::identity(4));
        assert!(sparse_pick.is_sparse());
        assert_eq!(sparse_pick.nnz(), 4);
    }

    #[test]
    fn auto_cutover_boundary_is_inclusive_for_sparse() {
        // 8×8 with exactly ⌊0.35·64⌋ = 22 non-zeros → density 0.34375 ≤ 0.35
        // stays sparse; 23 non-zeros → 0.359… > 0.35 goes dense.
        let mut m = Matrix::zeros(8, 8);
        for k in 0..22 {
            m.set(k / 8, k % 8, 1.0);
        }
        // Make rows stochastic-ish is irrelevant here; auto() only counts.
        assert!(TransitionMatrix::auto(m.clone()).is_sparse());
        m.set(22 / 8, 22 % 8, 1.0);
        assert!(!TransitionMatrix::auto(m).is_sparse());
    }

    #[test]
    fn products_agree_across_backends_bitwise() {
        let d = banded4();
        let tm_d = TransitionMatrix::Dense(d.clone());
        let tm_s = TransitionMatrix::Sparse(SparseMatrix::from_dense(&d, 0.0));
        let x = Vector::from(vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(tm_d.vecmat(&x).as_slice(), tm_s.vecmat(&x).as_slice());
        assert_eq!(tm_d.matvec(&x).as_slice(), tm_s.matvec(&x).as_slice());
        assert_eq!(tm_d.get(1, 2), tm_s.get(1, 2));
        assert_eq!(tm_d.nnz(), tm_s.nnz());
        assert_eq!(tm_d.to_dense_matrix(), tm_s.to_dense_matrix());
    }

    #[test]
    fn sample_row_respects_structural_zeros() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tm = TransitionMatrix::Sparse(SparseMatrix::from_dense(&banded4(), 0.0));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let next = tm.sample_row(0, &mut rng);
            assert!(next < 2, "row 0 only reaches columns 0 and 1, got {next}");
        }
    }
}
