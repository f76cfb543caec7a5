//! Compressed sparse row (CSR) matrices for banded mobility kernels.
//!
//! Real mobility transitions are sparse: from any grid cell, mass only flows
//! to nearby cells, so a truncated Gaussian kernel over an `m`-cell grid has
//! `O(m · band)` non-zeros instead of `m²`. [`SparseMatrix`] stores exactly
//! the non-zero entries in CSR form so the forward (`x · M`) and backward
//! (`M · x`) products that dominate the quantification engine cost `O(nnz)`
//! per application. The dense [`Matrix`](crate::Matrix) stays the backend of
//! choice for genuinely dense chains; a Markov chain picks between the two
//! itself by a density cutover (see `priste_markov::TransitionMatrix` and
//! `priste_markov::MarkovModel::new`), so callers need not choose.

use crate::{LinalgError, Matrix, Result, Vector, STOCHASTIC_TOL};

/// A sparse matrix in compressed sparse row (CSR) layout.
///
/// Row `r`'s entries live at positions `row_ptr[r]..row_ptr[r+1]` of
/// `col_idx`/`values`, with column indices strictly increasing within each
/// row. Only structurally stored entries participate in products — a stored
/// explicit zero is allowed but wasteful.
///
/// Column indices are `u32`: 12 bytes per stored entry instead of 16, so a
/// matrix has at most [`SparseMatrix::MAX_COLS`] (2³²) columns. Row offsets
/// stay `usize`, since `nnz` may exceed 2³².
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// The most columns a `u32` column index can address: 2³².
    pub const MAX_COLS: usize = (u32::MAX as usize).saturating_add(1);

    /// Wraps raw CSR arrays after validating them.
    ///
    /// Row `r`'s entries are `col_idx[row_ptr[r]..row_ptr[r+1]]` and the
    /// matching `values`; `row_ptr` has `rows + 1` non-decreasing offsets,
    /// starts at 0 and ends at `nnz = col_idx.len() = values.len()`, each
    /// row's columns are in range and strictly increasing, and `cols` is at
    /// most [`SparseMatrix::MAX_COLS`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] naming the first violated
    /// rule.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let mismatch = |op, expected, actual| {
            Err(LinalgError::DimensionMismatch {
                op,
                expected,
                actual,
            })
        };
        if cols > Self::MAX_COLS {
            return mismatch("sparse from_csr column count", Self::MAX_COLS, cols);
        }
        let nnz = col_idx.len();
        if values.len() != nnz {
            return mismatch("sparse from_csr values length", nnz, values.len());
        }
        if row_ptr.len().checked_sub(1) != Some(rows) {
            let expected = rows.saturating_add(1);
            return mismatch("sparse from_csr row_ptr length", expected, row_ptr.len());
        }
        if row_ptr[0] != 0 {
            return mismatch("sparse from_csr row_ptr start", 0, row_ptr[0]);
        }
        if row_ptr[rows] != nnz {
            return mismatch("sparse from_csr row_ptr end", nnz, row_ptr[rows]);
        }
        if let Some(w) = row_ptr.windows(2).find(|w| w[1] < w[0]) {
            return mismatch("sparse from_csr row_ptr order", w[0], w[1]);
        }
        for w in row_ptr.windows(2) {
            // Strictly increasing columns are all in range if the last is.
            let row = &col_idx[w[0]..w[1]];
            if let Some(k) = row.windows(2).position(|p| p[0] >= p[1]) {
                return mismatch(
                    "sparse from_csr column order",
                    row[k] as usize,
                    row[k + 1] as usize,
                );
            }
            if let Some(&c) = row.last().filter(|&&c| c as usize >= cols) {
                return mismatch("sparse from_csr column", cols, c as usize);
            }
        }
        Ok(SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Compresses a dense matrix, dropping entries with `|v| <= drop_tol`.
    ///
    /// With `drop_tol = 0.0` only exact zeros are dropped, so
    /// [`SparseMatrix::to_dense`] reproduces the input bit-for-bit and every
    /// product agrees with the dense one exactly (skipped terms contribute
    /// literal `0.0` additions).
    ///
    /// # Panics
    /// Panics if `m` has more than [`SparseMatrix::MAX_COLS`] columns.
    pub fn from_dense(m: &Matrix, drop_tol: f64) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        assert!(cols <= Self::MAX_COLS, "sparse column indices are u32");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v.abs() > drop_tol {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the dense equivalent (test/oracle path; `O(m²)` memory).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cs, vs) = self.row_entries(r);
            for (&c, &v) in cs.iter().zip(vs) {
                out.set(r, c as usize, v);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill ratio `nnz / (rows · cols)`; 0 for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Entry at `(r, c)`; structurally missing entries read as `0.0`.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "sparse get out of bounds");
        let (cs, vs) = self.row_entries(r);
        // `c < cols <= MAX_COLS`, so it fits a `u32`.
        match cs.binary_search(&(c as u32)) {
            Ok(k) => vs[k],
            Err(_) => 0.0,
        }
    }

    /// Column indices and values of row `r`'s stored entries.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    pub fn row_entries(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Row-vector × matrix product `x · M` (forward orientation).
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &Vector) -> Vector {
        self.try_vecmat(x)
            .expect("sparse vecmat dimension mismatch")
    }

    /// Fallible variant of [`SparseMatrix::vecmat`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn try_vecmat(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse vecmat",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        self.vecmat_into(x.as_slice(), &mut out);
        Ok(Vector::from(out))
    }

    /// Allocation-free `x · M`: accumulates into `out` (overwritten).
    ///
    /// # Panics
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn vecmat_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "sparse vecmat_into input length");
        assert_eq!(out.len(), self.cols, "sparse vecmat_into output length");
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue; // lifted vectors are often half-zero
            }
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                out[c as usize] += xr * v;
            }
        }
    }

    /// Matrix × column-vector product `M · x` (suffix/backward orientation).
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        self.try_matvec(x)
            .expect("sparse matvec dimension mismatch")
    }

    /// Fallible variant of [`SparseMatrix::matvec`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn try_matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x.as_slice(), &mut out);
        Ok(Vector::from(out))
    }

    /// Allocation-free `M · x`: writes each row's dot product into `out`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "sparse matvec_into input length");
        assert_eq!(out.len(), self.rows, "sparse matvec_into output length");
        for (r, o) in out.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            *o = self.col_idx[lo..hi]
                .iter()
                .zip(&self.values[lo..hi])
                .map(|(&c, &v)| v * x[c as usize])
                .sum();
        }
    }

    /// Right-multiplication by a diagonal matrix: `M · diag(d)`, i.e. column
    /// `c` scaled by `d[c]`. Structure is preserved (scaled-to-zero entries
    /// stay stored).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `d.len() != cols`.
    pub fn scale_cols(&self, d: &Vector) -> Result<SparseMatrix> {
        if d.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse scale_cols",
                expected: self.cols,
                actual: d.len(),
            });
        }
        let mut out = self.clone();
        for (v, &c) in out.values.iter_mut().zip(&out.col_idx) {
            *v *= d[c as usize];
        }
        Ok(out)
    }

    /// Normalizes every row to sum to 1 in place. Rows with no stored mass
    /// are left untouched (a CSR row cannot be densified to uniform without
    /// changing the structure; callers building chains must give every row
    /// at least its self-loop).
    pub fn normalize_rows_mut(&mut self) {
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let s: f64 = self.values[lo..hi].iter().sum();
            if s > 0.0 {
                for v in &mut self.values[lo..hi] {
                    *v /= s;
                }
            }
        }
    }

    /// Validates row-stochasticity over the stored entries, mirroring
    /// [`Matrix::validate_stochastic`].
    ///
    /// # Errors
    /// [`LinalgError::NegativeEntry`] or [`LinalgError::NotStochastic`].
    pub fn validate_stochastic(&self) -> Result<()> {
        let tol = STOCHASTIC_TOL * (self.cols.max(1) as f64);
        for r in 0..self.rows {
            let (cs, vs) = self.row_entries(r);
            let mut sum = 0.0;
            for (&c, &v) in cs.iter().zip(vs) {
                if v < -STOCHASTIC_TOL {
                    return Err(LinalgError::NegativeEntry {
                        index: r * self.cols + c as usize,
                        value: v,
                    });
                }
                sum += v;
            }
            if (sum - 1.0).abs() > tol {
                return Err(LinalgError::NotStochastic { row: r, sum });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense3() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, 0.5, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.25, 0.0, 0.75],
        ])
        .unwrap()
    }

    #[test]
    fn from_dense_roundtrips_and_counts_nnz() {
        let d = dense3();
        let s = SparseMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 5);
        assert!((s.density() - 5.0 / 9.0).abs() < 1e-15);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn drop_tolerance_prunes_small_entries() {
        let d = Matrix::from_rows(&[vec![1e-13, 1.0], vec![0.5, 0.5]]).unwrap();
        let s = SparseMatrix::from_dense(&d, 1e-12);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(0, 1), 1.0);
    }

    #[test]
    fn vecmat_and_matvec_match_dense() {
        let d = dense3();
        let s = SparseMatrix::from_dense(&d, 0.0);
        let x = Vector::from(vec![0.2, 0.3, 0.5]);
        assert_eq!(s.vecmat(&x).as_slice(), d.vecmat(&x).as_slice());
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let s = SparseMatrix::from_dense(&dense3(), 0.0);
        let x = Vector::from(vec![0.1, 0.0, 0.9]);
        let mut buf = vec![7.0; 3];
        s.vecmat_into(x.as_slice(), &mut buf);
        assert_eq!(buf, s.vecmat(&x).as_slice());
        s.matvec_into(x.as_slice(), &mut buf);
        assert_eq!(buf, s.matvec(&x).as_slice());
    }

    #[test]
    fn scale_cols_matches_dense() {
        let d = dense3();
        let s = SparseMatrix::from_dense(&d, 0.0);
        let diag = Vector::from(vec![2.0, 0.0, 1.0]);
        let scaled = s.scale_cols(&diag).unwrap();
        assert_eq!(scaled.to_dense(), d.scale_cols(&diag).unwrap());
        assert!(scaled.scale_cols(&Vector::ones(2)).is_err());
    }

    #[test]
    fn from_csr_validates_structure_order_and_range() {
        let csr = |rows, cols, p: &[usize], c: &[u32], v: &[f64]| {
            SparseMatrix::from_csr(rows, cols, p.to_vec(), c.to_vec(), v.to_vec())
        };
        let ok = csr(2, 3, &[0, 2, 2], &[0, 2], &[1.0, 2.0]).unwrap();
        assert_eq!(ok.get(0, 2), 2.0);
        assert_eq!(ok.row_entries(1).0.len(), 0);
        // Column out of range, repeated, and decreasing within a row.
        assert!(csr(2, 3, &[0, 1, 1], &[3], &[1.0]).is_err());
        assert!(csr(2, 3, &[0, 2, 2], &[1, 1], &[1.0, 2.0]).is_err());
        assert!(csr(2, 3, &[0, 2, 2], &[2, 0], &[1.0, 2.0]).is_err());
        // A decreasing column across a row boundary is fine.
        assert!(csr(2, 3, &[0, 1, 2], &[2, 0], &[1.0, 2.0]).is_ok());
        // row_ptr of the wrong length, not starting at 0, non-monotone, or
        // not ending at nnz.
        assert!(csr(1, 3, &[0, 0, 0], &[], &[]).is_err());
        assert!(csr(1, 3, &[1, 1], &[0], &[1.0]).is_err());
        assert!(csr(2, 3, &[0, 3, 2], &[0, 1], &[1.0, 2.0]).is_err());
        assert!(csr(2, 3, &[0, 1, 1], &[0, 1], &[1.0, 2.0]).is_err());
        assert!(csr(2, 3, &[0, 1, 3], &[0, 1], &[1.0, 2.0]).is_err());
        // More columns than a u32 index can address.
        assert!(csr(0, SparseMatrix::MAX_COLS + 1, &[0], &[], &[]).is_err());
        assert!(csr(0, SparseMatrix::MAX_COLS, &[0], &[], &[]).is_ok());
        // col_idx and values of different lengths.
        assert!(csr(1, 3, &[0, 2], &[0, 1], &[1.0]).is_err());
        assert!(csr(1, 3, &[0, 1], &[0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn validate_stochastic_mirrors_dense_rules() {
        let mut s = SparseMatrix::from_dense(&dense3(), 0.0);
        s.validate_stochastic().unwrap();
        s = SparseMatrix::from_csr(1, 2, vec![0, 2], vec![0, 1], vec![0.4, 0.4]).unwrap();
        assert!(matches!(
            s.validate_stochastic(),
            Err(LinalgError::NotStochastic { row: 0, .. })
        ));
        s = SparseMatrix::from_csr(1, 2, vec![0, 2], vec![0, 1], vec![-0.5, 1.5]).unwrap();
        assert!(matches!(
            s.validate_stochastic(),
            Err(LinalgError::NegativeEntry { .. })
        ));
    }

    #[test]
    fn normalize_rows_skips_empty_rows() {
        let mut s =
            SparseMatrix::from_csr(2, 2, vec![0, 2, 2], vec![0, 1], vec![2.0, 6.0]).unwrap();
        s.normalize_rows_mut();
        assert!((s.get(0, 0) - 0.25).abs() < 1e-15);
        assert!((s.get(0, 1) - 0.75).abs() < 1e-15);
        assert_eq!(s.row_entries(1).0.len(), 0);
    }

    #[test]
    fn empty_shape_has_zero_density() {
        let s = SparseMatrix::from_csr(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.nnz(), 0);
    }
}
