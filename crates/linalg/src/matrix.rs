use crate::{LinalgError, Result, Vector, STOCHASTIC_TOL};

/// Owned dense row-major matrix of `f64`.
///
/// Rows index the *source* state and columns the *destination* state for all
/// Markov transition matrices in the workspace, matching the paper's
/// convention `p_{t+1} = p_t · M`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_flat",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] for an empty row list and
    /// [`LinalgError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a diagonal matrix with `diag` on the diagonal (the paper's
    /// `a^D` notation).
    pub fn from_diag(diag: &Vector) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = diag[i];
        }
        m
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

    /// Entry accessor.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a [`Vector`].
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn col(&self, c: usize) -> Vector {
        assert!(c < self.cols, "column {c} out of range");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Immutable view of the flat row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row-vector × matrix product `x · M` (forward recurrence orientation).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vecmat(&self, x: &Vector) -> Vector {
        self.try_vecmat(x).expect("vecmat dimension mismatch")
    }

    /// Fallible variant of [`Matrix::vecmat`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn try_vecmat(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "vecmat",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.as_slice().iter().enumerate() {
            if xr == 0.0 {
                continue; // lifted vectors are often half-zero
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &m) in out.iter_mut().zip(row) {
                *o += xr * m;
            }
        }
        Ok(Vector::from(out))
    }

    /// Allocation-free `x · M`: accumulates into `out` (overwritten).
    ///
    /// # Panics
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn vecmat_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "vecmat_into input length");
        assert_eq!(out.len(), self.cols, "vecmat_into output length");
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &m) in out.iter_mut().zip(row) {
                *o += xr * m;
            }
        }
    }

    /// Matrix × column-vector product `M · x` (suffix/backward orientation).
    ///
    /// # Panics
    /// Panics if `x.len() != cols` (see [`Matrix::try_matvec`] for the
    /// fallible form).
    pub fn matvec(&self, x: &Vector) -> Vector {
        self.try_matvec(x).expect("matvec dimension mismatch")
    }

    /// Fallible variant of [`Matrix::matvec`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn try_matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let xs = x.as_slice();
        let out: Vec<f64> = (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter().zip(xs).map(|(m, v)| m * v).sum()
            })
            .collect();
        Ok(Vector::from(out))
    }

    /// Allocation-free `M · x`: writes each row's dot product into `out`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_into input length");
        assert_eq!(out.len(), self.rows, "matvec_into output length");
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *o = row.iter().zip(x).map(|(m, v)| m * v).sum();
        }
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: stream through `other` rows for cache friendliness.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "matrix add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "matrix sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "matrix hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op,
                expected: self.rows * self.cols,
                actual: other.rows * other.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * factor).collect(),
        }
    }

    /// Right-multiplies by a diagonal matrix: `self · diag(d)`, i.e. scales
    /// column `j` by `d[j]`. This is the paper's ubiquitous `M · p̃^D` step
    /// done in `O(rows·cols)` without materializing the diagonal.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `d.len() != cols`.
    pub fn scale_cols(&self, d: &Vector) -> Result<Matrix> {
        if d.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "scale_cols",
                expected: self.cols,
                actual: d.len(),
            });
        }
        let mut out = self.clone();
        for r in 0..self.rows {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                *v *= d[c];
            }
        }
        Ok(out)
    }

    /// Left-multiplies by a diagonal matrix: `diag(d) · self`, i.e. scales
    /// row `i` by `d[i]`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `d.len() != rows`.
    pub fn scale_rows(&self, d: &Vector) -> Result<Matrix> {
        if d.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "scale_rows",
                expected: self.rows,
                actual: d.len(),
            });
        }
        let mut out = self.clone();
        for r in 0..self.rows {
            let f = d[r];
            for v in out.row_mut(r) {
                *v *= f;
            }
        }
        Ok(out)
    }

    /// Assembles a `2×2` block matrix
    /// `[[tl, tr], [bl, br]]` — the shape of every lifted two-world
    /// transition matrix (paper Eq. (3)).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] unless all four blocks are
    /// square with identical dimensions.
    pub fn from_blocks(tl: &Matrix, tr: &Matrix, bl: &Matrix, br: &Matrix) -> Result<Matrix> {
        let n = tl.rows;
        for (name, b) in [("tl", tl), ("tr", tr), ("bl", bl), ("br", br)] {
            if b.rows != n || b.cols != n {
                let _ = name;
                return Err(LinalgError::DimensionMismatch {
                    op: "from_blocks",
                    expected: n,
                    actual: if b.rows != n { b.rows } else { b.cols },
                });
            }
        }
        let mut out = Matrix::zeros(2 * n, 2 * n);
        for r in 0..n {
            out.data[r * 2 * n..r * 2 * n + n].copy_from_slice(tl.row(r));
            out.data[r * 2 * n + n..(r + 1) * 2 * n].copy_from_slice(tr.row(r));
            let br_off = (n + r) * 2 * n;
            out.data[br_off..br_off + n].copy_from_slice(bl.row(r));
            out.data[br_off + n..br_off + 2 * n].copy_from_slice(br.row(r));
        }
        Ok(out)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Sum of every entry.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Validates that the matrix is row-stochastic: every entry non-negative
    /// and every row summing to 1 within [`STOCHASTIC_TOL`] × `cols`.
    ///
    /// # Errors
    /// [`LinalgError::NegativeEntry`] or [`LinalgError::NotStochastic`].
    pub fn validate_stochastic(&self) -> Result<()> {
        let tol = STOCHASTIC_TOL * (self.cols.max(1) as f64);
        for r in 0..self.rows {
            let mut sum = 0.0;
            for (c, &x) in self.row(r).iter().enumerate() {
                if x < -STOCHASTIC_TOL {
                    return Err(LinalgError::NegativeEntry {
                        index: r * self.cols + c,
                        value: x,
                    });
                }
                sum += x;
            }
            if (sum - 1.0).abs() > tol {
                return Err(LinalgError::NotStochastic { row: r, sum });
            }
        }
        Ok(())
    }

    /// Normalizes every row to sum to 1 in place. Rows summing to zero are
    /// replaced by the uniform distribution (the conventional fix when
    /// training Markov chains from sparse counts).
    pub fn normalize_rows_mut(&mut self) {
        let cols = self.cols;
        for r in 0..self.rows {
            let row = &mut self.data[r * cols..(r + 1) * cols];
            let s: f64 = row.iter().sum();
            if s > 0.0 {
                for v in row.iter_mut() {
                    *v /= s;
                }
            } else {
                let u = 1.0 / cols as f64;
                for v in row.iter_mut() {
                    *v = u;
                }
            }
        }
    }

    /// Maximum absolute entry-wise difference to `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch (diagnostic helper).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_m() -> Matrix {
        // Transition matrix from paper Example III.1, Eq. (2).
        Matrix::from_rows(&[
            vec![0.1, 0.2, 0.7],
            vec![0.4, 0.1, 0.5],
            vec![0.0, 0.1, 0.9],
        ])
        .unwrap()
    }

    #[test]
    fn identity_and_diag() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let d = Matrix::from_diag(&Vector::from(vec![2.0, 3.0]));
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let e = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
        assert!(matches!(e, Err(LinalgError::DimensionMismatch { .. })));
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn from_flat_checks_length() {
        assert!(Matrix::from_flat(2, 2, vec![0.0; 3]).is_err());
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn vecmat_matches_markov_transition() {
        let m = example_m();
        let pi = Vector::from(vec![1.0, 0.0, 0.0]);
        let p2 = m.vecmat(&pi);
        assert_eq!(p2.as_slice(), &[0.1, 0.2, 0.7]);
        let u = Vector::uniform(3);
        let p = m.vecmat(&u);
        assert!((p.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_is_transpose_of_vecmat() {
        let m = example_m();
        let x = Vector::from(vec![0.3, 0.3, 0.4]);
        let a = m.matvec(&x);
        let b = m.transpose().vecmat(&x);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = example_m();
        let i = Matrix::identity(3);
        assert!(m.matmul(&i).unwrap().max_abs_diff(&m) < 1e-15);
        assert!(i.matmul(&m).unwrap().max_abs_diff(&m) < 1e-15);
    }

    #[test]
    fn matmul_associates_with_vecmat() {
        let m = example_m();
        let m2 = m.matmul(&m).unwrap();
        let pi = Vector::from(vec![0.2, 0.5, 0.3]);
        let via_mat = m2.vecmat(&pi);
        let via_vec = m.vecmat(&m.vecmat(&pi));
        assert!(via_mat.max_abs_diff(&via_vec) < 1e-12);
    }

    #[test]
    fn scale_cols_matches_diag_product() {
        let m = example_m();
        let d = Vector::from(vec![0.5, 1.0, 2.0]);
        let fast = m.scale_cols(&d).unwrap();
        let slow = m.matmul(&Matrix::from_diag(&d)).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-15);
    }

    #[test]
    fn scale_rows_matches_diag_product() {
        let m = example_m();
        let d = Vector::from(vec![0.5, 1.0, 2.0]);
        let fast = m.scale_rows(&d).unwrap();
        let slow = Matrix::from_diag(&d).matmul(&m).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-15);
    }

    #[test]
    fn blocks_roundtrip() {
        let m = example_m();
        let z = Matrix::zeros(3, 3);
        let i = Matrix::identity(3);
        let b = Matrix::from_blocks(&m, &z, &z, &i).unwrap();
        assert_eq!(b.rows(), 6);
        assert_eq!(b.get(0, 1), 0.2); // tl
        assert_eq!(b.get(0, 4), 0.0); // tr
        assert_eq!(b.get(4, 4), 1.0); // br
        assert_eq!(b.get(4, 1), 0.0); // bl
    }

    #[test]
    fn block_product_preserves_stochasticity() {
        // A lifted matrix [[M - M s^D, M s^D], [0, M]] must stay stochastic.
        let m = example_m();
        let s = Vector::from(vec![1.0, 1.0, 0.0]);
        let msd = m.scale_cols(&s).unwrap();
        let tl = m.sub(&msd).unwrap();
        let lifted = Matrix::from_blocks(&tl, &msd, &Matrix::zeros(3, 3), &m).unwrap();
        lifted.validate_stochastic().unwrap();
    }

    #[test]
    fn stochastic_validation() {
        example_m().validate_stochastic().unwrap();
        let mut bad = example_m();
        bad.set(0, 0, 0.5);
        assert!(matches!(
            bad.validate_stochastic(),
            Err(LinalgError::NotStochastic { .. })
        ));
        let mut neg = example_m();
        neg.set(0, 0, -0.1);
        assert!(matches!(
            neg.validate_stochastic(),
            Err(LinalgError::NegativeEntry { .. })
        ));
    }

    #[test]
    fn normalize_rows_fixes_zero_rows_to_uniform() {
        let mut m = Matrix::from_rows(&[vec![2.0, 2.0], vec![0.0, 0.0]]).unwrap();
        m.normalize_rows_mut();
        m.validate_stochastic().unwrap();
        assert_eq!(m.row(1), &[0.5, 0.5]);
    }

    #[test]
    fn transpose_involutes() {
        let m = example_m();
        assert!(m.transpose().transpose().max_abs_diff(&m) < 1e-15);
    }

    #[test]
    fn col_extracts_column() {
        let m = example_m();
        assert_eq!(m.col(2).as_slice(), &[0.7, 0.5, 0.9]);
    }
}
