//! Jacobi eigendecomposition for real symmetric matrices. The cyclic
//! Jacobi method is simple, unconditionally stable, and plenty fast for
//! small dense matrices; low-rank inputs converge in a handful of sweeps.

use crate::{LinalgError, Matrix, Result, Vector};

/// Result of a symmetric eigendecomposition `A = V · diag(λ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; `vectors.row(k)` pairs with `values[k]`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Returns the eigenvector paired with `values[k]`.
    pub fn vector(&self, k: usize) -> Vector {
        Vector::from(self.vectors.row(k))
    }

    /// Largest eigenvalue (the decomposition is sorted descending).
    pub fn max_eigenvalue(&self) -> f64 {
        self.values.first().copied().unwrap_or(0.0)
    }

    /// Whether every eigenvalue is ≤ `tol` (negative semi-definiteness up to
    /// tolerance).
    pub fn is_negative_semidefinite(&self, tol: f64) -> bool {
        self.values.iter().all(|&l| l <= tol)
    }
}

/// Maximum Jacobi sweeps before declaring non-convergence. Each sweep is a
/// full pass over all off-diagonal pairs; well-conditioned symmetric matrices
/// converge in ≈ log(n) + 5 sweeps.
const MAX_SWEEPS: usize = 64;

/// Computes the eigendecomposition of a symmetric matrix via the cyclic
/// Jacobi method.
///
/// # Errors
/// * [`LinalgError::NotSymmetric`] if `a` deviates from symmetry by more than
///   `1e-8 × max|a|`.
/// * [`LinalgError::NoConvergence`] if the off-diagonal mass does not vanish
///   within the 64-sweep internal cap (practically unreachable for finite input).
/// * [`LinalgError::Empty`] for a 0×0 input.
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty {
            op: "symmetric_eigen",
        });
    }
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigen",
            expected: a.rows(),
            actual: a.cols(),
        });
    }
    let scale = a.max_abs().max(1.0);
    let mut max_asym = 0.0_f64;
    for r in 0..n {
        for c in (r + 1)..n {
            max_asym = max_asym.max((a.get(r, c) - a.get(c, r)).abs());
        }
    }
    if max_asym > 1e-8 * scale {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: max_asym,
        });
    }

    // Work on a copy; accumulate rotations in `v` (row k = eigenvector k
    // after the final transpose-free bookkeeping below).
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let off_tol = 1e-14 * scale * (n as f64);

    for sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += m.get(r, c).abs();
            }
        }
        if off <= off_tol {
            return Ok(finish(m, v, n));
        }
        let _ = sweep;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= off_tol / (n * n) as f64 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Classic stable rotation computation (Golub & Van Loan §8.4).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let cos = 1.0 / (1.0 + t * t).sqrt();
                let sin = t * cos;

                // Apply the rotation to rows/columns p and q of `m`.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, cos * mkp - sin * mkq);
                    m.set(k, q, sin * mkp + cos * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, cos * mpk - sin * mqk);
                    m.set(q, k, sin * mpk + cos * mqk);
                }
                // Accumulate into the eigenvector matrix (columns rotate).
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, cos * vkp - sin * vkq);
                    v.set(k, q, sin * vkp + cos * vkq);
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        op: "symmetric_eigen",
        iterations: MAX_SWEEPS,
    })
}

fn finish(m: Matrix, v: Matrix, n: usize) -> SymmetricEigen {
    // Diagonal of `m` holds eigenvalues; column k of `v` the eigenvector.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&i, &j| {
        diag[j]
            .partial_cmp(&diag[i])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (row, &k) in order.iter().enumerate() {
        for c in 0..n {
            vectors.set(row, c, v.get(c, k));
        }
    }
    SymmetricEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.values.len();
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let vk = e.vector(k);
            let contrib = Matrix::outer(&vk, &vk).scale(e.values[k]);
            out = out.add(&contrib).unwrap();
        }
        out
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let a = Matrix::from_diag(&Vector::from(vec![3.0, -1.0, 2.0]));
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, -1.0]);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.0],
            vec![-2.0, 0.0, 3.0],
        ])
        .unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!(reconstruct(&e).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.5, 0.2],
            vec![0.5, 1.0, 0.3],
            vec![0.2, 0.3, 1.0],
        ])
        .unwrap();
        let e = symmetric_eigen(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let d = e.vector(i).dot(&e.vector(j)).unwrap();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "({i},{j}) dot = {d}");
            }
        }
    }

    #[test]
    fn rank_one_outer_product_spectrum() {
        // aᵀa has the single nonzero eigenvalue ‖a‖².
        let a = Vector::from(vec![1.0, 2.0, 2.0]);
        let m = Matrix::outer(&a, &a);
        let e = symmetric_eigen(&m).unwrap();
        assert!((e.values[0] - 9.0).abs() < 1e-10);
        assert!(e.values[1].abs() < 1e-10);
        assert!(e.values[2].abs() < 1e-10);
    }

    #[test]
    fn nsd_certificate() {
        let a = Matrix::from_diag(&Vector::from(vec![-1.0, -0.5]));
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.is_negative_semidefinite(1e-12));
        let b = Matrix::from_diag(&Vector::from(vec![0.5, -0.5]));
        assert!(!symmetric_eigen(&b).unwrap().is_negative_semidefinite(1e-12));
    }

    #[test]
    fn rejects_asymmetric_input() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_empty_input() {
        let a = Matrix::zeros(0, 0);
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![5.0]);
    }
}
