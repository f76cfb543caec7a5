use crate::{LinalgError, Result, STOCHASTIC_TOL};

/// Owned dense row vector of `f64`.
///
/// `Vector` is the workhorse for probability distributions (`π`, forward
/// variables `α_t`, backward variables `β_t`) and for the Theorem IV.1
/// coefficient vectors `a`, `b`, `c`. Semantically all PriSTE vectors are
/// *row* vectors; matrix products distinguish `x·M` ([`crate::Matrix::vecmat`])
/// from `M·x` ([`crate::Matrix::matvec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of `n` ones.
    pub fn ones(n: usize) -> Self {
        Vector { data: vec![1.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates the `i`-th standard basis vector of length `n`.
    ///
    /// # Panics
    /// Panics if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for length {n}");
        let mut v = Self::zeros(n);
        v.data[i] = 1.0;
        v
    }

    /// Creates the uniform probability distribution over `n` states.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform distribution over zero states");
        Vector {
            data: vec![1.0 / n as f64; n],
        }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Element-wise (Hadamard) product `self ∘ other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "hadamard",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Element-wise difference `self − other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        })
    }

    /// Returns `self` scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|a| a * factor).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale_mut(&mut self, factor: f64) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Maximum entry; `None` for empty vectors (NaN entries are ignored).
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(if x > m { x } else { m }),
        })
    }

    /// Minimum entry; `None` for empty vectors (NaN entries are ignored).
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(if x < m { x } else { m }),
        })
    }

    /// Largest absolute entry (`0.0` for empty vectors).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Normalizes the vector in place so entries sum to 1.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotDistribution`] if the current sum is zero,
    /// negative, or non-finite (no meaningful normalization exists).
    pub fn normalize_mut(&mut self) -> Result<()> {
        let s = self.sum();
        if !(s.is_finite() && s > 0.0) {
            return Err(LinalgError::NotDistribution { sum: s });
        }
        self.scale_mut(1.0 / s);
        Ok(())
    }

    /// Returns a normalized copy (entries summing to 1).
    ///
    /// # Errors
    /// See [`Vector::normalize_mut`].
    pub fn normalized(&self) -> Result<Vector> {
        let mut v = self.clone();
        v.normalize_mut()?;
        Ok(v)
    }

    /// Validates that the vector is a probability distribution: entries
    /// non-negative and summing to 1 within [`STOCHASTIC_TOL`] (scaled by
    /// length to absorb accumulation error in long vectors).
    ///
    /// # Errors
    /// [`LinalgError::NegativeEntry`] or [`LinalgError::NotDistribution`].
    pub fn validate_distribution(&self) -> Result<()> {
        for (i, &x) in self.data.iter().enumerate() {
            if x < -STOCHASTIC_TOL {
                return Err(LinalgError::NegativeEntry { index: i, value: x });
            }
        }
        let s = self.sum();
        let tol = STOCHASTIC_TOL * (self.len().max(1) as f64);
        if (s - 1.0).abs() > tol {
            return Err(LinalgError::NotDistribution { sum: s });
        }
        Ok(())
    }

    /// Concatenates two vectors: `[self, other]`.
    ///
    /// Used to lift an `m`-state distribution into the paper's two-world
    /// `2m` space (e.g. `[π, 0]`).
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Vector { data }
    }

    /// Splits the vector into two halves `(front, back)`.
    ///
    /// The inverse of [`Vector::concat`] for even-length vectors; the two
    /// halves are the false-world and true-world components of a lifted
    /// distribution.
    ///
    /// # Panics
    /// Panics if the length is odd.
    pub fn split_halves(&self) -> (Vector, Vector) {
        assert!(
            self.len().is_multiple_of(2),
            "split_halves on odd-length vector"
        );
        let h = self.len() / 2;
        (
            Vector {
                data: self.data[..h].to_vec(),
            },
            Vector {
                data: self.data[h..].to_vec(),
            },
        )
    }

    /// Maximum absolute component-wise difference to `other`.
    ///
    /// # Panics
    /// Panics if lengths differ (this is a test/diagnostic helper).
    pub fn max_abs_diff(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "max_abs_diff length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Vector::zeros(4).as_slice(), &[0.0; 4]);
        assert_eq!(Vector::ones(3).sum(), 3.0);
        assert_eq!(Vector::basis(5, 2).as_slice(), &[0.0, 0.0, 1.0, 0.0, 0.0]);
        let u = Vector::uniform(4);
        assert!(u.validate_distribution().is_ok());
    }

    #[test]
    #[should_panic(expected = "basis index")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(3, 3);
    }

    #[test]
    fn dot_and_hadamard() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.hadamard(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.add(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.sub(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn add_sub_scale() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![0.5, 0.5]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[1.5, 2.5]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[0.5, 1.5]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn normalize_rejects_zero_and_negative_sums() {
        let mut z = Vector::zeros(3);
        assert!(z.normalize_mut().is_err());
        let mut n = Vector::from(vec![-1.0, 0.5]);
        assert!(n.normalize_mut().is_err());
        let mut ok = Vector::from(vec![2.0, 2.0]);
        ok.normalize_mut().unwrap();
        assert_eq!(ok.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn validate_distribution_catches_negatives_and_bad_sums() {
        let neg = Vector::from(vec![-0.1, 1.1]);
        assert!(matches!(
            neg.validate_distribution(),
            Err(LinalgError::NegativeEntry { .. })
        ));
        let bad = Vector::from(vec![0.4, 0.4]);
        assert!(matches!(
            bad.validate_distribution(),
            Err(LinalgError::NotDistribution { .. })
        ));
        let good = Vector::from(vec![0.25; 4]);
        assert!(good.validate_distribution().is_ok());
    }

    #[test]
    fn concat_and_split_are_inverses() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 4.0]);
        let joined = a.concat(&b);
        assert_eq!(joined.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let (fa, fb) = joined.split_halves();
        assert_eq!(fa, a);
        assert_eq!(fb, b);
    }

    #[test]
    fn extrema_and_norms() {
        let v = Vector::from(vec![3.0, -4.0, 1.0]);
        assert_eq!(v.max(), Some(3.0));
        assert_eq!(v.min(), Some(-4.0));
        assert_eq!(v.max_abs(), 4.0);
        assert_eq!(Vector::zeros(0).max(), None);
    }

    #[test]
    fn indexing_and_iteration() {
        let mut v = Vector::zeros(3);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        let w: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(w.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
