//! HMM-style rescaled probability vectors.
//!
//! The joint probabilities in Lemmas III.2/III.3 are products of `T`
//! sub-stochastic factors (`M_{i−1} · p̃^D_{o_i}`); with `m = 400` states and
//! `T = 50+` timestamps the raw values underflow toward `1e-130` and below.
//! PriSTE only ever consumes these quantities through *ratios* and through
//! the Theorem IV.1 inequalities, which are jointly homogeneous of degree 1
//! in `(b, c)` — so multiplying all forward/backward products by a common
//! positive constant changes no decision. [`ScaledVector`] tracks a vector
//! `v` together with `log_scale` such that the represented value is
//! `v · exp(log_scale)`, renormalizing whenever the carried vector drifts out
//! of a comfortable floating-point window.

use crate::Vector;

/// Renormalize when the carried vector's largest entry leaves
/// `[RENORM_LO, RENORM_HI]`. The window is generous: renormalization costs a
/// pass over the vector, so we only pay it when drift is real. A caller
/// that already holds the vector's sum can skip
/// [`ScaledVector::renormalize`] when [`ScaledVector::sum_keeps_scale`]
/// holds: it would leave the vector as is.
const RENORM_HI: f64 = 1e100;
/// See [`RENORM_HI`].
const RENORM_LO: f64 = 1e-100;

/// A non-negative vector `v` with an exponent offset: represents
/// `v · exp(log_scale)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledVector {
    /// Carried (mantissa) vector.
    pub vector: Vector,
    /// Natural-log scale factor applied to every entry.
    pub log_scale: f64,
}

impl ScaledVector {
    /// Wraps a raw vector with zero offset.
    pub fn new(vector: Vector) -> Self {
        ScaledVector {
            vector,
            log_scale: 0.0,
        }
    }

    /// Length of the carried vector.
    pub fn len(&self) -> usize {
        self.vector.len()
    }

    /// Whether the carried vector is empty.
    pub fn is_empty(&self) -> bool {
        self.vector.is_empty()
    }

    /// The represented sum `Σᵢ vᵢ · exp(log_scale)` as a raw `f64`.
    ///
    /// May underflow to 0 or overflow to ∞ for extreme scales.
    pub fn sum(&self) -> f64 {
        self.vector.sum() * self.log_scale.exp()
    }

    /// Whether a vector of `len` non-negative entries whose left-to-right
    /// float sum is `sum` stays as it is under
    /// [`ScaledVector::renormalize`], decided without reading its peak.
    /// Such a sum is at least its largest entry (adding a non-negative
    /// term never rounds below the running sum) and, for any `len` below
    /// 2⁵⁰, at most `2·len` times it, so a sum inside
    /// `[2·len·RENORM_LO, RENORM_HI]` puts the peak inside the window. A
    /// `false` (a NaN sum included) decides nothing: renormalize.
    pub fn sum_keeps_scale(sum: f64, len: usize) -> bool {
        (2.0 * len as f64 * RENORM_LO..=RENORM_HI).contains(&sum)
    }

    /// Pulls the carried vector back into floating-point range, folding the
    /// extracted factor into `log_scale`.
    pub fn renormalize(&mut self) {
        Self::renormalize_parts(&mut [self.vector.as_mut_slice()], &mut self.log_scale);
    }

    /// [`ScaledVector::renormalize`] of a vector stored in pieces, with
    /// the same bits: one peak over every piece, in order, and one factor
    /// applied to each. Returns that factor (`1.0` when nothing moved). A
    /// piece left out stands for zeros, which do not move the peak and
    /// stay zeros under any finite factor; a peak in the subnormal range
    /// overflows the factor to `+∞`, which turns a zero into NaN.
    pub fn renormalize_parts(parts: &mut [&mut [f64]], log_scale: &mut f64) -> f64 {
        let peak = parts
            .iter()
            .flat_map(|p| p.iter())
            .fold(0.0_f64, |m, x| m.max(x.abs()));
        if peak == 0.0 || !peak.is_finite() || (RENORM_LO..=RENORM_HI).contains(&peak) {
            // A zero vector stays zero; non-finite is surfaced to callers.
            return 1.0;
        }
        let shift = peak.ln();
        let factor = (-shift).exp();
        for x in parts.iter_mut().flat_map(|p| p.iter_mut()) {
            *x *= factor;
        }
        *log_scale += shift;
        factor
    }

    /// Rescales `self` and `other` to a common `log_scale` (the larger of the
    /// two) and returns the raw carried vectors under that shared scale,
    /// together with the scale itself.
    ///
    /// This is how Theorem IV.1's `(b, c)` pair is extracted: both vectors
    /// must be expressed relative to the *same* positive constant for the
    /// homogeneous inequalities to be evaluated on raw floats.
    pub fn align_with(&self, other: &ScaledVector) -> (Vector, Vector, f64) {
        let shared = self.log_scale.max(other.log_scale);
        let a = self.vector.scale((self.log_scale - shared).exp());
        let b = other.vector.scale((other.log_scale - shared).exp());
        (a, b, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn m3() -> Matrix {
        Matrix::from_rows(&[
            vec![0.1, 0.2, 0.7],
            vec![0.4, 0.1, 0.5],
            vec![0.0, 0.1, 0.9],
        ])
        .unwrap()
    }

    #[test]
    fn long_product_does_not_underflow() {
        let m = m3();
        let e = Vector::from(vec![1e-3, 1e-3, 1e-3]); // brutal emission
        let mut s = ScaledVector::new(Vector::uniform(3));
        for _ in 0..200 {
            s.vector = m.vecmat(&s.vector).hadamard(&e).unwrap();
            s.renormalize();
        }
        // The raw value would be ~1e-600 (underflow); the carried vector
        // stays finite and positive, and the scale holds the magnitude.
        assert!(s
            .vector
            .as_slice()
            .iter()
            .all(|&v| v.is_finite() && v > 0.0));
        assert!(s.log_scale < -1000.0);
    }

    #[test]
    fn align_with_restores_common_scale() {
        let a = ScaledVector {
            vector: Vector::from(vec![1.0, 2.0]),
            log_scale: -5.0,
        };
        let b = ScaledVector {
            vector: Vector::from(vec![3.0, 4.0]),
            log_scale: -3.0,
        };
        let (av, bv, shared) = a.align_with(&b);
        assert_eq!(shared, -3.0);
        // a represented = [e^-5, 2e^-5]; under scale e^-3 carried = [e^-2, 2e^-2]
        assert!((av[0] - (-2.0_f64).exp()).abs() < 1e-12);
        assert_eq!(bv.as_slice(), &[3.0, 4.0]);
    }
}
