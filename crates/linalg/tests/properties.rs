//! Property-based tests for the linear-algebra kernels.

use priste_linalg::scaling::ScaledVector;
use priste_linalg::{Matrix, Vector};
use proptest::prelude::*;

fn vector(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-10.0f64..10.0, n).prop_map(Vector::from)
}

fn matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, n), n)
        .prop_map(|rows| Matrix::from_rows(&rows).unwrap())
}

fn stochastic(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, n), n).prop_map(|rows| {
        let mut m = Matrix::from_rows(&rows).unwrap();
        m.normalize_rows_mut();
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// vecmat and matvec are transposes of each other.
    #[test]
    fn vecmat_matvec_transpose_duality(m in matrix(4), x in vector(4)) {
        let a = m.vecmat(&x);
        let b = m.transpose().matvec(&x);
        prop_assert!(a.max_abs_diff(&b) < 1e-10);
    }

    /// Matrix multiplication is associative with vector application.
    #[test]
    fn matmul_vecmat_associativity(a in matrix(3), b in matrix(3), x in vector(3)) {
        let via_product = a.matmul(&b).unwrap().vecmat(&x);
        let via_steps = b.vecmat(&a.vecmat(&x));
        prop_assert!(via_product.max_abs_diff(&via_steps) < 1e-8);
    }

    /// Dot products are bilinear.
    #[test]
    fn dot_bilinearity(x in vector(5), y in vector(5), z in vector(5), c in -3.0f64..3.0) {
        let lhs = x.add(&y.scale(c)).unwrap().dot(&z).unwrap();
        let rhs = x.dot(&z).unwrap() + c * y.dot(&z).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-8, "{lhs} vs {rhs}");
    }

    /// Stochastic products stay stochastic.
    #[test]
    fn stochastic_closure(a in stochastic(4), b in stochastic(4)) {
        a.matmul(&b).unwrap().validate_stochastic().unwrap();
    }

    /// Scaled forward steps represent exactly the raw product (while the
    /// raw value stays representable).
    #[test]
    fn scaled_vector_represents_raw_product(
        m in stochastic(3),
        e in proptest::collection::vec(0.05f64..1.0, 3),
        steps in 1usize..12,
    ) {
        let emission = Vector::from(e);
        let mut scaled = ScaledVector::new(Vector::uniform(3));
        let mut raw = Vector::uniform(3);
        for _ in 0..steps {
            scaled.forward_step(&m, &emission);
            raw = m.vecmat(&raw).hadamard(&emission).unwrap();
        }
        let represented = scaled.vector.scale(scaled.log_scale.exp());
        prop_assert!(represented.max_abs_diff(&raw) < 1e-10 * raw.max_abs().max(1e-30));
    }

    /// Concat/split round-trips and preserves sums.
    #[test]
    fn concat_split_round_trip(a in vector(4), b in vector(4)) {
        let joined = a.concat(&b);
        prop_assert!((joined.sum() - a.sum() - b.sum()).abs() < 1e-9);
        let (fa, fb) = joined.split_halves();
        prop_assert_eq!(fa, a);
        prop_assert_eq!(fb, b);
    }

    /// Row/column scaling against dense diagonal products.
    #[test]
    fn diagonal_scaling_equivalence(m in matrix(4), d in proptest::collection::vec(-2.0f64..2.0, 4)) {
        let dv = Vector::from(d);
        let fast_cols = m.scale_cols(&dv).unwrap();
        let slow_cols = m.matmul(&Matrix::from_diag(&dv)).unwrap();
        prop_assert!(fast_cols.max_abs_diff(&slow_cols) < 1e-10);
        let fast_rows = m.scale_rows(&dv).unwrap();
        let slow_rows = Matrix::from_diag(&dv).matmul(&m).unwrap();
        prop_assert!(fast_rows.max_abs_diff(&slow_rows) < 1e-10);
    }
}
