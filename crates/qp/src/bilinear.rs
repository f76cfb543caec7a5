//! The structured program `f(π) = (π·a)(π·g) + π·h` (with `a ≥ 0`) — the
//! exact shape of both Theorem IV.1 constraints. [`crate::simplex`]
//! maximizes it over the probability simplex.

use priste_linalg::Vector;

/// The structured program `f(π) = (π·a)(π·g) + π·h` over the simplex.
#[derive(Debug, Clone)]
pub struct BilinearProgram {
    /// Non-negative coefficient vector of the first bilinear factor.
    pub a: Vector,
    /// Coefficient vector of the second bilinear factor (any sign).
    pub g: Vector,
    /// Linear term (any sign).
    pub h: Vector,
}

impl BilinearProgram {
    /// Creates a program, validating shapes and the sign of `a`.
    ///
    /// # Panics
    /// Panics on length mismatch or a negative entry in `a` — both indicate
    /// construction bugs upstream (the `a` of Theorem IV.1 is a vector of
    /// probabilities).
    pub fn new(a: Vector, g: Vector, h: Vector) -> Self {
        assert_eq!(a.len(), g.len(), "a/g length mismatch");
        assert_eq!(a.len(), h.len(), "a/h length mismatch");
        assert!(
            a.as_slice().iter().all(|&x| x >= -1e-12),
            "bilinear factor a must be non-negative"
        );
        BilinearProgram { a, g, h }
    }

    /// Dimension `m`.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Evaluates `f(π)`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn eval(&self, pi: &Vector) -> f64 {
        let u = pi.dot(&self.a).expect("length");
        let v = pi.dot(&self.g).expect("length");
        let l = pi.dot(&self.h).expect("length");
        u * v + l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{check_nonpositive, maximize_simplex};
    use crate::{SolverConfig, Verdict};

    #[test]
    fn eval_matches_definition() {
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.5]),
            Vector::from(vec![-1.0, 2.0]),
            Vector::from(vec![0.1, 0.2]),
        );
        let pi = Vector::from(vec![1.0, 1.0]);
        // (1.5)(1.0) + 0.3 = 1.8
        assert!((p.eval(&pi) - 1.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_a_is_rejected() {
        let _ = BilinearProgram::new(
            Vector::from(vec![-0.5]),
            Vector::from(vec![1.0]),
            Vector::from(vec![0.0]),
        );
    }

    #[test]
    fn certifies_obviously_nonpositive_programs() {
        // g ≤ 0, h ≤ 0 ⇒ f ≤ 0 everywhere.
        let p = BilinearProgram::new(
            Vector::from(vec![0.5, 0.8, 0.2]),
            Vector::from(vec![-1.0, -0.3, -2.0]),
            Vector::from(vec![-0.1, 0.0, -0.5]),
        );
        assert!(check_nonpositive(&p, &SolverConfig::default()).holds());
    }

    #[test]
    fn finds_witness_for_positive_programs() {
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![0.0, 0.0]),
        );
        match check_nonpositive(&p, &SolverConfig::default()) {
            Verdict::Violated { witness, value } => {
                assert!(
                    (value - 1.0).abs() < 1e-12,
                    "f ≡ 1 on the simplex, got {value}"
                );
                assert!((p.eval(&witness) - value).abs() < 1e-9);
            }
            v => panic!("expected violation, got {v:?}"),
        }
    }

    #[test]
    fn tiny_budget_yields_unknown_not_false_certainty() {
        // A program whose max is barely positive: with almost no budget the
        // solver must not claim Holds.
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.3, 0.7, 0.2]),
            Vector::from(vec![0.02, -0.5, 0.01, -0.2]),
            Vector::from(vec![0.0, 0.01, -0.01, 0.0]),
        );
        let full = maximize_simplex(&p, u64::MAX, f64::INFINITY);
        assert!(full.best_value > 1e-9, "program must be violable");
        let tight = check_nonpositive(&p, &SolverConfig { work_budget: 1 });
        assert!(
            !tight.holds(),
            "tiny budget claimed Holds on a violated program"
        );
    }

    #[test]
    fn simplex_mode_respects_simplex() {
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![0.0, 0.0]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY);
        // On the simplex, πa = πg = 1 always ⇒ f = 1 (vs 4 at π = 1 on the
        // box the paper states literally).
        assert!(
            (out.best_value - 1.0).abs() < 1e-12,
            "got {}",
            out.best_value
        );
        assert!((out.best_point.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_dimensional_edge_behaviour() {
        // Single coordinate, trivially certified.
        let p = BilinearProgram::new(
            Vector::from(vec![0.0]),
            Vector::from(vec![5.0]),
            Vector::from(vec![-1.0]),
        );
        assert!(check_nonpositive(&p, &SolverConfig::default()).holds());
    }

    #[test]
    fn theorem_shaped_program_with_small_epsilon_is_violated() {
        // Mimic Eq. (15) with an emission that leaks: a = prior coeffs,
        // b peaked inside the event, c uniform-ish, ε tiny.
        let a = Vector::from(vec![0.9, 0.1]);
        let b = Vector::from(vec![0.5, 0.01]);
        let c = Vector::from(vec![0.55, 0.5]);
        let eps: f64 = 0.01;
        let g = Vector::from(
            b.as_slice()
                .iter()
                .zip(c.as_slice())
                .map(|(&bi, &ci)| (eps.exp() - 1.0) * bi - eps.exp() * ci)
                .collect::<Vec<_>>(),
        );
        let p = BilinearProgram::new(a, g, b);
        match check_nonpositive(&p, &SolverConfig::default()) {
            Verdict::Violated { value, .. } => assert!(value > 0.0),
            v => panic!("expected violation for leaky emission at ε=0.01, got {v:?}"),
        }
    }
}
