//! The Theorem IV.1 constraint checker: builds Eqs. (15)/(16) as
//! [`BilinearProgram`]s from the reduced `a`/`b`/`c` vectors and runs the
//! budgeted non-positivity check on both.
//!
//! Normalization note: the two inequalities are jointly homogeneous of
//! degree 1 in `(b, c)`, so the checker rescales the pair by a power of
//! two `2^k ≈ 1/max(c)` — keeping pair values and the tolerance on one
//! scale whatever the magnitude of the joint. A power of two is exact
//! wherever the result is normal, and applying it as at most two factors
//! cannot overflow, not even for a subnormal `max(c)` (where `1/max(c)` is
//! `+∞` and would turn every pair value into NaN).
//! `a` is *not* rescaled (the inequalities are not homogeneous in `a`; its
//! entries are genuine probabilities).

use crate::bilinear::BilinearProgram;
use crate::simplex::check_nonpositive;
use crate::{SolverConfig, Verdict};
use priste_linalg::Vector;

/// Which Theorem IV.1 inequality a verdict refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Eq. (15): bounds `Pr(o|EVENT) ≤ e^ε·Pr(o|¬EVENT)`.
    Eq15,
    /// Eq. (16): bounds `Pr(o|¬EVENT) ≤ e^ε·Pr(o|EVENT)`.
    Eq16,
}

/// Joint verdict over both inequalities.
#[derive(Debug, Clone, PartialEq)]
pub enum TheoremVerdict {
    /// Both inequalities certified: the release satisfies
    /// ε-spatiotemporal event privacy for **every** initial probability in
    /// the feasible set.
    Satisfied,
    /// At least one inequality refuted, with the worst witness.
    Violated {
        /// The refuted inequality.
        constraint: Constraint,
        /// Witness initial distribution (a point of the simplex).
        witness: Vector,
        /// Positive objective value at the witness.
        value: f64,
    },
    /// Budget exhausted before certifying; under conservative release this
    /// is treated exactly like a violation (§IV.C).
    Unknown {
        /// The inequality that could not be certified.
        constraint: Constraint,
    },
}

impl TheoremVerdict {
    /// Whether the release may proceed (both constraints certified).
    pub fn satisfied(&self) -> bool {
        matches!(self, TheoremVerdict::Satisfied)
    }
}

/// Checker configured with a privacy level ε and a solver budget.
#[derive(Debug, Clone)]
pub struct TheoremChecker {
    epsilon: f64,
    config: SolverConfig,
}

impl TheoremChecker {
    /// Creates a checker for ε-spatiotemporal event privacy.
    ///
    /// # Panics
    /// Panics for a non-positive or non-finite ε (a configuration bug).
    pub fn new(epsilon: f64, config: SolverConfig) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        TheoremChecker { epsilon, config }
    }

    /// The privacy level ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Builds the two constraint programs from reduced Theorem IV.1 vectors
    /// (`π·a = Pr(EVENT)`, `π·b ∝ Pr(EVENT, o)`, `π·c ∝ Pr(o)` with a shared
    /// positive scale on `b`/`c`).
    ///
    /// # Panics
    /// Panics on length mismatches (the vectors come from one builder).
    pub fn programs(
        &self,
        a: &Vector,
        b: &Vector,
        c: &Vector,
    ) -> [(Constraint, BilinearProgram); 2] {
        assert_eq!(a.len(), b.len(), "a/b length mismatch");
        assert_eq!(a.len(), c.len(), "a/c length mismatch");
        // Joint rescale of (b, c): homogeneous, so verdicts are unchanged.
        let k = c
            .max()
            .filter(|m| m.is_finite() && *m > 0.0)
            .map_or(0, |m| -(m.log2().floor() as i32));
        let bs = scale_pow2(b, k);
        let cs = scale_pow2(c, k);
        let e_eps = self.epsilon.exp();

        // Eq. (15): (π·a)·(π·[(e^ε−1)b − e^ε c]) + π·b ≤ 0.
        let g1: Vector = bs
            .as_slice()
            .iter()
            .zip(cs.as_slice())
            .map(|(&bi, &ci)| (e_eps - 1.0) * bi - e_eps * ci)
            .collect();
        let p1 = BilinearProgram::new(a.clone(), g1, bs.clone());

        // Eq. (16): (π·a)·(π·[(e^ε−1)b + c]) − e^ε·π·b ≤ 0.
        let g2: Vector = bs
            .as_slice()
            .iter()
            .zip(cs.as_slice())
            .map(|(&bi, &ci)| (e_eps - 1.0) * bi + ci)
            .collect();
        let h2 = bs.scale(-e_eps);
        let p2 = BilinearProgram::new(a.clone(), g2, h2);

        [(Constraint::Eq15, p1), (Constraint::Eq16, p2)]
    }

    /// Checks both inequalities; the budget is split across them.
    pub fn check(&self, a: &Vector, b: &Vector, c: &Vector) -> TheoremVerdict {
        let mut cfg = self.config.clone();
        cfg.work_budget = self.config.work_budget / 2;
        for (constraint, program) in self.programs(a, b, c) {
            match check_nonpositive(&program, &cfg) {
                Verdict::Holds { .. } => {}
                Verdict::Violated { witness, value } => {
                    return TheoremVerdict::Violated {
                        constraint,
                        witness,
                        value,
                    };
                }
                Verdict::Unknown { .. } => return TheoremVerdict::Unknown { constraint },
            }
        }
        TheoremVerdict::Satisfied
    }
}

/// `2^k` for `-1022 ≤ k ≤ 1023`, built from its bits.
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "2^{k} is not a normal f64");
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `v · 2^k` for `-1024 ≤ k ≤ 1074`, as one factor when `2^k` is a normal
/// f64 and as two halves otherwise.
fn scale_pow2(v: &Vector, k: i32) -> Vector {
    let (k1, k2) = if (-1022..=1023).contains(&k) {
        (k, 0)
    } else {
        (k / 2, k - k / 2)
    };
    let (s1, s2) = (pow2(k1), pow2(k2));
    v.as_slice().iter().map(|&x| x * s1 * s2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs mimicking an *uninformative* release: b = prior-weighted c.
    /// Then Pr(o|E) = Pr(o|¬E) and any ε > 0 must be satisfied.
    fn uninformative() -> (Vector, Vector, Vector) {
        let a = Vector::from(vec![0.3, 0.5, 0.2]);
        let c = Vector::from(vec![0.4, 0.4, 0.4]);
        // b_i = a_i · c_i ⇒ π·b relates to π·a · scale only at point masses;
        // the exact independence structure: b = c ∘ a.
        let b = Vector::from(vec![0.3 * 0.4, 0.5 * 0.4, 0.2 * 0.4]);
        (a, b, c)
    }

    #[test]
    fn uninformative_release_satisfies_any_epsilon() {
        let (a, b, c) = uninformative();
        for eps in [0.05, 0.5, 2.0] {
            let checker = TheoremChecker::new(eps, SolverConfig::default());
            let v = checker.check(&a, &b, &c);
            assert!(v.satisfied(), "ε={eps}: {v:?}");
        }
    }

    #[test]
    fn leaky_release_fails_small_epsilon_but_passes_large() {
        // Observation strongly correlated with the event: likelihood ratio
        // far from 1 for point-mass priors.
        let a = Vector::from(vec![0.6, 0.2]);
        let b = Vector::from(vec![0.55, 0.02]);
        let c = Vector::from(vec![0.6, 0.5]);
        let tight = TheoremChecker::new(0.05, SolverConfig::default());
        assert!(
            !tight.check(&a, &b, &c).satisfied(),
            "ε = 0.05 should be violated"
        );
        let loose = TheoremChecker::new(5.0, SolverConfig::default());
        assert!(loose.check(&a, &b, &c).satisfied(), "ε = 5 should hold");
    }

    #[test]
    fn violation_witness_certifies_itself() {
        let a = Vector::from(vec![0.6, 0.2]);
        let b = Vector::from(vec![0.55, 0.02]);
        let c = Vector::from(vec![0.6, 0.5]);
        let checker = TheoremChecker::new(0.05, SolverConfig::default());
        match checker.check(&a, &b, &c) {
            TheoremVerdict::Violated {
                constraint,
                witness,
                value,
            } => {
                // Re-evaluate the violated program at the witness.
                let programs = checker.programs(&a, &b, &c);
                let p = programs
                    .iter()
                    .find(|(c2, _)| *c2 == constraint)
                    .map(|(_, p)| p)
                    .unwrap();
                assert!((p.eval(&witness) - value).abs() < 1e-9);
                assert!(value > 0.0);
            }
            v => panic!("expected violation, got {v:?}"),
        }
    }

    #[test]
    fn scaling_b_and_c_jointly_preserves_verdicts() {
        // The second case is leaky at ε = 0.05; at γ ≤ 1e-310 `max(c)` is
        // subnormal, where a `1/max(c)` rescale overflows.
        let cases = [
            (
                vec![0.5, 0.3, 0.1],
                vec![0.2, 0.05, 0.01],
                vec![0.3, 0.3, 0.25],
                0.4,
            ),
            (vec![0.6, 0.2], vec![0.55, 0.02], vec![0.6, 0.5], 0.05),
        ];
        for (a, b, c, eps) in cases {
            let (a, b, c) = (Vector::from(a), Vector::from(b), Vector::from(c));
            let checker = TheoremChecker::new(eps, SolverConfig::default());
            let v1 = checker.check(&a, &b, &c);
            for gamma in [1e-30, 1e-10, 1e10, 1e-310, 1e-315] {
                let v2 = checker.check(&a, &b.scale(gamma), &c.scale(gamma));
                assert_eq!(
                    std::mem::discriminant(&v1),
                    std::mem::discriminant(&v2),
                    "ε = {eps}: verdict changed under joint rescale by {gamma}: {v1:?} vs {v2:?}"
                );
            }
        }
    }

    #[test]
    fn larger_epsilon_never_harder() {
        // Monotonicity: if ε₁ ≤ ε₂ and ε₁ is satisfied, ε₂ must be.
        let a = Vector::from(vec![0.4, 0.35, 0.15]);
        let b = Vector::from(vec![0.12, 0.18, 0.02]);
        let c = Vector::from(vec![0.35, 0.4, 0.3]);
        let mut prev_satisfied = false;
        for eps in [0.01, 0.1, 0.5, 1.0, 3.0, 8.0] {
            let v = TheoremChecker::new(eps, SolverConfig::default()).check(&a, &b, &c);
            if prev_satisfied {
                assert!(v.satisfied(), "satisfied at smaller ε but not at {eps}");
            }
            prev_satisfied = v.satisfied();
        }
        assert!(prev_satisfied, "even ε = 8 failed — inputs degenerate?");
    }

    /// An uninformative release on `m` cells (`b = c ∘ a` with constant
    /// `c`): both constraints hold, so only the budget decides the verdict.
    fn uninformative_of_size(m: usize) -> (Vector, Vector, Vector) {
        let a: Vector = (0..m).map(|i| (i % 7 + 1) as f64 / 8.0).collect();
        let c = Vector::from(vec![0.4; m]);
        let b = a.scale(0.4);
        (a, b, c)
    }

    #[test]
    fn a_complete_check_takes_m_times_m_plus_one_pairs() {
        // Each constraint gets half the budget and a complete scan takes
        // m(m+1)/2 pairs, so one pair short of m(m+1) leaves it undecided.
        let m = 12;
        let (a, b, c) = uninformative_of_size(m);
        let pairs = (m * (m + 1)) as u64;
        let check =
            |work_budget| TheoremChecker::new(1.0, SolverConfig { work_budget }).check(&a, &b, &c);
        assert!(matches!(check(pairs - 1), TheoremVerdict::Unknown { .. }));
        assert_eq!(check(pairs), TheoremVerdict::Satisfied);

        // The default budget therefore certifies up to m = 446
        // (446·447 = 199 362 ≤ 200 000 < 447·448). A default derived from
        // m (`ROADMAP.md`, direction 1) flips the m = 447 case.
        let default = |m| {
            let (a, b, c) = uninformative_of_size(m);
            TheoremChecker::new(1.0, SolverConfig::default()).check(&a, &b, &c)
        };
        assert_eq!(default(446), TheoremVerdict::Satisfied);
        assert!(matches!(default(447), TheoremVerdict::Unknown { .. }));
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_bad_epsilon() {
        let _ = TheoremChecker::new(0.0, SolverConfig::default());
    }

    #[test]
    fn zero_c_is_handled() {
        // Degenerate all-zero joint (impossible observations): programs are
        // f₁ = πb = 0 and f₂ = −e^ε πb = 0 ⇒ satisfied at tolerance.
        let a = Vector::from(vec![0.5, 0.5]);
        let z = Vector::zeros(2);
        let checker = TheoremChecker::new(1.0, SolverConfig::default());
        assert!(checker.check(&a, &z, &z).satisfied());
    }
}
