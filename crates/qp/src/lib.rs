//! Quadratic programming substrate — the reproduction's substitute for the
//! IBM CPLEX optimizer (paper §IV.A "Quadratic Programming" and §IV.C).
//!
//! Theorem IV.1 reduces ε-spatiotemporal event privacy for *arbitrary*
//! initial probabilities to: "is the maximum of a quadratic form over the
//! probability simplex `π ≥ 0, Σπ = 1` non-positive?" — for two specific
//! quadratic forms per candidate release. The paper states the box
//! `0 ≤ π ≤ 1`, but its derivation substitutes `Pr(¬EVENT) = 1 − π·aᵀ`,
//! which presumes `Σπ = 1`; without it every π can be scaled toward zero
//! and Eq. (15) is violated by every mechanism. Both forms are **rank-1
//! bilinear plus linear**:
//!
//! ```text
//! Eq. (15):  f₁(π) = (π·a)(π·g₁) + π·b      g₁ = (e^ε−1)·b − e^ε·c  (≤ 0)
//! Eq. (16):  f₂(π) = (π·a)(π·g₂) − e^ε·π·b  g₂ = (e^ε−1)·b + c      (≥ 0)
//! ```
//!
//! because the paper's quadratic matrices are outer products `aᵀ(…)`. On
//! the simplex such a form attains its maximum on an edge, so the
//! `O(m²)` pair scan of [`simplex`] is exact. Like CPLEX under the paper's
//! one-second threshold, the scan is *budgeted*, in pairs rather than
//! seconds so that a verdict is a function of its inputs alone, and returns
//! a three-valued [`Verdict`]:
//!
//! * `Holds` — a **sound** certificate: a complete pair scan whose every
//!   pair value is finite and ≤ the tolerance.
//! * `Violated` — a concrete witness `π` with `f(π) > 0`.
//! * `Unknown` — budget exhausted, or a non-finite pair value, before
//!   certifying; the framework's *conservative release* (§IV.C)
//!   treats this as a failure and keeps decaying the mechanism's budget, so
//!   privacy is never claimed without a certificate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bilinear;
pub mod knapsack;
pub mod simplex;
pub mod theorem;

pub use bilinear::BilinearProgram;
pub use knapsack::{max_budgeted, SliceSolution};
pub use theorem::{TheoremChecker, TheoremVerdict};

use priste_linalg::Vector;

/// Outcome of a budgeted non-positivity check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Certified: the maximum over the simplex is ≤ 0.
    Holds {
        /// The exact maximum (≤ the tolerance).
        upper_bound: f64,
    },
    /// Refuted: a feasible point with a strictly positive value.
    Violated {
        /// The witness point.
        witness: Vector,
        /// Its objective value (> 0).
        value: f64,
    },
    /// Budget exhausted (or a non-finite pair value met) before certifying
    /// either way.
    Unknown {
        /// Best (largest) objective value found so far.
        lower_bound: f64,
    },
}

impl Verdict {
    /// Whether the verdict certifies the constraint.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds { .. })
    }
}

/// Budget for a check.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Coordinate pairs the scan may examine. The deterministic analogue of
    /// the paper's CPLEX wall-clock threshold (Table III); exhausting it
    /// yields [`Verdict::Unknown`]. [`TheoremChecker::check`] gives each of
    /// its two constraints half, and a complete scan of an m-cell program
    /// takes m(m+1)/2 pairs, so a complete check needs m(m+1): the default
    /// 200 000 covers only m ≤ 446, and every check above that is
    /// `Unknown` until the default is derived from m (`ROADMAP.md`,
    /// direction 1).
    pub work_budget: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            work_budget: 200_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_holds_predicate() {
        assert!(Verdict::Holds { upper_bound: -0.5 }.holds());
        assert!(!Verdict::Unknown { lower_bound: -1.0 }.holds());
    }
}
