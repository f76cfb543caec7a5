//! Exact global maximization of `f(π) = (π·a)(π·g) + π·h` over the
//! probability simplex `{π ≥ 0, Σπ = 1}` — the feasible set Theorem IV.1
//! actually requires (see the crate docs for why the paper's literal box
//! is the wrong reading).
//!
//! **Why this is exact and fast.** Fix `u = π·a`. On the slice
//! `{π ∈ simplex, π·a = u}` the objective is linear, so its maximum sits at
//! a vertex; the slice polytope has two equality constraints, hence every
//! vertex has **at most two** nonzero coordinates. The global maximum is
//! the max over slices, so it is attained at some
//! `π = λ·e_i + (1−λ)·e_j` — and along that segment `f` is a univariate
//! *quadratic* in `λ` with a closed-form maximum. Scanning all `m(m+1)/2`
//! pairs is therefore an exact global algorithm, `O(m²)` versus CPLEX's
//! NP-hard general-case behaviour on the box form.
//!
//! The work budget caps the number of pairs examined; an exhausted budget
//! or a non-finite pair value yields `Unknown` (conservative release), an
//! early positive pair yields `Violated` immediately.

use crate::bilinear::BilinearProgram;
use crate::{SolverConfig, Verdict};
use priste_linalg::Vector;

/// Exact maximum of `f` restricted to the segment
/// `π(λ) = λ·e_i + (1−λ)·e_j`, `λ ∈ [0, 1]`.
///
/// `f(λ) = (λ·a_i + (1−λ)·a_j)(λ·g_i + (1−λ)·g_j) + λ·h_i + (1−λ)·h_j`
/// is quadratic in λ; the maximum is at an endpoint or the interior
/// stationary point. Returns `(λ*, f(λ*))`.
fn pair_max(p: &BilinearProgram, i: usize, j: usize) -> (f64, f64) {
    let (ai, aj) = (p.a[i], p.a[j]);
    let (gi, gj) = (p.g[i], p.g[j]);
    let (hi, hj) = (p.h[i], p.h[j]);
    // f(λ) = (aj + λΔa)(gj + λΔg) + hj + λΔh
    //      = ΔaΔg·λ² + (ajΔg + gjΔa + Δh)·λ + (aj·gj + hj)
    let da = ai - aj;
    let dg = gi - gj;
    let dh = hi - hj;
    let quad = da * dg;
    let lin = aj * dg + gj * da + dh;
    let cst = aj * gj + hj;
    let eval = |l: f64| quad * l * l + lin * l + cst;
    let mut best_l = 0.0;
    let mut best_v = eval(0.0);
    let v1 = eval(1.0);
    if v1 > best_v {
        best_v = v1;
        best_l = 1.0;
    }
    if quad < 0.0 {
        // Concave: interior stationary point may win.
        let l_star = -lin / (2.0 * quad);
        if (0.0..=1.0).contains(&l_star) {
            let v = eval(l_star);
            if v > best_v {
                best_v = v;
                best_l = l_star;
            }
        }
    }
    (best_l, best_v)
}

/// Outcome of the exact simplex scan.
#[derive(Debug, Clone)]
pub struct SimplexOutcome {
    /// Best point found (2-sparse).
    pub best_point: Vector,
    /// Its value — the exact global maximum when `complete` is true.
    pub best_value: f64,
    /// Whether every pair was examined within the budget, each with a
    /// finite value.
    pub complete: bool,
    /// Pairs examined.
    pub work_used: u64,
}

/// Scans all coordinate pairs (each one work unit). Stops early when the
/// budget runs out, or at the first non-finite pair value, which no
/// comparison could rank; either leaves the scan incomplete.
/// `early_exit_above` (if finite) stops as soon as any pair exceeds it —
/// the violation fast-path.
pub fn maximize_simplex(p: &BilinearProgram, budget: u64, early_exit_above: f64) -> SimplexOutcome {
    let n = p.dim();
    let mut best_v = f64::NEG_INFINITY;
    let mut best = (0usize, 0usize, 1.0f64);
    let mut work = 0u64;
    let mut complete = true;
    'outer: for i in 0..n {
        for j in i..n {
            if work >= budget {
                complete = false;
                break 'outer;
            }
            work += 1;
            let (l, v) = pair_max(p, i, j);
            if !v.is_finite() {
                complete = false;
                break 'outer;
            }
            if v > best_v {
                best_v = v;
                best = (i, j, l);
                if v > early_exit_above {
                    complete = false;
                    break 'outer;
                }
            }
        }
    }
    let mut point = Vector::zeros(n);
    let (i, j, l) = best;
    if n > 0 {
        point[i] += l;
        point[j] += 1.0 - l;
    }
    SimplexOutcome {
        best_point: point,
        best_value: best_v,
        complete,
        work_used: work,
    }
}

/// Decision tolerance: a maximum within `TOLERANCE` of zero counts as
/// non-positive (absorbs floating-point noise in the homogeneous
/// rescaling). Absolute, on the rescaled (b, c) scale; `ROADMAP.md`
/// direction 2 replaces it with a slack in loss units.
const TOLERANCE: f64 = 1e-9;

/// Budgeted non-positivity check: `max f ≤ 0` over the simplex?
///
/// * Every examined pair with value > `TOLERANCE` ⇒ `Violated` (sound).
/// * All pairs examined and none positive ⇒ `Holds` (exact certificate).
/// * Budget exhausted, or a non-finite pair value, first ⇒
///   `Unknown`.
pub fn check_nonpositive(p: &BilinearProgram, cfg: &SolverConfig) -> Verdict {
    let out = maximize_simplex(p, cfg.work_budget, TOLERANCE);
    if out.best_value > TOLERANCE {
        return Verdict::Violated {
            witness: out.best_point,
            value: out.best_value,
        };
    }
    if out.complete {
        return Verdict::Holds {
            upper_bound: out.best_value,
        };
    }
    Verdict::Unknown {
        lower_bound: out.best_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_program(rng: &mut StdRng, n: usize) -> BilinearProgram {
        BilinearProgram::new(
            Vector::from((0..n).map(|_| rng.gen::<f64>()).collect::<Vec<_>>()),
            Vector::from((0..n).map(|_| rng.gen_range(-1.5..1.5)).collect::<Vec<_>>()),
            Vector::from((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>()),
        )
    }

    /// Dense barycentric grid over the simplex (n ≤ 3).
    fn simplex_grid_max(p: &BilinearProgram, steps: usize) -> f64 {
        let n = p.dim();
        assert!(n <= 3);
        let mut best = f64::NEG_INFINITY;
        match n {
            1 => best = p.eval(&Vector::from(vec![1.0])),
            2 => {
                for k in 0..=steps {
                    let l = k as f64 / steps as f64;
                    best = best.max(p.eval(&Vector::from(vec![l, 1.0 - l])));
                }
            }
            3 => {
                for k1 in 0..=steps {
                    for k2 in 0..=steps - k1 {
                        let x = k1 as f64 / steps as f64;
                        let y = k2 as f64 / steps as f64;
                        best = best.max(p.eval(&Vector::from(vec![x, y, 1.0 - x - y])));
                    }
                }
            }
            _ => unreachable!(),
        }
        best
    }

    #[test]
    fn pair_scan_matches_dense_simplex_grid() {
        let mut rng = StdRng::seed_from_u64(2024);
        for case in 0..200 {
            let n = rng.gen_range(1..=3);
            let p = random_program(&mut rng, n);
            let exact = maximize_simplex(&p, u64::MAX, f64::INFINITY);
            assert!(exact.complete);
            let grid = simplex_grid_max(&p, 120);
            assert!(
                exact.best_value >= grid - 1e-6,
                "case {case}: pair-scan {} below grid {grid}",
                exact.best_value
            );
            // And the reported point actually achieves the value.
            assert!((p.eval(&exact.best_point) - exact.best_value).abs() < 1e-9);
            assert!((exact.best_point.sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interior_stationary_points_are_found() {
        // a = (1, 0), g = (−1, 1), h = 0 on segment (λ, 1−λ):
        // f = λ(1−2λ), max at λ = 1/4 with value 1/8 — strictly interior.
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![-1.0, 1.0]),
            Vector::from(vec![0.0, 0.0]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY);
        assert!((out.best_value - 0.125).abs() < 1e-12);
        assert!((out.best_point[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_program(&mut rng, 20);
        let out = maximize_simplex(&p, 5, f64::NEG_INFINITY);
        // early_exit_above = −∞ forces an exit on the very first improving
        // pair, marking the scan incomplete.
        assert!(!out.complete);
        let v = check_nonpositive(&p, &SolverConfig { work_budget: 3 });
        // With 20 states and budget 3, either a genuine violation was found
        // among the first pairs or the verdict must be Unknown.
        match v {
            Verdict::Violated { value, .. } => assert!(value > 0.0),
            Verdict::Unknown { .. } => {}
            Verdict::Holds { .. } => panic!("cannot certify after 3 of 210 pairs"),
        }
    }

    #[test]
    fn certificate_requires_full_scan() {
        // All-negative objective: must certify with exactly m(m+1)/2 pairs.
        let n = 6;
        let p = BilinearProgram::new(
            Vector::from(vec![0.5; 6]),
            Vector::from(vec![-1.0; 6]),
            Vector::from(vec![-0.1; 6]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY);
        assert!(out.complete);
        assert_eq!(out.work_used, (n * (n + 1) / 2) as u64);
        assert!(check_nonpositive(&p, &SolverConfig::default()).holds());
    }

    #[test]
    fn singleton_points_are_covered() {
        // Max at a vertex of the simplex (i == j pair).
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.2]),
            Vector::from(vec![2.0, 0.1]),
            Vector::from(vec![0.5, 0.0]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY);
        // f(e_0) = 1·2 + 0.5 = 2.5.
        assert!((out.best_value - 2.5).abs() < 1e-12);
        assert_eq!(out.best_point.as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn nan_pair_values_never_certify() {
        // An all-negative program certifies; a NaN anywhere in `h` must turn
        // that into `Unknown`, never a `Holds` that skipped the NaN pairs.
        let clean = BilinearProgram::new(
            Vector::from(vec![0.5; 4]),
            Vector::from(vec![-1.0; 4]),
            Vector::from(vec![-0.1; 4]),
        );
        assert!(check_nonpositive(&clean, &SolverConfig::default()).holds());
        for k in 0..4 {
            let mut h = clean.h.clone();
            h[k] = f64::NAN;
            let p = BilinearProgram::new(clean.a.clone(), clean.g.clone(), h);
            let v = check_nonpositive(&p, &SolverConfig::default());
            assert!(
                matches!(v, Verdict::Unknown { .. }),
                "NaN at {k} gave {v:?}"
            );
            assert!(!maximize_simplex(&p, u64::MAX, f64::INFINITY).complete);
        }
    }
}
