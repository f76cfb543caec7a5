use crate::lifted::lift_emission;
use crate::{QuantifyError, Result, TwoWorldEngine};
use priste_linalg::scaling::ScaledVector;
use priste_linalg::Vector;
use priste_markov::TransitionProvider;

/// The Theorem IV.1 coefficient vectors for one timestep, reduced to the
/// `m`-dimensional space of initial distributions:
///
/// * `π · a = Pr(EVENT)` (Eq. (17)),
/// * `π · b · e^{log_scale} = Pr(EVENT, o_1, …, o_t)` (Eqs. (18)/(19)),
/// * `π · c · e^{log_scale} = Pr(o_1, …, o_t)` (Eqs. (18)/(20)).
///
/// `b` and `c` share one log-scale; both Theorem IV.1 inequalities are
/// jointly homogeneous of degree 1 in `(b, c)`, so the scale never changes a
/// decision and the QP layer can consume the carried vectors directly. The
/// scale exists because raw products of `T` sub-stochastic factors
/// underflow `f64` over long horizons (the `ablation_scaling` bench binary).
#[derive(Debug, Clone)]
pub struct TheoremInputs {
    /// Timestep `t` these inputs describe (1-based).
    pub t: usize,
    /// Reduced prior coefficient vector (length `m`).
    pub a: Vector,
    /// Reduced joint-with-event coefficient vector (length `m`).
    pub b: Vector,
    /// Reduced joint-total coefficient vector (length `m`).
    pub c: Vector,
    /// Common natural-log scale of `b` and `c`.
    pub bc_log_scale: f64,
}

impl TheoremInputs {
    /// `Pr(EVENT)` under a concrete initial distribution.
    ///
    /// # Panics
    /// Panics on a length mismatch (callers hold `π` of length `m`).
    pub fn prior(&self, pi: &Vector) -> f64 {
        pi.dot(&self.a).expect("pi length matches")
    }

    /// Natural log of `Pr(EVENT, o_1..o_t)` under a concrete `π`; `-∞` if
    /// the joint is zero.
    pub fn log_joint_event(&self, pi: &Vector) -> f64 {
        let v = pi.dot(&self.b).expect("pi length matches");
        if v <= 0.0 {
            f64::NEG_INFINITY
        } else {
            v.ln() + self.bc_log_scale
        }
    }

    /// Natural log of `Pr(o_1..o_t)` under a concrete `π`; `-∞` if zero.
    pub fn log_joint_total(&self, pi: &Vector) -> f64 {
        let v = pi.dot(&self.c).expect("pi length matches");
        if v <= 0.0 {
            f64::NEG_INFINITY
        } else {
            v.ln() + self.bc_log_scale
        }
    }

    /// The realized two-sided privacy loss
    /// `max(ln L, −ln L)` with `L = Pr(o|EVENT)/Pr(o|¬EVENT)`, for a fixed
    /// `π` (the §III quantification).
    ///
    /// # Errors
    /// [`QuantifyError::DegeneratePrior`] when `Pr(EVENT) ∈ {0, 1}` under
    /// `π`, or when either conditional likelihood is zero (infinite loss is
    /// reported as an error rather than `inf` so callers must handle it).
    pub fn privacy_loss(&self, pi: &Vector) -> Result<f64> {
        let prior = self.prior(pi);
        if !(prior > 0.0 && prior < 1.0) {
            return Err(QuantifyError::DegeneratePrior { prior });
        }
        let jb = pi.dot(&self.b).expect("pi length matches");
        let jc = pi.dot(&self.c).expect("pi length matches");
        let j_not = jc - jb;
        if jb <= 0.0 || j_not <= 0.0 {
            return Err(QuantifyError::DegeneratePrior { prior });
        }
        // ln [ (jb/prior) / (j_not/(1-prior)) ] — scales cancel.
        let log_ratio = (jb / prior).ln() - (j_not / (1.0 - prior)).ln();
        Ok(log_ratio.abs())
    }
}

/// Incremental builder of [`TheoremInputs`] along a release sequence —
/// Algorithm 2's `A`/`B` recurrences (lines 3–15), realized as factor lists
/// so each candidate check costs `O(t · m²)` structured work and nothing is
/// ever materialized at `2m × 2m`.
///
/// The `candidate`/`commit` split mirrors the release-retry loop: the
/// framework *tests* a perturbed location (possibly several, halving the
/// budget between tries) and only the location actually released updates
/// the internal state (Algorithm 2 lines 21–25).
///
/// Cloning snapshots the full release history, so a caller can score
/// several continuations of one released prefix;
/// [`TheoremBuilder::reset`] rewinds to `t = 0` while keeping the
/// per-event precomputation.
///
/// Owns its event and provider (like
/// [`IncrementalTwoWorld`](crate::IncrementalTwoWorld)), so the value is
/// `'static` when they are and long-lived pipelines need no borrowed event
/// slices.
#[derive(Debug, Clone)]
pub struct TheoremBuilder<P> {
    event: priste_event::StEvent,
    provider: P,
    /// Suffix vectors `u_t`, index `t−1`, for `t = 1..=end` (lifted, `2m`).
    suffix: Vec<Vector>,
    /// Reduced Theorem IV.1 `a` (length `m`).
    a: Vector,
    /// Committed emission columns for timesteps `1..=min(t, end)`.
    fwd_emissions: Vec<Vector>,
    /// Committed emission columns for timesteps `end+1..=t`.
    bwd_emissions: Vec<Vector>,
    /// Number of committed timesteps.
    t: usize,
}

impl<P: TransitionProvider> TheoremBuilder<P> {
    /// Builds the per-event state: suffix products and the `a` vector.
    ///
    /// # Errors
    /// Propagates [`TwoWorldEngine::new`] domain checks.
    pub fn new(event: &priste_event::StEvent, provider: P) -> Result<Self> {
        let event = event.clone();
        let engine = TwoWorldEngine::new(&event, &provider)?;
        let suffix = engine.suffix_true_vectors();
        let a = engine.reduce(&suffix[0]);
        Ok(TheoremBuilder {
            event,
            provider,
            suffix,
            a,
            fwd_emissions: Vec::new(),
            bwd_emissions: Vec::new(),
            t: 0,
        })
    }

    /// The protected event.
    pub fn event(&self) -> &priste_event::StEvent {
        &self.event
    }

    /// The transition source.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// A borrowing engine over the owned event/provider (the domain check
    /// was done at construction; re-running it is O(1)).
    pub fn engine(&self) -> TwoWorldEngine<'_, &P> {
        TwoWorldEngine::new(&self.event, &self.provider).expect("validated at construction")
    }

    /// Number of committed timesteps.
    pub fn committed(&self) -> usize {
        self.t
    }

    /// Reduced Theorem IV.1 `a` vector (constant across timesteps).
    pub fn a(&self) -> &Vector {
        &self.a
    }

    /// Rewinds to `t = 0`, discarding all committed emissions but keeping
    /// the per-event precomputation (suffix products and `a`). Lets a
    /// streaming session re-arm the same event/provider pairing without
    /// paying [`TheoremBuilder::new`] again.
    pub fn reset(&mut self) {
        self.fwd_emissions.clear();
        self.bwd_emissions.clear();
        self.t = 0;
    }

    /// Computes the Theorem IV.1 inputs for releasing `emission_column` at
    /// the *next* timestep (`committed() + 1`) without committing it.
    ///
    /// `emission_column` is `p̃_{o}` — the column of the candidate
    /// mechanism's emission matrix at the candidate observation.
    ///
    /// # Errors
    /// [`QuantifyError::InvalidEmission`] on a wrong-length or negative
    /// column.
    pub fn candidate(&self, emission_column: &Vector) -> Result<TheoremInputs> {
        let m = self.provider.num_states();
        if emission_column.len() != m {
            return Err(QuantifyError::InvalidEmission {
                expected: m,
                actual: emission_column.len(),
            });
        }
        if emission_column
            .as_slice()
            .iter()
            .any(|&x| x < 0.0 || !x.is_finite())
        {
            return Err(QuantifyError::InvalidEmission {
                expected: m,
                actual: emission_column.len(),
            });
        }
        let tc = self.t + 1;
        let end = self.event.end();

        let (b_lifted, c_lifted) = if tc <= end {
            // Lemma III.2 / Eq. (18): terminal vectors are the suffix u_tc
            // (for b) and all-ones (for c); the chain is
            // F_1 ⋯ F_tc with F_1 = p̃^D_{o_1}, F_i = M_{i−1}·p̃^D_{o_i}.
            let b0 = ScaledVector::new(self.suffix[tc - 1].clone());
            let c0 = ScaledVector::new(Vector::ones(2 * m));
            self.apply_forward_chain(b0, c0, tc, Some(emission_column))
        } else {
            // Lemma III.3 / Eqs. (19)–(20): plain backward part
            // β = (∏_{i=end}^{tc−1} M_i·p̃^D_{o_{i+1}}) · 1, then the
            // committed forward chain applied to [0, β] and [β, β].
            let beta = self.backward_beta(tc, emission_column);
            let b0 = ScaledVector {
                vector: Vector::zeros(m).concat(&beta.vector),
                log_scale: beta.log_scale,
            };
            let c0 = ScaledVector {
                vector: beta.vector.concat(&beta.vector),
                log_scale: beta.log_scale,
            };
            self.apply_forward_chain(b0, c0, end, None)
        };

        let (b_raw, c_raw, shared) = b_lifted.align_with(&c_lifted);
        let engine = self.engine();
        Ok(TheoremInputs {
            t: tc,
            a: self.a.clone(),
            b: engine.reduce(&b_raw),
            c: engine.reduce(&c_raw),
            bc_log_scale: shared,
        })
    }

    /// Commits the emission column of the observation actually released at
    /// the next timestep (Algorithm 2 lines 21–25).
    ///
    /// # Errors
    /// [`QuantifyError::InvalidEmission`] as in [`TheoremBuilder::candidate`].
    pub fn commit(&mut self, emission_column: Vector) -> Result<()> {
        let m = self.provider.num_states();
        if emission_column.len() != m {
            return Err(QuantifyError::InvalidEmission {
                expected: m,
                actual: emission_column.len(),
            });
        }
        let tc = self.t + 1;
        if tc <= self.event.end() {
            self.fwd_emissions.push(emission_column);
        } else {
            self.bwd_emissions.push(emission_column);
        }
        self.t = tc;
        Ok(())
    }

    /// Applies the forward factor chain `F_1 ⋯ F_k` (right-to-left) to the
    /// two terminal vectors. When `candidate` is `Some(e)`, the chain has
    /// `k = tc` factors whose last emission is the candidate; otherwise all
    /// `k` factors are committed.
    fn apply_forward_chain(
        &self,
        mut b: ScaledVector,
        mut c: ScaledVector,
        k: usize,
        candidate: Option<&Vector>,
    ) -> (ScaledVector, ScaledVector) {
        let engine = self.engine();
        let emission_at = |i: usize| -> Vector {
            // Emission for timestep i ∈ 1..=k; the candidate (if any)
            // occupies slot k.
            match candidate {
                Some(e) if i == k => lift_emission(e),
                _ => lift_emission(&self.fwd_emissions[i - 1]),
            }
        };
        for i in (1..=k).rev() {
            let e = emission_at(i);
            let weigh = |v: &mut ScaledVector| {
                v.vector = v.vector.hadamard(&e).expect("lifted emission length");
            };
            weigh(&mut b);
            weigh(&mut c);
            if i >= 2 {
                let step = engine.step_at(i - 1);
                b.vector = step.apply_col(&b.vector);
                c.vector = step.apply_col(&c.vector);
            }
            b.renormalize();
            c.renormalize();
        }
        (b, c)
    }

    /// Computes the plain backward vector
    /// `β = M_end·p̃^D_{o_{end+1}} ⋯ M_{tc−1}·p̃^D_{o_tc} · 1` for `tc > end`
    /// (all post-event lifted matrices are block-diagonal, so the backward
    /// pass lives in the base `m`-dimensional space).
    fn backward_beta(&self, tc: usize, candidate: &Vector) -> ScaledVector {
        let end = self.event.end();
        let mut v = ScaledVector::new(Vector::ones(self.provider.num_states()));
        for i in (end..tc).rev() {
            // Emission of timestep i+1 ∈ end+1..=tc.
            let e = if i + 1 == tc {
                candidate
            } else {
                &self.bwd_emissions[i - end]
            };
            let weighted = v.vector.hadamard(e).expect("emission length matches");
            v.vector = self.provider.transition_at(i).matvec(&weighted);
            v.renormalize();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_event::{Pattern, Presence, StEvent};
    use priste_geo::{CellId, Region};
    use priste_markov::{Homogeneous, MarkovModel};

    fn region(num_cells: usize, ids: &[usize]) -> Region {
        Region::from_cells(num_cells, ids.iter().map(|&i| CellId(i))).unwrap()
    }

    fn chain() -> Homogeneous {
        Homogeneous::new(MarkovModel::paper_example())
    }

    /// Uniform "no information" emission column.
    fn flat() -> Vector {
        Vector::from(vec![1.0 / 3.0; 3])
    }

    #[test]
    fn a_matches_example_c1() {
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 3, 4).unwrap().into();
        let builder = TheoremBuilder::new(&ev, chain()).unwrap();
        assert!(
            builder
                .a()
                .max_abs_diff(&Vector::from(vec![0.28, 0.298, 0.226]))
                < 1e-12
        );
    }

    #[test]
    fn uninformative_emissions_keep_ratio_at_one() {
        // With uniform emissions, Pr(o|E) = Pr(o|¬E) ⇒ zero privacy loss.
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 3, 4).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::from(vec![0.2, 0.3, 0.5]);
        for _ in 0..6 {
            let inputs = builder.candidate(&flat()).unwrap();
            let loss = inputs.privacy_loss(&pi).unwrap();
            assert!(loss.abs() < 1e-10, "t={} loss={loss}", inputs.t);
            builder.commit(flat()).unwrap();
        }
    }

    #[test]
    fn b_equals_c_times_prior_under_uninformative_emissions() {
        // Independence: Pr(E, o) = Pr(E)·Pr(o) when o carries no information.
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 3, 4).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::uniform(3);
        for t in 1..=6 {
            let inputs = builder.candidate(&flat()).unwrap();
            let prior = inputs.prior(&pi);
            let jb = inputs.log_joint_event(&pi);
            let jc = inputs.log_joint_total(&pi);
            assert!(
                (jb - jc - prior.ln()).abs() < 1e-10,
                "t={t}: log jb {jb}, log jc {jc}, prior {prior}"
            );
            builder.commit(flat()).unwrap();
        }
    }

    #[test]
    fn candidate_does_not_mutate_state() {
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 2, 3).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let sharp = Vector::from(vec![0.9, 0.05, 0.05]);
        let i1 = builder.candidate(&sharp).unwrap();
        let i2 = builder.candidate(&sharp).unwrap();
        assert!(i1.b.max_abs_diff(&i2.b) < 1e-15);
        assert_eq!(builder.committed(), 0);
        builder.commit(sharp).unwrap();
        assert_eq!(builder.committed(), 1);
    }

    #[test]
    fn joint_total_is_observation_likelihood() {
        // π·c must equal Pr(o_1..o_t) computed by brute force.
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 2, 3).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::from(vec![0.5, 0.3, 0.2]);
        let m = MarkovModel::paper_example();
        let e1 = Vector::from(vec![0.7, 0.2, 0.1]);
        let e2 = Vector::from(vec![0.2, 0.6, 0.2]);

        // t = 1.
        let inputs = builder.candidate(&e1).unwrap();
        let expected: f64 = (0..3).map(|i| pi[i] * e1[i]).sum();
        assert!((inputs.log_joint_total(&pi) - expected.ln()).abs() < 1e-10);
        builder.commit(e1.clone()).unwrap();

        // t = 2: Σ_{i,j} π_i e1_i M_ij e2_j.
        let inputs = builder.candidate(&e2).unwrap();
        let mut expected2 = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                expected2 += pi[i] * e1[i] * m.transition().get(i, j) * e2[j];
            }
        }
        assert!((inputs.log_joint_total(&pi) - expected2.ln()).abs() < 1e-10);
    }

    #[test]
    fn post_event_timesteps_use_backward_chain() {
        // Event ends at t=2; observe through t=4 and ensure inputs remain
        // consistent: b ≤ c component-wise and prior stays fixed.
        let ev: StEvent = Presence::new(region(3, &[0]), 2, 2).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::uniform(3);
        let e = Vector::from(vec![0.5, 0.3, 0.2]);
        let mut priors = Vec::new();
        for _ in 1..=4 {
            let inputs = builder.candidate(&e).unwrap();
            for i in 0..3 {
                assert!(inputs.b[i] <= inputs.c[i] + 1e-12);
            }
            priors.push(inputs.prior(&pi));
            builder.commit(e.clone()).unwrap();
        }
        for w in priors.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12, "prior drifted: {priors:?}");
        }
    }

    #[test]
    fn pattern_events_flow_through_builder() {
        let ev: StEvent = Pattern::new(vec![region(3, &[0, 1]), region(3, &[1, 2])], 2)
            .unwrap()
            .into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::uniform(3);
        let e = Vector::from(vec![0.6, 0.3, 0.1]);
        for _ in 1..=5 {
            let inputs = builder.candidate(&e).unwrap();
            let loss = inputs.privacy_loss(&pi).unwrap();
            assert!(loss.is_finite());
            builder.commit(e.clone()).unwrap();
        }
    }

    #[test]
    fn reset_and_clone_replay_identically() {
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 2, 3).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let cols = [
            Vector::from(vec![0.7, 0.2, 0.1]),
            Vector::from(vec![0.2, 0.6, 0.2]),
            Vector::from(vec![0.3, 0.3, 0.4]),
        ];
        let mut first = Vec::new();
        for col in &cols {
            first.push(builder.candidate(col).unwrap());
            builder.commit(col.clone()).unwrap();
        }
        // A clone taken mid-stream carries the committed history.
        builder.reset();
        let snapshot = {
            let mut b = builder.clone();
            b.commit(cols[0].clone()).unwrap();
            b
        };
        assert_eq!(builder.committed(), 0, "reset must rewind the original");
        assert_eq!(snapshot.committed(), 1, "clone advances independently");
        // Replaying after reset reproduces the exact inputs.
        for (col, old) in cols.iter().zip(&first) {
            let redo = builder.candidate(col).unwrap();
            assert_eq!(redo.t, old.t);
            assert!(redo.b.max_abs_diff(&old.b) < 1e-15);
            assert!(redo.c.max_abs_diff(&old.c) < 1e-15);
            assert_eq!(redo.bc_log_scale, old.bc_log_scale);
            builder.commit(col.clone()).unwrap();
        }
        // The mid-stream snapshot matches the t=2 candidate of the replay.
        let snap_inputs = snapshot.candidate(&cols[1]).unwrap();
        assert!(snap_inputs.b.max_abs_diff(&first[1].b) < 1e-15);
    }

    #[test]
    fn emission_validation() {
        let ev: StEvent = Presence::new(region(3, &[0]), 2, 2).unwrap().into();
        let builder = TheoremBuilder::new(&ev, chain()).unwrap();
        assert!(matches!(
            builder.candidate(&Vector::from(vec![0.5, 0.5])),
            Err(QuantifyError::InvalidEmission { .. })
        ));
        assert!(matches!(
            builder.candidate(&Vector::from(vec![0.5, -0.1, 0.6])),
            Err(QuantifyError::InvalidEmission { .. })
        ));
    }

    #[test]
    fn privacy_loss_reports_degenerate_prior() {
        // Region {s1} at t=2 but chain row from s3 never reaches s1 and π
        // is a point mass on s3 … prior = Pr(u2 = s1 | u1 = s3) = 0.
        let ev: StEvent = Presence::new(region(3, &[0]), 2, 2).unwrap().into();
        let builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::from(vec![0.0, 0.0, 1.0]);
        let inputs = builder.candidate(&flat()).unwrap();
        assert!(matches!(
            inputs.privacy_loss(&pi),
            Err(QuantifyError::DegeneratePrior { .. })
        ));
    }

    #[test]
    fn informative_emissions_on_event_region_increase_loss() {
        // An emission column sharply peaked on the event region makes the
        // observation evidence *for* the event: loss must be positive.
        let ev: StEvent = Presence::new(region(3, &[0]), 2, 2).unwrap().into();
        let mut builder = TheoremBuilder::new(&ev, chain()).unwrap();
        let pi = Vector::uniform(3);
        let peaked = Vector::from(vec![0.98, 0.01, 0.01]);
        builder.commit(flat()).unwrap(); // t=1 uninformative
        let inputs = builder.candidate(&peaked).unwrap();
        let loss = inputs.privacy_loss(&pi).unwrap();
        assert!(loss > 0.1, "expected substantial loss, got {loss}");
    }
}
