use crate::lifted::LiftedStep;
use crate::{QuantifyError, Result};
use priste_event::StEvent;
use priste_linalg::Vector;
use priste_markov::TransitionProvider;

/// Per-event schedule of two-possible-world transitions.
///
/// Maps the paper's piecewise definitions (Eqs. (4)–(8)) onto a single
/// query: *which lifted shape governs the step `t → t+1`?* — plus the
/// initial-state lifting and the Lemma III.1 prior.
///
/// The paper's formulas assume `start ≥ 2` (mass can only enter the true
/// world through a transition). For events starting at `t = 1` the initial
/// vector itself is lifted world-aware: `[π∘(1−s), π∘s]`, so membership at
/// the first timestamp is counted (a deviation: with the paper's
/// all-false initial lift, presence at `t = 1` would never count).
#[derive(Debug, Clone)]
pub struct TwoWorldEngine<'e, P> {
    event: &'e StEvent,
    provider: P,
}

impl<'e, P: TransitionProvider> TwoWorldEngine<'e, P> {
    /// Couples an event with a transition source.
    ///
    /// # Errors
    /// [`QuantifyError::DomainMismatch`] if their state domains differ.
    pub fn new(event: &'e StEvent, provider: P) -> Result<Self> {
        if event.num_cells() != provider.num_states() {
            return Err(QuantifyError::DomainMismatch {
                event: event.num_cells(),
                provider: provider.num_states(),
            });
        }
        Ok(TwoWorldEngine { event, provider })
    }

    /// The event being encoded.
    pub fn event(&self) -> &StEvent {
        self.event
    }

    /// The transition source.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// State-domain size `m`.
    pub fn num_states(&self) -> usize {
        self.provider.num_states()
    }

    /// The lifted shape governing the step `t → t+1` (`t ≥ 1`), per
    /// Eqs. (4)–(8).
    pub fn step_at(&self, t: usize) -> LiftedStep<'_> {
        assert!(t >= 1, "transition steps are 1-based");
        let m = self.provider.transition_at(t);
        let (start, end) = (self.event.start(), self.event.end());
        match self.event {
            StEvent::Presence(p) => {
                // Eq. (4) while entering/inside the window, Eq. (5) outside.
                if t + 1 >= start && t < end {
                    LiftedStep::Capture {
                        m,
                        region: p.region(),
                    }
                } else {
                    LiftedStep::BlockDiagonal { m }
                }
            }
            StEvent::Pattern(p) => {
                if t + 1 == start {
                    // Eq. (6): first entry into the pattern's opening region.
                    LiftedStep::Capture {
                        m,
                        region: p.region_at(start).expect("start is inside the window"),
                    }
                } else if t >= start && t < end {
                    // Eq. (7): must stay inside the region of the
                    // *destination* timestamp t+1 (the paper's index is
                    // ambiguous here; this is the reading `StEvent::eval`
                    // defines, checked against enumeration in
                    // tests/oracle.rs).
                    LiftedStep::Hold {
                        m,
                        region: p.region_at(t + 1).expect("t+1 is inside the window"),
                    }
                } else {
                    // Eq. (8).
                    LiftedStep::BlockDiagonal { m }
                }
            }
        }
    }

    /// Lifts an initial distribution into the doubled space: `[π, 0]` for
    /// events starting at `t ≥ 2`; world-split `[π∘(1−s), π∘s]` for events
    /// whose window opens at `t = 1`.
    ///
    /// # Errors
    /// [`QuantifyError::InvalidInitial`] if `π` has the wrong length (the
    /// caller validates distribution-ness where it matters).
    pub fn initial_lift(&self, pi: &Vector) -> Result<Vector> {
        let m = self.num_states();
        if pi.len() != m {
            return Err(QuantifyError::InvalidInitial(
                priste_linalg::LinalgError::DimensionMismatch {
                    op: "initial distribution",
                    expected: m,
                    actual: pi.len(),
                },
            ));
        }
        if self.event.start() >= 2 {
            return Ok(pi.concat(&Vector::zeros(m)));
        }
        let region = self.opening_region();
        let s = region.indicator();
        let not_s = region.complement_indicator();
        let f = pi.hadamard(&not_s).expect("lengths match");
        let t = pi.hadamard(&s).expect("lengths match");
        Ok(f.concat(&t))
    }

    /// Reduces a lifted `2m` coefficient vector `v` to the `m`-vector `r`
    /// with `initial_lift(π) · v = π · r` for every `π` — the projection
    /// `[1^D, 0^D]` of Theorem IV.1, generalized to the `start = 1` lift.
    ///
    /// # Panics
    /// Panics if `v.len() != 2m`.
    pub fn reduce(&self, v: &Vector) -> Vector {
        let m = self.num_states();
        assert_eq!(v.len(), 2 * m, "reduce expects a lifted vector");
        let (vf, vt) = v.split_halves();
        if self.event.start() >= 2 {
            return vf;
        }
        let region = self.opening_region();
        let s = region.indicator();
        let not_s = region.complement_indicator();
        vf.hadamard(&not_s)
            .expect("lengths match")
            .add(&vt.hadamard(&s).expect("lengths match"))
            .expect("lengths match")
    }

    fn opening_region(&self) -> &priste_geo::Region {
        match self.event {
            StEvent::Presence(p) => p.region(),
            StEvent::Pattern(p) => p.region_at(p.start()).expect("start is inside the window"),
        }
    }

    /// Suffix products `u_t = ∏_{i=t}^{end−1} M_i · [0, 1]ᵀ` for
    /// `t = 1, …, end` (returned with `u_t` at index `t − 1`;
    /// `u_end = [0, 1]ᵀ`). `u_1` is Theorem IV.1's `aᵀ` (Eq. (17)), and
    /// `u_t` closes the Lemma III.2 products for observations up to `t`.
    pub fn suffix_true_vectors(&self) -> Vec<Vector> {
        let m = self.num_states();
        let end = self.event.end();
        let mut out = vec![Vector::zeros(0); end];
        out[end - 1] = Vector::zeros(m).concat(&Vector::ones(m));
        for t in (1..end).rev() {
            out[t - 1] = self.step_at(t).apply_col(&out[t]);
        }
        out
    }

    /// Prior probability of the event (Lemma III.1):
    /// `Pr(EVENT) = [π, 0] · ∏_{i=1}^{end−1} M_i · [0, 1]ᵀ`.
    ///
    /// # Errors
    /// [`QuantifyError::InvalidInitial`] if `π` is not a distribution over
    /// the state domain.
    pub fn prior(&self, pi: &Vector) -> Result<f64> {
        pi.validate_distribution()
            .map_err(QuantifyError::InvalidInitial)?;
        let lifted = self.initial_lift(pi)?;
        // Forward orientation: cheaper than building suffix vectors when
        // only the prior is needed, and numerically identical.
        let mut state = lifted;
        for t in 1..self.event.end() {
            state = self.step_at(t).apply_row(&state);
        }
        let (_, true_world) = state.split_halves();
        Ok(true_world.sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_event::{Pattern, Presence};
    use priste_geo::{CellId, Region};
    use priste_markov::{Homogeneous, MarkovModel};

    fn region(num_cells: usize, ids: &[usize]) -> Region {
        Region::from_cells(num_cells, ids.iter().map(|&i| CellId(i))).unwrap()
    }

    fn paper_chain() -> Homogeneous {
        Homogeneous::new(MarkovModel::paper_example())
    }

    #[test]
    fn domain_mismatch_is_rejected() {
        let ev: StEvent = Presence::new(region(4, &[0]), 2, 3).unwrap().into();
        assert!(matches!(
            TwoWorldEngine::new(&ev, paper_chain()),
            Err(QuantifyError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn paper_example_c1_prior() {
        // Example C.1: PRESENCE(S={s1,s2}, T={3,4}) on the Eq. (2) chain
        // gives Pr = π · [0.28, 0.298, 0.226]ᵀ.
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 3, 4).unwrap().into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        for pi in [
            Vector::from(vec![1.0, 0.0, 0.0]),
            Vector::from(vec![0.0, 1.0, 0.0]),
            Vector::from(vec![0.0, 0.0, 1.0]),
            Vector::from(vec![0.2, 0.3, 0.5]),
        ] {
            let expected = pi.dot(&Vector::from(vec![0.28, 0.298, 0.226])).unwrap();
            let got = engine.prior(&pi).unwrap();
            assert!(
                (got - expected).abs() < 1e-12,
                "pi {:?}: {got} vs {expected}",
                pi.as_slice()
            );
        }
    }

    #[test]
    fn suffix_u1_reduction_matches_prior() {
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 3, 4).unwrap().into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        let suffix = engine.suffix_true_vectors();
        let a = engine.reduce(&suffix[0]);
        // Example C.1 again, via the column orientation.
        assert!(a.max_abs_diff(&Vector::from(vec![0.28, 0.298, 0.226])) < 1e-12);
    }

    #[test]
    fn presence_step_schedule_matches_paper_window() {
        // Event at T={3,4}: captures at t=2,3; diagonal at t=1 and t≥4.
        let ev: StEvent = Presence::new(region(3, &[0, 1]), 3, 4).unwrap().into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        assert!(matches!(
            engine.step_at(1),
            LiftedStep::BlockDiagonal { .. }
        ));
        assert!(matches!(engine.step_at(2), LiftedStep::Capture { .. }));
        assert!(matches!(engine.step_at(3), LiftedStep::Capture { .. }));
        assert!(matches!(
            engine.step_at(4),
            LiftedStep::BlockDiagonal { .. }
        ));
        assert!(matches!(
            engine.step_at(5),
            LiftedStep::BlockDiagonal { .. }
        ));
    }

    #[test]
    fn pattern_step_schedule() {
        // PATTERN over t=2..4: capture at t=1, hold at t=2,3, diagonal after.
        let ev: StEvent = Pattern::new(
            vec![region(3, &[0, 1]), region(3, &[1, 2]), region(3, &[0])],
            2,
        )
        .unwrap()
        .into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        assert!(matches!(engine.step_at(1), LiftedStep::Capture { .. }));
        assert!(matches!(engine.step_at(2), LiftedStep::Hold { .. }));
        assert!(matches!(engine.step_at(3), LiftedStep::Hold { .. }));
        assert!(matches!(
            engine.step_at(4),
            LiftedStep::BlockDiagonal { .. }
        ));
        // Hold at t=2 must require the region of the destination time t=3.
        if let LiftedStep::Hold { region: r, .. } = engine.step_at(2) {
            assert!(r.contains(CellId(1)) && r.contains(CellId(2)) && !r.contains(CellId(0)));
        } else {
            panic!("expected hold at t=2");
        }
    }

    #[test]
    fn prior_matches_hand_enumeration_for_pattern() {
        // PATTERN {s1,s2}@2 then {s2,s3}@3 on the Eq. (2) chain, π uniform.
        let ev: StEvent = Pattern::new(vec![region(3, &[0, 1]), region(3, &[1, 2])], 2)
            .unwrap()
            .into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        let pi = Vector::uniform(3);
        let m = MarkovModel::paper_example();
        // Enumerate all 27 trajectories of length 3 by hand.
        let mut expected = 0.0;
        for u1 in 0..3 {
            for u2 in 0..3 {
                for u3 in 0..3 {
                    let in_pattern = (u2 == 0 || u2 == 1) && (u3 == 1 || u3 == 2);
                    if in_pattern {
                        expected += pi[u1]
                            * m.transition_matrix().get(u1, u2)
                            * m.transition_matrix().get(u2, u3);
                    }
                }
            }
        }
        let got = engine.prior(&pi).unwrap();
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn start_one_presence_counts_first_timestamp() {
        // PRESENCE(S={s1}, T={1}): prior is exactly π₁.
        let ev: StEvent = Presence::new(region(3, &[0]), 1, 1).unwrap().into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        let pi = Vector::from(vec![0.6, 0.3, 0.1]);
        assert!((engine.prior(&pi).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn start_one_pattern_requires_both_steps() {
        // PATTERN {s1}@1 then {s3}@2: Pr = π₁ · M[0][2].
        let ev: StEvent = Pattern::new(vec![region(3, &[0]), region(3, &[2])], 1)
            .unwrap()
            .into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        let pi = Vector::from(vec![0.5, 0.25, 0.25]);
        assert!((engine.prior(&pi).unwrap() - 0.5 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn reduce_is_adjoint_of_initial_lift() {
        for ev in [
            StEvent::from(Presence::new(region(3, &[0, 1]), 1, 2).unwrap()),
            StEvent::from(Presence::new(region(3, &[0, 1]), 3, 4).unwrap()),
            StEvent::from(Pattern::new(vec![region(3, &[2]), region(3, &[1])], 1).unwrap()),
        ] {
            let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
            let pi = Vector::from(vec![0.2, 0.5, 0.3]);
            let v = Vector::from(vec![0.1, 0.9, 0.4, 0.7, 0.3, 0.2]);
            let direct = engine.initial_lift(&pi).unwrap().dot(&v).unwrap();
            let reduced = pi.dot(&engine.reduce(&v)).unwrap();
            assert!((direct - reduced).abs() < 1e-14, "event {ev}");
        }
    }

    #[test]
    fn prior_plus_complement_is_one() {
        let ev: StEvent = Presence::new(region(3, &[1]), 2, 5).unwrap().into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        let pi = Vector::from(vec![0.3, 0.4, 0.3]);
        let lifted = engine.initial_lift(&pi).unwrap();
        let mut state = lifted;
        for t in 1..ev.end() {
            state = engine.step_at(t).apply_row(&state);
        }
        // Total mass is conserved; true + false worlds partition it.
        assert!((state.sum() - 1.0).abs() < 1e-12);
        let (f, tr) = state.split_halves();
        assert!((f.sum() + tr.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prior_rejects_bad_initial() {
        let ev: StEvent = Presence::new(region(3, &[0]), 2, 3).unwrap().into();
        let engine = TwoWorldEngine::new(&ev, paper_chain()).unwrap();
        assert!(engine.prior(&Vector::from(vec![0.5, 0.2, 0.1])).is_err());
        assert!(engine.prior(&Vector::uniform(4)).is_err());
    }
}
