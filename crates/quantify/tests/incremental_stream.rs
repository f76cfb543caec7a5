//! Streaming-vs-offline equivalence: [`IncrementalTwoWorld`] fed one
//! observation at a time must agree with [`TheoremBuilder`] run over the
//! whole horizon, for random models, events and observation streams — the
//! engine-vs-enumeration oracle pattern of `tests/oracle.rs`, one layer up.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::scaling::ScaledVector;
use priste_linalg::{Matrix, SparseMatrix, Vector};
use priste_markov::{Homogeneous, MarkovModel};
use priste_quantify::lifted::{lift_emission, StepScratch};
use priste_quantify::{
    EventModel, IncrementalTwoWorld, QuantifyError, StreamStep, TheoremBuilder, TwoWorldEngine,
    WindowStart,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Strategy: a random row-stochastic matrix of size m.
fn stochastic_matrix(m: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, m), m).prop_map(move |rows| {
        let mut mat = Matrix::from_rows(&rows).unwrap();
        mat.normalize_rows_mut();
        mat
    })
}

/// Strategy: a random probability distribution of length m.
fn distribution(m: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.01f64..1.0, m).prop_map(|raw| {
        let mut v = Vector::from(raw);
        v.normalize_mut().unwrap();
        v
    })
}

/// Strategy: a proper (non-empty, non-full) region over m cells.
fn region(m: usize) -> impl Strategy<Value = Region> {
    proptest::collection::vec(proptest::bool::ANY, m)
        .prop_filter("region must be proper", |bits| {
            let k = bits.iter().filter(|&&b| b).count();
            k > 0 && k < bits.len()
        })
        .prop_map(move |bits| {
            Region::from_cells(
                m,
                bits.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| CellId(i)),
            )
            .unwrap()
        })
}

/// Strategy: a random PRESENCE or PATTERN event over m cells.
fn st_event(m: usize) -> impl Strategy<Value = StEvent> {
    (1usize..=3, 1usize..=3, region(m), proptest::bool::ANY).prop_flat_map(
        move |(start, len, r, is_presence)| {
            let end = start + len - 1;
            if is_presence {
                Just(StEvent::from(Presence::new(r.clone(), start, end).unwrap())).boxed()
            } else {
                proptest::collection::vec(region(m), len)
                    .prop_map(move |rs| StEvent::from(Pattern::new(rs, start).unwrap()))
                    .boxed()
            }
        },
    )
}

/// Builds the incremental state, skipping degenerate-prior cases (a random
/// event can be certain or impossible under a random chain).
fn build_or_skip<'c>(
    ev: &StEvent,
    chain: &'c Homogeneous,
    pi: &Vector,
) -> Option<IncrementalTwoWorld<&'c Homogeneous>> {
    match IncrementalTwoWorld::new(ev.clone(), chain, pi.clone()) {
        Ok(inc) => Some(inc),
        Err(QuantifyError::DegeneratePrior { .. }) => None,
        Err(e) => panic!("unexpected construction error: {e}"),
    }
}

/// Raw bit patterns, so equality means bit-identical (not merely `==`).
fn bits(v: &Vector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Every field of a [`StreamStep`], as bits.
fn step_bits(s: &StreamStep) -> (usize, [u64; 6]) {
    let fields = [
        s.prior,
        s.log_joint_event,
        s.log_joint_total,
        s.posterior,
        s.odds_lift,
        s.privacy_loss,
    ];
    (s.t, fields.map(f64::to_bits))
}

fn random_emission(rng: &mut StdRng, m: usize) -> Vector {
    Vector::from(
        (0..m)
            .map(|_| rng.gen::<f64>() * 0.9 + 0.1)
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-step joints, posteriors, odds lifts and losses from the
    /// incremental state equal the offline builder replaying the whole
    /// horizon: the posterior is exact Bayes `(π·b)/(π·c)`, the odds lift
    /// is the likelihood ratio `Pr(o|E)/Pr(o|¬E)`, and the loss is
    /// [`TheoremInputs::privacy_loss`](priste_quantify::TheoremInputs::privacy_loss).
    #[test]
    fn incremental_equals_full_horizon_replay(
        mat in stochastic_matrix(3),
        pi in distribution(3),
        ev in st_event(3),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        // A random event can be certain/impossible under a random chain;
        // there is no ratio to track and nothing to compare.
        // The shim inlines this body into the per-case loop, so `continue`
        // skips just this sampled case.
        let Some(mut inc) = build_or_skip(&ev, &chain, &pi) else { continue };
        let mut builder = TheoremBuilder::new(&ev, &chain).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // Observe two steps past the event end to exercise the Lemma III.3
        // (post-event, backward-chain) regime on the offline side.
        let horizon = ev.end() + 2;
        for t in 1..=horizon {
            let col = random_emission(&mut rng, 3);
            let stream = inc.observe(&col).unwrap();
            let inputs = builder.candidate(&col).unwrap();
            prop_assert_eq!(stream.t, t);
            prop_assert!((stream.prior - inputs.prior(&pi)).abs() < 1e-12);
            let (off_jb, off_jc) = (inputs.log_joint_event(&pi), inputs.log_joint_total(&pi));
            prop_assert!(
                (stream.log_joint_event - off_jb).abs() < 1e-9
                    || (stream.log_joint_event == f64::NEG_INFINITY
                        && off_jb == f64::NEG_INFINITY),
                "t={} joint(E): {} vs {} ({})", t, stream.log_joint_event, off_jb, ev
            );
            prop_assert!(
                (stream.log_joint_total - off_jc).abs() < 1e-9,
                "t={} joint(o): {} vs {} ({})", t, stream.log_joint_total, off_jc, ev
            );
            let prior = inputs.prior(&pi);
            let jb = pi.dot(&inputs.b).unwrap();
            let jc = pi.dot(&inputs.c).unwrap();
            prop_assert!(
                (stream.posterior - jb / jc).abs() < 1e-9,
                "t={} posterior: {} vs {} ({})", t, stream.posterior, jb / jc, ev
            );
            let ratio = (jb / prior) / ((jc - jb) / (1.0 - prior));
            prop_assert!(
                (stream.odds_lift.ln() - ratio.ln()).abs() < 1e-9,
                "t={} odds lift: {} vs likelihood ratio {} ({})", t, stream.odds_lift, ratio, ev
            );
            if let Ok(loss) = inputs.privacy_loss(&pi) {
                prop_assert!(
                    (stream.privacy_loss - loss).abs() < 1e-9,
                    "t={} loss: {} vs {} ({})", t, stream.privacy_loss, loss, ev
                );
            }
            builder.commit(col).unwrap();
        }
    }

    /// The batched path — one shared [`LiftedStep`] per window age, run by
    /// `observe_with_step` through one reused [`StepScratch`] — is
    /// `observe`, bit for bit: every report field, the mantissa and the log
    /// scale, on dense and CSR chains. Windows over one start join the
    /// stream at staggered times, so the scratch serves several windows at
    /// several ages; once a window owns its forward vector it is updated
    /// in place, and the start's shared vector is never written.
    #[test]
    fn scratch_step_equals_observe_bit_for_bit(
        mat in stochastic_matrix(4),
        pis in proptest::collection::vec(distribution(4), 1..4),
        ev in st_event(4),
        seed in 0u64..u64::MAX / 2,
    ) {
        let sparse = SparseMatrix::from_dense(&mat, 0.0);
        for chain in [
            Homogeneous::new(MarkovModel::new(mat.clone()).unwrap()),
            Homogeneous::new(MarkovModel::new_sparse(sparse.clone()).unwrap()),
        ] {
            let model = Arc::new(EventModel::new(ev.clone(), &chain).unwrap());
            let mut windows = Vec::new();
            for pi in &pis {
                let start = match WindowStart::new(&model, &chain, Arc::new(pi.clone())) {
                    Ok(start) => start,
                    Err(QuantifyError::DegeneratePrior { .. }) => continue,
                    Err(e) => panic!("unexpected construction error: {e}"),
                };
                let oracle = IncrementalTwoWorld::from_start(Arc::clone(&model), &chain, start);
                let idle = oracle.clone();
                let initial = bits(idle.lifted_state());
                windows.push((oracle.clone(), oracle, idle, initial, None));
            }
            let mut scratch = StepScratch::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for t in 0..ev.end() + 2 + windows.len() {
                for (i, (oracle, batched, _, _, owned)) in windows.iter_mut().enumerate() {
                    if t < i {
                        continue;
                    }
                    let col = random_emission(&mut rng, 4);
                    let want = oracle.observe(&col).unwrap();
                    let got = match batched.next_step_index() {
                        None => batched.observe(&col).unwrap(),
                        Some(idx) => {
                            let engine = TwoWorldEngine::new(model.event(), &chain).unwrap();
                            let got = batched
                                .observe_with_step(&engine.step_at(idx), &mut scratch, &col)
                                .unwrap();
                            let at = batched.lifted_state() as *const Vector;
                            prop_assert_eq!(*owned.get_or_insert(at), at, "owned: in place");
                            got
                        }
                    };
                    prop_assert_eq!(step_bits(&want), step_bits(&got));
                    prop_assert_eq!(bits(oracle.lifted_state()), bits(batched.lifted_state()));
                    prop_assert_eq!(oracle.log_scale().to_bits(), batched.log_scale().to_bits());
                }
            }
            for (_, _, idle, initial, _) in &windows {
                prop_assert_eq!(&bits(idle.lifted_state()), initial);
                prop_assert_eq!(idle.observed(), 0);
            }
        }
    }

    /// Windows built on one shared [`EventModel`] are bit-identical to
    /// windows that own a private one (`new`), through `peek`, `observe`,
    /// `observe_with_step`, and a mid-stream `resume`.
    #[test]
    fn shared_model_windows_equal_private_ones_bit_for_bit(
        mat in stochastic_matrix(4),
        pi in distribution(4),
        ev in st_event(4),
        seed in 0u64..u64::MAX / 2,
        resume_at in 0usize..4,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let Some(mut private) = build_or_skip(&ev, &chain, &pi) else { continue };
        let model = Arc::new(EventModel::new(ev.clone(), &chain).unwrap());
        let mut shared =
            IncrementalTwoWorld::from_model(Arc::clone(&model), &chain, pi.clone()).unwrap();
        let mut private_b = private.clone();
        let mut shared_b = shared.clone();
        let mut scratch = StepScratch::default();
        prop_assert_eq!(private.prior().to_bits(), shared.prior().to_bits());
        prop_assert_eq!(bits(private.lifted_state()), bits(shared.lifted_state()));
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..ev.end() + 2 {
            if t == resume_at {
                shared = IncrementalTwoWorld::resume(
                    Arc::clone(&model),
                    &chain,
                    WindowStart::new(&model, &chain, Arc::new(pi.clone())).unwrap(),
                    shared.lifted_state().clone(),
                    shared.log_scale(),
                    shared.observed(),
                )
                .unwrap();
            }
            let col = random_emission(&mut rng, 4);
            prop_assert_eq!(private.peek(&col).unwrap(), shared.peek(&col).unwrap());
            prop_assert_eq!(private.observe(&col).unwrap(), shared.observe(&col).unwrap());
            prop_assert_eq!(bits(private.lifted_state()), bits(shared.lifted_state()));
            prop_assert_eq!(private.log_scale().to_bits(), shared.log_scale().to_bits());

            match shared_b.next_step_index() {
                None => prop_assert_eq!(
                    private_b.observe(&col).unwrap(),
                    shared_b.observe(&col).unwrap()
                ),
                Some(idx) => {
                    let engine = TwoWorldEngine::new(model.event(), &chain).unwrap();
                    let step = engine.step_at(idx);
                    prop_assert_eq!(
                        private_b.observe_with_step(&step, &mut scratch, &col).unwrap(),
                        shared_b.observe_with_step(&step, &mut scratch, &col).unwrap()
                    );
                }
            }
            prop_assert_eq!(bits(private_b.lifted_state()), bits(shared_b.lifted_state()));
        }
        // One table served every shared window, however many were built.
        prop_assert!(Arc::ptr_eq(shared.model(), &model));
        prop_assert!(Arc::ptr_eq(shared_b.model(), &model));
    }

    /// Windows started from one shared [`WindowStart`] are bit-identical to
    /// `from_model` windows, share `π` and the initial vector until they
    /// observe, and never write through to each other: each observation
    /// installs the observer's own forward vector.
    #[test]
    fn windows_from_one_start_match_from_model_and_never_alias(
        mat in stochastic_matrix(4),
        pi in distribution(4),
        ev in st_event(4),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let Some(mut private) = build_or_skip(&ev, &chain, &pi) else { continue };
        let model = Arc::new(EventModel::new(ev.clone(), &chain).unwrap());
        let start = WindowStart::new(&model, &chain, Arc::new(pi.clone())).unwrap();
        prop_assert!(start.matches(private.lifted_state().as_slice(), private.log_scale()));
        prop_assert_eq!(start.prior().to_bits(), private.prior().to_bits());
        let mut a = IncrementalTwoWorld::from_start(Arc::clone(&model), &chain, start.clone());
        let b = IncrementalTwoWorld::from_start(Arc::clone(&model), &chain, start.clone());
        prop_assert!(std::ptr::eq(a.pi(), b.pi()));
        prop_assert!(std::ptr::eq(a.lifted_state(), b.lifted_state()));
        let idle_bits = bits(b.lifted_state());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ev.end() + 2 {
            let col = random_emission(&mut rng, 4);
            prop_assert_eq!(private.observe(&col).unwrap(), a.observe(&col).unwrap());
            prop_assert_eq!(bits(private.lifted_state()), bits(a.lifted_state()));
            prop_assert_eq!(private.log_scale().to_bits(), a.log_scale().to_bits());
        }
        prop_assert!(!std::ptr::eq(a.lifted_state(), b.lifted_state()));
        prop_assert_eq!(bits(b.lifted_state()), idle_bits);
        prop_assert_eq!(b.observed(), 0);
        // Rewinding installs a fresh initial vector with the start's bits.
        a.reset();
        prop_assert!(start.matches(a.lifted_state().as_slice(), a.log_scale()));
        // A dead start cannot be revived from its weak handle.
        let weak = start.downgrade();
        prop_assert!(weak.upgrade().is_some());
        drop((start, a, b));
        prop_assert!(weak.upgrade().is_none());
    }

    /// The staged peek is the plain peek is the next observation, bit for
    /// bit, at `t = 0` and at every later age, on dense and CSR chains: one
    /// [`IncrementalTwoWorld::stage`] serves several candidates through
    /// [`IncrementalTwoWorld::peek_staged`], each equal to `peek`; the
    /// committed candidate's `peek` equals what `observe` and
    /// `observe_with_step` report; and the forward vector both install
    /// equals an independent step → `hadamard(lift_emission)` →
    /// renormalize of the previous one. Staging and peeking never touch
    /// the window.
    #[test]
    fn staged_peek_equals_peek_equals_next_observation_bit_for_bit(
        mat in stochastic_matrix(4),
        pi in distribution(4),
        ev in st_event(4),
        seed in 0u64..u64::MAX / 2,
        candidates in 1usize..4,
    ) {
        let sparse = SparseMatrix::from_dense(&mat, 0.0);
        for chain in [
            Homogeneous::new(MarkovModel::new(mat.clone()).unwrap()),
            Homogeneous::new(MarkovModel::new_sparse(sparse.clone()).unwrap()),
        ] {
            let Some(mut plain) = build_or_skip(&ev, &chain, &pi) else { continue };
            let mut batched = plain.clone();
            let model = Arc::clone(plain.model());
            let engine = TwoWorldEngine::new(model.event(), &chain).unwrap();
            let mut staged = StepScratch::default();
            let mut scratch = StepScratch::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..ev.end() + 2 {
                let before = (bits(plain.lifted_state()), plain.log_scale().to_bits(), plain.observed());
                plain.stage(&mut staged);
                let cols: Vec<Vector> =
                    (0..candidates).map(|_| random_emission(&mut rng, 4)).collect();
                for col in &cols {
                    let peeked = plain.peek(col).unwrap();
                    let staged_peek = plain.peek_staged(&mut staged, col).unwrap();
                    prop_assert_eq!(step_bits(&staged_peek), step_bits(&peeked));
                }
                let after = (bits(plain.lifted_state()), plain.log_scale().to_bits(), plain.observed());
                prop_assert_eq!(&after, &before);

                let col = cols.last().unwrap();
                let want = plain.peek_staged(&mut staged, col).unwrap();
                let stepped = match plain.next_step_index() {
                    None => plain.lifted_state().clone(),
                    Some(idx) => engine.step_at(idx).apply_row(plain.lifted_state()),
                };
                let mut oracle = ScaledVector {
                    vector: stepped.hadamard(&lift_emission(col)).unwrap(),
                    log_scale: plain.log_scale(),
                };
                oracle.renormalize();
                prop_assert_eq!(step_bits(&plain.observe(col).unwrap()), step_bits(&want));
                let via_step = match batched.next_step_index() {
                    None => batched.observe(col).unwrap(),
                    Some(idx) => batched
                        .observe_with_step(&engine.step_at(idx), &mut scratch, col)
                        .unwrap(),
                };
                prop_assert_eq!(step_bits(&via_step), step_bits(&want));
                for window in [&plain, &batched] {
                    prop_assert_eq!(bits(window.lifted_state()), bits(&oracle.vector));
                    prop_assert_eq!(window.log_scale().to_bits(), oracle.log_scale.to_bits());
                }
            }
        }
    }
}
