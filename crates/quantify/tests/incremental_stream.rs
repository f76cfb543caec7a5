//! Streaming-vs-offline equivalence: [`IncrementalTwoWorld`] fed one
//! observation at a time must agree with [`TheoremBuilder`] run over the
//! whole horizon, for random models, events and observation streams — the
//! engine-vs-enumeration oracle pattern of `tests/oracle.rs`, one layer up.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::{Matrix, Vector};
use priste_markov::{Homogeneous, MarkovModel};
use priste_quantify::attack::BayesianAdversary;
use priste_quantify::{
    EventModel, IncrementalTwoWorld, QuantifyError, TheoremBuilder, TwoWorldEngine, WindowStart,
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

fn random_emission(rng: &mut StdRng, m: usize) -> Vector {
    Vector::from(
        (0..m)
            .map(|_| rng.gen::<f64>() * 0.9 + 0.1)
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-step joints, posteriors and losses from the incremental state
    /// equal the offline builder replaying the whole horizon.
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
            builder.commit(col).unwrap();
        }
    }

    /// The incremental posterior is the exact Bayesian adversary's.
    #[test]
    fn incremental_posterior_is_the_adversary_posterior(
        mat in stochastic_matrix(4),
        pi in distribution(4),
        ev in st_event(4),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        // The shim inlines this body into the per-case loop, so `continue`
        // skips just this sampled case.
        let Some(mut inc) = build_or_skip(&ev, &chain, &pi) else { continue };
        let mut adv = BayesianAdversary::new(&ev, &chain, pi).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ev.end() + 2 {
            let col = random_emission(&mut rng, 4);
            let stream = inc.observe(&col).unwrap();
            let inf = adv.observe(&col).unwrap();
            prop_assert!(
                (stream.posterior - inf.posterior).abs() < 1e-9,
                "posterior {} vs {} ({})", stream.posterior, inf.posterior, ev
            );
        }
    }

    /// The batched path (one shared [`LiftedStep`] applied via
    /// `apply_rows`, then `observe_pre_stepped`) is the same recursion.
    #[test]
    fn pre_stepped_batching_equals_sequential_observe(
        mat in stochastic_matrix(3),
        pi in distribution(3),
        ev in st_event(3),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let Some(mut plain) = build_or_skip(&ev, &chain, &pi) else { continue };
        let mut batched = plain.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ev.end() + 2 {
            let col = random_emission(&mut rng, 3);
            let a = plain.observe(&col).unwrap();
            let stepped = match batched.next_step_index() {
                None => batched.lifted_state().clone(),
                Some(idx) => {
                    let engine = TwoWorldEngine::new(batched.event(), &chain).unwrap();
                    engine
                        .step_at(idx)
                        .apply_rows(std::slice::from_ref(batched.lifted_state()))
                        .pop()
                        .unwrap()
                }
            };
            let b = batched.observe_pre_stepped(stepped, &col).unwrap();
            prop_assert!((a.log_joint_event - b.log_joint_event).abs() < 1e-12);
            prop_assert!((a.log_joint_total - b.log_joint_total).abs() < 1e-12);
            prop_assert!((a.posterior - b.posterior).abs() < 1e-12);
        }
    }

    /// Windows built on one shared [`EventModel`] are bit-identical to
    /// windows that own a private one (`new`), through `peek`, `observe`,
    /// `observe_pre_stepped`, and a mid-stream `resume`.
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

            let stepped = match shared_b.next_step_index() {
                None => shared_b.lifted_state().clone(),
                Some(idx) => TwoWorldEngine::new(model.event(), &chain)
                    .unwrap()
                    .step_at(idx)
                    .apply_rows(std::slice::from_ref(shared_b.lifted_state()))
                    .pop()
                    .unwrap(),
            };
            prop_assert_eq!(
                private_b.observe_pre_stepped(stepped.clone(), &col).unwrap(),
                shared_b.observe_pre_stepped(stepped, &col).unwrap()
            );
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
}
