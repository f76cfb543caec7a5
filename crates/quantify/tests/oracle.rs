//! Oracle tests: the two-possible-world engine (linear time) must agree
//! with Appendix B's exponential enumeration on every probability it
//! reports, across randomized models, events and observation sequences.
//!
//! This is the central correctness argument of the reproduction: if prior
//! and joint agree with brute force everywhere, Lemmas III.1–III.3 and the
//! Theorem IV.1 coefficient vectors are implemented faithfully.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::{Matrix, Vector};
use priste_markov::{Homogeneous, MarkovModel, TimeVarying};
use priste_quantify::{naive, IncrementalTwoWorld, QuantifyError, TheoremBuilder, TwoWorldEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LIMIT: u128 = 1 << 24;

fn random_stochastic(rng: &mut StdRng, m: usize) -> Matrix {
    let mut mat = Matrix::zeros(m, m);
    for r in 0..m {
        // Occasional hard zeros exercise unreachable-state handling.
        let row: Vec<f64> = (0..m)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen::<f64>()
                }
            })
            .collect();
        let s: f64 = row.iter().sum();
        for (c, v) in row.iter().enumerate() {
            mat.set(r, c, if s > 0.0 { v / s } else { 1.0 / m as f64 });
        }
    }
    mat
}

fn random_pi(rng: &mut StdRng, m: usize) -> Vector {
    let raw: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() + 0.01).collect();
    let s: f64 = raw.iter().sum();
    Vector::from(raw.into_iter().map(|x| x / s).collect::<Vec<_>>())
}

fn random_region(rng: &mut StdRng, m: usize) -> Region {
    loop {
        let cells: Vec<CellId> = (0..m).filter(|_| rng.gen_bool(0.4)).map(CellId).collect();
        if !cells.is_empty() && cells.len() < m {
            return Region::from_cells(m, cells).unwrap();
        }
    }
}

fn random_emission(rng: &mut StdRng, m: usize) -> Vector {
    Vector::from(
        (0..m)
            .map(|_| rng.gen::<f64>() * 0.9 + 0.1)
            .collect::<Vec<_>>(),
    )
}

fn random_event(rng: &mut StdRng, m: usize, max_end: usize) -> StEvent {
    let start = rng.gen_range(1..=max_end);
    let end = rng.gen_range(start..=max_end);
    if rng.gen_bool(0.5) {
        Presence::new(random_region(rng, m), start, end)
            .unwrap()
            .into()
    } else {
        let regions: Vec<Region> = (start..=end).map(|_| random_region(rng, m)).collect();
        Pattern::new(regions, start).unwrap().into()
    }
}

#[test]
fn prior_matches_enumeration_over_many_random_cases() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..120 {
        let m = rng.gen_range(2..=4);
        let chain = Homogeneous::new(MarkovModel::new(random_stochastic(&mut rng, m)).unwrap());
        let event = random_event(&mut rng, m, 5);
        let pi = random_pi(&mut rng, m);
        let engine = TwoWorldEngine::new(&event, &chain).unwrap();
        let fast = engine.prior(&pi).unwrap();
        let slow = naive::prior(&event, &&chain, &pi, LIMIT).unwrap();
        assert!(
            (fast - slow).abs() < 1e-10,
            "case {case} event {event}: two-world {fast} vs naive {slow}"
        );
        assert!(
            (0.0..=1.0 + 1e-12).contains(&fast),
            "prior out of range: {fast}"
        );
    }
}

#[test]
fn joint_matches_enumeration_before_during_and_after_the_event() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..60 {
        let m = rng.gen_range(2..=3);
        let chain = Homogeneous::new(MarkovModel::new(random_stochastic(&mut rng, m)).unwrap());
        let event = random_event(&mut rng, m, 4);
        let pi = random_pi(&mut rng, m);
        // Observe two steps past the event end to exercise Lemma III.3.
        let horizon = event.end() + 2;
        let emissions: Vec<Vector> = (0..horizon).map(|_| random_emission(&mut rng, m)).collect();

        let mut builder = TheoremBuilder::new(&event, &chain).unwrap();
        // The streaming tracker carries the same joints forward; it has no
        // ratio to track (and refuses to build) when the prior is 0 or 1.
        let mut stream = match IncrementalTwoWorld::new(event.clone(), &chain, pi.clone()) {
            Ok(stream) => Some(stream),
            Err(QuantifyError::DegeneratePrior { .. }) => None,
            Err(e) => panic!("case {case}: {e}"),
        };
        // PRESENCE in cell 0 at t = 1 and its complement partition every
        // trajectory, so their joints sum to the enumerated Pr(o_1..o_t).
        let first_cell = Region::from_cells(m, [CellId(0)]).unwrap();
        let partition: Vec<StEvent> = [first_cell.complement(), first_cell]
            .into_iter()
            .map(|r| Presence::new(r, 1, 1).unwrap().into())
            .collect();
        for t in 1..=horizon {
            let inputs = builder.candidate(&emissions[t - 1]).unwrap();
            let fast_joint_e = pi.dot(&inputs.b).unwrap() * inputs.bc_log_scale.exp();
            let fast_joint_all = pi.dot(&inputs.c).unwrap() * inputs.bc_log_scale.exp();
            let slow_joint_e = naive::joint(&event, &&chain, &pi, &emissions[..t], LIMIT).unwrap();
            assert!(
                (fast_joint_e - slow_joint_e).abs() < 1e-10 * slow_joint_e.max(1e-30),
                "case {case} t={t} event {event}: joint(E) {fast_joint_e} vs {slow_joint_e}"
            );
            // Pr(o) from c must equal Pr(E,o) + Pr(¬E,o); cross-check via
            // the complement: enumerate with the negated keep through the
            // prior identity Pr(o) = Σ over all trajectories.
            let prior = inputs.prior(&pi);
            let slow_prior = naive::prior(&event, &&chain, &pi, LIMIT).unwrap();
            assert!((prior - slow_prior).abs() < 1e-10, "case {case} t={t}");
            assert!(
                fast_joint_all >= fast_joint_e - 1e-12,
                "total joint below event joint"
            );
            if let Some(stream) = stream.as_mut() {
                let step = stream.observe(&emissions[t - 1]).unwrap();
                let stream_joint_e = step.log_joint_event.exp();
                assert!(
                    (stream_joint_e - slow_joint_e).abs() < 1e-10 * slow_joint_e.max(1e-30),
                    "case {case} t={t} event {event}: streamed joint(E) {stream_joint_e} vs {slow_joint_e}"
                );
                let slow_total: f64 = partition
                    .iter()
                    .map(|part| naive::joint(part, &&chain, &pi, &emissions[..t], LIMIT).unwrap())
                    .sum();
                let stream_total = step.log_joint_total.exp();
                assert!(
                    (stream_total - slow_total).abs() < 1e-10 * slow_total,
                    "case {case} t={t} event {event}: streamed joint(o) {stream_total} vs {slow_total}"
                );
            }
            builder.commit(emissions[t - 1].clone()).unwrap();
        }
    }
}

#[test]
fn joint_total_matches_forward_likelihood() {
    // π·c must be the plain HMM likelihood of the observations, no matter
    // the event — the event encoding must never distort total mass.
    let mut rng = StdRng::seed_from_u64(0xABCD);
    for _ in 0..40 {
        let m = rng.gen_range(2..=4);
        let chain = Homogeneous::new(MarkovModel::new(random_stochastic(&mut rng, m)).unwrap());
        let event = random_event(&mut rng, m, 4);
        let pi = random_pi(&mut rng, m);
        let horizon = event.end() + 2;
        let emissions: Vec<Vector> = (0..horizon).map(|_| random_emission(&mut rng, m)).collect();
        let mut builder = TheoremBuilder::new(&event, &chain).unwrap();
        for t in 1..=horizon {
            let inputs = builder.candidate(&emissions[t - 1]).unwrap();
            let fast = inputs.log_joint_total(&pi);
            let slow =
                priste_quantify::forward_backward::log_likelihood(&&chain, &pi, &emissions[..t])
                    .unwrap();
            assert!(
                (fast - slow).abs() < 1e-9,
                "t={t}: {fast} vs {slow} ({event})"
            );
            builder.commit(emissions[t - 1].clone()).unwrap();
        }
    }
}

#[test]
fn time_varying_chains_are_supported() {
    // Footnote 3: re-evaluate Eqs. (4)–(8) with the matrix in force at t.
    let mut rng = StdRng::seed_from_u64(0x7777);
    for _ in 0..30 {
        let m = 3;
        let schedule: Vec<MarkovModel> = (0..4)
            .map(|_| MarkovModel::new(random_stochastic(&mut rng, m)).unwrap())
            .collect();
        let chain = TimeVarying::new(schedule).unwrap();
        let event = random_event(&mut rng, m, 4);
        let pi = random_pi(&mut rng, m);
        let engine = TwoWorldEngine::new(&event, &chain).unwrap();
        let fast = engine.prior(&pi).unwrap();
        let slow = naive::prior(&event, &&chain, &pi, LIMIT).unwrap();
        assert!(
            (fast - slow).abs() < 1e-10,
            "event {event}: {fast} vs {slow}"
        );
    }
}

#[test]
fn start_one_events_agree_with_enumeration() {
    // The paper's formulas assume start ≥ 2; our initial-lift extension for
    // start = 1 must still match brute force.
    let mut rng = StdRng::seed_from_u64(0x1111);
    for _ in 0..40 {
        let m = rng.gen_range(2..=4);
        let chain = Homogeneous::new(MarkovModel::new(random_stochastic(&mut rng, m)).unwrap());
        let end = rng.gen_range(1..=3);
        let event: StEvent = if rng.gen_bool(0.5) {
            Presence::new(random_region(&mut rng, m), 1, end)
                .unwrap()
                .into()
        } else {
            let regions: Vec<Region> = (1..=end).map(|_| random_region(&mut rng, m)).collect();
            Pattern::new(regions, 1).unwrap().into()
        };
        let pi = random_pi(&mut rng, m);
        let engine = TwoWorldEngine::new(&event, &chain).unwrap();
        let fast = engine.prior(&pi).unwrap();
        let slow = naive::prior(&event, &&chain, &pi, LIMIT).unwrap();
        assert!(
            (fast - slow).abs() < 1e-10,
            "event {event}: {fast} vs {slow}"
        );

        // Joint agreement too, observing through end + 1.
        let emissions: Vec<Vector> = (0..end + 1).map(|_| random_emission(&mut rng, m)).collect();
        let mut builder = TheoremBuilder::new(&event, &chain).unwrap();
        for t in 1..=end + 1 {
            let inputs = builder.candidate(&emissions[t - 1]).unwrap();
            let fast_joint = pi.dot(&inputs.b).unwrap() * inputs.bc_log_scale.exp();
            let slow_joint = naive::joint(&event, &&chain, &pi, &emissions[..t], LIMIT).unwrap();
            assert!(
                (fast_joint - slow_joint).abs() < 1e-10 * slow_joint.max(1e-30),
                "event {event} t={t}: {fast_joint} vs {slow_joint}"
            );
            builder.commit(emissions[t - 1].clone()).unwrap();
        }
    }
}

#[test]
fn dense_lifted_products_match_structured_prior() {
    // Materialize Lemma III.1 exactly as written — [π,0]·∏Mᵢ·[0,1]ᵀ with
    // dense 2m×2m matrices — and compare against the structured engine.
    let mut rng = StdRng::seed_from_u64(0x2222);
    for _ in 0..40 {
        let m = rng.gen_range(2..=4);
        let chain = Homogeneous::new(MarkovModel::new(random_stochastic(&mut rng, m)).unwrap());
        let event = random_event(&mut rng, m, 5);
        if event.start() < 2 {
            continue; // dense formula is the paper's start ≥ 2 form
        }
        let pi = random_pi(&mut rng, m);
        let engine = TwoWorldEngine::new(&event, &chain).unwrap();

        let mut product = Matrix::identity(2 * m);
        for t in 1..event.end() {
            product = product.matmul(&engine.step_at(t).to_dense()).unwrap();
        }
        let lifted_pi = pi.concat(&Vector::zeros(m));
        let selector = Vector::zeros(m).concat(&Vector::ones(m));
        let dense_prior = product.vecmat(&lifted_pi).dot(&selector).unwrap();
        let structured = engine.prior(&pi).unwrap();
        assert!(
            (dense_prior - structured).abs() < 1e-12,
            "event {event}: dense {dense_prior} vs structured {structured}"
        );
    }
}

#[test]
fn empirical_frequencies_match_computed_prior() {
    // Monte-Carlo sanity: sample trajectories and compare the event's
    // empirical frequency with Lemma III.1.
    let mut rng = StdRng::seed_from_u64(0x3333);
    let chain = Homogeneous::new(MarkovModel::paper_example());
    let event: StEvent =
        Presence::new(Region::from_cells(3, [CellId(0), CellId(1)]).unwrap(), 3, 4)
            .unwrap()
            .into();
    let pi = Vector::from(vec![0.2, 0.3, 0.5]);
    let engine = TwoWorldEngine::new(&event, &chain).unwrap();
    let expected = engine.prior(&pi).unwrap();

    let n = 200_000;
    let mut hits = 0usize;
    for _ in 0..n {
        let traj = chain
            .model()
            .sample_trajectory_from(&pi, 4, &mut rng)
            .unwrap();
        if event.eval(&traj).unwrap() {
            hits += 1;
        }
    }
    let freq = hits as f64 / n as f64;
    assert!(
        (freq - expected).abs() < 0.005,
        "empirical {freq} vs computed {expected}"
    );
}
