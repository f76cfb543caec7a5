//! Calibrated-release quickstart: wrap a planar-Laplace mechanism in the
//! `priste-calibrate` guard so a commuter's release stream *provably*
//! satisfies ε-spatiotemporal event privacy — then compare against the
//! uncalibrated stream and the offline budget plan. Every view — the two
//! offline planners, the uncalibrated quantifier, and the calibrated guard
//! — derives from one [`Pipeline`].
//!
//! Run with `cargo run --example calibrated_release`.

use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), PristeError> {
    // A 5×5 commuter world from the GeoLife-style simulator.
    let world = geolife_sim::build(&geolife_sim::CommuterConfig {
        rows: 5,
        cols: 5,
        seed: 2019,
        ..Default::default()
    })?;
    let m = world.grid.num_cells();
    let chain = world.chain.clone();

    // The secret: presence in the north-west quarter during timestamps 2–3.
    let target = 0.8;
    let alpha = 2.0;
    let pipeline = Pipeline::on_world(&world)
        .event_spec(&format!("PRESENCE(S={{1:{}}}, T={{2:3}})", m / 4))
        .planar_laplace(alpha)
        .target_epsilon(target)
        .build()?;

    // Offline: plan per-timestep budgets that certify ε* for *any* release
    // and any adversarial prior — three ways. The greedy search maximizes
    // each step's budget in order; the knapsack planner instead spends the
    // same certified ε-mass where it buys the most accuracy (here: the
    // negated expected planar-Laplace error, which is concave in ε, so
    // balanced budgets beat lopsided ones).
    let greedy = pipeline.plan_greedy(3)?;
    let uniform = pipeline.plan_uniform_split(3)?;
    let knapsack = pipeline.plan_knapsack(3)?;
    println!("offline knapsack plan (target ε* = {target}):");
    for step in &knapsack.steps {
        println!(
            "  t={} budget={:.4} capacity={:?} certified={}",
            step.t, step.budget, step.capacity, step.certified
        );
    }
    println!(
        "  greedy mean budget {:.4} vs uniform-split {:.4} ({} vs {} steps certified)",
        greedy.mean_budget(),
        uniform.mean_budget(),
        greedy.certified_steps(),
        uniform.certified_steps()
    );
    let model = PlanarLaplaceError;
    println!(
        "  utility gap ({}): knapsack {:.2} vs greedy {:.2} — same certified mass, \
         {:.0}% less expected error",
        model.name(),
        knapsack.total_utility(&model),
        greedy.total_utility(&model),
        (1.0 - knapsack.total_utility(&model) / greedy.total_utility(&model)) * 100.0
    );
    assert!(
        knapsack.all_certified() && knapsack.total_utility(&model) >= greedy.total_utility(&model),
        "the knapsack plan never does worse on its own objective"
    );

    // Online: one commuter day, uncalibrated vs calibrated.
    let steps = 8usize;
    let mut rng = StdRng::seed_from_u64(42);
    let trajectory = chain.sample_trajectory_from(&Vector::uniform(m), steps, &mut rng)?;

    let plm = pipeline.mechanism_instance()?;
    let mut audit = pipeline.quantifier()?;
    let mut plain_rng = StdRng::seed_from_u64(7);
    let mut uncalibrated_worst = 0.0f64;
    for &loc in &trajectory {
        let obs = plm.perturb(loc, &mut plain_rng);
        uncalibrated_worst =
            uncalibrated_worst.max(audit.observe(&plm.emission_column(obs))?.privacy_loss);
    }

    let mut calibrated = pipeline.enforce()?;
    let mut cal_rng = StdRng::seed_from_u64(7);
    let mut calibrated_worst = 0.0f64;
    println!("calibrated releases:");
    for &loc in &trajectory {
        let rel = calibrated.release(loc, &mut cal_rng)?;
        calibrated_worst = calibrated_worst.max(rel.loss);
        match rel.decision {
            Decision::Released { observed, budget } => println!(
                "  t={} true={} released={} budget={:.4} loss={:.4} ({} attempts)",
                rel.t,
                loc.one_based(),
                observed.one_based(),
                budget,
                rel.loss,
                rel.attempts.len()
            ),
            Decision::Suppressed => println!(
                "  t={} true={} SUPPRESSED loss={:.4} ({} attempts)",
                rel.t,
                loc.one_based(),
                rel.loss,
                rel.attempts.len()
            ),
        }
    }
    println!(
        "worst realized loss: uncalibrated {uncalibrated_worst:.4} vs calibrated \
         {calibrated_worst:.4} (target {target})"
    );
    assert!(calibrated_worst <= target, "the guard's guarantee");
    println!("OK");
    Ok(())
}
