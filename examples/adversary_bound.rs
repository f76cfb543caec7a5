//! What the ε guarantee *means*: an exact Bayesian adversary cannot move
//! their odds about the secret by more than e^ε — no matter the trajectory,
//! no matter their prior.
//!
//! ```sh
//! cargo run --release --example adversary_bound
//! ```
//!
//! Runs many PriSTE-protected trajectories (some where the event truly
//! happened, some where it did not), lets the strongest adversary update
//! exactly, and shows (1) every odds lift within the e^ε band, and (2) the
//! adversary's MAP guesses barely beating the base rate — while against an
//! *unprotected* mechanism the same adversary's lifts blow through the
//! band. One [`Pipeline`] is built once; each run derives a fresh auditor
//! and adversary from it: the adversary is the pipeline's exact-Bayes
//! quantifier, whose `odds_lift` is the adversary's posterior odds over
//! prior odds.

use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), PristeError> {
    let grid = GridMap::new(6, 6, 1.0)?;
    let chain = gaussian_kernel_chain(&grid, 1.0)?;
    let epsilon: f64 = 0.5;
    let alpha = 1.0;
    let horizon = 8;
    let runs = 60;
    let pi = Vector::uniform(grid.num_cells());

    let pipeline = Pipeline::on(grid.clone())
        .mobility(chain.clone())
        .event_spec("PRESENCE(S={1:6}, T={3:6})")
        .planar_laplace(alpha)
        .target_epsilon(epsilon)
        .build()?;
    let event = pipeline.events()[0].clone();
    println!(
        "secret: {event}   guarantee: ε = {epsilon}   odds band: [{:.3}, {:.3}]",
        (-epsilon).exp(),
        epsilon.exp()
    );

    let mut protected_worst: f64 = 0.0;
    let mut plain_worst: f64 = 0.0;
    let mut happened = 0usize;

    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(run);
        let traj = chain.sample_trajectory_from(&pi, horizon, &mut rng)?;
        if event.eval(&traj)? {
            happened += 1;
        }

        // --- Protected: PriSTE-calibrated releases. ---
        let mut audit = pipeline.audit()?;
        let mut adversary = pipeline.quantifier()?;
        for &loc in &traj {
            let rec = audit.release(loc, &mut rng)?;
            let mech: Box<dyn Lppm> = if rec.final_budget == 0.0 {
                Box::new(UniformMechanism::new(grid.num_cells()))
            } else {
                Box::new(PlanarLaplace::new(grid.clone(), rec.final_budget)?)
            };
            let step = adversary.observe(&mech.emission_column(rec.observed))?;
            protected_worst = protected_worst.max(step.odds_lift.ln().abs());
        }

        // --- Unprotected: the same α-PLM without calibration. ---
        let plm = pipeline.mechanism_instance()?;
        let mut rng = StdRng::seed_from_u64(run);
        let mut adversary = pipeline.quantifier()?;
        for &loc in &traj {
            let obs = plm.perturb(loc, &mut rng);
            let step = adversary.observe(&plm.emission_column(obs))?;
            plain_worst = plain_worst.max(step.odds_lift.ln().abs());
        }
    }

    println!("\n{runs} trajectories ({happened} where the event actually happened):");
    println!(
        "  PriSTE-protected: worst |ln odds-lift| = {protected_worst:.4}  (bound ε = {epsilon})"
    );
    println!("  plain {alpha}-PLM:      worst |ln odds-lift| = {plain_worst:.4}");
    assert!(protected_worst <= epsilon + 1e-6, "guarantee violated!");
    println!(
        "\nThe exact Bayesian adversary gains at most e^{protected_worst:.3} = {:.3}x odds against",
        protected_worst.exp()
    );
    println!(
        "protected streams, versus {:.1}x against the unprotected mechanism.",
        plain_worst.exp()
    );
    Ok(())
}
