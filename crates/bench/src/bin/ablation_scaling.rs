//! Ablation: HMM rescaling vs raw floating point in the quantification
//! chain.
//!
//! The joint probabilities of Lemmas III.2/III.3 are products of `T`
//! sub-stochastic factors; raw `f64` evaluation underflows once
//! `ln Pr(o_1..o_t)` drops below ~−745. This binary runs a long horizon and
//! reports, per timestep: the joint's log value (finite throughout thanks
//! to the scaled representation), the raw `f64` the same value collapses to
//! (0.0 once underflowed), and the minimal certifiable ε — which stays
//! computable arbitrarily far past the underflow point because the
//! Theorem IV.1 decision only consumes the scale-invariant `(b, c)` pair.
//! Without rescaling, b and c would both be exactly 0.0 there and every
//! decision would degenerate.

use priste_bench::{output, Scale};
use priste_event::dsl::parse_event;
use priste_geo::{CellId, GridMap};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous};
use priste_qp::SolverConfig;
use priste_quantify::{sweep, TheoremBuilder};

fn main() {
    let scale = Scale::from_args();
    // Small map, long horizon: underflow arrives fast.
    let grid = GridMap::new(5, 5, 1.0).expect("grid");
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let event = parse_event("PRESENCE(S={1:5}, T={4:8})", 25).expect("event");
    let plm = PlanarLaplace::new(grid.clone(), 0.5).expect("plm");
    let provider = Homogeneous::new(chain);
    let mut builder = TheoremBuilder::new(&event, provider).expect("builder");
    let pi = Vector::uniform(25);
    let solver = SolverConfig::default();

    let horizon = 400.max(scale.horizon);
    let mut x = Vec::new();
    let mut log_joint = Vec::new();
    let mut raw_joint = Vec::new();
    let mut min_eps = Vec::new();

    for t in 1..=horizon {
        let col = plm.emission_column(CellId((t * 3) % 25));
        let inputs = builder.candidate(&col).expect("candidate");
        let lj = inputs.log_joint_total(&pi);
        let cap = sweep::min_certifiable_epsilon(&inputs, 1e-4, 64.0, 1e-3, &solver);
        x.push(t as f64);
        log_joint.push(lj);
        raw_joint.push(lj.exp()); // what raw f64 arithmetic would hold
        min_eps.push(cap.min_epsilon.unwrap_or(f64::NAN));
        builder.commit(col).expect("commit");
    }

    let mut exp = output::Experiment::new(
        "ablation_scaling",
        "Rescaled vs raw joint probability over a 400-step horizon (5×5 world, 0.5-PLM)",
        "time",
        x,
    );
    exp.push_series("log joint (scaled, finite)", log_joint.clone());
    exp.push_series("raw f64 joint (underflows)", raw_joint.clone());
    exp.push_series("min certifiable eps", min_eps.clone());

    output::print_experiment(&exp);
    let dir = output::default_output_dir();
    match output::write_csv(&exp, &dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }

    let first_underflow = raw_joint.iter().position(|&v| v == 0.0);
    match first_underflow {
        Some(i) => {
            let finite_after = min_eps[i..].iter().filter(|v| v.is_finite()).count();
            println!(
                "\nraw f64 underflows at t = {} (log joint {:.1});",
                i + 1,
                log_joint[i]
            );
            println!(
                "the scaled pipeline still computes a finite minimal ε at {finite_after} of the remaining {} steps.",
                raw_joint.len() - i
            );
            assert!(
                finite_after == raw_joint.len() - i,
                "scaling ablation expected ε-capacity to stay computable past underflow"
            );
        }
        None => println!("\nno underflow within the horizon — lengthen it with --paper"),
    }
}
