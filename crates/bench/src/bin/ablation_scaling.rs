//! Regenerates the rescaling ablation (`experiments::ablation_scaling`):
//! the joint probability in scaled and raw `f64` form, and the minimal
//! certifiable ε, over a horizon long enough for raw `f64` to underflow.

use priste_bench::{experiments, output, Scale};

fn main() {
    let exp = experiments::ablation_scaling(&Scale::from_args());
    output::print_experiment(&exp);
    let dir = output::default_output_dir();
    match output::write_csv(&exp, &dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }

    let (log_joint, raw_joint, min_eps) = (&exp.series[0].y, &exp.series[1].y, &exp.series[2].y);
    match raw_joint.iter().position(|&v| v == 0.0) {
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
