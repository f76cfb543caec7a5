//! Regenerates the data series of the paper's Fig. 9 (§V); run with
//! `--paper` for full §V.A scale.

use priste_bench::{experiments, output, Scale};

fn main() {
    let scale = Scale::from_args();
    let dir = output::default_output_dir();
    for exp in experiments::fig9(&scale) {
        output::print_experiment(&exp);
        match output::write_csv(&exp, &dir) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}
