//! Experiment harness for the PriSTE evaluation (paper §V).
//!
//! Every table and figure of the paper has (a) a binary in `src/bin/` that
//! regenerates its data series (printed as a table and written as CSV under
//! `target/experiments/`), and (b) a Criterion bench in `benches/`
//! exercising its computational core. Each binary and bench is named after
//! the paper figure or table (§V) it reproduces.
//!
//! Scale control: the paper runs 20×20 grids, 50 timestamps, 100 runs per
//! point. That is reproducible here ([`Scale::paper`]) but takes hours for
//! the full suite; the default scale keeps every figure's *shape* while
//! finishing in minutes. Binaries accept `--paper`, `--runs N` and
//! `--seed N`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod output;
pub mod scale;

pub use output::{print_experiment, write_csv, Experiment, Series};
pub use scale::Scale;
