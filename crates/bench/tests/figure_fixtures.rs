//! The smoke-scale figures against committed CSVs.
//!
//! `fig7` runs the α-PLM audit, `fig10` the δ-location audit, and `fig13`
//! sweeps σ from worlds whose chains run on CSR (σ = 0.01) to full dense
//! ones (σ = 10). Each experiment's CSV text, in the `output::write_csv`
//! format, must match `tests/fixtures/experiments/<id>.csv` at the
//! repository root byte for byte: a change of backend, of mechanism
//! storage or of summation order shows up here as a changed digit.

use priste_bench::{experiments, output, Experiment, Scale};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/experiments")
}

fn assert_matches_fixtures(name: &str, experiments: Vec<Experiment>) {
    let out = std::env::temp_dir().join(format!(
        "priste-figure-fixtures-{name}-{}",
        std::process::id()
    ));
    for exp in &experiments {
        let written = output::write_csv(exp, &out).expect("write csv");
        let got = std::fs::read_to_string(&written).expect("read csv");
        let want = std::fs::read_to_string(fixture_dir().join(format!("{}.csv", exp.id)))
            .unwrap_or_else(|e| panic!("fixture for {}: {e}", exp.id));
        assert_eq!(got, want, "{} differs from its committed fixture", exp.id);
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn fig7_matches_the_committed_csvs() {
    assert_matches_fixtures("fig7", experiments::fig7(&Scale::smoke()));
}

#[test]
fn fig10_matches_the_committed_csvs() {
    assert_matches_fixtures("fig10", experiments::fig10(&Scale::smoke()));
}

#[test]
fn fig13_matches_the_committed_csvs() {
    assert_matches_fixtures("fig13", experiments::fig13(&Scale::smoke()));
}
