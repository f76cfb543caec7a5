//! The smoke-scale figures against committed CSVs.
//!
//! `fig7` and `fig8` run the α-PLM audit on an early and a late event,
//! `fig9` on both at once and `fig_pattern` on a PATTERN event; `fig10`
//! runs the δ-location audit; `fig11` and `fig12` run the GeoLife-style
//! world under the α-PLM and under δ-location sets (whose rungs are
//! restricted Planar Laplace mechanisms); and `fig13` sweeps
//! σ from worlds whose chains run on CSR (σ = 0.01) to full dense ones
//! (σ = 10); `ablation_scaling` runs the rescaled quantification chain
//! past the point where raw `f64` underflows; `table3` sweeps the QP work
//! budget, with its runtime column left out. Each experiment's CSV text,
//! in the `output::write_csv` format, must match
//! `tests/fixtures/experiments/<id>.csv` at the repository root byte for
//! byte: a change of backend, of mechanism storage or of summation order
//! shows up here as a changed digit.

use priste_bench::{experiments, output, Experiment, Scale};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/experiments")
}

/// A fixture's header labels and its numeric rows.
fn read_fixture(path: &Path) -> (Vec<String>, Vec<Vec<f64>>) {
    let text = std::fs::read_to_string(path).expect("read fixture");
    let mut lines = text.lines();
    let header = lines
        .next()
        .expect("header")
        .split(',')
        .map(String::from)
        .collect();
    let rows = lines
        .map(|l| l.split(',').map(|v| v.parse().expect("number")).collect())
        .collect();
    (header, rows)
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
fn fig8_matches_the_committed_csvs() {
    assert_matches_fixtures("fig8", experiments::fig8(&Scale::smoke()));
}

#[test]
fn fig9_matches_the_committed_csvs() {
    assert_matches_fixtures("fig9", experiments::fig9(&Scale::smoke()));
}

#[test]
fn fig_pattern_matches_the_committed_csvs() {
    assert_matches_fixtures("fig_pattern", experiments::fig_pattern(&Scale::smoke()));
}

#[test]
fn fig10_matches_the_committed_csvs() {
    assert_matches_fixtures("fig10", experiments::fig10(&Scale::smoke()));
}

#[test]
fn fig11_matches_the_committed_csvs() {
    assert_matches_fixtures("fig11", experiments::fig11(&Scale::smoke()));
}

#[test]
fn fig12_matches_the_committed_csvs() {
    assert_matches_fixtures("fig12", experiments::fig12(&Scale::smoke()));
}

#[test]
fn fig13_matches_the_committed_csvs() {
    assert_matches_fixtures("fig13", experiments::fig13(&Scale::smoke()));
}

#[test]
fn ablation_scaling_matches_the_committed_csv() {
    assert_matches_fixtures(
        "ablation_scaling",
        vec![experiments::ablation_scaling(&Scale::smoke())],
    );
}

#[test]
fn table3_matches_the_committed_csv() {
    let mut table = experiments::table3(&Scale::smoke());
    table.series.retain(|s| s.label != "ave total runtime (s)");
    assert_eq!(table.series.len(), 3, "the runtime series was not dropped");
    assert_matches_fixtures("table3", vec![table]);
}

/// A larger ε keeps at least as much budget: in every committed ε series,
/// the mean budget over time never falls from one ε to the next larger one.
#[test]
fn a_larger_epsilon_keeps_more_budget() {
    for id in ["fig7a", "fig8a", "fig9a", "fig10a"] {
        let (header, rows) = read_fixture(&fixture_dir().join(format!("{id}.csv")));
        let mut means: Vec<(f64, f64)> = header
            .iter()
            .enumerate()
            .filter_map(|(col, label)| {
                let eps: f64 = label.strip_prefix("eps=")?.parse().expect("ε label");
                let mean = rows.iter().map(|r| r[col]).sum::<f64>() / rows.len() as f64;
                Some((eps, mean))
            })
            .collect();
        assert!(means.len() >= 3, "{id}: only {} ε series", means.len());
        means.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in means.windows(2) {
            let ((lo_eps, lo), (hi_eps, hi)) = (pair[0], pair[1]);
            assert!(
                hi >= lo,
                "{id}: ε = {hi_eps} keeps {hi}, less than ε = {lo_eps}'s {lo}"
            );
        }
    }
}

/// The audit only ever lowers a mechanism's budget: in every budget panel,
/// each `<α>-PLM` series releases at most its base α (up to the rounding
/// of a mean over runs).
#[test]
fn plm_budget_series_never_exceed_their_base_alpha() {
    let mut checked = 0;
    for entry in std::fs::read_dir(fixture_dir()).expect("fixture dir") {
        let path = entry.expect("fixture entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.contains("euclid") {
            continue; // distances, not budgets
        }
        let (header, rows) = read_fixture(&path);
        for (col, label) in header.iter().enumerate() {
            let Some(alpha) = label.strip_suffix("-PLM") else {
                continue;
            };
            let alpha: f64 = alpha.parse().expect("alpha label");
            for row in &rows {
                assert!(
                    row[col] <= alpha * (1.0 + 1e-12),
                    "{name}: {label} released budget {} above its base",
                    row[col]
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 15, "only {checked} α-PLM series found");
}
