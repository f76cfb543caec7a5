//! Smoke tests for the runnable targets: the `priste_cli` binary and the
//! `examples/`.
//!
//! Compilation of all five examples is already gated by `cargo test` itself
//! (cargo builds example targets as part of the test profile, and each is
//! declared in `Cargo.toml`); these tests additionally prove the seeded entry
//! points *run to completion*.

use std::process::Command;

/// Runs the CLI binary (built for us by cargo, path injected via
/// `CARGO_BIN_EXE_*`) and returns (status-ok, stdout, stderr).
fn run_cli(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = run_cli_code(args);
    (code == Some(0), stdout, stderr)
}

/// Like [`run_cli`] but exposes the raw exit code (the CLI distinguishes
/// usage errors, exit 2, from runtime failures, exit 1).
fn run_cli_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_priste_cli"))
        .args(args)
        .output()
        .expect("spawn priste_cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_world_summary_runs() {
    let (ok, stdout, stderr) = run_cli(&["world", "--side", "4", "--seed", "1"]);
    assert!(ok, "world failed: {stderr}");
    assert!(!stdout.trim().is_empty(), "world printed nothing");
}

#[test]
fn cli_protect_runs_end_to_end() {
    let (ok, stdout, stderr) = run_cli(&[
        "protect",
        "--event",
        "PRESENCE(S={1:4}, T={2:4})",
        "--side",
        "4",
        "--steps",
        "6",
        "--seed",
        "7",
    ]);
    assert!(ok, "protect failed: {stderr}");
    assert!(!stdout.trim().is_empty(), "protect printed nothing");
}

#[test]
fn cli_rejects_garbage_with_usage() {
    let (code, _stdout, stderr) = run_cli_code(&["frobnicate"]);
    assert_eq!(code, Some(2), "unknown command is a usage error");
    assert!(stderr.contains("usage:"), "no usage in: {stderr}");
}

#[test]
fn cli_missing_command_prints_usage_for_all_six_subcommands() {
    let (code, _stdout, stderr) = run_cli_code(&[]);
    assert_eq!(code, Some(2), "missing command is a usage error");
    for sub in [
        "world",
        "protect",
        "quantify",
        "check",
        "stream",
        "calibrate",
    ] {
        assert!(
            stderr.contains(&format!("priste-cli {sub}")),
            "usage must mention `{sub}`: {stderr}"
        );
    }
}

#[test]
fn cli_unknown_flag_exits_2_not_a_bare_error() {
    let (code, _stdout, stderr) = run_cli_code(&["stream", "--frobnicate", "1"]);
    assert_eq!(code, Some(2), "unknown flag must exit 2: {stderr}");
    assert!(
        stderr.contains("unknown flag --frobnicate for `stream`"),
        "stderr must name the flag and subcommand: {stderr}"
    );
    assert!(stderr.contains("usage:"), "no usage in: {stderr}");
}

#[test]
fn cli_help_prints_usage_on_stdout_and_succeeds() {
    let (code, stdout, _stderr) = run_cli_code(&["help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage:"), "help must print usage: {stdout}");
    assert!(stdout.contains("priste-cli calibrate"));
}

#[test]
fn cli_is_deterministic_under_a_fixed_seed() {
    let args = [
        "quantify",
        "--event",
        "PRESENCE(S={1:4}, T={2:4})",
        "--side",
        "4",
        "--steps",
        "5",
        "--seed",
        "3",
    ];
    let (ok1, out1, err1) = run_cli(&args);
    let (ok2, out2, _) = run_cli(&args);
    assert!(ok1 && ok2, "quantify failed: {err1}");
    assert_eq!(out1, out2, "same seed must reproduce the same releases");
}

#[test]
fn cli_stream_runs_and_reports_all_users() {
    let (ok, stdout, stderr) = run_cli(&[
        "stream", "--users", "10", "--steps", "6", "--side", "4", "--seed", "5",
    ]);
    assert!(ok, "stream failed: {stderr}");
    // Header + one line per user + totals.
    assert_eq!(stdout.lines().count(), 12, "unexpected output: {stdout}");
    assert!(stdout.starts_with("user,observations,worst_loss"));
    assert!(stdout.contains("total,10 users,60 observations"));
    assert!(
        stderr.contains("throughput:"),
        "throughput goes to stderr: {stderr}"
    );
}

#[test]
fn cli_stream_is_deterministic_under_a_fixed_seed() {
    let args = [
        "stream", "--users", "8", "--steps", "5", "--side", "4", "--seed", "11",
    ];
    let (ok1, out1, err1) = run_cli(&args);
    let (ok2, out2, _) = run_cli(&args);
    assert!(ok1 && ok2, "stream failed: {err1}");
    assert_eq!(out1, out2, "same seed must reproduce the same verdicts");
    // A different seed must actually change the feed.
    let mut reseeded = args;
    reseeded[reseeded.len() - 1] = "12";
    let (ok3, out3, _) = run_cli(&reseeded);
    assert!(ok3);
    assert_ne!(out1, out3, "different seeds should differ");
}

#[test]
fn cli_stream_stdout_is_byte_identical_with_metrics_on() {
    let path =
        std::env::temp_dir().join(format!("priste-smoke-metrics-{}.json", std::process::id()));
    let path_s = path.to_str().unwrap();
    let base = [
        "stream", "--users", "8", "--steps", "5", "--side", "4", "--seed", "11",
    ];
    let (ok1, plain, err1) = run_cli(&base);
    assert!(ok1, "plain stream failed: {err1}");
    let mut with_metrics = base.to_vec();
    with_metrics.extend(["--metrics-json", path_s, "--trace"]);
    let (ok2, observed, err2) = run_cli(&with_metrics);
    assert!(ok2, "observed stream failed: {err2}");
    assert_eq!(
        plain, observed,
        "metrics/tracing must never change a byte of stdout"
    );
    // The gauge lines and the dump confirmation go to stderr instead.
    assert!(err2.contains("metrics: step=1 "), "no gauge lines: {err2}");
    assert!(err2.contains("trace: "), "no span events: {err2}");
    assert!(
        err2.contains("metrics: registry snapshot written to"),
        "no dump note: {err2}"
    );
    // The dump is valid `priste-metrics/1` JSON agreeing with stdout.
    let doc = priste::obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|j| j.as_str()),
        Some(priste::obs::JSON_SCHEMA)
    );
    assert_eq!(
        doc.get("counters")
            .unwrap()
            .get("online_observations_total")
            .and_then(|j| j.as_u64()),
        Some(40),
        "8 users x 5 steps"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cli_metrics_schema_command_prints_the_table() {
    let (ok, stdout, stderr) = run_cli(&["metrics"]);
    assert!(ok, "metrics failed: {stderr}");
    assert!(stdout.contains("priste-metrics/1"), "{stdout}");
    assert!(stdout.contains("online_observations_total,counter,"));
    assert!(stdout.contains("durable_wal_fsync_seconds,histogram,"));
    assert!(stdout.contains("guard_epsilon_spent,histogram,"));
}

#[test]
fn cli_stream_exits_2_on_bad_input() {
    for bad in [
        vec!["stream", "--users", "0"],
        vec!["stream", "--kind", "martian"],
        vec!["stream", "--event", "NOPE()", "--side", "4"],
        vec!["stream", "--epsilon", "-1", "--side", "4"],
        vec!["stream", "--users", "not-a-number"],
        vec!["stream", "--mode", "maybe", "--side", "4"],
    ] {
        let (code, _stdout, stderr) = run_cli_code(&bad);
        assert_eq!(code, Some(2), "{bad:?} should be a usage error");
        assert!(stderr.contains("usage:"), "no usage in: {stderr}");
    }
}

#[test]
fn cli_stream_enforce_mode_reports_suppressions_column() {
    let (ok, stdout, stderr) = run_cli(&[
        "stream",
        "--users",
        "4",
        "--steps",
        "4",
        "--side",
        "4",
        "--mode",
        "enforce",
        "--epsilon",
        "0.8",
        "--alpha",
        "2",
        "--seed",
        "9",
    ]);
    assert!(ok, "enforce stream failed: {stderr}");
    assert!(stdout.starts_with("user,observations,worst_loss,suppressed"));
    assert!(stdout.contains("total,4 users,16 observations"));
    assert!(stdout.contains("suppressed"), "totals: {stdout}");
}

/// The acceptance demo: on the commuter scenario the uncalibrated
/// planar-Laplace release FAILS the target ε* while the calibrated one
/// certifies it — deterministically.
#[test]
fn cli_calibrate_demo_uncalibrated_fails_and_calibrated_certifies() {
    let args = [
        "calibrate",
        "--kind",
        "commuter",
        "--side",
        "5",
        "--horizon",
        "3",
        "--steps",
        "6",
        "--target",
        "0.8",
        "--alpha",
        "2",
        "--seed",
        "3",
    ];
    let (ok, stdout, stderr) = run_cli(&args);
    assert!(ok, "calibrate failed: {stderr}");
    assert!(
        stdout.contains("FAILS ε* = 0.8"),
        "uncalibrated demo must fail the target: {stdout}"
    );
    assert!(
        stdout.contains("→ certified"),
        "calibrated demo must certify: {stdout}"
    );
    assert!(
        stdout.contains("t,budget,capacity,slack,verdict"),
        "plan table missing: {stdout}"
    );
    assert!(
        stdout.contains("planner,certified,epsilon,mean_budget,utility"),
        "comparison table missing: {stdout}"
    );
    assert!(
        stdout.contains("uniform-split,"),
        "baseline missing: {stdout}"
    );
    let (ok2, stdout2, _) = run_cli(&args);
    assert!(ok2);
    assert_eq!(stdout, stdout2, "calibrate must be seed-deterministic");
}

/// Golden regression for the `calibrate` plan tables: the full stdout of
/// the commuter demo under each `--planner` value is pinned byte-for-byte
/// against `tests/fixtures/` (the run is seeded and every float prints
/// with fixed precision, so any drift — planner behavior, table format,
/// summary lines — fails here instead of rotting silently).
#[test]
fn cli_calibrate_planner_tables_match_the_golden_fixtures() {
    for (planner, golden) in [
        (
            "uniform",
            include_str!("fixtures/calibrate_plan_uniform.stdout"),
        ),
        (
            "greedy",
            include_str!("fixtures/calibrate_plan_greedy.stdout"),
        ),
        (
            "knapsack",
            include_str!("fixtures/calibrate_plan_knapsack.stdout"),
        ),
    ] {
        let (ok, stdout, stderr) = run_cli(&[
            "calibrate",
            "--kind",
            "commuter",
            "--side",
            "5",
            "--horizon",
            "3",
            "--steps",
            "6",
            "--target",
            "0.8",
            "--alpha",
            "2",
            "--seed",
            "3",
            "--planner",
            planner,
        ]);
        assert!(ok, "calibrate --planner {planner} failed: {stderr}");
        assert_eq!(
            stdout, golden,
            "--planner {planner} output drifted from the golden fixture \
             (tests/fixtures/calibrate_plan_{planner}.stdout)"
        );
    }
}

/// The knapsack acceptance numbers, pinned at the CLI level too: the
/// comparison table must show the knapsack plan strictly ahead of greedy
/// on utility while both certify all steps and the uniform split fails.
#[test]
fn cli_calibrate_comparison_table_shows_the_utility_gap() {
    let golden = include_str!("fixtures/calibrate_plan_greedy.stdout");
    assert!(golden.contains("uniform-split,0/3,-,"));
    assert!(golden.contains("greedy,3/3,0.7279,0.0729,-112.0000"));
    assert!(golden.contains("knapsack,3/3,0.7547,0.0729,-85.3333"));
}

/// An unknown `--planner` value is a usage error: exit 2, message naming
/// the value, usage text appended.
#[test]
fn cli_calibrate_unknown_planner_exits_2() {
    let (code, _stdout, stderr) = run_cli_code(&["calibrate", "--side", "3", "--planner", "qp"]);
    assert_eq!(code, Some(2), "unknown planner must exit 2: {stderr}");
    assert!(
        stderr.contains("--planner must be uniform, greedy or knapsack"),
        "stderr must name the constraint: {stderr}"
    );
    assert!(stderr.contains("usage:"), "no usage in: {stderr}");
}

/// `stream --durable-dir` journals to the directory; a separate `recover`
/// invocation — a different process, i.e. a real restart — reads the same
/// state back and prints a deterministic digest.
#[test]
fn cli_stream_durable_recover_is_deterministic_across_processes() {
    let dir = std::env::temp_dir().join(format!("priste-smoke-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let (ok, _stdout, stderr) = run_cli(&[
        "stream",
        "--users",
        "4",
        "--steps",
        "4",
        "--side",
        "4",
        "--seed",
        "9",
        "--durable-dir",
        dir_s,
    ]);
    assert!(ok, "durable stream failed: {stderr}");
    assert!(stderr.contains("durable: journaling"), "{stderr}");

    let recover = |args: &[&str]| run_cli(args);
    let (ok, first, stderr) = recover(&["recover", "--side", "4", "--durable-dir", dir_s]);
    assert!(ok, "recover failed: {stderr}");
    assert!(first.contains("state digest:"), "{first}");
    let (ok, second, _) = recover(&["recover", "--side", "4", "--durable-dir", dir_s]);
    assert!(ok);
    assert_eq!(first, second, "recovery must be byte-deterministic");

    // A mismatched scenario is refused (exit 1, fingerprint named).
    let (code, _stdout, stderr) = run_cli_code(&["recover", "--side", "5", "--durable-dir", dir_s]);
    assert_eq!(code, Some(1), "fingerprint mismatch must exit 1: {stderr}");
    assert!(stderr.contains("fingerprint"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `examples/durable_service.rs` — the crash-and-recover walkthrough —
/// must run to completion and report an identical post-recovery digest.
#[test]
fn durable_service_example_runs_to_completion() {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", "durable_service"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run --example durable_service");
    assert!(
        out.status.success(),
        "durable_service failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("identical"), "{stdout}");
    assert!(stdout.contains("forgot nothing"), "{stdout}");
}

/// `examples/quickstart.rs` (seeded with `StdRng::seed_from_u64(42)`) must
/// run to completion. Spawned through the same cargo that is running the
/// tests; the dev-profile example artifact is already built, so this is a
/// cache hit, not a second build.
#[test]
fn quickstart_example_runs_to_completion() {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", "quickstart"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run --example quickstart");
    assert!(
        out.status.success(),
        "quickstart failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("OK"),
        "quickstart did not reach its final OK line: {stdout}"
    );
}

/// `examples/adversary_bound.rs` asserts that an exact Bayesian adversary's
/// worst `|ln odds-lift|` over PriSTE-protected streams stays within ε: the
/// end-to-end operational check of the guarantee. It must run to
/// completion and print its protected-stream summary.
#[test]
fn adversary_bound_example_runs_to_completion() {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", "adversary_bound"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run --example adversary_bound");
    assert!(
        out.status.success(),
        "adversary_bound failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PriSTE-protected"), "{stdout}");
}
