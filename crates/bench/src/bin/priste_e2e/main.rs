//! `priste_e2e` — one end-to-end benchmark of the PriSTE serving stack on
//! shared, realistic worlds, with a traced per-layer ladder.
//!
//! ```text
//! priste_e2e --workload W --seed N --seconds T --trace 0|1
//! priste_e2e --workload W|all --seed N --seconds T --trace 0|1 --runs K
//! priste_e2e compare BASE CHANGE [--bench BENCHMARK.json]
//! ```
//!
//! A single run builds the workload's inputs from the seed, sets the stack
//! up several times, measures, checks the outputs, and prints one JSON
//! object as the last line of stdout: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. A human-readable report goes to stderr. The exit code
//! is 1 when any correctness check failed, 2 on a usage error.
//!
//! `--runs K` runs the workload (or every workload, alternating their
//! order) K times as child processes on seeds N, N+1, …, prints each run
//! and then the median and quartiles of every metric. `compare` reads two
//! such outputs and judges every (workload, end-to-end metric) pair against
//! the bounds in `BENCHMARK.json`. See README.md in this directory.

mod ladder;
mod load;
mod stats;
mod trace;
mod workloads;
mod world;

use priste_obs::json::{self, Json};
use stats::{Better, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use trace::Tracer;
use workloads::{RunResult, RunSpec, Workload, END_TO_END, PER_LAYER};
use world::Scale;

const USAGE: &str = "usage:
  priste_e2e --workload W --seed N --seconds T --trace 0|1
  priste_e2e --workload W|all --seed N --seconds T --trace 0|1 --runs K
  priste_e2e compare BASE CHANGE [--bench BENCHMARK.json]
workloads: ingest-m2500, release-m2500, mixed-m36-routed, audit-m2500";

#[derive(Debug)]
enum Cli {
    Run {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
        runs: Option<usize>,
    },
    Compare {
        base: PathBuf,
        change: PathBuf,
        bench: PathBuf,
    },
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let mut files = Vec::new();
        let mut bench = PathBuf::from("BENCHMARK.json");
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            if arg == "--bench" {
                bench = it.next().ok_or("--bench needs a path")?.into();
            } else {
                files.push(PathBuf::from(arg));
            }
        }
        let [base, change]: [PathBuf; 2] = files
            .try_into()
            .map_err(|_| "compare takes exactly two files".to_owned())?;
        return Ok(Cli::Compare {
            base,
            change,
            bench,
        });
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut runs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--runs" => {
                let k: usize = value.parse().map_err(|_| "--runs takes an integer")?;
                if k == 0 {
                    return Err("--runs must be at least 1".into());
                }
                runs = Some(k);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" && runs.is_some() {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Cli::Run {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        runs,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_cli(&args) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
        Ok(Cli::Run {
            workloads,
            seed,
            seconds,
            trace,
            runs: None,
            ..
        }) => run_once(workloads[0], seed, seconds, trace),
        Ok(Cli::Run {
            workloads,
            seed,
            seconds,
            trace,
            runs: Some(runs),
        }) => run_many(&workloads, seed, seconds, trace, runs),
        Ok(Cli::Compare {
            base,
            change,
            bench,
        }) => compare_files(&base, &change, &bench),
    };
    std::process::exit(code);
}

/// Where runs keep durable state and write their spans: `priste_e2e/` in
/// the Cargo target directory this executable was built into
/// (`<target>/<profile>/priste_e2e`), so a run writes only inside the
/// build output of its checkout.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("priste_e2e"))
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Removes a run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_once(workload: Workload, seed: u64, seconds: f64, trace: bool) -> i32 {
    let root = match scratch_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let scratch = ScratchDir(root.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return 1;
    }
    let tracer = Tracer::new(trace);
    let spec = RunSpec {
        scale: Scale::FULL,
        seed,
        seconds,
        tracer: &tracer,
        scratch: &scratch.0,
    };
    let res = workloads::run(workload, &spec);
    drop(scratch);
    eprintln!("{} seed {seed} trace {}", workload.name(), u8::from(trace));
    for note in &res.notes {
        eprintln!("  {note}");
    }
    let metrics = reported(&res, trace);
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<38} {value:>14.4} {unit}");
    }
    if trace {
        let path = root.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("  {} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("  spans not written to {}: {e}", path.display()),
        }
    }
    for p in &res.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    println!("{}", result_json(&res, &metrics));
    if res.correct() {
        0
    } else {
        1
    }
}

/// The metrics a run prints, in table order: the end-to-end set, or with
/// tracing the per-layer set (0 for a layer the workload does not cross).
fn reported(res: &RunResult, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let pick = |set: &workloads::Metrics, name: &'static str| {
        set.get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    };
    if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n, u, pick(&res.layer, n)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u, pick(&res.e2e, n)))
            .collect()
    }
}

fn result_json(res: &RunResult, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.correct(),
        res.attempted.max(1),
        res.failed,
        body.join(", ")
    )
}

/// Runs each workload `runs` times as a child process (alternating the
/// workload order between rounds), prints every run, then the summaries.
/// Saved to a file, the output is what `compare` reads.
fn run_many(workloads: &[Workload], seed: u64, seconds: f64, trace: bool, runs: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut lines = Vec::new();
    let mut code = 0;
    for r in 0..runs {
        let mut order = workloads.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run_seed = seed + r as u64;
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let result = match output {
                Ok(o) => {
                    if !o.status.success() {
                        code = 1;
                    }
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .unwrap_or("")
                        .to_owned()
                }
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", exe.display());
                    return 1;
                }
            };
            if json::parse(&result).is_err() {
                eprintln!("error: {} seed {run_seed} printed no result", w.name());
                code = 1;
                continue;
            }
            let line = format!(
                "{{\"workload\": \"{}\", \"seed\": {run_seed}, \"result\": {result}}}",
                w.name()
            );
            println!("{line}");
            lines.push(line);
        }
    }
    println!("{}", summary_json(&collect_runs(&lines.join("\n"))));
    code
}

/// Metric values by (workload, metric), in run order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Gathers the per-run lines of a `--runs` output.
fn collect_runs(text: &str) -> Runs {
    let mut runs = Runs::new();
    for line in text.lines() {
        let Ok(doc) = json::parse(line) else {
            continue;
        };
        let (Some(w), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_object),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((w.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    runs
}

fn summary_json(runs: &Runs) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|((w, m), values)| {
            let s = Summary::of(values);
            format!(
                "{{\"workload\": \"{w}\", \"metric\": \"{m}\", \"runs\": {}, \"median\": {}, \
                 \"q1\": {}, \"q3\": {}, \"spread\": {}}}",
                values.len(),
                s.median,
                s.q1,
                s.q3,
                s.spread()
            )
        })
        .collect();
    format!("{{\"summary\": [{}]}}", rows.join(", "))
}

/// Bound and direction of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(bench: &Json) -> Result<Vec<(String, Better, f64)>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_owned(), better, bound))
        })
        .collect()
}

fn compare_files(base: &Path, change: &Path, bench: &Path) -> i32 {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let loaded = read(bench).and_then(|text| {
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
        Ok((bounds(&doc)?, read(base)?, read(change)?))
    });
    let (bounds, base, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (base, change) = (collect_runs(&base), collect_runs(&change));
    let mut workloads: Vec<&String> = base.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    println!(
        "| workload | metric | base median [q1, q3] | change median [q1, q3] | change | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut regressed = 0;
    for w in workloads {
        for (metric, better, bound) in &bounds {
            let key = (w.clone(), metric.clone());
            let (Some(b), Some(c)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let verdict = stats::compare(b, c, *better, *bound);
            regressed += usize::from(verdict == stats::Verdict::Regressed);
            let (sb, sc) = (Summary::of(b), Summary::of(c));
            println!(
                "| {w} | {metric} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:+.1}% | {:.0}% | {} |",
                sb.median,
                sb.q1,
                sb.q3,
                sc.median,
                sc.q1,
                sc.q3,
                (sc.median / sb.median - 1.0) * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
    }
    i32::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, end to end at toy scale, untraced and traced: the
    /// same code path the benchmark measures, small enough for `cargo test`.
    #[test]
    fn every_workload_runs_at_toy_scale() {
        let scratch = std::env::temp_dir().join(format!("priste-e2e-toy-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        for trace in [false, true] {
            for w in Workload::ALL {
                let tracer = Tracer::new(trace);
                let spec = RunSpec {
                    scale: Scale::TOY,
                    seed: 3,
                    seconds: 1.0,
                    tracer: &tracer,
                    scratch: &scratch,
                };
                let res = workloads::run(w, &spec);
                assert!(
                    res.correct(),
                    "{} trace {trace}: {:?}",
                    w.name(),
                    res.problems
                );
                assert!(res.attempted > 0);
                let metrics = reported(&res, trace);
                let doc = json::parse(&result_json(&res, &metrics)).unwrap();
                let printed = doc.get("metrics").and_then(Json::as_object).unwrap();
                let want = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(printed.len(), want);
                if !trace {
                    for (name, _, _) in END_TO_END {
                        let v = printed[name].get("value").and_then(Json::as_f64).unwrap();
                        assert!(v > 0.0, "{} {name} = {v}", w.name());
                    }
                } else if w == Workload::Audit {
                    assert!(tracer.len() > 0);
                }
            }
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                return json::parse(&std::fs::read_to_string(candidate).unwrap()).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest");
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        let parsed = bounds(&doc).unwrap();
        for ((name, better, bound), (want, unit, dir)) in parsed.iter().zip(END_TO_END) {
            assert_eq!(name, want);
            assert_eq!(*better, dir, "{name}");
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
            let entry = doc
                .get("end_to_end")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(want))
                .unwrap();
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
        for (entry, (name, unit, better)) in doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(unit),
                "{name}"
            );
            let want = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(want),
                "{name}"
            );
        }
    }

    #[test]
    fn cli_parses_the_run_flags() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        match parse_cli(&args(
            "--workload audit-m2500 --seed 4 --seconds 12 --trace 1",
        ))
        .unwrap()
        {
            Cli::Run {
                workloads,
                seed,
                trace,
                runs,
                ..
            } => {
                assert_eq!(workloads, vec![Workload::Audit]);
                assert_eq!(seed, 4);
                assert!(trace);
                assert!(runs.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_cli(&args("--workload all --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_cli(&args("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_cli(&args(
            "--workload audit-m2500 --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_cli(&args("compare a.json")).is_err());
    }

    #[test]
    fn runs_output_round_trips_through_compare_input() {
        let text = "{\"workload\": \"w\", \"seed\": 1, \"result\": {\"correct\": true, \
                    \"attempted\": 1, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 2, \
                    \"unit\": \"ms\"}}}}\n{\"summary\": []}\n";
        let runs = collect_runs(text);
        assert_eq!(runs[&("w".to_owned(), "p50_ms".to_owned())], vec![2.0]);
        assert!(summary_json(&runs).contains("\"median\": 2"));
    }
}
