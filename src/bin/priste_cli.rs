//! `priste-cli` — command-line front end for the PriSTE library.
//!
//! ```text
//! priste-cli world     [--kind synthetic|commuter] [--side N] [--sigma F] [--seed N]
//! priste-cli protect   --event SPEC [--epsilon F] [--alpha F] [--delta F]
//!                      [--side N] [--sigma F] [--steps N] [--seed N]
//! priste-cli quantify  --event SPEC [--alpha F] [--side N] [--sigma F]
//!                      [--steps N] [--seed N]
//! priste-cli check     --event SPEC [--epsilon F] [--alpha F] [--side N]
//!                      [--sigma F] [--steps N] [--seed N]
//! priste-cli stream    [--users N] [--steps N] [--kind synthetic|commuter]
//!                      [--event SPEC] [--epsilon F] [--alpha F] [--side N]
//!                      [--sigma F] [--shards N] [--linger N] [--budget F]
//!                      [--mode audit|enforce] [--floor F] [--backoff F]
//!                      [--threads N] [--durable-dir PATH]
//!                      [--metrics-json PATH] [--trace] [--seed N]
//! priste-cli recover   --durable-dir PATH [--kind synthetic|commuter]
//!                      [--event SPEC] [--epsilon F] [--alpha F] [--side N]
//!                      [--sigma F] [--shards N] [--linger N] [--budget F]
//!                      [--cluster-workers N] [--metrics-json PATH] [--seed N]
//! priste-cli metrics   print the exported metric schema
//! priste-cli calibrate [--kind synthetic|commuter] [--event SPEC] [--target F]
//!                      [--alpha F] [--side N] [--sigma F] [--horizon N]
//!                      [--planner uniform|greedy|knapsack]
//!                      [--steps N] [--floor F] [--backoff F] [--threads N] [--seed N]
//! priste-cli serve     [--addr HOST:PORT] [--workers N] [--kind synthetic|commuter]
//!                      [--event SPEC] [--epsilon F] [--alpha F] [--side N]
//!                      [--sigma F] [--shards N] [--linger N] [--budget F]
//!                      [--mode audit|enforce] [--floor F] [--backoff F]
//!                      [--durable-dir PATH] [--metrics-json PATH] [--trace]
//!                      [--seed N]
//! priste-cli cluster   (--spawn N | --worker-addrs H:P,H:P,... | --shard-map FILE)
//!                      [--addr HOST:PORT] [--workers N] [--retry-after SECS]
//!                      [--durable-root PATH] [--metrics-json PATH] [--trace]
//!                      [+ the serve scenario flags, forwarded to spawned workers]
//! priste-cli loadgen   --addr HOST:PORT [--requests N] [--connections N]
//!                      [--users N] [--mode auto|ingest|release|mixed]
//!                      [--rate R] [--out PATH] [--seed N]
//! ```
//!
//! * `world` — build a mobility world and print its summary statistics.
//! * `protect` — run the PriSTE framework (Algorithm 2, or Algorithm 3 when
//!   `--delta` is given) over a sampled trajectory; emits a release CSV.
//! * `quantify` — release the same trajectory through a *plain* α-PLM (no
//!   calibration) and print the realized event-privacy loss per step — the
//!   diagnostic that shows what an uncalibrated mechanism leaks.
//! * `check` — per-step Theorem IV.1 verdicts for a plain α-PLM stream:
//!   which releases would PriSTE have refused?
//! * `stream` — the `priste-online` streaming service: simulate N users
//!   over a synthetic or commuter (GeoLife-sim) feed. In `audit` mode
//!   (default) every plain α-PLM release is ingested and verdicted; in
//!   `enforce` mode the service holds the mechanism and the calibration
//!   guard certifies (or suppresses) each release *before* it ships.
//!   `--durable-dir` makes the service durable: session state (ledgers
//!   included) is journaled to the directory, and re-running the command
//!   over the same directory *continues* the recovered sessions instead of
//!   resetting their spend. `--metrics-json PATH` attaches a `priste_obs`
//!   registry and dumps its final snapshot as JSON to PATH; `--trace`
//!   prints structured span events to stderr. Both compose with
//!   `--durable-dir` (WAL/snapshot/recovery metrics included), and neither
//!   changes a byte of stdout — per-step gauge lines go to stderr.
//! * `recover` — read-only inspection of a durable directory: rebuild the
//!   state from snapshot + WAL replay (rebuilding the scenario from the
//!   same flags `stream` was given) and print every user's ledger without
//!   journaling anything. Guarded releases and observed-cell ingests are
//!   journaled by reference to the mechanism, so `--alpha` must match too:
//!   another α fails recovery, naming the first record it cannot replay. With `--metrics-json PATH` the recovery
//!   telemetry (replay duration, replayed/torn record counts) is dumped
//!   alongside the service counters. `--cluster-workers N` adds a shard
//!   audit: which slot of an N-worker cluster each recovered user id
//!   jump-hashes to, and whether the directory is a clean single-slot
//!   shard — the check to run before and after a shard handoff.
//! * `metrics` — print the schema of every exported metric: name, kind,
//!   and meaning, as rendered by `--metrics-json` and
//!   `Registry::render_prometheus`.
//! * `calibrate` — the `priste-calibrate` planners and guard: print the
//!   chosen planner's per-timestep budget plan (`--planner`: the
//!   uniform-split baseline, the greedy-forward search, or the
//!   utility-aware knapsack allocator), a three-way comparison table with
//!   total utility under the planar-Laplace error model, then a seeded
//!   release demo in which the uncalibrated α-PLM fails the target ε*
//!   while the calibrated mechanism certifies it.
//! * `serve` — run the scenario as an HTTP daemon (`priste-serve`): the
//!   JSON ingest/release/spend protocol plus the observability plane
//!   (`GET /metrics` Prometheus text, `/healthz`, `/readyz`). Takes the
//!   same scenario flags as `stream` (so a `--durable-dir` journaled by
//!   `stream` recovers under `serve` and vice versa); `--addr 0` picks an
//!   ephemeral port. The bound address is printed to stderr as
//!   `serve: listening on ADDR` for scripts to scrape. SIGTERM/SIGINT
//!   triggers a graceful drain: stop accepting, flush in-flight requests,
//!   checkpoint the durable store, snapshot the registry to
//!   `--metrics-json`, exit 0.
//! * `cluster` — the `priste-cluster` router daemon: consistent-hashes
//!   user ids onto N `serve` workers and relays the same JSON protocol.
//!   `--spawn N` forks N workers as child processes (the serve scenario
//!   flags are forwarded; with `--durable-root` each worker journals to
//!   its own `worker-i/` subdirectory) and SIGTERMs them after its own
//!   drain; `--worker-addrs`/`--shard-map` front workers started by hand.
//!   The bound address is printed to stderr as `cluster: routing on ADDR`
//!   for scripts to scrape; `GET /cluster/workers` reports the live shard
//!   map and `POST /cluster/remap` rebinds a slot (shard handoff).
//! * `loadgen` — load generator against a running `serve` or `cluster`
//!   daemon: `--connections` worker connections race through `--requests`
//!   total requests (ingest, release, or an alternating mix; `auto` picks
//!   by asking `/v1/config` whether enforcement is on) and report
//!   client-observed p50/p90/p99 latency plus sustained throughput.
//!   Closed-loop by default; `--rate R` switches to an open loop that
//!   schedules requests on an absolute timeline at R req/s (no
//!   coordinated omission) and reports offered vs achieved rate.
//!   `--out PATH` writes the run as a `BENCH_serve.json`-compatible
//!   artifact for `bench_export --compare`.
//!
//! Every subcommand constructs its stack through one [`Pipeline`]: the
//! scenario (world, mobility, event, mechanism, target ε) is described
//! once and the subcommand derives the mode it needs — `.audit()` for
//! `protect`, `.quantifier()`/`.checker()` for `quantify`/`check`,
//! `.serve()`/`.serve_enforcing()` for `stream`, and
//! `.plan_*()`/`.enforce()` for `calibrate`. `stream --threads N` fans the
//! batched ingest/release work over N workers (0 = all cores) with
//! identical output for any N.
//!
//! Grid scale: `--side N` builds an `N×N` world (`m = N²` cells) with a
//! dense mobility chain, which is the right backend at the CLI's default
//! small sides. Past `--side 50` or so a banded world (small `--sigma`)
//! is better served by the library's CSR path — build the chain with
//! `priste::markov::gaussian_kernel_chain_sparse` or flip
//! `Pipeline::sparse_mobility()` on a dense one; see the README's
//! "Scaling to large grids" section.
//!
//! Events use the paper's notation, e.g. `"PRESENCE(S={1:10}, T={4:8})"`.
//! `stream`/`calibrate` events are *attach-relative*: `T={2:4}` means
//! timestamps 2–4 of each user's session.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error (unknown
//! command or flag, malformed value) — usage errors also print the usage
//! text below.

use priste::calibrate::{Decision, GuardConfig, PlanarLaplaceError, PlannerConfig, UtilityModel};
use priste::obs::StderrSink;
use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  priste-cli world     [--kind synthetic|commuter] [--side N] [--sigma F] [--seed N]
  priste-cli protect   --event SPEC [--epsilon F] [--alpha F] [--delta F]
                       [--side N] [--sigma F] [--steps N] [--seed N]
  priste-cli quantify  --event SPEC [--alpha F] [--side N] [--sigma F] [--steps N] [--seed N]
  priste-cli check     --event SPEC [--epsilon F] [--alpha F] [--side N] [--sigma F]
                       [--steps N] [--seed N]
  priste-cli stream    [--users N] [--steps N] [--kind synthetic|commuter] [--event SPEC]
                       [--epsilon F] [--alpha F] [--side N] [--sigma F]
                       [--shards N] [--linger N] [--budget F]
                       [--mode audit|enforce] [--floor F] [--backoff F]
                       [--threads N] [--durable-dir PATH]
                       [--metrics-json PATH] [--trace] [--seed N]
  priste-cli recover   --durable-dir PATH [--kind synthetic|commuter] [--event SPEC]
                       [--epsilon F] [--alpha F] [--side N] [--sigma F]
                       [--shards N] [--linger N] [--budget F]
                       [--cluster-workers N] [--metrics-json PATH] [--seed N]
  priste-cli metrics   print the exported metric schema (names, kinds, meanings)
  priste-cli calibrate [--kind synthetic|commuter] [--event SPEC] [--target F]
                       [--alpha F] [--side N] [--sigma F] [--horizon N]
                       [--planner uniform|greedy|knapsack]
                       [--steps N] [--floor F] [--backoff F] [--threads N] [--seed N]
  priste-cli serve     [--addr HOST:PORT] [--workers N] [--kind synthetic|commuter]
                       [--event SPEC] [--epsilon F] [--alpha F] [--side N] [--sigma F]
                       [--shards N] [--linger N] [--budget F]
                       [--mode audit|enforce] [--floor F] [--backoff F]
                       [--durable-dir PATH] [--metrics-json PATH] [--trace]
                       [--seed N]
  priste-cli cluster   (--spawn N | --worker-addrs H:P,H:P,... | --shard-map FILE)
                       [--addr HOST:PORT] [--workers N] [--retry-after SECS]
                       [--durable-root PATH] [--metrics-json PATH] [--trace]
                       [+ the serve scenario flags, forwarded to spawned workers]
  priste-cli loadgen   --addr HOST:PORT [--requests N] [--connections N] [--users N]
                       [--mode auto|ingest|release|mixed] [--rate R] [--out PATH] [--seed N]
  priste-cli help      print this text";

/// CLI error with the exit-code split: usage errors (exit 2, usage text
/// appended) versus runtime failures (exit 1).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

/// Maps a library error into a runtime CLI failure.
fn runtime<E: ToString>(e: E) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Maps a bad argument into a usage CLI failure.
fn usage<E: ToString>(e: E) -> CliError {
    CliError::Usage(e.to_string())
}

const WORLD_FLAGS: &[&str] = &["kind", "side", "sigma", "seed", "steps"];
const PROTECT_FLAGS: &[&str] = &[
    "event", "epsilon", "alpha", "delta", "side", "sigma", "steps", "seed",
];
const QUANTIFY_FLAGS: &[&str] = &["event", "alpha", "side", "sigma", "steps", "seed"];
const CHECK_FLAGS: &[&str] = &[
    "event", "epsilon", "alpha", "side", "sigma", "steps", "seed",
];
const STREAM_FLAGS: &[&str] = &[
    "users",
    "steps",
    "kind",
    "event",
    "epsilon",
    "alpha",
    "side",
    "sigma",
    "shards",
    "linger",
    "budget",
    "mode",
    "floor",
    "backoff",
    "threads",
    "durable-dir",
    "metrics-json",
    "trace",
    "seed",
];
const RECOVER_FLAGS: &[&str] = &[
    "durable-dir",
    "kind",
    "event",
    "epsilon",
    "alpha",
    "side",
    "sigma",
    "shards",
    "linger",
    "budget",
    "floor",
    "backoff",
    "cluster-workers",
    "metrics-json",
    "seed",
];
const CALIBRATE_FLAGS: &[&str] = &[
    "kind", "event", "target", "alpha", "side", "sigma", "horizon", "steps", "floor", "backoff",
    "threads", "seed", "planner",
];
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "kind",
    "event",
    "epsilon",
    "alpha",
    "side",
    "sigma",
    "shards",
    "linger",
    "budget",
    "mode",
    "floor",
    "backoff",
    "durable-dir",
    "metrics-json",
    "trace",
    "seed",
];
const CLUSTER_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "spawn",
    "worker-addrs",
    "shard-map",
    "durable-root",
    "retry-after",
    "metrics-json",
    "trace",
    // The serve scenario surface, forwarded verbatim to spawned workers.
    "kind",
    "event",
    "epsilon",
    "alpha",
    "side",
    "sigma",
    "shards",
    "linger",
    "budget",
    "mode",
    "floor",
    "backoff",
    "seed",
];
const LOADGEN_FLAGS: &[&str] = &[
    "addr",
    "requests",
    "connections",
    "users",
    "mode",
    "rate",
    "out",
    "seed",
];

/// Flags that take no value: present means "on".
const BOOLEAN_FLAGS: &[&str] = &["trace"];

/// Parsed `--key value` flags, validated against a subcommand's allowlist.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str], command: &str) -> Result<Flags, CliError> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got {:?}", args[i])))?;
            if !allowed.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key} for `{command}`"
                )));
            }
            if BOOLEAN_FLAGS.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags(map))
    }

    fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.0.get(key).map(String::as_str).unwrap_or(default)
    }

    fn required(&self, key: &str) -> Result<&str, CliError> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: not a number: {v:?}"))),
        }
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: not an integer: {v:?}"))),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: not an integer: {v:?}"))),
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "world" => cmd_world(&Flags::parse(rest, WORLD_FLAGS, "world")?),
        "protect" => cmd_protect(&Flags::parse(rest, PROTECT_FLAGS, "protect")?),
        "quantify" => cmd_quantify(&Flags::parse(rest, QUANTIFY_FLAGS, "quantify")?),
        "check" => cmd_check(&Flags::parse(rest, CHECK_FLAGS, "check")?),
        "stream" => cmd_stream(&Flags::parse(rest, STREAM_FLAGS, "stream")?),
        "recover" => cmd_recover(&Flags::parse(rest, RECOVER_FLAGS, "recover")?),
        "calibrate" => cmd_calibrate(&Flags::parse(rest, CALIBRATE_FLAGS, "calibrate")?),
        "serve" => cmd_serve(&Flags::parse(rest, SERVE_FLAGS, "serve")?),
        "cluster" => cmd_cluster(&Flags::parse(rest, CLUSTER_FLAGS, "cluster")?),
        "loadgen" => cmd_loadgen(&Flags::parse(rest, LOADGEN_FLAGS, "loadgen")?),
        "metrics" => {
            if !rest.is_empty() {
                return Err(CliError::Usage("`metrics` takes no flags".into()));
            }
            cmd_metrics()
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Shared world setup from flags.
fn world_from_flags(flags: &Flags) -> Result<(GridMap, MarkovModel), CliError> {
    let side = flags.usize_or("side", 10)?;
    let sigma = flags.f64_or("sigma", 1.0)?;
    let grid = GridMap::new(side, side, 1.0).map_err(usage)?;
    let chain = gaussian_kernel_chain(&grid, sigma).map_err(usage)?;
    Ok((grid, chain))
}

/// Synthetic-or-commuter world selection shared by `stream`/`calibrate`.
fn kind_world(flags: &Flags, default_side: usize) -> Result<(GridMap, MarkovModel), CliError> {
    match flags.str_or("kind", "synthetic") {
        "synthetic" => world_from_flags(flags),
        "commuter" => {
            let side = flags.usize_or("side", default_side)?;
            let world = geolife_sim::build(&geolife_sim::CommuterConfig {
                rows: side,
                cols: side,
                seed: flags.u64_or("seed", 1)?,
                ..Default::default()
            })
            .map_err(runtime)?;
            Ok((world.grid, world.chain))
        }
        other => Err(CliError::Usage(format!(
            "--kind must be synthetic or commuter, got {other:?}"
        ))),
    }
}

fn trajectory_from_flags(
    flags: &Flags,
    chain: &MarkovModel,
) -> Result<(Vec<CellId>, StdRng), CliError> {
    let steps = flags.usize_or("steps", 20)?;
    let seed = flags.u64_or("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pi = Vector::uniform(chain.num_states());
    let traj = chain
        .sample_trajectory_from(&pi, steps, &mut rng)
        .map_err(runtime)?;
    Ok((traj, rng))
}

fn cmd_world(flags: &Flags) -> Result<(), CliError> {
    let kind = flags.str_or("kind", "synthetic");
    let seed = flags.u64_or("seed", 1)?;
    let (grid, chain, trajectories) = match kind {
        "synthetic" => {
            let (grid, chain) = world_from_flags(flags)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let traj = chain
                .sample_trajectory_from(
                    &Vector::uniform(grid.num_cells()),
                    flags.usize_or("steps", 50)?,
                    &mut rng,
                )
                .map_err(runtime)?;
            (grid, chain, vec![traj])
        }
        "commuter" => {
            let side = flags.usize_or("side", 12)?;
            let world = geolife_sim::build(&geolife_sim::CommuterConfig {
                rows: side,
                cols: side,
                seed,
                ..Default::default()
            })
            .map_err(runtime)?;
            (world.grid, world.chain, world.trajectories)
        }
        other => {
            return Err(CliError::Usage(format!(
                "--kind must be synthetic or commuter, got {other:?}"
            )))
        }
    };

    let pipeline = Pipeline::on(grid).mobility(chain).build().map_err(usage)?;
    let (grid, chain) = (
        pipeline.grid(),
        pipeline.chain().expect("mobility set above"),
    );
    println!(
        "world: {kind}, {} cells ({} km each)",
        grid.num_cells(),
        grid.cell_size_km()
    );
    println!("trajectories: {}", trajectories.len());
    let stationary = stationary_distribution(chain, 1e-9, 200_000).map_err(runtime)?;
    let mut top: Vec<(usize, f64)> = stationary.as_slice().iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    println!("top stationary cells:");
    for &(cell, p) in top.iter().take(5) {
        println!("  {}: {:.4}", CellId(cell), p);
    }
    let mut max_self = (0usize, 0.0f64);
    for i in 0..grid.num_cells() {
        let p = chain.transition().get(i, i);
        if p > max_self.1 {
            max_self = (i, p);
        }
    }
    println!(
        "stickiest cell: {} (self-transition {:.3})",
        CellId(max_self.0),
        max_self.1
    );
    Ok(())
}

fn cmd_protect(flags: &Flags) -> Result<(), CliError> {
    let (grid, chain) = world_from_flags(flags)?;
    let event = parse_event(flags.required("event")?, grid.num_cells()).map_err(usage)?;
    let epsilon = flags.f64_or("epsilon", 1.0)?;
    let alpha = flags.f64_or("alpha", 0.5)?;
    let (traj, mut rng) = trajectory_from_flags(flags, &chain)?;

    let mut builder = Pipeline::on(grid)
        .mobility(chain)
        .event(event)
        .planar_laplace(alpha)
        .target_epsilon(epsilon);
    if let Some(delta) = flags.0.get("delta") {
        let delta: f64 = delta
            .parse()
            .map_err(|_| CliError::Usage("--delta: not a number".into()))?;
        builder = builder.delta_location(delta);
    }
    let mut priste = builder.audit().map_err(runtime)?;

    println!("t,true_cell,released_cell,budget,attempts,distance_km");
    for &loc in &traj {
        let r = priste.release(loc, &mut rng).map_err(runtime)?;
        println!(
            "{},{},{},{:.6},{},{:.3}",
            r.t,
            loc.one_based(),
            r.observed.one_based(),
            r.final_budget,
            r.attempts,
            r.euclid_km
        );
    }
    Ok(())
}

fn cmd_quantify(flags: &Flags) -> Result<(), CliError> {
    let (grid, chain) = world_from_flags(flags)?;
    let event = parse_event(flags.required("event")?, grid.num_cells()).map_err(usage)?;
    let alpha = flags.f64_or("alpha", 0.5)?;
    let (traj, mut rng) = trajectory_from_flags(flags, &chain)?;
    let pipeline = Pipeline::on(grid)
        .mobility(chain)
        .event(event)
        .planar_laplace(alpha)
        .build()
        .map_err(usage)?;
    let plm = pipeline.mechanism_instance().map_err(runtime)?;
    let mut quantifier = pipeline.quantifier().map_err(runtime)?;

    println!("t,true_cell,released_cell,privacy_loss");
    let mut worst: f64 = 0.0;
    for &loc in &traj {
        let obs = plm.perturb(loc, &mut rng);
        let step = quantifier
            .observe(&plm.emission_column(obs))
            .map_err(runtime)?;
        worst = worst.max(step.privacy_loss);
        println!(
            "{},{},{},{:.6}",
            step.t,
            loc.one_based(),
            obs.one_based(),
            step.privacy_loss
        );
    }
    eprintln!(
        "worst realized loss under uniform prior: {worst:.4} (plain {alpha}-PLM, no calibration)"
    );
    Ok(())
}

fn cmd_check(flags: &Flags) -> Result<(), CliError> {
    let (grid, chain) = world_from_flags(flags)?;
    let event = parse_event(flags.required("event")?, grid.num_cells()).map_err(usage)?;
    let epsilon = flags.f64_or("epsilon", 1.0)?;
    let alpha = flags.f64_or("alpha", 0.5)?;
    let (traj, mut rng) = trajectory_from_flags(flags, &chain)?;
    let pipeline = Pipeline::on(grid)
        .mobility(chain)
        .event(event)
        .planar_laplace(alpha)
        .target_epsilon(epsilon)
        .build()
        .map_err(usage)?;
    let plm = pipeline.mechanism_instance().map_err(runtime)?;
    let (mut builder, checker) = pipeline.checker().map_err(runtime)?;

    println!("t,true_cell,released_cell,verdict");
    let mut refused = 0usize;
    for (i, &loc) in traj.iter().enumerate() {
        let obs = plm.perturb(loc, &mut rng);
        let col = plm.emission_column(obs);
        let inputs = builder.candidate(&col).map_err(runtime)?;
        let verdict = checker.check(&inputs.a, &inputs.b, &inputs.c);
        let label = match &verdict {
            TheoremVerdict::Satisfied => "satisfied",
            TheoremVerdict::Violated { .. } => {
                refused += 1;
                "VIOLATED"
            }
            TheoremVerdict::Unknown { .. } => {
                refused += 1;
                "unknown"
            }
        };
        println!("{},{},{},{label}", i + 1, loc.one_based(), obs.one_based());
        builder.commit(col).map_err(runtime)?;
    }
    eprintln!(
        "{refused}/{} releases of the plain {alpha}-PLM would be refused at ε={epsilon}",
        traj.len()
    );
    Ok(())
}

/// The shared `stream`/`recover` scenario pipeline: both subcommands must
/// describe the *same* world, event, and service configuration — the
/// durable store fingerprints the scenario and refuses to recover state
/// journaled under a different one.
fn stream_pipeline(flags: &Flags, registry: Option<&Registry>) -> Result<Pipeline, CliError> {
    let (grid, chain) = kind_world(flags, 10)?;
    let m = grid.num_cells();
    let default_event = format!("PRESENCE(S={{1:{}}}, T={{2:4}})", (m / 4).max(1));
    let event = parse_event(flags.str_or("event", &default_event), m).map_err(usage)?;
    let mut builder = Pipeline::on(grid)
        .mobility(chain)
        .event(event)
        .planar_laplace(flags.f64_or("alpha", 0.5)?)
        .target_epsilon(flags.f64_or("epsilon", 1.0)?)
        .service_config(OnlineConfig {
            num_shards: flags.usize_or("shards", 8)?,
            linger: flags.usize_or("linger", 2)?,
            budget: flags.f64_or("budget", 20.0)?,
            ..OnlineConfig::default()
        })
        .guard(GuardConfig {
            backoff: flags.f64_or("backoff", 0.5)?,
            floor: flags.f64_or("floor", 1e-3)?,
            ..GuardConfig::default()
        });
    if let Some(dir) = flags.0.get("durable-dir") {
        builder = builder.durable(dir);
    }
    if let Some(registry) = registry {
        builder = builder.observe(registry);
    }
    builder.build().map_err(usage)
}

/// Builds the optional metrics registry for `stream`/`recover`:
/// `--metrics-json` (and `--trace` for `stream`) turn it on.
fn registry_from_flags(flags: &Flags) -> Option<Registry> {
    let wanted = flags.0.contains_key("metrics-json") || flags.0.contains_key("trace");
    wanted.then(|| {
        let registry = Registry::new();
        if flags.0.contains_key("trace") {
            registry.set_sink(Arc::new(StderrSink));
        }
        registry
    })
}

/// Dumps the registry snapshot to `--metrics-json PATH` (schema
/// `priste-metrics/1`). Stdout is never touched — the confirmation note
/// goes to stderr.
fn write_metrics_json(flags: &Flags, registry: Option<&Registry>) -> Result<(), CliError> {
    let (Some(path), Some(registry)) = (flags.0.get("metrics-json"), registry) else {
        return Ok(());
    };
    std::fs::write(path, registry.render_json())
        .map_err(|e| CliError::Runtime(format!("write --metrics-json {path}: {e}")))?;
    eprintln!("metrics: registry snapshot written to {path}");
    Ok(())
}

/// Per-step stderr gauge line (stdout stays byte-identical with metrics on).
fn eprint_step_gauges(registry: Option<&Registry>, step: usize, stats: &ServiceStats) {
    if let Some(registry) = registry {
        eprintln!(
            "metrics: step={} observations={} certified={} violated={} suppressed={} sessions={:.0}",
            step,
            stats.observations,
            stats.certified,
            stats.violated,
            stats.suppressed,
            registry.gauge("online_sessions").get(),
        );
    }
}

/// The `priste-online` streaming service over a simulated N-user feed.
fn cmd_stream(flags: &Flags) -> Result<(), CliError> {
    let users = flags.usize_or("users", 100)?;
    let steps = flags.usize_or("steps", 24)?;
    if users == 0 || steps == 0 {
        return Err(CliError::Usage(
            "--users and --steps must be at least 1".into(),
        ));
    }
    let seed = flags.u64_or("seed", 1)?;
    let mode = flags.str_or("mode", "audit");
    if !matches!(mode, "audit" | "enforce") {
        return Err(CliError::Usage(format!(
            "--mode must be audit or enforce, got {mode:?}"
        )));
    }

    // One pipeline describes the whole scenario; `stream` derives the
    // service (plain or enforcing) from it.
    let threads = flags.usize_or("threads", 1)?;
    let registry = registry_from_flags(flags);
    let pipeline = stream_pipeline(flags, registry.as_ref())?;
    let m = pipeline.num_cells();
    let chain = pipeline.chain().expect("mobility set above").clone();
    let mut service = if mode == "enforce" {
        pipeline.serve_enforcing().map_err(usage)?
    } else {
        pipeline.serve().map_err(usage)?
    };
    if let Some(dir) = service.durable_dir() {
        eprintln!(
            "durable: journaling to {} ({} recovered users)",
            dir.display(),
            service.num_users()
        );
    }

    // Users: seeded trajectories from the world's own mobility model; one
    // protected event window each (template 0, pre-registered by the
    // pipeline), released through a shared α-PLM. Users recovered from a
    // durable directory keep their sessions (ledger spend included) —
    // only genuinely new ids are registered.
    let mut rng = StdRng::seed_from_u64(seed);
    let plm = pipeline.mechanism_instance().map_err(usage)?;
    let mut trajectories = Vec::with_capacity(users);
    for u in 0..users as u64 {
        if service.session(UserId(u)).is_none() {
            service
                .add_user(UserId(u), Vector::uniform(m))
                .map_err(runtime)?;
            service.attach_event(UserId(u), 0).map_err(runtime)?;
        }
        trajectories.push(
            chain
                .sample_trajectory_from(&Vector::uniform(m), steps, &mut rng)
                .map_err(runtime)?,
        );
    }

    if mode == "enforce" {
        return run_stream_enforcing(
            service,
            &trajectories,
            users,
            steps,
            flags,
            registry.as_ref(),
        );
    }

    // Feed: one batch per timestamp, every user releasing one observation;
    // the service fans the ingest work over the worker threads.
    let mut worst_loss = vec![0.0f64; users];
    let mut violations = vec![0usize; users];
    let started = std::time::Instant::now();
    #[allow(clippy::needless_range_loop)] // column-wise access across per-user rows
    for t in 0..steps {
        let _step_span = registry.as_ref().map(|r| {
            let mut span = r.span("stream_step");
            span.annotate("t", (t + 1) as f64);
            span
        });
        let batch: Vec<(UserId, Vector)> = (0..users)
            .map(|u| {
                let observed = plm.perturb(trajectories[u][t], &mut rng);
                (UserId(u as u64), plm.emission_column(observed))
            })
            .collect();
        for report in service
            .ingest_batch_parallel(&batch, threads)
            .map_err(runtime)?
        {
            let u = report.user.0 as usize;
            if report.worst_loss.is_finite() {
                worst_loss[u] = worst_loss[u].max(report.worst_loss);
            } else {
                worst_loss[u] = f64::INFINITY;
            }
            violations[u] += report
                .windows
                .iter()
                .filter(|w| w.verdict == Verdict::Violated)
                .count();
        }
        eprint_step_gauges(registry.as_ref(), t + 1, &service.stats());
    }
    let elapsed = started.elapsed();
    if service.durable_dir().is_some() {
        // Clean shutdown: compact the WAL into a snapshot generation so
        // the next open recovers without replay.
        service.checkpoint().map_err(runtime)?;
    }

    println!("user,observations,worst_loss,violations,budget_remaining,exhausted");
    for u in 0..users as u64 {
        let session = service.session(UserId(u)).expect("registered above");
        println!(
            "{},{},{:.6},{},{:.4},{}",
            u,
            session.observed(),
            worst_loss[u as usize],
            violations[u as usize],
            session.ledger().remaining(),
            session.ledger().exhausted()
        );
    }
    let stats = service.stats();
    println!(
        "total,{} users,{} observations,{} certified,{} violated,{} mismatched,{} evicted",
        users,
        stats.observations,
        stats.certified,
        stats.violated,
        stats.mismatched,
        stats.evicted_windows
    );
    // Timing is non-deterministic: keep it off stdout.
    eprintln!(
        "throughput: {} observations in {:.3}s ({:.0} obs/s, {} shards)",
        stats.observations,
        elapsed.as_secs_f64(),
        stats.observations as f64 / elapsed.as_secs_f64().max(1e-9),
        service.config().num_shards
    );
    write_metrics_json(flags, registry.as_ref())
}

/// Enforcing-mode feed: the service holds the mechanism; the guard
/// certifies (or suppresses) every release. One same-timestep
/// [`SessionManager::release_batch`] per step, fanned over `threads`
/// workers with per-shard RNG streams — output is identical for any
/// thread count.
fn run_stream_enforcing(
    mut service: SessionManager<SharedProvider>,
    trajectories: &[Vec<CellId>],
    users: usize,
    steps: usize,
    flags: &Flags,
    registry: Option<&Registry>,
) -> Result<(), CliError> {
    let seed = flags.u64_or("seed", 1)?;
    let threads = flags.usize_or("threads", 1)?;
    let mut worst_loss = vec![0.0f64; users];
    let mut suppressed = vec![0usize; users];
    let started = std::time::Instant::now();
    #[allow(clippy::needless_range_loop)] // column-wise access across per-user rows
    for t in 0..steps {
        let _step_span = registry.map(|r| {
            let mut span = r.span("stream_step");
            span.annotate("t", (t + 1) as f64);
            span
        });
        let batch: Vec<(UserId, CellId)> = (0..users)
            .map(|u| (UserId(u as u64), trajectories[u][t]))
            .collect();
        let releases = service
            .release_batch(&batch, seed.wrapping_add(t as u64), threads)
            .map_err(runtime)?;
        for rel in releases {
            let u = rel.report.user.0 as usize;
            if rel.decision == Decision::Suppressed {
                suppressed[u] += 1;
            }
            if rel.report.worst_loss.is_finite() {
                worst_loss[u] = worst_loss[u].max(rel.report.worst_loss);
            } else {
                worst_loss[u] = f64::INFINITY;
            }
        }
        eprint_step_gauges(registry, t + 1, &service.stats());
    }
    let elapsed = started.elapsed();
    if service.durable_dir().is_some() {
        service.checkpoint().map_err(runtime)?;
    }

    println!("user,observations,worst_loss,suppressed,budget_remaining,exhausted");
    for u in 0..users as u64 {
        let session = service.session(UserId(u)).expect("registered above");
        println!(
            "{},{},{:.6},{},{:.4},{}",
            u,
            session.observed(),
            worst_loss[u as usize],
            suppressed[u as usize],
            session.ledger().remaining(),
            session.ledger().exhausted()
        );
    }
    let stats = service.stats();
    println!(
        "total,{} users,{} observations,{} certified,{} violated,{} suppressed,{} evicted",
        users,
        stats.observations,
        stats.certified,
        stats.violated,
        stats.suppressed,
        stats.evicted_windows
    );
    eprintln!(
        "throughput: {} enforced releases in {:.3}s ({:.0} obs/s)",
        stats.observations,
        elapsed.as_secs_f64(),
        stats.observations as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    write_metrics_json(flags, registry)
}

/// Read-only inspection of a durable service directory: recover the state
/// (latest valid snapshot + WAL-tail replay) without attaching a store,
/// and print every user's ledger. Running it twice over the same directory
/// prints the same digest — recovery is byte-deterministic.
fn cmd_recover(flags: &Flags) -> Result<(), CliError> {
    flags.required("durable-dir")?;
    let registry = registry_from_flags(flags);
    let pipeline = stream_pipeline(flags, registry.as_ref())?;
    let service = pipeline.recover_service().map_err(runtime)?;

    println!("user,observations,spent,budget_remaining,exhausted,violations,active_windows");
    for id in service.users() {
        let session = service.session(id).expect("listed above");
        let ledger = session.ledger();
        println!(
            "{},{},{:.6},{:.4},{},{},{}",
            id.0,
            session.observed(),
            ledger.spent(),
            ledger.remaining(),
            ledger.exhausted(),
            ledger.violations(),
            session.active_windows()
        );
    }
    let stats = service.stats();
    println!(
        "total,{} users,{} observations,{} certified,{} violated,{} suppressed,{} evicted",
        service.num_users(),
        stats.observations,
        stats.certified,
        stats.violated,
        stats.suppressed,
        stats.evicted_windows
    );
    println!("state digest: {:016x}", service.state_digest());
    if let Some(raw) = flags.0.get("cluster-workers") {
        let n: u32 = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
            CliError::Usage(format!(
                "--cluster-workers must be a positive worker count, got {raw:?}"
            ))
        })?;
        // Shard audit: a worker's durable directory is a clean shard when
        // every recovered user jump-hashes onto the same slot of an
        // n-worker cluster. Run this before and after a handoff.
        let mut per_slot: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
        for id in service.users() {
            let slot = priste::cluster::jump_hash(id.0, n);
            let entry = per_slot.entry(slot).or_insert((0, u64::MAX, 0));
            entry.0 += 1;
            entry.1 = entry.1.min(id.0);
            entry.2 = entry.2.max(id.0);
        }
        println!("cluster: slot audit against a {n}-worker map");
        println!("slot,users,min_user,max_user");
        for (slot, (count, lo, hi)) in &per_slot {
            println!("{slot},{count},{lo},{hi}");
        }
        match per_slot.len() {
            0 => println!("cluster: directory holds no users"),
            1 => println!(
                "cluster: clean shard — every user belongs to slot {}",
                per_slot.keys().next().expect("one entry")
            ),
            k => println!(
                "cluster: WARNING — users from {k} different slots; \
                 this directory is not a clean shard of a {n}-worker map"
            ),
        }
    }
    if registry.is_some() {
        if let Some(info) = service.recovery_info() {
            eprintln!(
                "recovery: {:.3}s, {} records replayed, {} torn",
                info.duration_seconds, info.replayed_records, info.torn_records
            );
        }
    }
    write_metrics_json(flags, registry.as_ref())
}

/// The `priste-calibrate` planners and release demo.
fn cmd_calibrate(flags: &Flags) -> Result<(), CliError> {
    let target = flags.f64_or("target", 0.8)?;
    let alpha = flags.f64_or("alpha", 2.0)?;
    let horizon = flags.usize_or("horizon", 4)?;
    let steps = flags.usize_or("steps", 8)?;
    let seed = flags.u64_or("seed", 1)?;
    if horizon == 0 || steps == 0 {
        return Err(CliError::Usage(
            "--horizon and --steps must be at least 1".into(),
        ));
    }
    if !(target > 0.0 && target.is_finite()) {
        return Err(CliError::Usage(format!(
            "--target must be positive and finite, got {target}"
        )));
    }

    let (grid, chain) = kind_world(flags, 6)?;
    let m = grid.num_cells();
    let default_event = format!("PRESENCE(S={{1:{}}}, T={{2:3}})", (m / 4).max(1));
    let event = parse_event(flags.str_or("event", &default_event), m).map_err(usage)?;
    let planner_cfg = PlannerConfig {
        backoff: flags.f64_or("backoff", 0.5)?,
        floor: flags.f64_or("floor", 1e-3)?,
        threads: flags.usize_or("threads", 1)?,
    };
    planner_cfg.validate().map_err(usage)?;
    if planner_cfg.floor > alpha {
        return Err(CliError::Usage(format!(
            "--floor {} exceeds --alpha {alpha} (nothing to back off to)",
            planner_cfg.floor
        )));
    }

    // ---- One pipeline, every calibration view. ---------------------------
    let pipeline = Pipeline::on(grid)
        .mobility(chain.clone())
        .event(event)
        .planar_laplace(alpha)
        .target_epsilon(target)
        .planner(planner_cfg)
        .guard(GuardConfig {
            backoff: flags.f64_or("backoff", 0.5)?,
            floor: flags.f64_or("floor", 1e-3)?,
            ..GuardConfig::default()
        })
        .build()
        .map_err(usage)?;

    // ---- Offline plans: the chosen planner's table plus the three-way
    // comparison (utility under the planar-Laplace error model). ----------
    let planner = flags.str_or("planner", "greedy");
    if !matches!(planner, "uniform" | "greedy" | "knapsack") {
        return Err(CliError::Usage(format!(
            "--planner must be uniform, greedy or knapsack, got {planner:?}"
        )));
    }
    let model = PlanarLaplaceError;
    let (uniform, greedy, knapsack) = pipeline.plan_all(horizon, &model).map_err(runtime)?;
    let chosen = match planner {
        "uniform" => &uniform,
        "knapsack" => &knapsack,
        _ => &greedy,
    };

    println!("plan: {planner} budgets for ε* = {target} over {horizon} steps ({m} cells)");
    println!("{chosen}");
    println!(
        "planner,certified,epsilon,mean_budget,utility({})",
        model.name()
    );
    for (name, plan) in [
        ("uniform-split", &uniform),
        ("greedy", &greedy),
        ("knapsack", &knapsack),
    ] {
        let epsilon = match plan.certified_epsilon() {
            Some(eps) => format!("{eps:.4}"),
            None => "-".into(),
        };
        println!(
            "{name},{}/{horizon},{epsilon},{:.4},{:.4}",
            plan.certified_steps(),
            plan.mean_budget(),
            plan.total_utility(&model)
        );
    }

    // ---- Release demo: uncalibrated vs calibrated on one trajectory. ----
    let mut rng = StdRng::seed_from_u64(seed);
    let traj = chain
        .sample_trajectory_from(&Vector::uniform(m), steps, &mut rng)
        .map_err(runtime)?;

    let plm = pipeline.mechanism_instance().map_err(usage)?;
    let mut plain = pipeline.quantifier().map_err(runtime)?;
    let mut plain_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut uncal_worst = 0.0f64;
    for &loc in &traj {
        let obs = plm.perturb(loc, &mut plain_rng);
        let step = plain.observe(&plm.emission_column(obs)).map_err(runtime)?;
        uncal_worst = uncal_worst.max(step.privacy_loss);
    }
    println!(
        "demo: uncalibrated {alpha}-PLM worst realized loss {uncal_worst:.4} → {}",
        if uncal_worst > target {
            format!("FAILS ε* = {target}")
        } else {
            format!("within ε* = {target}")
        }
    );

    let mut calibrated = pipeline.enforce().map_err(runtime)?;
    let mut cal_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut cal_worst = 0.0f64;
    let mut cal_suppressed = 0usize;
    let mut cal_attempts = 0usize;
    for &loc in &traj {
        let rel = calibrated.release(loc, &mut cal_rng).map_err(runtime)?;
        cal_worst = cal_worst.max(rel.loss);
        cal_attempts += rel.attempts.len();
        if rel.decision == Decision::Suppressed {
            cal_suppressed += 1;
        }
    }
    println!(
        "demo: calibrated release worst realized loss {cal_worst:.4} {} ε* = {target} → {} \
         ({cal_suppressed}/{steps} suppressed, {cal_attempts} attempts)",
        if cal_worst <= target { "≤" } else { ">" },
        if cal_worst <= target {
            "certified"
        } else {
            "FAILS"
        }
    );
    Ok(())
}

/// The scenario served as an HTTP daemon: the `stream` pipeline behind
/// `priste-serve`, with the metrics plane always on (that is the point of
/// the daemon) and signal-driven graceful drain.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let mode = flags.str_or("mode", "audit");
    if !matches!(mode, "audit" | "enforce") {
        return Err(CliError::Usage(format!(
            "--mode must be audit or enforce, got {mode:?}"
        )));
    }
    let workers = flags.usize_or("workers", 8)?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    let addr = flags.str_or("addr", "127.0.0.1:8750");

    // Unlike `stream`, the registry is unconditional — the live `/metrics`
    // endpoint is the daemon's reason to exist. `--trace` adds span events
    // on stderr; `--metrics-json` becomes the drain-time snapshot path.
    let registry = Registry::new();
    if flags.0.contains_key("trace") {
        registry.set_sink(Arc::new(StderrSink));
    }
    let pipeline = stream_pipeline(flags, Some(&registry))?;
    let config = ServerConfig {
        workers,
        metrics_snapshot: flags.0.get("metrics-json").map(std::path::PathBuf::from),
        handle_signals: true,
        seed: flags.u64_or("seed", 1)?,
        ..ServerConfig::default()
    };
    let server = if mode == "enforce" {
        pipeline.serve_http_enforcing(addr, config)
    } else {
        pipeline.serve_http(addr, config)
    }
    .map_err(runtime)?;

    // Scripts (and the e2e tests) scrape this line to learn the bound
    // port when `--addr` asked for an ephemeral one.
    eprintln!("serve: listening on {} (mode={mode})", server.local_addr());
    let summary = server.wait().map_err(runtime)?;
    eprintln!(
        "serve: drained — {} connections, {} requests ({} errors), checkpoint={}",
        summary.connections,
        summary.requests,
        summary.errors,
        if summary.checkpointed {
            "written"
        } else {
            "none"
        }
    );
    Ok(())
}

/// The `priste-cluster` router daemon: fronts N workers, either spawned
/// here as child `serve` processes or already running elsewhere.
fn cmd_cluster(flags: &Flags) -> Result<(), CliError> {
    let workers = flags.usize_or("workers", 8)?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    let addr = flags.str_or("addr", "127.0.0.1:8760");
    let sources = ["spawn", "worker-addrs", "shard-map"]
        .iter()
        .filter(|k| flags.0.contains_key(**k))
        .count();
    if sources != 1 {
        return Err(CliError::Usage(
            "exactly one of --spawn N, --worker-addrs LIST or --shard-map FILE is required".into(),
        ));
    }

    let mut children = Vec::new();
    let map = if flags.0.contains_key("spawn") {
        let n = flags.usize_or("spawn", 0)?;
        if n == 0 {
            return Err(CliError::Usage("--spawn must be at least 1".into()));
        }
        spawn_workers(flags, n, &mut children)?
    } else if let Some(list) = flags.0.get("worker-addrs") {
        ShardMap::from_workers(list.split(',')).map_err(usage)?
    } else {
        let path = flags.required("shard-map")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Runtime(format!("read --shard-map {path}: {e}")))?;
        ShardMap::from_file_text(&text).map_err(usage)?
    };

    let registry = Registry::new();
    if flags.0.contains_key("trace") {
        registry.set_sink(Arc::new(StderrSink));
    }
    let config = RouterConfig {
        workers,
        retry_after_seconds: flags.u64_or("retry-after", 1)?,
        metrics_snapshot: flags.0.get("metrics-json").map(std::path::PathBuf::from),
        handle_signals: true,
        ..RouterConfig::default()
    };
    let router = Router::start(map.clone(), registry, config, addr).map_err(runtime)?;

    // Scripts (and the e2e tests) scrape this line, like serve's.
    eprintln!(
        "cluster: routing on {} across {} workers",
        router.local_addr(),
        map.len()
    );
    for status in router.workers_snapshot() {
        eprintln!(
            "cluster: slot {} -> {} ({})",
            status.slot,
            status.addr,
            if status.healthy { "up" } else { "down" }
        );
    }
    let summary = router.wait().map_err(runtime)?;
    eprintln!(
        "cluster: drained — {} connections, {} requests ({} errors)",
        summary.connections, summary.requests, summary.errors
    );

    // Our drain is done; pass it on to the spawned workers and reap them
    // so their checkpoints are on disk before we exit.
    for child in &children {
        priste::serve::signal::terminate(child.id());
    }
    let mut failed = 0usize;
    for (i, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("cluster: worker {i} exited with {status}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("cluster: worker {i} could not be reaped: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(CliError::Runtime(format!(
            "{failed} spawned workers did not drain cleanly"
        )));
    }
    Ok(())
}

/// Spawns `n` child `serve` daemons on ephemeral ports, forwarding the
/// scenario flags (each worker gets `--seed base+i`, and with
/// `--durable-root` its own `worker-i/` durable directory), and scrapes
/// each child's `serve: listening on` stderr line into a [`ShardMap`].
fn spawn_workers(
    flags: &Flags,
    n: usize,
    children: &mut Vec<std::process::Child>,
) -> Result<ShardMap, CliError> {
    use std::io::BufRead as _;

    let exe = std::env::current_exe().map_err(runtime)?;
    let base_seed = flags.u64_or("seed", 1)?;
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve").args(["--addr", "127.0.0.1:0"]);
        for key in [
            "kind", "event", "epsilon", "alpha", "side", "sigma", "shards", "linger", "budget",
            "mode", "floor", "backoff",
        ] {
            if let Some(value) = flags.0.get(key) {
                cmd.arg(format!("--{key}")).arg(value);
            }
        }
        cmd.args(["--seed", &(base_seed + i as u64).to_string()]);
        if let Some(root) = flags.0.get("durable-root") {
            cmd.arg("--durable-dir")
                .arg(std::path::Path::new(root).join(format!("worker-{i}")));
        }
        cmd.stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| CliError::Runtime(format!("spawn worker {i}: {e}")))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let mut addr = None;
        for line in &mut lines {
            let line = line.map_err(runtime)?;
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                addr = Some(rest.split_whitespace().next().unwrap_or(rest).to_string());
                break;
            }
            eprintln!("worker-{i}: {line}");
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            for spawned in children.iter_mut() {
                let _ = spawned.kill();
                let _ = spawned.wait();
            }
            return Err(CliError::Runtime(format!(
                "worker {i} exited before announcing its address"
            )));
        };
        eprintln!("cluster: spawned worker {i} on {addr}");
        // Keep forwarding the child's stderr so it never blocks on a
        // full pipe (the drain summary, trace lines, and panics).
        std::thread::spawn(move || {
            for line in lines.map_while(std::result::Result::ok) {
                eprintln!("worker-{i}: {line}");
            }
        });
        children.push(child);
        addrs.push(addr);
    }
    ShardMap::from_workers(addrs).map_err(runtime)
}

/// Closed-loop load generator against a running `serve` daemon.
fn cmd_loadgen(flags: &Flags) -> Result<(), CliError> {
    let mode_s = flags.str_or("mode", "auto");
    let mode = LoadMode::parse(mode_s).ok_or_else(|| {
        CliError::Usage(format!(
            "--mode must be auto, ingest, release or mixed, got {mode_s:?}"
        ))
    })?;
    let opts = LoadgenOptions {
        addr: flags.required("addr")?.to_string(),
        requests: flags.u64_or("requests", 1000)?,
        connections: flags.usize_or("connections", 4)?,
        users: flags.u64_or("users", 50)?,
        mode,
        seed: flags.u64_or("seed", 42)?,
        rate: match flags.0.get("rate") {
            None => None,
            Some(raw) => Some(raw.parse::<f64>().map_err(|_| {
                CliError::Usage(format!("--rate must be a positive number, got {raw:?}"))
            })?),
        },
    };
    if opts.requests == 0 || opts.connections == 0 || opts.users == 0 {
        return Err(CliError::Usage(
            "--requests, --connections and --users must be at least 1".into(),
        ));
    }
    if opts.rate.is_some_and(|r| !r.is_finite() || r <= 0.0) {
        return Err(CliError::Usage(
            "--rate must be a positive number of requests/second".into(),
        ));
    }
    let report = priste::serve::loadgen::run(&opts).map_err(runtime)?;
    println!(
        "loadgen: {} requests in {:.2}s ({} errors)",
        report.requests, report.elapsed_seconds, report.errors
    );
    println!(
        "throughput: {:.0} req/s over {} connections",
        report.throughput(),
        opts.connections
    );
    if let Some(offered) = report.offered_rate {
        println!(
            "open loop: offered {offered:.0} req/s, achieved {:.0} req/s ({})",
            report.throughput(),
            if report.throughput() >= 0.95 * offered {
                "kept up"
            } else {
                "fell behind"
            }
        );
    }
    println!(
        "latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms",
        report.quantile_ms(0.50),
        report.quantile_ms(0.90),
        report.quantile_ms(0.99)
    );
    if let Some(out) = flags.0.get("out") {
        write_loadgen_artifact(out, &opts, &report)?;
        eprintln!("loadgen: benchmark artifact written to {out}");
    }
    Ok(())
}

/// Writes a loadgen run as a `BENCH_serve.json`-shaped artifact (schema
/// `priste-bench-serve/1`) so `bench_export --compare` can gate on a run
/// produced from the CLI instead of the in-process bench suite.
fn write_loadgen_artifact(
    path: &str,
    opts: &LoadgenOptions,
    report: &LoadgenReport,
) -> Result<(), CliError> {
    let mut rows = vec![
        ("serve_p50_ms", report.quantile_ms(0.50), "ms"),
        ("serve_p90_ms", report.quantile_ms(0.90), "ms"),
        ("serve_p99_ms", report.quantile_ms(0.99), "ms"),
        ("serve_throughput", report.throughput(), "req/s"),
    ];
    if let Some(offered) = report.offered_rate {
        rows.push(("serve_offered_rate", offered, "req/s"));
    }
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"priste-bench-serve/1\",\n");
    json.push_str(&format!(
        "  \"scenario\": {{\"requests\": {}, \"connections\": {}, \"users\": {}, \"errors\": {}}},\n",
        report.requests, opts.connections, opts.users, report.errors
    ));
    json.push_str("  \"metrics\": [\n");
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"value\": {value:.3}, \"unit\": \"{unit}\", \
             \"note\": \"priste-cli loadgen\"}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json).map_err(|e| CliError::Runtime(format!("write --out {path}: {e}")))
}

/// The metric schema reference: every instrument the service, guard, and
/// durable substrate export, as rendered by `stream --metrics-json` and
/// `Registry::render_prometheus`. Kept in sync with
/// `priste_online`/`priste_calibrate` instrumentation by the
/// `metrics_command_lists_exported_names` test.
const METRIC_SCHEMA: &[(&str, &str, &str)] = &[
    (
        "online_observations_total",
        "counter",
        "observations ingested across all sessions",
    ),
    (
        "online_windows_evicted_total",
        "counter",
        "event windows evicted after their linger expired",
    ),
    (
        "online_verdicts_certified_total",
        "counter",
        "window verdicts that certified the target epsilon",
    ),
    (
        "online_verdicts_violated_total",
        "counter",
        "window verdicts that exceeded the target epsilon",
    ),
    (
        "online_verdicts_mismatched_total",
        "counter",
        "windows whose incremental and reference checks disagreed",
    ),
    (
        "online_suppressed_total",
        "counter",
        "enforced releases the guard suppressed",
    ),
    (
        "online_shard_panics_total",
        "counter",
        "worker panics absorbed by the parallel fan-out (also per shard as {shard=\"N\"})",
    ),
    (
        "online_sessions",
        "gauge",
        "live sessions currently held by the service",
    ),
    (
        "online_shard_imbalance",
        "gauge",
        "max-shard occupancy over the uniform share (1.0 = balanced)",
    ),
    (
        "online_ingest_batch_seconds",
        "histogram",
        "wall time of one ingest batch",
    ),
    (
        "online_ingest_batch_size",
        "histogram",
        "observations per ingest batch",
    ),
    (
        "online_release_seconds",
        "histogram",
        "wall time of one enforced singleton release",
    ),
    (
        "online_release_batch_seconds",
        "histogram",
        "wall time of one enforced release batch",
    ),
    (
        "online_release_batch_size",
        "histogram",
        "releases per enforced batch",
    ),
    (
        "online_shard_lock_wait_seconds",
        "histogram",
        "wait of one single-user call for its shard's lock",
    ),
    (
        "online_recovery_duration_seconds",
        "gauge",
        "snapshot-load + WAL-replay time of the last recovery",
    ),
    (
        "online_recovery_replayed_records",
        "gauge",
        "WAL records replayed by the last recovery",
    ),
    (
        "online_recovery_skipped_newer",
        "gauge",
        "1 if recovery skipped a newer-but-invalid snapshot generation",
    ),
    (
        "online_recovery_torn_records_total",
        "counter",
        "torn WAL tail records discarded during recovery",
    ),
    (
        "guard_releases_total",
        "counter",
        "guard releases certified at the calibrated budget",
    ),
    (
        "guard_suppressions_total",
        "counter",
        "guard decisions to suppress instead of release",
    ),
    (
        "guard_epsilon_spent",
        "histogram",
        "realized privacy loss per guarded release",
    ),
    (
        "guard_backoff_depth",
        "histogram",
        "calibration ladder attempts per guarded release",
    ),
    (
        "durable_wal_append_seconds",
        "histogram",
        "WAL record append wall time (write, excluding fsync)",
    ),
    (
        "durable_wal_fsync_seconds",
        "histogram",
        "WAL fsync wall time per appended record",
    ),
    (
        "durable_wal_bytes_total",
        "counter",
        "bytes journaled to the WAL",
    ),
    (
        "durable_snapshot_seconds",
        "histogram",
        "snapshot write wall time per checkpoint",
    ),
    (
        "durable_snapshot_bytes",
        "gauge",
        "size of the last written snapshot",
    ),
    (
        "durable_checkpoints_total",
        "counter",
        "checkpoints taken (snapshot + WAL truncation)",
    ),
    (
        "calibrate_plan_seconds",
        "histogram",
        "budget-planner wall time (per {planner=\"...\"} label)",
    ),
    (
        "calibrate_plan_oracle_walks_total",
        "counter",
        "calibration-ladder rungs walked by the planners (per {planner=\"...\"} label)",
    ),
    (
        "span_stream_step_seconds",
        "histogram",
        "CLI stream step span (one batch end-to-end)",
    ),
    (
        "serve_request_seconds",
        "histogram",
        "HTTP request wall time (per {route=\"...\",status=\"...\"} label pair)",
    ),
    (
        "serve_requests_in_flight",
        "gauge",
        "HTTP requests currently being handled",
    ),
    (
        "serve_connections_total",
        "counter",
        "TCP connections accepted by the daemon",
    ),
    (
        "serve_errors_total",
        "counter",
        "4xx/5xx responses and malformed requests (per {route=\"...\"} label)",
    ),
    (
        "priste_build_info",
        "gauge",
        "always 1; the daemon's version rides in the {version=\"...\"} label",
    ),
    (
        "process_uptime_seconds",
        "gauge",
        "seconds since the daemon started, refreshed on every /metrics scrape",
    ),
    (
        "span_http_request_seconds",
        "histogram",
        "server-side HTTP request span (routing + dispatch end-to-end)",
    ),
];

/// Prints the metric schema table: what `--metrics-json` / the Prometheus
/// renderer export, one line per instrument.
fn cmd_metrics() -> Result<(), CliError> {
    println!(
        "exported metric schema (JSON schema id: {:?})",
        priste::obs::JSON_SCHEMA
    );
    println!("name,kind,meaning");
    // The router's rows live next to the code that exports them; splice
    // them in so one table documents every daemon in the repo.
    for (name, kind, meaning) in METRIC_SCHEMA.iter().chain(priste::cluster::METRIC_SCHEMA) {
        println!("{name},{kind},{meaning}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste::obs::json::Json;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn flags(command: &str, v: &[&str]) -> Result<Flags, CliError> {
        let allowed = match command {
            "world" => WORLD_FLAGS,
            "protect" => PROTECT_FLAGS,
            "quantify" => QUANTIFY_FLAGS,
            "check" => CHECK_FLAGS,
            "stream" => STREAM_FLAGS,
            "recover" => RECOVER_FLAGS,
            "calibrate" => CALIBRATE_FLAGS,
            "serve" => SERVE_FLAGS,
            "cluster" => CLUSTER_FLAGS,
            "loadgen" => LOADGEN_FLAGS,
            other => panic!("unknown command {other}"),
        };
        Flags::parse(&args(v), allowed, command)
    }

    #[test]
    fn flags_parse_key_values() {
        let f = flags("world", &["--side", "6", "--sigma", "0.5"]).unwrap();
        assert_eq!(f.usize_or("side", 10).unwrap(), 6);
        assert_eq!(f.f64_or("sigma", 1.0).unwrap(), 0.5);
        assert_eq!(f.f64_or("missing", 2.0).unwrap(), 2.0);
        assert!(flags("protect", &[]).unwrap().required("event").is_err());
    }

    #[test]
    fn flags_reject_malformed_input() {
        assert!(matches!(
            flags("world", &["side", "6"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            flags("world", &["--side"]),
            Err(CliError::Usage(_))
        ));
        let f = flags("world", &["--side", "abc"]).unwrap();
        assert!(matches!(f.usize_or("side", 1), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        match flags("stream", &["--frobnicate", "1"]) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("--frobnicate"), "{msg}");
                assert!(msg.contains("stream"), "{msg}");
            }
            _ => panic!("unknown flag must be a usage error"),
        }
        // Neither daemon takes a synthetic request stall.
        let stall = "--stall-us";
        for command in ["serve", "cluster"] {
            match flags(command, &[stall, "1"]) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(stall), "{msg}"),
                _ => panic!("{command} {stall} must be a usage error"),
            }
        }
    }

    #[test]
    fn world_command_runs() {
        let f = flags("world", &["--side", "5", "--seed", "3"]).unwrap();
        cmd_world(&f).unwrap();
    }

    #[test]
    fn protect_command_runs_both_algorithms() {
        let base = [
            "--event",
            "PRESENCE(S={1:5}, T={2:4})",
            "--side",
            "5",
            "--steps",
            "6",
        ];
        let f = flags("protect", &base).unwrap();
        cmd_protect(&f).unwrap();
        let mut with_delta = base.to_vec();
        with_delta.extend(["--delta", "0.3"]);
        let f = flags("protect", &with_delta).unwrap();
        cmd_protect(&f).unwrap();
    }

    #[test]
    fn quantify_and_check_commands_run() {
        let base = [
            "--event",
            "PRESENCE(S={1:5}, T={2:4})",
            "--side",
            "5",
            "--steps",
            "6",
        ];
        let f = flags("quantify", &base).unwrap();
        cmd_quantify(&f).unwrap();
        let f = flags("check", &base).unwrap();
        cmd_check(&f).unwrap();
    }

    #[test]
    fn stream_command_runs_both_feeds_and_modes() {
        let f = flags(
            "stream",
            &["--users", "6", "--steps", "5", "--side", "4", "--seed", "9"],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
        let f = flags(
            "stream",
            &[
                "--users", "4", "--steps", "5", "--side", "6", "--kind", "commuter", "--seed", "9",
            ],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
        let f = flags(
            "stream",
            &[
                "--users",
                "3",
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
            ],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
    }

    #[test]
    fn stream_durable_then_recover_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "priste-cli-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        let base = [
            "--users",
            "3",
            "--steps",
            "4",
            "--side",
            "4",
            "--seed",
            "9",
            "--durable-dir",
            dir_s,
        ];
        let f = flags("stream", &base).unwrap();
        cmd_stream(&f).unwrap();
        // A second run over the same directory recovers the sessions and
        // continues them instead of re-registering.
        cmd_stream(&f).unwrap();
        let f = flags("recover", &["--side", "4", "--durable-dir", dir_s]).unwrap();
        cmd_recover(&f).unwrap();
        // A different scenario (grid side) fingerprints differently.
        let f = flags("recover", &["--side", "5", "--durable-dir", dir_s]).unwrap();
        assert!(matches!(cmd_recover(&f), Err(CliError::Runtime(_))));
        // The directory flag is mandatory.
        let f = flags("recover", &["--side", "4"]).unwrap();
        assert!(matches!(cmd_recover(&f), Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "priste-cli-{tag}-{}-{:?}.{ext}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn serve_and_loadgen_validate_their_flags() {
        // `serve` takes the full scenario surface plus the daemon knobs…
        let f = flags("serve", &["--addr", "127.0.0.1:0", "--trace"]).unwrap();
        assert_eq!(f.str_or("addr", ""), "127.0.0.1:0");
        assert_eq!(f.str_or("trace", ""), "true");
        // …and rejects modes and worker counts the daemon cannot run.
        let f = flags("serve", &["--mode", "observe"]).unwrap();
        assert!(matches!(cmd_serve(&f), Err(CliError::Usage(_))));
        let f = flags("serve", &["--workers", "0"]).unwrap();
        assert!(matches!(cmd_serve(&f), Err(CliError::Usage(_))));
        // `loadgen` insists on a target and a recognizable mode.
        let f = flags("loadgen", &[]).unwrap();
        assert!(matches!(cmd_loadgen(&f), Err(CliError::Usage(_))));
        let f = flags("loadgen", &["--addr", "127.0.0.1:1", "--mode", "chaos"]).unwrap();
        assert!(matches!(cmd_loadgen(&f), Err(CliError::Usage(_))));
        let f = flags("loadgen", &["--addr", "127.0.0.1:1", "--requests", "0"]).unwrap();
        assert!(matches!(cmd_loadgen(&f), Err(CliError::Usage(_))));
        // The open-loop rate must be a positive number.
        for bad in ["0", "-5", "nan", "abc"] {
            let f = flags("loadgen", &["--addr", "127.0.0.1:1", "--rate", bad]).unwrap();
            assert!(
                matches!(cmd_loadgen(&f), Err(CliError::Usage(_))),
                "--rate {bad} must be a usage error"
            );
        }
    }

    #[test]
    fn cluster_validates_its_flags() {
        // Exactly one worker source.
        let f = flags("cluster", &[]).unwrap();
        assert!(matches!(cmd_cluster(&f), Err(CliError::Usage(_))));
        let f = flags(
            "cluster",
            &["--spawn", "2", "--worker-addrs", "127.0.0.1:1"],
        )
        .unwrap();
        assert!(matches!(cmd_cluster(&f), Err(CliError::Usage(_))));
        // Counts must be positive.
        let f = flags("cluster", &["--spawn", "0"]).unwrap();
        assert!(matches!(cmd_cluster(&f), Err(CliError::Usage(_))));
        let f = flags(
            "cluster",
            &["--workers", "0", "--worker-addrs", "127.0.0.1:1"],
        )
        .unwrap();
        assert!(matches!(cmd_cluster(&f), Err(CliError::Usage(_))));
        // A blank address in the list is rejected before any bind.
        let f = flags("cluster", &["--worker-addrs", "127.0.0.1:1,,127.0.0.1:2"]).unwrap();
        assert!(matches!(cmd_cluster(&f), Err(CliError::Usage(_))));
        // A missing shard-map file is a runtime failure, not usage.
        let f = flags("cluster", &["--shard-map", "/no/such/shard.map"]).unwrap();
        assert!(matches!(cmd_cluster(&f), Err(CliError::Runtime(_))));
        // The loadgen-only and serve-only knobs stay rejected.
        assert!(matches!(
            flags("cluster", &["--requests", "5"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            flags("cluster", &["--durable-dir", "/tmp/x"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn recover_cluster_workers_audits_shard_cleanliness() {
        let dir = temp_path("recover-cluster", "d");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let f = flags(
            "stream",
            &[
                "--users",
                "6",
                "--steps",
                "3",
                "--side",
                "4",
                "--seed",
                "9",
                "--durable-dir",
                &dir_s,
            ],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
        // Six users of one unsharded stream span multiple slots of a
        // 2-worker map: the audit must run and report them all.
        let f = flags(
            "recover",
            &[
                "--side",
                "4",
                "--durable-dir",
                &dir_s,
                "--cluster-workers",
                "2",
            ],
        )
        .unwrap();
        cmd_recover(&f).unwrap();
        // Every user of a 1-worker map is slot 0: a clean shard.
        let f = flags(
            "recover",
            &[
                "--side",
                "4",
                "--durable-dir",
                &dir_s,
                "--cluster-workers",
                "1",
            ],
        )
        .unwrap();
        cmd_recover(&f).unwrap();
        let f = flags(
            "recover",
            &[
                "--side",
                "4",
                "--durable-dir",
                &dir_s,
                "--cluster-workers",
                "0",
            ],
        )
        .unwrap();
        assert!(matches!(cmd_recover(&f), Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_is_a_boolean_flag() {
        let f = flags("stream", &["--trace", "--users", "2"]).unwrap();
        assert_eq!(f.str_or("trace", ""), "true");
        assert_eq!(f.usize_or("users", 0).unwrap(), 2);
        // `recover` does not accept it.
        assert!(matches!(
            flags("recover", &["--trace"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stream_metrics_json_dump_parses_and_agrees() {
        let path = temp_path("metrics", "json");
        let path_s = path.to_str().unwrap().to_string();
        let f = flags(
            "stream",
            &[
                "--users",
                "4",
                "--steps",
                "5",
                "--side",
                "4",
                "--seed",
                "9",
                "--metrics-json",
                &path_s,
            ],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
        let doc = priste::obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|j| j.as_str()),
            Some(priste::obs::JSON_SCHEMA)
        );
        // 4 users × 5 steps of observations, in 5 ingest batches of 4.
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters
                .get("online_observations_total")
                .and_then(Json::as_u64),
            Some(20)
        );
        let hists = doc.get("histograms").unwrap();
        let batch = hists.get("online_ingest_batch_seconds").unwrap();
        assert_eq!(batch.get("count").and_then(Json::as_u64), Some(5));
        let sizes = hists.get("online_ingest_batch_size").unwrap();
        assert_eq!(sizes.get("count").and_then(Json::as_u64), Some(5));
        assert_eq!(sizes.get("sum").and_then(Json::as_f64), Some(20.0));
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("online_sessions")
                .and_then(Json::as_f64),
            Some(4.0)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metrics_schema_covers_every_exported_name() {
        // A durable enforcing run touches every subsystem: service, guard,
        // WAL/snapshot, spans. Every name it exports must be documented in
        // `priste-cli metrics`.
        let dir = temp_path("metrics-schema", "d");
        let _ = std::fs::remove_dir_all(&dir);
        let path = temp_path("metrics-schema", "json");
        let f = flags(
            "stream",
            &[
                "--users",
                "3",
                "--steps",
                "4",
                "--side",
                "4",
                "--mode",
                "enforce",
                "--seed",
                "9",
                "--durable-dir",
                dir.to_str().unwrap(),
                "--metrics-json",
                path.to_str().unwrap(),
            ],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
        let doc = priste::obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let documented: Vec<&str> = METRIC_SCHEMA.iter().map(|(n, _, _)| *n).collect();
        for section in ["counters", "gauges", "histograms"] {
            for name in doc.get(section).unwrap().as_object().unwrap().keys() {
                let base = name.split('{').next().unwrap();
                assert!(
                    documented.contains(&base),
                    "{name} exported but missing from METRIC_SCHEMA"
                );
            }
        }
        assert!(run(&args(&["metrics"])).is_ok());
        assert!(matches!(
            run(&args(&["metrics", "--side", "4"])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_metrics_json_reports_recovery_telemetry() {
        let dir = temp_path("recover-metrics", "d");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let f = flags(
            "stream",
            &[
                "--users",
                "3",
                "--steps",
                "4",
                "--side",
                "4",
                "--seed",
                "9",
                "--durable-dir",
                &dir_s,
            ],
        )
        .unwrap();
        cmd_stream(&f).unwrap();
        let path = temp_path("recover-metrics", "json");
        let f = flags(
            "recover",
            &[
                "--side",
                "4",
                "--durable-dir",
                &dir_s,
                "--metrics-json",
                path.to_str().unwrap(),
            ],
        )
        .unwrap();
        cmd_recover(&f).unwrap();
        let doc = priste::obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let gauges = doc.get("gauges").unwrap();
        assert!(
            gauges
                .get("online_recovery_duration_seconds")
                .and_then(Json::as_f64)
                .is_some_and(|v| v >= 0.0),
            "recovery duration gauge missing"
        );
        // The clean-shutdown checkpoint leaves nothing to replay, but the
        // counters must round-trip through the snapshot.
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("online_observations_total")
                .and_then(Json::as_u64),
            Some(12)
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_command_validates_input() {
        for bad in [
            vec!["--users", "0"],
            vec!["--kind", "martian"],
            vec!["--event", "NOPE()", "--side", "4"],
            vec!["--epsilon", "0", "--side", "4"],
            vec!["--mode", "maybe", "--side", "4"],
        ] {
            let f = flags("stream", &bad).unwrap();
            assert!(
                matches!(cmd_stream(&f), Err(CliError::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
    }

    #[test]
    fn calibrate_command_runs_and_validates() {
        let f = flags(
            "calibrate",
            &[
                "--side",
                "3",
                "--horizon",
                "2",
                "--steps",
                "3",
                "--target",
                "0.8",
                "--alpha",
                "1.5",
                "--event",
                "PRESENCE(S={1:3}, T={2:3})",
            ],
        )
        .unwrap();
        cmd_calibrate(&f).unwrap();
        let f = flags("calibrate", &["--horizon", "0"]).unwrap();
        assert!(matches!(cmd_calibrate(&f), Err(CliError::Usage(_))));
        let f = flags("calibrate", &["--backoff", "2", "--side", "3"]).unwrap();
        assert!(matches!(cmd_calibrate(&f), Err(CliError::Usage(_))));
        let f = flags("calibrate", &["--planner", "martian", "--side", "3"]).unwrap();
        match cmd_calibrate(&f) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("martian"), "{msg}"),
            other => panic!("unknown planner must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(
            run(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(run(&args(&["help"])).is_ok());
    }

    #[test]
    fn bad_event_spec_is_reported() {
        let f = flags("protect", &["--event", "NOPE()", "--side", "5"]).unwrap();
        assert!(matches!(cmd_protect(&f), Err(CliError::Usage(_))));
    }
}
