//! The four workloads: set-up, measured phases, correctness checks and the
//! metrics each run reports.

pub use crate::ladder::Metrics;
use crate::ladder::{self, Shadow};
use crate::load::{self, Call, Check, Pace, Phase, PhaseReport};
use crate::stats::{quantile, window_rates, windowed_quantile, Better, Summary};
use crate::trace::{ratio, span_cost_s, Delta, Scrape, Tracer};
use crate::world::{rss_mb, Inputs, Scale, World, SERVE_ALPHA};
use priste_calibrate::GuardConfig;
use priste_cluster::{jump_hash, Router, RouterConfig, ShardMap};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::Homogeneous;
use priste_obs::json;
use priste_obs::Registry;
use priste_qp::{SolverConfig, TheoremChecker, TheoremVerdict};
use priste_quantify::TheoremBuilder;
use priste_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics: name, unit, direction. Every workload reports all
/// of them. Request timings (capacity throughput, p50, p90, p99) do not
/// repeat across runs on a shared host (see README.md), so they are printed
/// as diagnostics, with the workload's p99 limit, instead.
pub const END_TO_END: [(&str, &str, Better); 2] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Per-layer metrics (from `--trace 1` runs): name, unit, and the direction
/// an optimization of the layer should move them. A layer the workload
/// does not cross reads 0.
pub const PER_LAYER: [(&str, &str, Better); 50] = [
    ("serve.requests", "count", Better::Higher),
    ("serve.busy_ms_mean", "ms", Better::Lower),
    ("serve.outside_service_ms_mean", "ms", Better::Lower),
    ("serve.wire_ms_mean", "ms", Better::Lower),
    ("serve.errors", "count", Better::Lower),
    ("cluster.requests", "count", Better::Lower),
    ("cluster.self_ms_mean", "ms", Better::Lower),
    ("cluster.hop_ms_mean", "ms", Better::Lower),
    ("cluster.upstream_errors", "count", Better::Lower),
    ("cluster.retries", "count", Better::Lower),
    ("cluster.slot_skew", "ratio", Better::Lower),
    ("online.ingest_ms_mean", "ms", Better::Lower),
    ("online.release_ms_mean", "ms", Better::Lower),
    ("online.ingest_us", "us", Better::Lower),
    ("online.release_us", "us", Better::Lower),
    ("online.self_us", "us", Better::Lower),
    ("online.observations", "count", Better::Higher),
    ("online.window_certified_share", "share", Better::Higher),
    ("online.register_ms", "ms", Better::Lower),
    ("durable.append_us_mean", "us", Better::Lower),
    ("durable.bytes_per_op", "B", Better::Lower),
    ("durable.open_checkpoint_s", "s", Better::Lower),
    ("durable.added_us", "us", Better::Lower),
    ("calibrate.attempts_per_release", "count", Better::Lower),
    ("calibrate.first_attempt_share", "share", Better::Higher),
    ("calibrate.suppressed", "count", Better::Lower),
    ("calibrate.floor_releases", "count", Better::Lower),
    ("calibrate.rung_build_s", "s", Better::Lower),
    ("quantify.apply_rows_us", "us", Better::Lower),
    ("quantify.apply_rows_us_per_row_b64", "us", Better::Lower),
    ("quantify.observe_us", "us", Better::Lower),
    ("quantify.peek_us", "us", Better::Lower),
    ("quantify.new_ms", "ms", Better::Lower),
    ("quantify.candidate_ms", "ms", Better::Lower),
    ("quantify.state_kb_per_user", "KB", Better::Lower),
    ("qp.check_ms", "ms", Better::Lower),
    ("qp.violated_share", "share", Better::Lower),
    ("qp.unknown_share", "share", Better::Lower),
    ("certified_share", "share", Better::Higher),
    ("lppm.build_s", "s", Better::Lower),
    ("lppm.emission_column_us", "us", Better::Lower),
    ("lppm.perturb_us", "us", Better::Lower),
    ("markov.vecmat_us", "us", Better::Lower),
    ("markov.nnz", "count", Better::Lower),
    ("obs.trace_overhead", "share", Better::Lower),
    ("obs.scrape_ms", "ms", Better::Lower),
    ("proc.rss_setup_mb", "MB", Better::Lower),
    ("load.late_ms_p99", "ms", Better::Lower),
    ("load.cpu_ms_per_req", "ms", Better::Lower),
    ("load.sent", "count", Better::Higher),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Release,
    Routed,
    Audit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Release,
        Workload::Routed,
        Workload::Audit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest-m2500",
            Workload::Release => "release-m2500",
            Workload::Routed => "mixed-m36-routed",
            Workload::Audit => "audit-m2500",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in words.
    pub problems: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Lines for the human-readable report on stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn count(&mut self, report: &PhaseReport, phase: &str) {
        self.attempted += report.sent;
        self.failed += report.failed();
        if let Some(e) = &report.first_error {
            self.problems.push(format!("{phase}: {e}"));
        }
    }
}

/// One run's settings.
pub struct RunSpec<'a> {
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    /// Directory for durable state; removed by the caller.
    pub scratch: &'a Path,
}

/// `run_seconds` the phase table below is written for; `--seconds`
/// scales every phase by `seconds / NOMINAL_SECONDS`.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// Runs `workload` once.
pub fn run(workload: Workload, spec: &RunSpec<'_>) -> RunResult {
    match workload {
        Workload::Audit => audit(spec),
        serving => serve(serving, spec),
    }
}

/// Phase plan of a serving workload, run once per set-up. Every user is
/// registered at set-up; the first `capacity_users + latency_users` of them
/// are active. Round 1 of every active user is the warm-up. Then the
/// capacity cohort (the first `capacity_users`) runs rounds `2..=1 + rounds`
/// closed-loop, and the latency cohort (the next `latency_users`) runs the
/// same rounds open-loop at `rate`. Both phases are whole rounds of the same
/// session ages, because a request's cost depends on its session's age.
#[derive(Debug, Clone, Copy)]
struct Plan {
    reps: usize,
    registered: usize,
    capacity_users: usize,
    latency_users: usize,
    rounds: usize,
    rate: f64,
    p99_limit_ms: f64,
}

impl Plan {
    fn of(workload: Workload, spec: &RunSpec<'_>) -> Plan {
        let s = spec.scale;
        // Users of a cohort: `nominal` at the nominal run length, scaled by
        // `--seconds` and the scale's work factor. Even, at least two: the
        // load generator keeps a user's requests in order by sending them
        // all down one of its two connections.
        let cohort = |nominal: f64| {
            let n = (nominal * s.work * spec.seconds / NOMINAL_SECONDS / 2.0).round() as usize;
            2 * n.max(1)
        };
        // Sized, per set-up at the nominal run length, for a capacity phase
        // of about 2.5 s and a latency phase of about 7.5 s (m = 2500, one
        // set-up) or 1.2 s and 2.1 s (routed, three set-ups). The m = 2500
        // windows evict after round 7, so their phases stay inside rounds
        // 2–7, where the kernel does its full work.
        let (reps, registered, capacity_users, latency_users, rounds, rate, p99_limit_ms) =
            match workload {
                Workload::Ingest => (
                    s.setup_reps_m2500,
                    s.users,
                    cohort(840.0),
                    cohort(1_252.0),
                    6,
                    1_000.0,
                    5.0,
                ),
                Workload::Release => (
                    s.setup_reps_m2500,
                    s.users,
                    cohort(268.0),
                    cohort(376.0),
                    6,
                    300.0,
                    20.0,
                ),
                Workload::Routed => (
                    s.setup_reps,
                    s.routed_users,
                    cohort(820.0),
                    cohort(652.0),
                    32,
                    10_000.0,
                    2.0,
                ),
                Workload::Audit => unreachable!("the audit workload has no serving plan"),
            };
        Plan {
            reps,
            registered: registered.max(capacity_users + latency_users),
            capacity_users,
            latency_users,
            rounds,
            rate,
            p99_limit_ms,
        }
    }

    /// Users that send requests.
    fn active(&self) -> usize {
        self.capacity_users + self.latency_users
    }

    /// The warm, capacity and latency blocks, laid end to end over the
    /// request indices.
    fn blocks(&self) -> [Block; 3] {
        let warm = Block {
            first: 0,
            base: 0,
            users: self.active(),
            round0: 0,
            rounds: 1,
        };
        let capacity = Block {
            first: warm.end(),
            base: 0,
            users: self.capacity_users,
            round0: 1,
            rounds: self.rounds,
        };
        let latency = Block {
            first: capacity.end(),
            base: self.capacity_users,
            users: self.latency_users,
            round0: 1,
            rounds: self.rounds,
        };
        [warm, capacity, latency]
    }
}

/// The requests of one phase: `rounds` whole rounds, from 0-based round
/// `round0`, of the users `base..base + users`. Request `first + k` is user
/// `base + k mod users` at round `round0 + k div users`, so every request is
/// a pure function of the seed and its index.
#[derive(Debug, Clone, Copy)]
struct Block {
    first: u64,
    base: usize,
    users: usize,
    round0: usize,
    rounds: usize,
}

impl Block {
    fn end(&self) -> u64 {
        self.first + (self.users * self.rounds) as u64
    }

    /// User and 0-based round of request `i`, when it is in this block.
    fn at(&self, i: u64) -> Option<(usize, usize)> {
        let k = usize::try_from(i.checked_sub(self.first)?).ok()?;
        (i < self.end()).then(|| (self.base + k % self.users, self.round0 + k / self.users))
    }
}

/// A started serving stack.
struct Stack {
    /// Where the load generator sends requests.
    entry: SocketAddr,
    /// Every daemon's `/metrics` (router first when routed).
    endpoints: Vec<SocketAddr>,
    servers: Vec<Server<Arc<Homogeneous>>>,
    router: Option<Router>,
}

impl Stack {
    /// Drains every daemon, router first; returns what went wrong.
    fn stop(self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some(router) = self.router {
            router.drain_handle().drain();
            match router.wait() {
                Ok(s) if s.errors == 0 => {}
                Ok(s) => problems.push(format!("router answered {} errors", s.errors)),
                Err(e) => problems.push(format!("router drain: {e}")),
            }
        }
        for server in self.servers {
            server.drain_handle().drain();
            match server.wait() {
                Ok(s) if s.errors == 0 => {}
                Ok(s) => problems.push(format!("daemon answered {} errors", s.errors)),
                Err(e) => problems.push(format!("daemon drain: {e}")),
            }
        }
        problems
    }

    fn scrape(&self) -> (Vec<Scrape>, f64) {
        let start = Instant::now();
        let scrapes = self
            .endpoints
            .iter()
            .map(|&addr| Scrape::parse(&load::get(addr, "/metrics").unwrap_or_default()))
            .collect();
        (
            scrapes,
            start.elapsed().as_secs_f64() * 1e3 / self.endpoints.len() as f64,
        )
    }
}

/// Durations of the last set-up's steps, for the layer metrics.
#[derive(Debug, Default)]
struct SetupSteps {
    plm_s: f64,
    register_s: f64,
    durable_s: f64,
    state_kb_per_user: f64,
    /// Attempts of the guard primer's release, or why it failed.
    primer: Option<Result<usize, String>>,
}

/// Primes a daemon's guard over HTTP with user `user` (see
/// [`ladder::primer_column`]); returns the primer release's attempts.
fn prime_daemon(addr: SocketAddr, user: u64, m: usize) -> Result<usize, String> {
    let mut conn = load::Conn::open(addr).map_err(|e| format!("primer: {e}"))?;
    let mut post = |path: &str, body: &str| {
        let answer = conn
            .exchange("POST", path, body, "e2e-primer")
            .map_err(|e| format!("primer {path}: {e}"))?;
        if answer.status != 200 {
            return Err(format!("primer {path} answered {}", answer.status));
        }
        Ok(String::from_utf8_lossy(conn.body(&answer)).into_owned())
    };
    let column: Vec<String> = ladder::primer_column(m)
        .as_slice()
        .iter()
        .map(f64::to_string)
        .collect();
    post(
        "/v1/ingest",
        &format!("{{\"user\": {user}, \"column\": [{}]}}", column.join(", ")),
    )?;
    let release = post(
        "/v1/release",
        &format!(
            "{{\"user\": {user}, \"true_location\": {}}}",
            ladder::PRIMER_CELL
        ),
    )?;
    check_release(release.as_bytes(), None).map(|n| n as usize)
}

fn start_server(
    svc: priste_online::SessionManager<Arc<Homogeneous>>,
    plm: PlanarLaplace,
    registry: Registry,
) -> Server<Arc<Homogeneous>> {
    Server::start(
        svc,
        Some(Box::new(plm)),
        registry,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind an ephemeral loopback port")
}

/// Builds a serving stack from nothing: world, mechanism, registered
/// users, the workload's service mode, and the listening daemons.
fn set_up(
    workload: Workload,
    plan: &Plan,
    spec: &RunSpec<'_>,
    dir: &Path,
    parent: u64,
) -> (Stack, SetupSteps) {
    let tr = spec.tracer;
    let mut steps = SetupSteps::default();
    let (world, _) = tr.time("setup.world", parent, || match workload {
        Workload::Routed => World::small_dense(),
        _ => World::banded(spec.scale.side),
    });
    let (plm, dt) = tr.time("lppm.build", parent, || world.plm(SERVE_ALPHA));
    steps.plm_s = dt;
    let users = plan.registered as u64;
    match workload {
        Workload::Ingest | Workload::Release => {
            let rss0 = rss_mb().1;
            let (mut svc, dt) = tr.time("online.register", parent, || {
                ladder::service(&world, 0..users)
            });
            steps.register_s = dt;
            steps.state_kb_per_user = (rss_mb().1 - rss0) * 1024.0 / plan.registered as f64;
            if workload == Workload::Ingest {
                let (made, dt) = tr.time("durable.open_checkpoint", parent, || {
                    svc.make_durable(dir, ladder::durable_options())
                });
                made.expect("make_durable");
                steps.durable_s = dt;
            } else {
                svc.enable_enforcement(Box::new(plm.clone()), GuardConfig::default())
                    .expect("enforcement");
            }
            let registry = Registry::new();
            svc.observe(&registry);
            let m = world.num_cells();
            let (server, _) = tr.time("serve.start", parent, || start_server(svc, plm, registry));
            let addr = server.local_addr();
            if workload == Workload::Release {
                let (primed, _) =
                    tr.time("calibrate.prime", parent, || prime_daemon(addr, users, m));
                steps.primer = Some(primed);
            }
            (
                Stack {
                    entry: addr,
                    endpoints: vec![addr],
                    servers: vec![server],
                    router: None,
                },
                steps,
            )
        }
        Workload::Routed => {
            const WORKERS: u32 = 2;
            let (servers, dt) = tr.time("online.register", parent, || {
                (0..WORKERS)
                    .map(|w| {
                        let mut svc = ladder::service(
                            &world,
                            (0..users).filter(|&u| jump_hash(u, WORKERS) == w),
                        );
                        svc.enable_enforcement(Box::new(plm.clone()), GuardConfig::default())
                            .expect("enforcement");
                        let registry = Registry::new();
                        svc.observe(&registry);
                        start_server(svc, plm.clone(), registry)
                    })
                    .collect::<Vec<_>>()
            });
            steps.register_s = dt;
            let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
            let map = ShardMap::from_workers(addrs.iter().map(|a| a.to_string())).expect("map");
            let (router, _) = tr.time("cluster.start", parent, || {
                Router::start(map, Registry::new(), RouterConfig::default(), "127.0.0.1:0")
                    .expect("bind the router")
            });
            let entry = router.local_addr();
            let mut endpoints = vec![entry];
            endpoints.extend(addrs);
            (
                Stack {
                    entry,
                    endpoints,
                    servers,
                    router: Some(router),
                },
                steps,
            )
        }
        Workload::Audit => unreachable!("the audit workload serves nothing"),
    }
}

/// Whether user `u`'s request at round `r` of a routed run is a release:
/// users alternate ingest and release from round to round, half of them
/// each way.
fn routed_release(u: usize, r: usize) -> bool {
    (u + r) % 2 == 1
}

/// Validates a release answer: a released observation must be certified
/// and, with `epsilon`, every window's loss must be within it. (Interleaved
/// ingests spend outside the guard, so the routed mix checks certification
/// only.) Tallies the guard's attempts.
fn check_release(body: &[u8], epsilon: Option<f64>) -> Check {
    let text = std::str::from_utf8(body).map_err(|_| "release body is not UTF-8".to_owned())?;
    let doc = json::parse(text).map_err(|e| format!("release body: {e}"))?;
    let outcome = doc.get("outcome").and_then(|j| j.as_str());
    let certified = doc.get("certified").and_then(|j| j.as_bool());
    if outcome == Some("released") && certified != Some(true) {
        return Err("released without certification".to_owned());
    }
    let windows = doc
        .get("report")
        .and_then(|r| r.get("windows"))
        .and_then(|w| w.as_array())
        .ok_or("release report has no windows")?;
    if let Some(epsilon) = epsilon {
        for w in windows {
            match w.get("loss").and_then(|l| l.as_f64()) {
                Some(loss) if loss <= epsilon => {}
                loss => return Err(format!("window loss {loss:?} exceeds ε = {epsilon}")),
            }
        }
    }
    let attempts = doc
        .get("attempts")
        .and_then(|j| j.as_u64())
        .ok_or("release without attempts")?;
    Ok(attempts as u32)
}

fn serve(workload: Workload, spec: &RunSpec<'_>) -> RunResult {
    let tr = spec.tracer;
    let plan = Plan::of(workload, spec);
    let mut res = RunResult::default();

    // Inputs first, from the seed alone; the mechanism that perturbed them
    // stays for the shadow replay after the measurement.
    let world = match workload {
        Workload::Routed => World::small_dense(),
        _ => World::banded(spec.scale.side),
    };
    let plm = world.plm(SERVE_ALPHA);
    let inputs = Inputs::generate(&world, &plm, plan.active(), 1 + plan.rounds, spec.seed);
    let epsilon = priste_online::OnlineConfig::default().epsilon;
    let [warm_block, capacity_block, latency_block] = plan.blocks();
    let at = |i: u64| {
        [warm_block, capacity_block, latency_block]
            .iter()
            .find_map(|b| b.at(i))
            .expect("request index inside a phase")
    };

    let call = |i: u64| {
        let (u, r) = at(i);
        let release = match workload {
            Workload::Release => true,
            Workload::Routed => routed_release(u, r),
            _ => false,
        };
        if release {
            Call {
                path: "/v1/release",
                body: format!(
                    "{{\"user\": {u}, \"true_location\": {}}}",
                    inputs.truth(u, r).index()
                ),
            }
        } else {
            Call {
                path: "/v1/ingest",
                body: format!(
                    "{{\"user\": {u}, \"observed\": {}}}",
                    inputs.observed(u, r).index()
                ),
            }
        }
    };
    let check = |i: u64, body: &[u8]| -> Check {
        let (u, r) = at(i);
        match workload {
            Workload::Release => check_release(body, Some(epsilon)),
            Workload::Routed if routed_release(u, r) => check_release(body, None),
            _ => Ok(0),
        }
    };
    let phase = |name: &'static str, block: Block, pace: Pace| Phase {
        name,
        workload: workload.name(),
        first: block.first,
        end: block.end(),
        pace,
    };

    let shadow = Shadow {
        world: &world,
        plm: &plm,
        inputs: &inputs,
        ids: inputs.shadow_ids(spec.scale.shadow_users),
        rounds: 1 + plan.rounds,
    };
    // What every ingest stack must report as the shadow users' spend.
    let shadow_spent =
        (workload == Workload::Ingest).then(|| shadow.ingest(None, &Tracer::new(false), 0).0);

    // Set up and measure, several times. Each stack is built from nothing
    // and replays the same requests, so the measurement samples the shared
    // host at as many points of the run as there are set-ups.
    let mut setup_s = Vec::new();
    let mut capacities = Vec::new();
    let mut latencies = Vec::new();
    let mut last = None;
    let mut state_kb: f64 = 0.0;
    for rep in 0..plan.reps {
        let dir = spec.scratch.join(format!("setup-{rep}"));
        let root = tr.new_id();
        let start = Instant::now();
        let (stack, steps) = set_up(workload, &plan, spec, &dir, root);
        let warm = load::run_phase(
            stack.entry,
            &phase("warm", warm_block, Pace::Closed),
            &call,
            &check,
            tr,
            root,
        );
        let end = Instant::now();
        tr.close("setup", root, 0, start, end);
        setup_s.push(end.duration_since(start).as_secs_f64());
        res.count(&warm, "warm");
        // Registration grows the heap only in the first set-up; later ones
        // reuse the memory the previous stack freed.
        state_kb = state_kb.max(steps.state_kb_per_user);
        if let Some(primed) = &steps.primer {
            let rungs = ladder::ladder_rungs(SERVE_ALPHA);
            res.check(primed == &Ok(rungs), || {
                format!("guard primer walked {primed:?} rungs, not all {rungs}")
            });
        }
        let rss_setup = rss_mb().1;
        let (before, scrape_a) = stack.scrape();

        let root = tr.new_id();
        let t0 = Instant::now();
        let capacity = load::run_phase(
            stack.entry,
            &phase("capacity", capacity_block, Pace::Closed),
            &call,
            &check,
            tr,
            root,
        );
        let t1 = Instant::now();
        tr.close("capacity", root, 0, t0, t1);
        let root = tr.new_id();
        let latency = load::run_phase(
            stack.entry,
            &phase("latency", latency_block, Pace::Open { rate: plan.rate }),
            &call,
            &check,
            tr,
            root,
        );
        tr.close("latency", root, 0, t1, Instant::now());
        let (after, scrape_b) = stack.scrape();
        res.count(&capacity, "capacity");
        res.count(&latency, "latency");
        let delta = Delta::new(before, after);

        // Correctness on the daemon's own outputs.
        let measured = capacity.sent + latency.sent;
        let observed = delta.total("online_observations_total", &[]);
        res.check(observed == measured as f64, || {
            format!("daemons counted {observed} observations for {measured} requests")
        });
        let server_errors = capacity.server_errors + latency.server_errors;
        res.check(server_errors == 0, || {
            format!("{server_errors} 5xx answers")
        });
        let floor = delta.total("guard_floor_releases_total", &[]);
        res.check(floor == 0.0, || {
            format!("{floor} uncertified floor releases")
        });
        if let Some(spent) = &shadow_spent {
            let mismatched: Vec<String> = shadow
                .ids
                .iter()
                .zip(spent)
                .filter_map(|(&u, &want)| {
                    let got = daemon_spend(stack.entry, u);
                    (got.map(f64::to_bits) != Some(want.to_bits()))
                        .then(|| format!("user {u}: daemon {got:?}, shadow {want}"))
                })
                .collect();
            res.check(mismatched.is_empty(), || {
                format!(
                    "{} shadow users' spend differs from the daemon's, first {}",
                    mismatched.len(),
                    mismatched[0]
                )
            });
        }
        res.problems.extend(stack.stop());
        // Deleted before writeback, most of its pages never reach the disk.
        let _ = std::fs::remove_dir_all(&dir);
        capacities.push(capacity);
        latencies.push(latency);
        last = Some((delta, (scrape_a + scrape_b) / 2.0, rss_setup, steps));
    }
    let peak_rss = rss_mb().0;

    // End-to-end metrics, over every set-up's phases.
    let rates: Vec<f64> = capacities
        .iter()
        .flat_map(|c| window_rates(&c.done_s))
        .collect();
    let samples: Vec<f64> = latencies
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let tail = Tail::of(&samples);
    res.e2e.insert("setup_s", Summary::of(&setup_s).median);
    res.e2e.insert("peak_rss_mb", peak_rss);
    let elapsed = |reports: &[PhaseReport]| -> Vec<String> {
        reports
            .iter()
            .map(|r| format!("{:.2}", r.elapsed_s))
            .collect()
    };
    res.notes.push(format!(
        "plan per set-up ({} of them): {} users registered, round 1 of {} active users \
         warm; rounds 2-{} of {} users closed loop ({} requests; {:?} s; capacity {:.0}/s, \
         diagnostic), then of {} more users open loop at {}/s ({} requests; {:?} s)",
        plan.reps,
        plan.registered,
        plan.active(),
        1 + plan.rounds,
        plan.capacity_users,
        capacity_block.end() - capacity_block.first,
        elapsed(&capacities),
        Summary::of(&rates).median,
        plan.latency_users,
        plan.rate,
        latency_block.end() - latency_block.first,
        elapsed(&latencies),
    ));
    res.notes.push(format!(
        "{}; p99 limit {} ms {}; set-ups {setup_s:?} s",
        tail.describe(),
        plan.p99_limit_ms,
        if tail.p99 <= plan.p99_limit_ms {
            "met"
        } else {
            "MISSED"
        },
    ));

    // The layer table describes the last set-up.
    let (delta, scrape_ms, rss_setup_mb, steps) = last.expect("at least one set-up");
    res.layer = serve_layers(
        workload,
        &Measured {
            capacity: capacities.last().expect("at least one set-up"),
            latency: latencies.last().expect("at least one set-up"),
            delta: &delta,
            scrape_ms,
            rss_setup_mb,
        },
        &steps,
        state_kb,
        tr.enabled(),
    );

    // The layer ladder: direct calls on the shadow users, traced runs only.
    if tr.enabled() {
        let root = tr.new_id();
        let start = Instant::now();
        shadow.kernels(tr, root, &mut res.layer);
        shadow.services(spec.scratch, tr, root, &mut res.layer);
        tr.close("ladder", root, 0, start, Instant::now());
    }
    res
}

/// What the measured phases of a serving run left behind.
struct Measured<'a> {
    capacity: &'a PhaseReport,
    latency: &'a PhaseReport,
    /// `/metrics` change across both phases.
    delta: &'a Delta,
    scrape_ms: f64,
    rss_setup_mb: f64,
}

/// The scrape, set-up and load-generator rows of the per-layer table.
fn serve_layers(
    workload: Workload,
    m: &Measured<'_>,
    steps: &SetupSteps,
    state_kb: f64,
    tracing: bool,
) -> Metrics {
    let mut layer = Metrics::new();
    let l = &mut layer;
    let (capacity, latency, delta) = (m.capacity, m.latency, m.delta);
    let measured = capacity.sent + latency.sent;
    let routes = ["route=\"/v1/ingest\"", "route=\"/v1/release\""];
    let per_route = |base: &str| -> f64 { routes.iter().map(|r| delta.total(base, &[r])).sum() };
    let serve_count = per_route("serve_request_seconds_count");
    let serve_sum = per_route("serve_request_seconds_sum");
    let busy_ms = ratio(serve_sum, serve_count) * 1e3;
    let online_sum = delta.total("online_ingest_batch_seconds_sum", &[])
        + delta.total("online_release_seconds_sum", &[]);
    let client_ms = ratio(
        capacity.service_ms_sum + latency.service_ms_sum,
        (capacity.latency_ms.len() + latency.latency_ms.len()) as f64,
    );
    l.insert("serve.requests", serve_count);
    l.insert("serve.busy_ms_mean", busy_ms);
    l.insert(
        "serve.outside_service_ms_mean",
        ratio(serve_sum - online_sum, serve_count) * 1e3,
    );
    l.insert("serve.errors", delta.total("serve_errors_total", &[]));
    l.insert(
        "online.ingest_ms_mean",
        delta.mean_s("online_ingest_batch_seconds", &[]) * 1e3,
    );
    l.insert(
        "online.release_ms_mean",
        delta.mean_s("online_release_seconds", &[]) * 1e3,
    );
    l.insert(
        "online.observations",
        delta.total("online_observations_total", &[]),
    );
    let certified = delta.total("online_verdicts_certified_total", &[]);
    let violated = delta.total("online_verdicts_violated_total", &[]);
    l.insert(
        "online.window_certified_share",
        ratio(certified, certified + violated),
    );
    l.insert("online.register_ms", steps.register_s * 1e3);
    l.insert(
        "durable.append_us_mean",
        delta.mean_s("durable_wal_append_seconds", &[]) * 1e6,
    );
    l.insert(
        "durable.bytes_per_op",
        ratio(delta.total("durable_wal_bytes_total", &[]), measured as f64),
    );
    l.insert("durable.open_checkpoint_s", steps.durable_s);
    l.insert(
        "calibrate.attempts_per_release",
        delta.mean_s("guard_backoff_depth", &[]),
    );
    let releases = delta.total("guard_backoff_depth_count", &[]);
    l.insert(
        "calibrate.first_attempt_share",
        ratio((capacity.tally_ones + latency.tally_ones) as f64, releases),
    );
    l.insert(
        "calibrate.suppressed",
        delta.total("guard_suppressions_total", &[]),
    );
    l.insert(
        "calibrate.floor_releases",
        delta.total("guard_floor_releases_total", &[]),
    );
    l.insert("quantify.state_kb_per_user", state_kb);
    l.insert("lppm.build_s", steps.plm_s);
    l.insert("obs.scrape_ms", m.scrape_ms);
    l.insert("proc.rss_setup_mb", m.rss_setup_mb);
    l.insert(
        "load.late_ms_p99",
        if latency.late_ms.is_empty() {
            0.0
        } else {
            quantile(&latency.late_ms, 0.99)
        },
    );
    l.insert(
        "load.cpu_ms_per_req",
        ratio(capacity.cpu_ms + latency.cpu_ms, measured as f64),
    );
    l.insert("load.sent", measured as f64);
    let measured_s = capacity.elapsed_s + latency.elapsed_s;
    l.insert(
        "obs.trace_overhead",
        if tracing {
            ratio(measured as f64 * span_cost_s(), measured_s)
        } else {
            0.0
        },
    );
    if workload == Workload::Routed {
        // Endpoint 0 is the router; 1.. are the workers.
        let cluster_count: f64 = routes
            .iter()
            .map(|r| delta.at(0, "cluster_request_seconds_count", &[r]))
            .sum();
        let cluster_sum: f64 = routes
            .iter()
            .map(|r| delta.at(0, "cluster_request_seconds_sum", &[r]))
            .sum();
        let hop_count = delta.at(0, "cluster_upstream_request_seconds_count", &[]);
        let hop_sum = delta.at(0, "cluster_upstream_request_seconds_sum", &[]);
        let worker_sum: f64 = (1..delta.endpoints())
            .map(|k| {
                routes
                    .iter()
                    .map(|r| delta.at(k, "serve_request_seconds_sum", &[r]))
                    .sum::<f64>()
            })
            .sum();
        l.insert("cluster.requests", cluster_count);
        l.insert(
            "cluster.self_ms_mean",
            ratio(cluster_sum - hop_sum, cluster_count) * 1e3,
        );
        l.insert(
            "cluster.hop_ms_mean",
            ratio(hop_sum - worker_sum, hop_count) * 1e3,
        );
        l.insert(
            "cluster.upstream_errors",
            delta.at(0, "cluster_upstream_errors_total", &[]),
        );
        l.insert(
            "cluster.retries",
            delta.at(0, "cluster_upstream_retries_total", &[]),
        );
        let slots: Vec<f64> = (0..2)
            .map(|w| {
                delta.at(
                    0,
                    "cluster_upstream_request_seconds_count",
                    &[&format!("worker=\"{w}\"")],
                )
            })
            .collect();
        let mean = slots.iter().sum::<f64>() / slots.len() as f64;
        l.insert(
            "cluster.slot_skew",
            ratio(slots.iter().copied().fold(0.0, f64::max), mean),
        );
        l.insert(
            "serve.wire_ms_mean",
            client_ms - ratio(cluster_sum, cluster_count) * 1e3,
        );
    } else {
        l.insert("serve.wire_ms_mean", client_ms - busy_ms);
    }

    layer
}

/// Latency summary of one phase, printed as a diagnostic, from samples in
/// request order: p50 over every sample, p90 and p99 as medians of
/// per-window quantiles (see [`windowed_quantile`]), and the whole-phase p99
/// and p99.9.
struct Tail {
    samples: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    p99_all: f64,
    p999_all: f64,
}

impl Tail {
    fn of(in_order: &[f64]) -> Tail {
        if in_order.is_empty() {
            return Tail {
                samples: 0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                p99_all: 0.0,
                p999_all: 0.0,
            };
        }
        let mut sorted = in_order.to_vec();
        crate::stats::sort(&mut sorted);
        Tail {
            samples: sorted.len(),
            p50: quantile(&sorted, 0.50),
            p90: windowed_quantile(in_order, 0.90),
            p99: windowed_quantile(in_order, 0.99),
            p99_all: quantile(&sorted, 0.99),
            p999_all: quantile(&sorted, 0.999),
        }
    }

    fn describe(&self) -> String {
        format!(
            "diagnostic latency over {} samples: p50 {:.3} ms, windowed p90 {:.3} ms, \
             windowed p99 {:.3} ms, whole-phase p99 {:.3} ms, p99.9 {:.3} ms",
            self.samples, self.p50, self.p90, self.p99, self.p99_all, self.p999_all
        )
    }
}

/// A user's `spent` as the daemon reports it. JSON has no infinity: the
/// daemon writes an infinite spend (a stream that proved the event) as
/// `null`.
fn daemon_spend(addr: SocketAddr, user: usize) -> Option<f64> {
    let body = load::get(addr, &format!("/v1/users/{user}/spend"))?;
    let doc = json::parse(&body).ok()?;
    let spent = doc.get("spent")?;
    if spent.is_null() {
        Some(f64::INFINITY)
    } else {
        spent.as_f64()
    }
}

/// Location budget of the audited mechanism (nearly uninformative, so the
/// any-π check should certify every step) and the audited ε.
const AUDIT_ALPHA: f64 = 0.01;
const AUDIT_EPSILON: f64 = 5.0;
/// Releases per audited trajectory.
const AUDIT_STEPS: usize = 8;

/// The audit path's state: mechanism, the Theorem IV.1 builder and the
/// checker.
struct Auditor {
    world: World,
    plm: PlanarLaplace,
    builder: TheoremBuilder<Arc<Homogeneous>>,
    checker: TheoremChecker,
}

impl Auditor {
    fn build(side: usize, tracer: &Tracer, parent: u64) -> (Auditor, f64) {
        let world = World::banded(side);
        let (plm, plm_s) = tracer.time("lppm.build", parent, || world.plm(AUDIT_ALPHA));
        let builder =
            TheoremBuilder::new(&world.event, Arc::clone(&world.provider)).expect("builder");
        (
            Auditor {
                world,
                plm,
                builder,
                checker: TheoremChecker::new(AUDIT_EPSILON, SolverConfig::default()),
            },
            plm_s,
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Audited {
    Satisfied,
    Violated,
    Unknown,
}

#[derive(Debug, Default)]
struct AuditPass {
    verdicts: Vec<Audited>,
    step_ms: Vec<f64>,
    /// Completion time of each step, seconds since the pass started.
    done_s: Vec<f64>,
    candidate_s: f64,
    check_s: f64,
    elapsed_s: f64,
    errors: Vec<String>,
}

impl AuditPass {
    fn share(&self, v: Audited) -> f64 {
        ratio(
            self.verdicts.iter().filter(|&&x| x == v).count() as f64,
            self.verdicts.len() as f64,
        )
    }

    /// Appends a later pass (completion times stay per pass).
    fn absorb(&mut self, other: AuditPass) {
        self.verdicts.extend(other.verdicts);
        self.step_ms.extend(other.step_ms);
        self.candidate_s += other.candidate_s;
        self.check_s += other.check_s;
        self.elapsed_s += other.elapsed_s;
        self.errors.extend(other.errors);
    }
}

/// Audits `trajectories` in order: per step the candidate's Theorem IV.1
/// inputs, both constraint checks, and the commit. A certified step must
/// also hold for the uniform prior.
fn audit_pass(
    a: &mut Auditor,
    inputs: &Inputs,
    trajectories: std::ops::Range<usize>,
    tracer: &Tracer,
    parent: u64,
) -> AuditPass {
    let uniform = Vector::uniform(a.world.num_cells());
    let mut pass = AuditPass::default();
    let start = Instant::now();
    for u in trajectories {
        a.builder.reset();
        for t in 0..inputs.rounds {
            let step = tracer.new_id();
            let t0 = Instant::now();
            let column = a.plm.emission_column(inputs.observed(u, t));
            let t1 = Instant::now();
            let candidate = a.builder.candidate(&column);
            let t2 = Instant::now();
            let verdict = candidate
                .as_ref()
                .map(|c| (a.checker.check(&c.a, &c.b, &c.c), c));
            let t3 = Instant::now();
            match verdict {
                Ok((TheoremVerdict::Satisfied, c)) => {
                    pass.verdicts.push(Audited::Satisfied);
                    match c.privacy_loss(&uniform) {
                        Ok(loss) if loss <= AUDIT_EPSILON => {}
                        other => pass.errors.push(format!(
                            "trajectory {u} step {t}: certified, but uniform-prior loss {other:?}"
                        )),
                    }
                }
                Ok((TheoremVerdict::Violated { .. }, _)) => pass.verdicts.push(Audited::Violated),
                Ok((TheoremVerdict::Unknown { .. }, _)) => pass.verdicts.push(Audited::Unknown),
                Err(e) => pass
                    .errors
                    .push(format!("trajectory {u} step {t}: candidate: {e}")),
            }
            if let Err(e) = a.builder.commit(column) {
                pass.errors
                    .push(format!("trajectory {u} step {t}: commit: {e}"));
            }
            let t4 = Instant::now();
            tracer.close("lppm.emission_column", tracer.new_id(), step, t0, t1);
            tracer.close("quantify.candidate", tracer.new_id(), step, t1, t2);
            tracer.close("qp.check", tracer.new_id(), step, t2, t3);
            tracer.close("audit.step", step, parent, t0, t4);
            pass.candidate_s += t2.duration_since(t1).as_secs_f64();
            pass.check_s += t3.duration_since(t2).as_secs_f64();
            pass.step_ms.push(t4.duration_since(t0).as_secs_f64() * 1e3);
            pass.done_s.push(t4.duration_since(start).as_secs_f64());
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass
}

fn audit(spec: &RunSpec<'_>) -> RunResult {
    let tr = spec.tracer;
    let mut res = RunResult::default();
    let reps = spec.scale.setup_reps;
    let trajectories =
        ((666.0 * spec.scale.work * spec.seconds / NOMINAL_SECONDS).round() as usize).max(reps);
    let inputs = {
        let world = World::banded(spec.scale.side);
        let plm = world.plm(AUDIT_ALPHA);
        Inputs::generate(&world, &plm, trajectories, AUDIT_STEPS, spec.seed)
    };

    // Set up and audit, several times: each auditor is built from nothing
    // and audits its share of the trajectories, in order.
    let mut setup_s = Vec::new();
    let mut auditor = None;
    let mut plm_s = 0.0;
    let mut rss_setup = 0.0;
    let mut pass = AuditPass::default();
    let mut rates = Vec::new();
    for rep in 0..reps {
        drop(auditor.take());
        let root = tr.new_id();
        let start = Instant::now();
        let (mut a, p) = Auditor::build(spec.scale.side, tr, root);
        let end = Instant::now();
        tr.close("setup", root, 0, start, end);
        setup_s.push(end.duration_since(start).as_secs_f64());
        plm_s = p;
        rss_setup = rss_mb().1;

        let share = trajectories * rep / reps..trajectories * (rep + 1) / reps;
        let root = tr.new_id();
        let start = Instant::now();
        let part = audit_pass(&mut a, &inputs, share, tr, root);
        tr.close("audit", root, 0, start, Instant::now());
        rates.extend(window_rates(&part.done_s));
        pass.absorb(part);
        auditor = Some(a);
    }
    let mut auditor = auditor.expect("at least one set-up");
    let peak_rss = rss_mb().0;
    res.attempted = pass.step_ms.len() as u64;
    res.failed = pass.errors.len() as u64;
    res.problems.extend(pass.errors.iter().take(3).cloned());

    // Tracing must not change a single verdict: replay a prefix untraced.
    if tr.enabled() {
        let n = trajectories.min(16);
        let plain = audit_pass(&mut auditor, &inputs, 0..n, &Tracer::new(false), 0);
        res.check(
            plain.verdicts[..] == pass.verdicts[..plain.verdicts.len()],
            || "traced and untraced audits disagree on a verdict".to_owned(),
        );
    }

    let steps = pass.step_ms.len() as f64;
    let tail = Tail::of(&pass.step_ms);
    res.e2e.insert("setup_s", Summary::of(&setup_s).median);
    res.e2e.insert("peak_rss_mb", peak_rss);
    res.notes.push(format!(
        "plan: {reps} set-ups auditing {trajectories} trajectories x {AUDIT_STEPS} steps \
         between them, alpha {AUDIT_ALPHA}, epsilon {AUDIT_EPSILON} ({steps} steps, {:.2} s; \
         {:.0} steps/s, diagnostic); {}; verdicts: satisfied {:.3}, \
         violated {:.3}, unknown {:.3}; set-ups {setup_s:?} s",
        pass.elapsed_s,
        Summary::of(&rates).median,
        tail.describe(),
        pass.share(Audited::Satisfied),
        pass.share(Audited::Violated),
        pass.share(Audited::Unknown),
    ));

    let l = &mut res.layer;
    l.insert("quantify.candidate_ms", pass.candidate_s * 1e3 / steps);
    l.insert("qp.check_ms", pass.check_s * 1e3 / steps);
    l.insert("qp.violated_share", pass.share(Audited::Violated));
    l.insert("qp.unknown_share", pass.share(Audited::Unknown));
    l.insert("certified_share", pass.share(Audited::Satisfied));
    l.insert("lppm.build_s", plm_s);
    l.insert("proc.rss_setup_mb", rss_setup);
    l.insert(
        "obs.trace_overhead",
        if tr.enabled() {
            ratio(4.0 * steps * span_cost_s(), pass.elapsed_s)
        } else {
            0.0
        },
    );
    if tr.enabled() {
        // The shared kernels on this world, from the audited trajectories.
        let shadow = Shadow {
            world: &auditor.world,
            plm: &auditor.plm,
            inputs: &inputs,
            ids: inputs.shadow_ids(spec.scale.shadow_users),
            rounds: AUDIT_STEPS,
        };
        // Only the kernel rows: the audit crosses no service layer.
        let root = tr.new_id();
        let start = Instant::now();
        shadow.kernels(tr, root, &mut res.layer);
        tr.close("ladder", root, 0, start, Instant::now());
    }
    res
}
