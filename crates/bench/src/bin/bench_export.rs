//! Machine-readable benchmark exporter with a regression gate.
//!
//! Three suites, each written as a flat JSON artifact so CI and the repo
//! root keep a queryable performance record without parsing Criterion's
//! console output:
//!
//! * `online` (`BENCH_online.json`) — session-service hot paths: audit
//!   ingest (with and without a live metrics registry attached), enforced
//!   release, the durability tax, crash/recover round-trips, and the
//!   per-session cost of registering, checkpointing and recovering users at
//!   m = 2500, the resident growth of 10⁵ registered idle users there,
//!   the heap one steady-state durable ingest, one first ingest and one
//!   enforcing release allocate there, and the time and WAL bytes of one
//!   journaled observed-cell ingest there.
//! * `quantify` (`BENCH_quantify.json`) — the incremental two-world
//!   engine: quantifier construction and per-step observe throughput, and
//!   what the banded §V.A chain those worlds run on costs: one build at
//!   m = 2500 / 10⁴ / 4·10⁴ and the heap one build allocates at m = 2500.
//! * `calibrate` (`BENCH_calibrate.json`) — the three budget planners,
//!   guarded-release throughput behind the calibration ladder, and what one
//!   ladder rung costs: a Planar Laplace build at m = 225 / 2500 / 10⁴ and
//!   the heap it keeps resident at m = 2500.
//! * `serve` (`BENCH_serve.json`) — the HTTP daemon end-to-end: an
//!   in-process `priste_serve::Server` on an ephemeral port driven by the
//!   closed-loop load generator; client-observed p50/p90/p99 latency and
//!   sustained throughput over the full request count, plus the
//!   throughput of observed-cell ingests at m = 2500 from two connections
//!   (`serve_ingest_throughput_m2500`), where a request costs enough for
//!   two connections to contend for the service.
//! * `cluster` (`BENCH_cluster.json`) — the router tier: router-added
//!   median latency versus hitting a worker directly, and ingest
//!   throughput through the router across 1/2/4 workers. Every worker does
//!   real ingests and nothing else, so the throughput rows scale with the
//!   worker count only as far as the host has cores to give them.
//!
//! Usage: `bench_export [--out PATH] [--suite online|quantify|calibrate|serve|cluster|all]
//! [--users N] [--steps N] [--reps N] [--dense-max-cells M] [--compare DIR]
//! [--noise F] [--markdown]`
//!
//! The `online` and `quantify` suites carry a grid-size axis up to
//! `m = 10⁴` cells on the banded §V.A Gaussian world, comparing the dense
//! `O(m²)` and CSR `O(nnz)` transition backends per observation.
//! `--dense-max-cells M` caps the *dense* comparator (the CSR side always
//! runs the full axis — it is cheap by construction); CI smoke passes
//! `--dense-max-cells 2500` to skip the one genuinely slow dense point.
//!
//! `--compare DIR` re-reads the committed `BENCH_<suite>.json` artifacts
//! from DIR and diffs the fresh run against them, direction-aware (rates
//! regress downward, latencies and ratios regress upward). Any metric
//! drifting beyond the `--noise` band (default 0.05 = ±5%) fails the run
//! with exit code 1; metrics absent from the committed file are skipped,
//! so new instrumentation can land before its baseline. `--markdown`
//! additionally renders the comparison as a GitHub-flavored before/after
//! delta table on stdout — paste it straight into a PR description.
//!
//! The defaults (500 users, 8 steps, 5 reps) finish in a few seconds; CI
//! runs `--users 50 --steps 4 --reps 2` as a smoke test of the exporter
//! and the comparison gate, not of the numbers.

use priste_calibrate::{
    plan_greedy, plan_knapsack, plan_uniform_split, CalibratedMechanism, GuardConfig,
    PlanarLaplaceError, PlannerConfig,
};
use priste_cluster::{Router, RouterConfig, ShardMap};
use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{
    gaussian_kernel_chain, gaussian_kernel_chain_sparse, Homogeneous, MarkovModel,
    TransitionProvider,
};
use priste_obs::json::{parse, Json};
use priste_obs::Registry;
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use priste_quantify::IncrementalTwoWorld;
use priste_serve::{LoadMode, LoadgenOptions, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;

/// Users in the idle-population row.
const IDLE_USERS: usize = 100_000;

/// Heap accounting around the system allocator, switched on only while
/// [`resident_kb`] or [`allocated_kb`] measures, so the other suites pay
/// one relaxed load per allocation. The workspace libraries forbid
/// `unsafe`; this binary uses it solely to measure what a value keeps on
/// the heap and what a call allocates.
struct MeteredAlloc;

static METERING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while metering.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Bytes allocated while metering, frees ignored (a growing `realloc`
/// counts its growth).
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

fn meter(delta: isize) {
    if METERING.load(Ordering::Relaxed) {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(delta.max(0) as usize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never the memory handed out.
unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        meter(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        meter(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        meter(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        meter(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: MeteredAlloc = MeteredAlloc;

/// Kilobytes the value `build` returns keeps resident: the heap it still
/// holds once built (scratch freed during the build is not counted) plus
/// its inline size. Single-threaded use only.
fn resident_kb<T>(build: impl FnOnce() -> T) -> f64 {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    METERING.store(true, Ordering::SeqCst);
    let value = std::hint::black_box(build());
    METERING.store(false, Ordering::SeqCst);
    let heap = LIVE_BYTES.load(Ordering::SeqCst) - before;
    (heap as f64 + std::mem::size_of_val(&value) as f64) / 1024.0
}

/// Kilobytes `run` allocates, whether or not it frees them again.
/// Single-threaded use only.
fn allocated_kb(run: impl FnOnce()) -> f64 {
    let before = ALLOCATED_BYTES.load(Ordering::SeqCst);
    METERING.store(true, Ordering::SeqCst);
    run();
    METERING.store(false, Ordering::SeqCst);
    (ALLOCATED_BYTES.load(Ordering::SeqCst) - before) as f64 / 1024.0
}

struct Opts {
    out: PathBuf,
    suite: String,
    users: usize,
    steps: usize,
    reps: usize,
    dense_max_cells: usize,
    compare: Option<PathBuf>,
    noise: f64,
    markdown: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        out: PathBuf::from("BENCH_online.json"),
        suite: "all".to_owned(),
        users: 500,
        steps: 8,
        reps: 5,
        dense_max_cells: 10_000,
        compare: None,
        noise: 0.05,
        markdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--suite" => opts.suite = value("--suite"),
            "--users" => opts.users = value("--users").parse().expect("--users N"),
            "--steps" => opts.steps = value("--steps").parse().expect("--steps N"),
            "--reps" => opts.reps = value("--reps").parse().expect("--reps N"),
            "--dense-max-cells" => {
                opts.dense_max_cells = value("--dense-max-cells")
                    .parse()
                    .expect("--dense-max-cells M")
            }
            "--compare" => opts.compare = Some(PathBuf::from(value("--compare"))),
            "--noise" => opts.noise = value("--noise").parse().expect("--noise F"),
            "--markdown" => opts.markdown = true,
            other => panic!("unknown flag {other}; see the module docs for usage"),
        }
    }
    assert!(
        matches!(
            opts.suite.as_str(),
            "online" | "quantify" | "calibrate" | "serve" | "cluster" | "all"
        ),
        "--suite must be online, quantify, calibrate, serve, cluster or all"
    );
    assert!(
        opts.noise >= 0.0 && opts.noise.is_finite(),
        "--noise must be a non-negative fraction"
    );
    assert!(
        !opts.markdown || opts.compare.is_some(),
        "--markdown renders the comparison table and so requires --compare DIR"
    );
    opts
}

fn world() -> (GridMap, Arc<Homogeneous>, StEvent) {
    let grid = GridMap::new(6, 6, 1.0).expect("grid");
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let event: StEvent = Presence::new(
        Region::from_one_based_range(m, 1, m / 4).expect("range"),
        2,
        5,
    )
    .expect("presence")
    .into();
    (grid, Arc::new(Homogeneous::new(chain)), event)
}

fn config() -> OnlineConfig {
    OnlineConfig {
        epsilon: 1.0,
        num_shards: SHARDS,
        linger: 2,
        budget: 1e9,
    }
}

fn service(
    provider: &Arc<Homogeneous>,
    event: &StEvent,
    users: usize,
) -> SessionManager<Arc<Homogeneous>> {
    let m = provider.num_states();
    let mut svc = SessionManager::new(Arc::clone(provider), config()).expect("service");
    let tpl = svc.register_template(event.clone()).expect("template");
    for u in 0..users as u64 {
        svc.add_user(UserId(u), Vector::uniform(m)).expect("user");
        svc.attach_event(UserId(u), tpl).expect("attach");
    }
    svc
}

fn batch(grid: &GridMap, users: usize, seed: u64) -> Vec<(UserId, Vector)> {
    let m = grid.num_cells();
    let plm = PlanarLaplace::new(grid.clone(), 0.8).expect("plm");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..users as u64)
        .map(|u| {
            let cell = CellId((u as usize * 7 + seed as usize) % m);
            (UserId(u), plm.emission_column(plm.perturb(cell, &mut rng)))
        })
        .collect()
}

/// The banded §V.A world on a `side × side` grid with a CSR chain
/// (σ = 0.5 km ⇒ ≤ 45 entries per row) and the suite's PRESENCE event.
fn sparse_world(side: usize) -> (Arc<Homogeneous>, StEvent) {
    let grid = GridMap::new(side, side, 1.0).expect("grid");
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain_sparse(&grid, 0.5).expect("sparse chain");
    let event: StEvent = Presence::new(
        Region::from_one_based_range(m, 1, m / 4).expect("range"),
        2,
        5,
    )
    .expect("presence")
    .into();
    (Arc::new(Homogeneous::new(chain)), event)
}

/// This process's resident set in MB (`VmRSS`; 0 where `/proc` is absent).
fn vm_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("priste-bench-export-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Best milliseconds of `checkpoint()` on `svc`, made durable in a fresh
/// directory, then of `recover()` from that directory; recovery must
/// reproduce the live digest. The previous rep's recovered service is
/// dropped inside the timed closure; the digest check stays outside it.
fn checkpoint_and_recover(
    opts: &Opts,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
    mut svc: SessionManager<Arc<Homogeneous>>,
    tag: &str,
) -> (f64, f64) {
    let dir = tempdir(tag);
    svc.make_durable(
        &dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .expect("make_durable");
    let checkpoint_ms = best_ms(opts.reps, || svc.checkpoint().expect("checkpoint"));
    let digest = svc.state_digest();
    drop(svc);
    let mut recovered = None;
    let recover_ms = best_ms(opts.reps, || {
        recovered = Some(
            SessionManager::recover(
                Arc::clone(provider),
                config(),
                vec![event.clone()],
                &dir,
                None,
            )
            .expect("recover"),
        );
    });
    assert_eq!(
        recovered.expect("recovered").state_digest(),
        digest,
        "recovery must be exact"
    );
    std::fs::remove_dir_all(&dir).ok();
    (checkpoint_ms, recover_ms)
}

/// Best (minimum) wall-clock milliseconds of `reps` runs of `f`, after one
/// unmeasured warm-up run. The minimum is the robust estimator for a
/// regression gate: scheduler preemption and noisy neighbors only ever add
/// time, so the fastest rep is the closest view of the code's true cost —
/// medians still swing several-fold on busy CI machines.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Units where a *larger* fresh value is an improvement. Everything else
/// (`ms`, `x`) improves downward.
fn higher_is_better(unit: &str) -> bool {
    unit.ends_with("/s")
}

fn suite_online(
    opts: &Opts,
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
) -> Vec<Metric> {
    let feed: Vec<_> = (0..opts.steps)
        .map(|t| batch(grid, opts.users, t as u64))
        .collect();
    let observations = (opts.users * opts.steps) as f64;
    let mut metrics = Vec::new();

    // Cold start: build, register, and populate a fresh in-memory service.
    let cold_ms = best_ms(opts.reps, || {
        let svc = service(provider, event, opts.users);
        assert_eq!(svc.num_users(), opts.users);
    });
    metrics.push(Metric {
        name: "cold_start",
        value: cold_ms,
        unit: "ms",
        note: "build + register + add/attach all users, in-memory".into(),
    });

    // Audit ingest throughput, in-memory, observability detached.
    let ingest_ms = best_ms(opts.reps, || {
        let mut svc = service(provider, event, opts.users);
        for step in &feed {
            svc.ingest_batch(step).expect("ingest");
        }
    });
    metrics.push(Metric {
        name: "audit_ingest",
        value: observations / ((ingest_ms - cold_ms).max(1e-6) / 1e3),
        unit: "obs/s",
        note: "sequential ingest_batch, cold-start cost subtracted".into(),
    });

    // The observability tax: the same stream with a live metrics registry
    // attached (per-batch latency/size histograms and occupancy gauges on).
    let observed_ms = best_ms(opts.reps, || {
        let registry = Registry::new();
        let mut svc = service(provider, event, opts.users);
        svc.observe(&registry);
        for step in &feed {
            svc.ingest_batch(step).expect("ingest");
        }
    });
    metrics.push(Metric {
        name: "audit_ingest_observed",
        value: observations / ((observed_ms - cold_ms).max(1e-6) / 1e3),
        unit: "obs/s",
        note: "ingest with a live metrics registry attached, cold-start subtracted".into(),
    });
    metrics.push(Metric {
        name: "obs_overhead",
        value: (observed_ms - cold_ms).max(1e-6) / (ingest_ms - cold_ms).max(1e-6),
        unit: "x",
        note: "observed vs unobserved ingest wall-clock ratio".into(),
    });

    // The durability tax: the same stream journaled to a per-shard WAL
    // (fsync off — codec + buffered-write cost only).
    let durable_ms = best_ms(opts.reps, || {
        let dir = tempdir("tax");
        let mut svc = service(provider, event, opts.users);
        svc.make_durable(
            &dir,
            DurableOptions {
                fsync: false,
                snapshot_every: 0,
            },
        )
        .expect("make_durable");
        for step in &feed {
            svc.ingest_batch(step).expect("ingest");
        }
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    });
    metrics.push(Metric {
        name: "durable_ingest",
        value: observations / ((durable_ms - cold_ms).max(1e-6) / 1e3),
        unit: "obs/s",
        note: "journaled ingest (fsync off), cold-start cost subtracted".into(),
    });
    metrics.push(Metric {
        name: "journaling_overhead",
        value: (durable_ms - cold_ms).max(1e-6) / (ingest_ms - cold_ms).max(1e-6),
        unit: "x",
        note: "durable vs in-memory wall-clock ratio for the same stream".into(),
    });

    // Enforced release throughput behind the calibration guard.
    let locations: Vec<(UserId, CellId)> = (0..opts.users as u64)
        .map(|u| (UserId(u), CellId((u as usize * 5) % grid.num_cells())))
        .collect();
    let release_ms = best_ms(opts.reps, || {
        let mut svc = service(provider, event, opts.users);
        svc.enable_enforcement(
            Box::new(PlanarLaplace::new(grid.clone(), 2.0).expect("plm")),
            GuardConfig {
                target_epsilon: 1.0,
                ..GuardConfig::default()
            },
        )
        .expect("enforcement");
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..opts.steps {
            for &(u, loc) in &locations {
                svc.release(u, loc, &mut rng).expect("release");
            }
        }
    });
    metrics.push(Metric {
        name: "enforced_release",
        value: observations / ((release_ms - cold_ms).max(1e-6) / 1e3),
        unit: "releases/s",
        note: "guarded release incl. mechanism sampling, cold-start subtracted".into(),
    });

    // Recovery from a WAL-only directory (crash mid-stream, no snapshot
    // beyond the opening checkpoint) vs from a compacted snapshot.
    for (name, checkpoint, note) in [
        (
            "recover_wal_replay",
            false,
            "recover(): opening snapshot + full deterministic WAL replay",
        ),
        (
            "recover_snapshot",
            true,
            "recover(): single CRC-checked snapshot, empty WAL tail",
        ),
    ] {
        let dir = tempdir(name);
        let mut svc = service(provider, event, opts.users);
        svc.make_durable(
            &dir,
            DurableOptions {
                fsync: false,
                snapshot_every: 0,
            },
        )
        .expect("make_durable");
        for step in &feed {
            svc.ingest_batch(step).expect("ingest");
        }
        if checkpoint {
            svc.checkpoint().expect("checkpoint");
        }
        let digest = svc.state_digest();
        drop(svc); // crash

        let ms = best_ms(opts.reps, || {
            let recovered = SessionManager::recover(
                Arc::clone(provider),
                config(),
                vec![event.clone()],
                &dir,
                None,
            )
            .expect("recover");
            assert_eq!(recovered.state_digest(), digest, "recovery must be exact");
        });
        metrics.push(Metric {
            name,
            value: ms,
            unit: "ms",
            note: note.into(),
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    // --- Grid-size axis: CSR-backed service ingest ------------------------
    //
    // The session manager on 50×50 and 100×100 banded worlds (σ = 0.5 km ⇒
    // ≤ 45 entries per row), proving the streaming tier inherits the
    // O(nnz)-per-observation cost. Synthetic emission columns and a small
    // fixed cohort: a PLM discretization and 500 users at m = 10⁴ would
    // measure setup, not ingest. No dense twin here — the quantify suite
    // already carries the dense/sparse comparison.
    let mut scale_rng = StdRng::seed_from_u64(29);
    for (side, name, note) in [
        (
            50usize,
            "ingest_sparse_m2500",
            "ingest_batch on a CSR-backed 50x50 world, 32 users, synthetic columns",
        ),
        (
            100,
            "ingest_sparse_m10000",
            "ingest_batch on a CSR-backed 100x100 world, 32 users, synthetic columns",
        ),
    ] {
        let (provider_s, event_s) = sparse_world(side);
        let ms = provider_s.num_states();
        let users = opts.users.min(32);
        let steps = opts.steps.min(4);
        let feed: Vec<Vec<(UserId, Vector)>> = (0..steps)
            .map(|_| {
                (0..users as u64)
                    .map(|u| {
                        (
                            UserId(u),
                            Vector::from(
                                (0..ms)
                                    .map(|_| rand::Rng::gen::<f64>(&mut scale_rng) * 0.9 + 0.1)
                                    .collect::<Vec<_>>(),
                            ),
                        )
                    })
                    .collect()
            })
            .collect();
        let cold_ms = best_ms(opts.reps, || {
            let svc = service(&provider_s, &event_s, users);
            assert_eq!(svc.num_users(), users);
        });
        let ingest_ms = best_ms(opts.reps, || {
            let mut svc = service(&provider_s, &event_s, users);
            for step in &feed {
                svc.ingest_batch(step).expect("ingest");
            }
        });
        metrics.push(Metric {
            name,
            value: (users * steps) as f64 / ((ingest_ms - cold_ms).max(1e-6) / 1e3),
            unit: "obs/s",
            note: note.into(),
        });
    }

    // --- Per-session footprint at m = 2500 --------------------------------
    //
    // All `--users` users added and attached on the 50×50 CSR world (each
    // attach seeds a window over the template's suffix table), then
    // checkpoints of those sessions to disk (fsync off) and recoveries
    // reading them back. Every row scales with the state a session
    // carries.
    let (provider_s, event_s) = sparse_world(50);
    let register_ms = best_ms(opts.reps, || {
        let svc = service(&provider_s, &event_s, opts.users);
        assert_eq!(svc.num_users(), opts.users);
    });
    metrics.push(Metric {
        name: "register_sparse_m2500",
        value: opts.users as f64 / (register_ms.max(1e-6) / 1e3),
        unit: "users/s",
        note: "add_user + attach_event on a CSR-backed 50x50 world, in-memory".into(),
    });

    // --- Steady-state allocation at m = 2500 -----------------------------
    //
    // A durable ingest of a user whose posterior and window vectors are
    // already its own — the observed half of a live service — should write
    // them in place and encode its WAL frame into the shard's kept buffer:
    // no O(m) allocation at all. Two warm rounds give every user its own
    // vectors and size the service's scratch and frame buffers; the
    // columns are built before metering starts.
    let users = opts.users.min(32);
    let m = provider_s.num_states();
    let column = |u: usize, round: usize| -> Vector {
        (0..m)
            .map(|i| 0.1 + ((i + u + round) % 7) as f64 / 10.0)
            .collect()
    };
    let dir = tempdir("alloc");
    let mut svc = service(&provider_s, &event_s, users);
    svc.make_durable(
        &dir,
        DurableOptions {
            fsync: false,
            snapshot_every: 0,
        },
    )
    .expect("make_durable");
    for round in 0..2 {
        for u in 0..users {
            svc.ingest(UserId(u as u64), column(u, round))
                .expect("ingest");
        }
    }
    let rounds = 3;
    let metered: Vec<(UserId, Vector)> = (2..2 + rounds)
        .flat_map(|round| (0..users).map(move |u| (u, round)))
        .map(|(u, round)| (UserId(u as u64), column(u, round)))
        .collect();
    let ingests = metered.len();
    let kb = allocated_kb(|| {
        for (u, col) in metered {
            svc.ingest(u, col).expect("ingest");
        }
    }) / ingests as f64;
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
    let m_vector_kb = (m * 8) as f64 / 1024.0;
    assert!(
        kb < m_vector_kb,
        "a steady-state ingest allocated {kb:.1} KB, over one m-vector ({m_vector_kb:.1} KB)"
    );
    metrics.push(Metric {
        name: "ingest_alloc_kb_m2500",
        value: kb,
        unit: "KB",
        note: format!(
            "mean heap allocated per durable ingest of an already-observed user \
             ({users} users, {rounds} rounds) on the 50x50 CSR world, fsync off"
        ),
    });

    // --- Journaled observed-cell ingests at m = 2500 ---------------------
    //
    // The daemon's `"observed"` path: the service holds the α = 2 Planar
    // Laplace mechanism, builds each column itself and journals the ingest
    // by reference (cell, budget and column hash) instead of as its 20 KB
    // column. Each rep times up to four rounds of the users on a fresh
    // durable service (fsync off); the first rep warms and is not counted.
    // The WAL bytes are the store's own counter.
    let plm_s = PlanarLaplace::new(GridMap::new(50, 50, 1.0).expect("grid"), 2.0).expect("plm");
    let rounds = opts.steps.min(4);
    let ingests = rounds * users;
    let (mut best_us, mut wal_bytes) = (f64::INFINITY, 0.0);
    for rep in 0..=opts.reps.max(1) {
        let dir = tempdir("observed");
        let mut svc = service(&provider_s, &event_s, users);
        svc.set_mechanism(Box::new(plm_s.clone()))
            .expect("mechanism");
        svc.make_durable(
            &dir,
            DurableOptions {
                fsync: false,
                snapshot_every: 0,
            },
        )
        .expect("make_durable");
        let registry = Registry::new();
        svc.observe(&registry);
        let started = Instant::now();
        for round in 0..rounds {
            for u in 0..users {
                let cell = CellId((u * 37 + round * 11) % m);
                svc.ingest_observed(UserId(u as u64), cell).expect("ingest");
            }
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / ingests as f64;
        if rep > 0 {
            best_us = best_us.min(us);
        }
        wal_bytes = registry.counter("durable_wal_bytes_total").get() as f64 / ingests as f64;
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }
    metrics.push(Metric {
        name: "durable_ingest_observed_m2500",
        value: best_us,
        unit: "us",
        note: format!(
            "ingest_observed (the daemon's observed-cell path) journaled by reference, \
             {users} users x {rounds} rounds on the 50x50 CSR world, fsync off"
        ),
    });
    metrics.push(Metric {
        name: "wal_bytes_per_observe_m2500",
        value: wal_bytes,
        unit: "B",
        note: "WAL bytes per journaled observed-cell ingest at m = 2500 \
               (a column record is 8m + 26 = 20026 B)"
            .into(),
    });

    // --- First ingests and guarded releases at m = 2500 ------------------
    //
    // A user's first ingest should allocate only the state it keeps from
    // then on — its posterior (one m-vector) and its window's forward
    // vector (one 2m-vector) — and an enforcing release of an observed user
    // one candidate column per guard attempt plus one (the windows are
    // stepped once per release into the service's kept buffers, not once
    // per attempt). One ingest and one release round warm the scratch.
    let mut svc = service(&provider_s, &event_s, users);
    svc.ingest(UserId(0), column(0, 0)).expect("ingest");
    let firsts: Vec<(UserId, Vector)> = (1..users)
        .map(|u| (UserId(u as u64), column(u, 0)))
        .collect();
    let ingests = firsts.len();
    let kb = allocated_kb(|| {
        for (u, col) in firsts {
            svc.ingest(u, col).expect("ingest");
        }
    }) / ingests as f64;
    let kept_kb = 3.0 * m_vector_kb;
    assert!(
        kb <= kept_kb + 4.0,
        "a first ingest allocated {kb:.1} KB, over the {kept_kb:.1} KB it keeps plus 4 KB"
    );
    metrics.push(Metric {
        name: "first_ingest_alloc_kb_m2500",
        value: kb,
        unit: "KB",
        note: format!(
            "mean heap allocated by the first ingest of a registered user ({ingests} users) \
             on the 50x50 CSR world, in-memory; it keeps {kept_kb:.1} KB"
        ),
    });
    svc.enable_enforcement(
        Box::new(PlanarLaplace::new(GridMap::new(50, 50, 1.0).expect("grid"), 2.0).expect("plm")),
        GuardConfig::default(),
    )
    .expect("enforcement");
    let mut rng = StdRng::seed_from_u64(5);
    let at = |u: usize| CellId((u * 37) % m);
    for u in 0..users {
        svc.release(UserId(u as u64), at(u), &mut rng)
            .expect("release");
    }
    let (mut total_kb, mut attempts) = (0.0, 0);
    let releases = 2 * users;
    for round in 0..2 {
        for u in 0..users {
            let mut tried = 0;
            let kb = allocated_kb(|| {
                tried = svc
                    .release(UserId(u as u64), at(u + round), &mut rng)
                    .expect("release")
                    .attempts;
            });
            let bound_kb = (tried + 1) as f64 * m_vector_kb;
            assert!(
                kb < bound_kb,
                "a release of {tried} attempts allocated {kb:.1} KB, not under {bound_kb:.1} KB"
            );
            total_kb += kb;
            attempts += tried;
        }
    }
    drop(svc);
    metrics.push(Metric {
        name: "release_alloc_kb_m2500",
        value: total_kb / releases as f64,
        unit: "KB",
        note: format!(
            "mean heap allocated per enforcing release of an already-observed user \
             ({releases} releases, {:.1} guard attempts each) on the 50x50 CSR world, \
             in-memory",
            attempts as f64 / releases as f64
        ),
    });

    // --- The idle population at m = 2500 ---------------------------------
    //
    // 10⁵ users registered with one prior and one template and never
    // observed — the majority of a live service. Copy-on-write sessions
    // share the prior and the template's initial lift, so the population
    // costs a few hundred bytes per user instead of ~80 KB (~7.5 GB).
    let rss_before = vm_rss_mb();
    let started = Instant::now();
    let idle = service(&provider_s, &event_s, IDLE_USERS);
    let setup_s = started.elapsed().as_secs_f64();
    let growth_mb = vm_rss_mb() - rss_before;
    assert_eq!(idle.num_users(), IDLE_USERS);
    assert!(
        growth_mb < 1024.0,
        "{IDLE_USERS} idle users grew VmRSS by {growth_mb:.0} MB"
    );
    drop(idle);
    metrics.push(Metric {
        name: "register_idle_m2500_1e5",
        value: growth_mb,
        unit: "MB",
        note: format!(
            "VmRSS growth registering 10^5 users (add_user + attach_event, one prior) \
             on the 50x50 CSR world; set-up {setup_s:.2} s"
        ),
    });

    // Checkpoint and recover the `--users` sessions twice: idle, where
    // every session shares the prior and its initial lift (written once,
    // then by reference), and each observed once, where every session's
    // vectors are its own and the snapshot carries ≈ 80 KB per session.
    let idle = service(&provider_s, &event_s, opts.users);
    let mut active = service(&provider_s, &event_s, opts.users);
    let m = provider_s.num_states();
    let round: Vec<(UserId, Vector)> = (0..opts.users as u64)
        .map(|u| {
            let column = (0..m).map(|i| 0.1 + ((i as u64 + u) % 7) as f64 / 10.0);
            (UserId(u), column.collect())
        })
        .collect();
    active.ingest_batch(&round).expect("ingest");
    for (svc, checkpoint, recover, what) in [
        (
            idle,
            "checkpoint_sparse_m2500",
            "recover_snapshot_sparse_m2500",
            "every registered user",
        ),
        (
            active,
            "checkpoint_active_m2500",
            "recover_snapshot_active_m2500",
            "every registered user, each observed once",
        ),
    ] {
        let (checkpoint_ms, recover_ms) =
            checkpoint_and_recover(opts, &provider_s, &event_s, svc, checkpoint);
        metrics.push(Metric {
            name: checkpoint,
            value: checkpoint_ms,
            unit: "ms",
            note: format!("checkpoint() of {what} on the 50x50 world, fsync off"),
        });
        metrics.push(Metric {
            name: recover,
            value: recover_ms,
            unit: "ms",
            note: "recover() of that checkpoint: CRC check, decode, restore, empty WAL tail".into(),
        });
    }

    metrics
}

fn suite_quantify(
    opts: &Opts,
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
) -> Vec<Metric> {
    let m = grid.num_cells();
    let plm = PlanarLaplace::new(grid.clone(), 0.8).expect("plm");
    let mut rng = StdRng::seed_from_u64(11);
    let columns: Vec<Vector> = (0..opts.steps)
        .map(|t| plm.emission_column(plm.perturb(CellId((t * 7) % m), &mut rng)))
        .collect();
    let mut metrics = Vec::new();

    let cold_ms = best_ms(opts.reps, || {
        let q = IncrementalTwoWorld::new(event.clone(), Arc::clone(provider), Vector::uniform(m))
            .expect("quantifier");
        assert_eq!(q.observed(), 0);
    });
    metrics.push(Metric {
        name: "quantifier_cold_start",
        value: cold_ms,
        unit: "ms",
        note: "IncrementalTwoWorld construction (prior lifting included)".into(),
    });

    // Long enough to dwarf timer granularity: cycle the columns so one
    // rep streams hundreds of steps through a single quantifier.
    let total = (opts.steps * 64).max(256);
    let observe_ms = best_ms(opts.reps, || {
        let mut q =
            IncrementalTwoWorld::new(event.clone(), Arc::clone(provider), Vector::uniform(m))
                .expect("quantifier");
        for i in 0..total {
            q.observe(&columns[i % columns.len()]).expect("observe");
        }
    });
    metrics.push(Metric {
        name: "incremental_observe",
        value: total as f64 / ((observe_ms - cold_ms).max(1e-6) / 1e3),
        unit: "steps/s",
        note: "per-step two-world update + privacy-loss bound, construction subtracted".into(),
    });

    // --- Grid-size axis: dense vs CSR transition backends -----------------
    //
    // The banded §V.A world (σ = 0.5 km on 1 km cells ⇒ ≤ 45 entries per
    // row) at m ∈ {225, 2500, 10⁴}. The dense comparator is the CSR
    // chain's densified twin — identical numerics, O(m²) per observation —
    // and is capped by `--dense-max-cells`. Emission columns are synthetic
    // (a PLM discretization at m = 10⁴ would cost more than the thing being
    // measured). Rates are `steps/s` so the regression gate treats higher
    // as better; the sparse/dense ratio at m = 10⁴ is the artifact's
    // scaling claim.
    let mut scale_rng = StdRng::seed_from_u64(23);
    for (side, dense_name, sparse_name) in [
        (15usize, "observe_dense_m225", "observe_sparse_m225"),
        (50, "observe_dense_m2500", "observe_sparse_m2500"),
        (100, "observe_dense_m10000", "observe_sparse_m10000"),
    ] {
        let grid_s = GridMap::new(side, side, 1.0).expect("grid");
        let ms = grid_s.num_cells();
        let sparse_chain = gaussian_kernel_chain_sparse(&grid_s, 0.5).expect("sparse chain");
        let event_s: StEvent = Presence::new(
            Region::from_one_based_range(ms, 1, ms / 4).expect("range"),
            2,
            5,
        )
        .expect("presence")
        .into();
        let cols: Vec<Vector> = (0..8)
            .map(|_| {
                Vector::from(
                    (0..ms)
                        .map(|_| rand::Rng::gen::<f64>(&mut scale_rng) * 0.9 + 0.1)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let pi = Vector::uniform(ms);

        if ms <= opts.dense_max_cells {
            let dense_chain = MarkovModel::new(sparse_chain.transition_matrix().to_dense_matrix())
                .expect("dense twin");
            let provider = Homogeneous::new(dense_chain);
            let mut q = IncrementalTwoWorld::new(event_s.clone(), &provider, pi.clone())
                .expect("quantifier");
            // Fixed flop budget per rep: ~4·10⁸ multiply-adds, so the
            // m = 10⁴ point stays at a couple of observations per run.
            let steps = (400_000_000 / (2 * ms * ms)).clamp(2, 256);
            let dense_ms = best_ms(opts.reps.min(3), || {
                q.reset();
                for i in 0..steps {
                    q.observe(&cols[i % cols.len()]).expect("observe");
                }
            });
            metrics.push(Metric {
                name: dense_name,
                value: steps as f64 / (dense_ms.max(1e-6) / 1e3),
                unit: "steps/s",
                note: "incremental observe, dense O(m^2) backend, banded sigma=0.5 world".into(),
            });
        } else {
            println!("quantify: dense comparator at m={ms} skipped (--dense-max-cells)");
        }

        let provider = Homogeneous::new(sparse_chain);
        let mut q = IncrementalTwoWorld::new(event_s, &provider, pi).expect("quantifier");
        let steps = 256;
        let sparse_ms = best_ms(opts.reps, || {
            q.reset();
            for i in 0..steps {
                q.observe(&cols[i % cols.len()]).expect("observe");
            }
        });
        metrics.push(Metric {
            name: sparse_name,
            value: steps as f64 / (sparse_ms.max(1e-6) / 1e3),
            unit: "steps/s",
            note: "incremental observe, CSR O(nnz) backend, banded sigma=0.5 world".into(),
        });
    }

    // What the banded world itself costs: one σ = 0.5 km chain build (one
    // `exp` per patch offset, then each row's kept patch entries copied
    // straight into the CSR arrays).
    let side_grid = |side: usize| GridMap::new(side, side, 1.0).expect("grid");
    for (name, side) in [
        ("chain_build_m2500", 50),
        ("chain_build_m10000", 100),
        ("chain_build_m40000", 200),
    ] {
        let grid = side_grid(side);
        let build_ms = best_ms(opts.reps, || {
            std::hint::black_box(gaussian_kernel_chain_sparse(&grid, 0.5).expect("sparse chain"));
        });
        metrics.push(Metric {
            name,
            value: build_ms,
            unit: "ms",
            note: "one gaussian_kernel_chain_sparse (sigma = 0.5 km) on a square 1 km grid".into(),
        });
    }
    let grid = side_grid(50);
    let mut chain = None;
    let kb = allocated_kb(|| {
        chain = Some(gaussian_kernel_chain_sparse(&grid, 0.5).expect("sparse chain"));
    });
    let chain = chain.expect("chain");
    let csr = chain.transition_matrix().as_sparse().expect("csr");
    // The CSR arrays the chain keeps: a column index and a value per entry,
    // and `m + 1` row offsets.
    let (index, value) = (std::mem::size_of::<usize>(), std::mem::size_of::<f64>());
    let csr_kb = (csr.nnz() * (index + value) + (csr.rows() + 1) * index) as f64 / 1024.0;
    assert!(
        kb <= 1.1 * csr_kb,
        "one chain build at m = 2500 allocated {kb:.1} KB for a {csr_kb:.1} KB CSR"
    );
    metrics.push(Metric {
        name: "chain_build_alloc_kb_m2500",
        value: kb,
        unit: "KB",
        note: format!(
            "heap one sigma = 0.5 km chain build allocates at m = 2500 (asserted <= 1.1 x its {csr_kb:.0} KB CSR)"
        ),
    });

    metrics
}

fn suite_calibrate(
    opts: &Opts,
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
) -> Vec<Metric> {
    let m = grid.num_cells();
    let horizon = opts.steps.clamp(2, 6);
    let planner_cfg = PlannerConfig::default();
    let model = PlanarLaplaceError;
    let plm = || -> Box<dyn Lppm> { Box::new(PlanarLaplace::new(grid.clone(), 2.0).expect("plm")) };
    let mut metrics = Vec::new();

    let uniform_ms = best_ms(opts.reps, || {
        plan_uniform_split(
            plm(),
            event,
            Arc::clone(provider),
            horizon,
            1.0,
            &planner_cfg,
        )
        .expect("uniform plan");
    });
    metrics.push(Metric {
        name: "plan_uniform",
        value: uniform_ms,
        unit: "ms",
        note: "uniform-split planner over the bench horizon".into(),
    });

    let greedy_ms = best_ms(opts.reps, || {
        plan_greedy(
            plm(),
            event,
            Arc::clone(provider),
            horizon,
            1.0,
            &planner_cfg,
        )
        .expect("greedy plan");
    });
    metrics.push(Metric {
        name: "plan_greedy",
        value: greedy_ms,
        unit: "ms",
        note: "greedy planner over the bench horizon".into(),
    });

    let knapsack_ms = best_ms(opts.reps, || {
        plan_knapsack(
            plm(),
            event,
            Arc::clone(provider),
            horizon,
            1.0,
            &planner_cfg,
            &model,
        )
        .expect("knapsack plan");
    });
    metrics.push(Metric {
        name: "plan_knapsack",
        value: knapsack_ms,
        unit: "ms",
        note: "utility-aware knapsack planner over the bench horizon".into(),
    });

    let releases = (opts.steps * 32).max(128);
    let release_ms = best_ms(opts.reps, || {
        let mut guard = CalibratedMechanism::new(
            plm(),
            std::slice::from_ref(event),
            Arc::clone(provider),
            Vector::uniform(m),
            GuardConfig {
                target_epsilon: 1.0,
                ..GuardConfig::default()
            },
        )
        .expect("guard");
        let mut rng = StdRng::seed_from_u64(17);
        for t in 0..releases {
            guard
                .release(CellId((t * 5) % m), &mut rng)
                .expect("release");
        }
    });
    metrics.push(Metric {
        name: "guarded_release",
        value: releases as f64 / (release_ms.max(1e-6) / 1e3),
        unit: "releases/s",
        note: "single-session calibrated release behind the backoff ladder".into(),
    });

    // One guard rung: the Planar Laplace build `with_budget` performs, on
    // the square 1 km grids of the banded sigma = 0.5 km world.
    let side_grid = |side: usize| GridMap::new(side, side, 1.0).expect("grid");
    for (name, side) in [
        ("plm_build_m225", 15),
        ("plm_build_m2500", 50),
        ("plm_build_m10000", 100),
        ("plm_build_m40000", 200),
    ] {
        let grid = side_grid(side);
        let build_ms = best_ms(opts.reps, || {
            std::hint::black_box(PlanarLaplace::new(grid.clone(), 2.0).expect("plm"));
        });
        metrics.push(Metric {
            name,
            value: build_ms,
            unit: "ms",
            note: "one PlanarLaplace::new (a guard rung) on a square 1 km grid".into(),
        });
    }
    let grid = side_grid(50);
    metrics.push(Metric {
        name: "plm_resident_kb_m2500",
        value: resident_kb(|| PlanarLaplace::new(grid, 2.0).expect("plm")),
        unit: "KB",
        note: "heap + inline size one PlanarLaplace keeps resident at m = 2500".into(),
    });

    metrics
}

/// End-to-end daemon benchmark: a real `priste_serve::Server` on an
/// ephemeral loopback port, hammered by the closed-loop load generator in
/// mixed ingest/release mode. Unlike the other suites this is a single
/// sustained run rather than best-of-reps — the load generator already
/// aggregates over `users × steps × 25` requests (10⁵ at the defaults),
/// and tail quantiles only mean something over a long closed loop.
fn suite_serve(
    opts: &Opts,
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
) -> Vec<Metric> {
    let requests = ((opts.users * opts.steps * 25) as u64).max(1_000);
    let mut svc = service(provider, event, opts.users);
    let mechanism = PlanarLaplace::new(grid.clone(), 2.0).expect("plm");
    svc.enable_enforcement(
        Box::new(mechanism.clone()),
        GuardConfig {
            target_epsilon: 1.0,
            ..GuardConfig::default()
        },
    )
    .expect("enforcement");
    let registry = Registry::new();
    svc.observe(&registry);
    let server = Server::start(
        svc,
        Some(Box::new(mechanism)),
        registry,
        ServerConfig {
            poll_interval: std::time::Duration::from_millis(5),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral loopback port");

    let report = priste_serve::loadgen::run(&LoadgenOptions {
        addr: server.local_addr().to_string(),
        requests,
        connections: 4,
        users: opts.users as u64,
        mode: LoadMode::Mixed,
        seed: 42,
        rate: None,
    })
    .expect("load generator");
    server.drain_handle().drain();
    let summary = server.wait().expect("drain");
    assert_eq!(
        report.errors, 0,
        "the bench scenario must not produce protocol errors"
    );
    assert_eq!(
        summary.errors, 0,
        "the server must not count errors under benchmark load"
    );

    vec![
        Metric {
            name: "serve_p50_ms",
            value: report.quantile_ms(0.50),
            unit: "ms",
            note: "client-observed median request latency, mixed ingest/release".into(),
        },
        Metric {
            name: "serve_p90_ms",
            value: report.quantile_ms(0.90),
            unit: "ms",
            note: "client-observed p90 request latency".into(),
        },
        Metric {
            name: "serve_p99_ms",
            value: report.quantile_ms(0.99),
            unit: "ms",
            note: "client-observed p99 request latency".into(),
        },
        Metric {
            name: "serve_throughput",
            value: report.throughput(),
            unit: "req/s",
            note: "sustained closed-loop throughput, 4 connections".into(),
        },
        serve_ingest_m2500(opts),
    ]
}

/// Closed-loop observed-cell ingests on the 50×50 CSR world from two
/// connections. An ingest there is ~0.1 ms of lifted-kernel work, so the
/// two connections contend for the service unless requests for users in
/// different shards run in parallel; the 6×6 world is too cheap per
/// request to show that.
fn serve_ingest_m2500(opts: &Opts) -> Metric {
    let (provider, event) = sparse_world(50);
    let users = opts.users.max(2);
    let mechanism = PlanarLaplace::new(GridMap::new(50, 50, 1.0).expect("grid"), 2.0).expect("plm");
    let server = Server::start(
        service(&provider, &event, users),
        Some(Box::new(mechanism)),
        Registry::new(),
        ServerConfig {
            poll_interval: std::time::Duration::from_millis(5),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral loopback port");
    let report = priste_serve::loadgen::run(&LoadgenOptions {
        addr: server.local_addr().to_string(),
        requests: ((users * opts.steps * 2) as u64).max(1_000),
        connections: 2,
        users: users as u64,
        mode: LoadMode::Ingest,
        seed: 42,
        rate: None,
    })
    .expect("load generator");
    server.drain_handle().drain();
    let summary = server.wait().expect("drain");
    assert_eq!(report.errors, 0, "observed-cell ingests must not fail");
    assert_eq!(summary.errors, 0, "the server must not count errors");
    Metric {
        name: "serve_ingest_throughput_m2500",
        value: report.throughput(),
        unit: "req/s",
        note: format!(
            "closed-loop observed-cell ingests, 50x50 CSR world, {users} users, 2 connections"
        ),
    }
}

/// One in-process worker for the cluster suite: the same enforcing
/// commuter service as `suite_serve`.
fn start_cluster_worker(
    opts: &Opts,
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
) -> Server<Arc<Homogeneous>> {
    let mut svc = service(provider, event, opts.users);
    let mechanism = PlanarLaplace::new(grid.clone(), 2.0).expect("plm");
    svc.enable_enforcement(
        Box::new(mechanism.clone()),
        GuardConfig {
            target_epsilon: 1.0,
            ..GuardConfig::default()
        },
    )
    .expect("enforcement");
    Server::start(
        svc,
        Some(Box::new(mechanism)),
        Registry::new(),
        ServerConfig {
            poll_interval: std::time::Duration::from_millis(5),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral worker port")
}

/// Fronts `workers` in-process serve daemons with a router and drives the
/// load generator through it; returns the loadgen report after asserting a
/// clean drain on every process.
fn routed_run(
    workers: Vec<Server<Arc<Homogeneous>>>,
    loadgen: &LoadgenOptions,
) -> priste_serve::LoadgenReport {
    let map = ShardMap::from_workers(workers.iter().map(|w| w.local_addr().to_string()))
        .expect("shard map");
    let router = Router::start(
        map,
        Registry::new(),
        RouterConfig {
            poll_interval: std::time::Duration::from_millis(5),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral router port");
    let report = priste_serve::loadgen::run(&LoadgenOptions {
        addr: router.local_addr().to_string(),
        ..loadgen.clone()
    })
    .expect("load generator through the router");
    router.drain_handle().drain();
    let summary = router.wait().expect("router drain");
    assert_eq!(report.errors, 0, "routed bench traffic must be clean");
    assert_eq!(summary.errors, 0, "the router must not count errors");
    for worker in workers {
        worker.drain_handle().drain();
        let s = worker.wait().expect("worker drain");
        assert_eq!(s.errors, 0, "workers must not count errors");
    }
    report
}

/// The router tier end-to-end, on workers that do real ingests and
/// nothing else:
///
/// * **Router overhead** — the routed-minus-direct median isolates the
///   router's added hop (parse, hash, pooled upstream exchange). This is
///   real wall-clock on loopback.
/// * **Throughput** — routed ingest throughput at 1, 2 and 4 workers. The
///   workers, the router and the load generator share the host's cores, so
///   on a 2-vCPU host these rows need not grow with the worker count: they
///   price the routed path, not the capacity sharding would add on
///   separate machines.
fn suite_cluster(
    opts: &Opts,
    grid: &GridMap,
    provider: &Arc<Homogeneous>,
    event: &StEvent,
) -> Vec<Metric> {
    let mut metrics = Vec::new();

    // --- Router-added latency ---------------------------------------------
    let overhead_requests = ((opts.users * opts.steps * 10) as u64).max(1_000);
    let loadgen = LoadgenOptions {
        addr: String::new(),
        requests: overhead_requests,
        connections: 4,
        users: opts.users as u64,
        mode: LoadMode::Mixed,
        seed: 42,
        rate: None,
    };

    let direct_worker = start_cluster_worker(opts, grid, provider, event);
    let direct = priste_serve::loadgen::run(&LoadgenOptions {
        addr: direct_worker.local_addr().to_string(),
        ..loadgen.clone()
    })
    .expect("load generator against the bare worker");
    direct_worker.drain_handle().drain();
    let direct_summary = direct_worker.wait().expect("worker drain");
    assert_eq!(direct.errors, 0, "direct bench traffic must be clean");
    assert_eq!(direct_summary.errors, 0, "the worker must not count errors");

    let routed = routed_run(
        vec![start_cluster_worker(opts, grid, provider, event)],
        &loadgen,
    );

    let direct_p50 = direct.quantile_ms(0.50);
    let routed_p50 = routed.quantile_ms(0.50);
    metrics.push(Metric {
        name: "cluster_direct_p50_ms",
        value: direct_p50,
        unit: "ms",
        note: "median latency straight to one worker, mixed mode".into(),
    });
    metrics.push(Metric {
        name: "cluster_routed_p50_ms",
        value: routed_p50,
        unit: "ms",
        note: "median latency through the router to the same worker build".into(),
    });
    metrics.push(Metric {
        name: "cluster_router_overhead_p50_ms",
        value: (routed_p50 - direct_p50).max(0.0),
        unit: "ms",
        note: "router-added median latency (routed minus direct, clamped at zero)".into(),
    });

    // --- Routed throughput at 1/2/4 workers --------------------------------
    let scale_requests = ((opts.users * opts.steps * 4) as u64).max(2_000);
    for workers in [1usize, 2, 4] {
        let report = routed_run(
            (0..workers)
                .map(|_| start_cluster_worker(opts, grid, provider, event))
                .collect(),
            &LoadgenOptions {
                addr: String::new(),
                requests: scale_requests,
                connections: 8,
                users: opts.users as u64,
                mode: LoadMode::Ingest,
                seed: 42,
                rate: None,
            },
        );
        let (name, note): (&'static str, &'static str) = match workers {
            1 => (
                "cluster_throughput_1w",
                "ingest through the router, 1 worker doing real ingests (no synthetic stall)",
            ),
            2 => (
                "cluster_throughput_2w",
                "ingest through the router, 2 workers sharing the host's cores - \
                 on a 2-vCPU host this need not beat 1w",
            ),
            _ => (
                "cluster_throughput_4w",
                "ingest through the router, 4 workers sharing the host's cores - \
                 on a 2-vCPU host this need not beat 1w",
            ),
        };
        metrics.push(Metric {
            name,
            value: report.throughput(),
            unit: "req/s",
            note: note.into(),
        });
    }

    metrics
}

fn main() {
    let opts = parse_opts();
    let (grid, provider, event) = world();
    let out_dir = opts
        .out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();

    let suites: Vec<(&str, Vec<Metric>, PathBuf)> =
        ["online", "quantify", "calibrate", "serve", "cluster"]
            .into_iter()
            .filter(|s| opts.suite == "all" || opts.suite == *s)
            .map(|name| {
                let metrics = match name {
                    "online" => suite_online(&opts, &grid, &provider, &event),
                    "quantify" => suite_quantify(&opts, &grid, &provider, &event),
                    "calibrate" => suite_calibrate(&opts, &grid, &provider, &event),
                    "cluster" => suite_cluster(&opts, &grid, &provider, &event),
                    _ => suite_serve(&opts, &grid, &provider, &event),
                };
                let path = if name == "online" {
                    opts.out.clone()
                } else {
                    out_dir.join(format!("BENCH_{name}.json"))
                };
                (name, metrics, path)
            })
            .collect();

    let mut regressions = 0usize;
    let mut rows: Vec<CompareRow> = Vec::new();
    for (name, metrics, path) in &suites {
        write_json(path, name, &opts, metrics).expect("write BENCH json");
        println!("[{name}]");
        for m in metrics {
            println!("{:>24}: {:>12.2} {}", m.name, m.value, m.unit);
        }
        println!("wrote {}", path.display());
        if let Some(dir) = &opts.compare {
            regressions += compare_suite(
                name,
                metrics,
                &dir.join(format!("BENCH_{name}.json")),
                opts.noise,
                &mut rows,
            );
        }
    }

    if opts.markdown {
        print_markdown_table(&rows, opts.noise);
    }

    if regressions > 0 {
        eprintln!(
            "FAIL: {regressions} metric(s) regressed beyond the ±{:.0}% noise band",
            opts.noise * 100.0
        );
        std::process::exit(1);
    }
}

/// One metric's before/after comparison, kept for the `--markdown` table.
struct CompareRow {
    suite: String,
    name: &'static str,
    fresh: f64,
    baseline: Option<f64>,
    unit: &'static str,
    drift: f64,
    regressed: bool,
}

/// Renders the collected comparison as a GitHub-flavored delta table —
/// the per-PR performance record ROADMAP asks for, ready to paste into a
/// PR description.
fn print_markdown_table(rows: &[CompareRow], noise: f64) {
    println!();
    println!(
        "### Benchmark deltas (±{:.0}% noise band, fresh vs committed)",
        noise * 100.0
    );
    println!();
    println!("| Suite | Metric | Before | After | Delta | Verdict |");
    println!("|---|---|---:|---:|---:|---|");
    for r in rows {
        let (before, delta, verdict) = match r.baseline {
            Some(b) => (
                format!("{b:.2} {}", r.unit),
                format!("{:+.1}%", r.drift * 100.0),
                if r.regressed {
                    "**regressed**"
                } else {
                    "within noise"
                }
                .to_owned(),
            ),
            None => ("—".to_owned(), "—".to_owned(), "new metric".to_owned()),
        };
        println!(
            "| {} | `{}` | {} | {:.2} {} | {} | {} |",
            r.suite, r.name, before, r.fresh, r.unit, delta, verdict
        );
    }
    println!();
}

/// Diffs one fresh suite against its committed artifact. Returns the number
/// of metrics outside the noise band; a missing or unparsable committed
/// file skips the suite (so new suites can land before their baseline).
fn compare_suite(
    suite: &str,
    fresh: &[Metric],
    committed: &Path,
    noise: f64,
    rows: &mut Vec<CompareRow>,
) -> usize {
    let Ok(text) = std::fs::read_to_string(committed) else {
        println!(
            "compare[{suite}]: no committed artifact at {} — skipped",
            committed.display()
        );
        return 0;
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "compare[{suite}]: {} is not valid JSON ({e}) — counting as a regression",
                committed.display()
            );
            return 1;
        }
    };
    let committed_metrics: Vec<&Json> = doc
        .get("metrics")
        .and_then(Json::as_array)
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    let lookup = |name: &str| -> Option<f64> {
        committed_metrics.iter().find_map(|m| {
            (m.get("name").and_then(Json::as_str) == Some(name))
                .then(|| m.get("value").and_then(Json::as_f64))
                .flatten()
        })
    };

    let mut regressions = 0;
    for m in fresh {
        let Some(baseline) = lookup(m.name) else {
            println!(
                "compare[{suite}] {:>24}: no committed baseline — skipped",
                m.name
            );
            rows.push(CompareRow {
                suite: suite.to_owned(),
                name: m.name,
                fresh: m.value,
                baseline: None,
                unit: m.unit,
                drift: 0.0,
                regressed: false,
            });
            continue;
        };
        let (regressed, drift) = if higher_is_better(m.unit) {
            (m.value < baseline * (1.0 - noise), m.value / baseline - 1.0)
        } else {
            (m.value > baseline * (1.0 + noise), m.value / baseline - 1.0)
        };
        let verdict = if regressed {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "compare[{suite}] {:>24}: {:>12.2} vs {:>12.2} {} ({:+.1}%) {verdict}",
            m.name,
            m.value,
            baseline,
            m.unit,
            drift * 100.0
        );
        rows.push(CompareRow {
            suite: suite.to_owned(),
            name: m.name,
            fresh: m.value,
            baseline: Some(baseline),
            unit: m.unit,
            drift,
            regressed,
        });
    }
    regressions
}

/// Hand-rolled JSON writer — the workspace has no serde; the schema is
/// flat enough that string assembly with escaped-free ASCII fields is safe.
fn write_json(path: &Path, suite: &str, opts: &Opts, metrics: &[Metric]) -> std::io::Result<()> {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"priste-bench-{suite}/1\",\n"));
    json.push_str("  \"scenario\": {\n");
    json.push_str("    \"grid\": \"6x6\",\n");
    json.push_str(&format!("    \"users\": {},\n", opts.users));
    json.push_str(&format!("    \"steps\": {},\n", opts.steps));
    json.push_str(&format!("    \"shards\": {SHARDS},\n"));
    json.push_str(&format!("    \"reps\": {},\n", opts.reps));
    json.push_str("    \"event\": \"PRESENCE over the first quarter of cells, steps 2-5\",\n");
    json.push_str("    \"fsync\": false\n");
    json.push_str("  },\n");
    json.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\", \"note\": \"{}\"}}{}\n",
            m.name,
            m.value,
            m.unit,
            m.note,
            if i + 1 < metrics.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, json)
}
