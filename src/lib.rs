//! # PriSTE — Spatiotemporal Event Privacy
//!
//! A production-quality Rust implementation of **"PriSTE: From Location
//! Privacy to Spatiotemporal Event Privacy"** (Cao, Xiao, Xiong, Bai —
//! ICDE 2019, arXiv:1810.09152).
//!
//! Location privacy mechanisms protect *where you are*; they do not protect
//! *facts about your movements* such as "visited a hospital last week" or
//! "commutes between address A and address B every morning". PriSTE
//! formalizes such facts as **spatiotemporal events** — Boolean expressions
//! over `(location, time)` predicates — defines **ε-spatiotemporal event
//! privacy** (a differential-privacy-style indistinguishability between an
//! event and its negation), and converts any emission-matrix LPPM into one
//! that guarantees it.
//!
//! ## Quick start
//!
//! Everything starts at the [`Pipeline`]: describe the scenario once —
//! world, mobility, secrets, mechanism, target ε — then derive whichever
//! mode you need. `.audit()` walks one trajectory through the offline
//! PriSTE framework; `.serve()` yields the streaming multi-user service;
//! `.enforce()` wraps the mechanism in the calibration guard.
//!
//! ```
//! use priste::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A 5×5 world with a Gaussian-kernel mobility model.
//! let grid = GridMap::new(5, 5, 1.0)?;
//! let chain = gaussian_kernel_chain(&grid, 1.0)?;
//!
//! // One pipeline: the secret (paper notation), the mechanism, the target.
//! let pipeline = Pipeline::on(grid.clone())
//!     .mobility(chain.clone())
//!     .event_spec("PRESENCE(S={1:5}, T={2:4})")
//!     .mechanism(PlanarLaplace::new(grid, 0.5)?)
//!     .target_epsilon(1.0)
//!     .build()?;
//!
//! // Protect a short trajectory with calibrated 0.5-Planar-Laplace.
//! let mut audit = pipeline.audit()?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let trajectory = chain.sample_trajectory(CellId(12), 6, &mut rng)?;
//! for &loc in &trajectory {
//!     let release = audit.release(loc, &mut rng)?;
//!     assert!(release.final_budget <= 0.5);
//! }
//!
//! // The same pipeline also serves the streaming and enforcing modes.
//! let mut service = pipeline.serve()?;
//! service.add_user(UserId(1), Vector::uniform(25))?;
//! let mut guard = pipeline.enforce()?;
//! let release = guard.release(CellId(12), &mut rng)?;
//! assert!(release.loss <= 1.0);
//! # Ok::<(), PristeError>(())
//! ```
//!
//! Every fallible facade call returns [`PristeError`], which wraps every
//! per-crate error enum with full [`std::error::Error::source`] chains.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | `priste` (this crate) | the facade: [`Pipeline`]/[`PipelineBuilder`], [`PristeError`], the prelude, the CLI |
//! | [`linalg`] | dense matrices/vectors, CSR sparse matrices, HMM scaling |
//! | [`geo`] | grids, cells, regions, GPS geodesy |
//! | [`markov`] | mobility models: training, sampling, synthesis |
//! | [`event`] | event ASTs, `PRESENCE`/`PATTERN`, the event DSL |
//! | [`lppm`] | Planar Laplace, δ-location-set, the uniform baseline |
//! | [`quantify`] | two-possible-world engine (Lemmas III.1–III.3) |
//! | [`qp`] | Theorem IV.1 constraint checking (CPLEX substitute) |
//! | [`calibrate`] | budget planners + the calibration guard (ε-event-privacy enforcement) |
//! | [`core`] | the PriSTE framework (Algorithms 1–3) + experiment runner |
//! | [`online`] | streaming multi-user service: sessions, sharding, incremental checks, enforcing mode |
//! | [`obs`] | zero-dependency observability: metrics registry, spans, Prometheus/JSON export |
//! | [`serve`] | HTTP daemon over the streaming service: JSON protocol, live `/metrics`, graceful drain, closed- and open-loop load generator |
//! | [`cluster`] | multi-process sharded serving: router daemon, jump-consistent-hash shard map, shard handoff over the durable substrate |
//! | [`data`] | synthetic worlds, GeoLife parsing, commuter simulator |
//!
//! ## Migrating from the per-crate entry points
//!
//! The hand-wired constructors still work, but new code should go through
//! the pipeline:
//!
//! | Old API | New API |
//! |---|---|
//! | `Priste::new(&events, provider, source, grid, config)` | `Pipeline::on(grid).mobility(chain).events(events).mechanism(plm).target_epsilon(ε).audit()` |
//! | `SessionManager::new(Arc::new(Homogeneous::new(chain)), online_config)` + `register_template` | `…​.serve()` (templates pre-registered from the pipeline events) |
//! | `SessionManager::enable_enforcement(lppm, guard)` | `…​.serve_enforcing()` |
//! | `CalibratedMechanism::new(lppm, &events, provider, π, guard)` | `…​.enforce()` |
//! | `IncrementalTwoWorld::new(event, provider, π)` | `…​.quantifier()` |
//! | the removed `quantify::attack` adversary / `quantify::fixed_pi` quantifier, built from `(&event, provider, π)` | `IncrementalTwoWorld::new(event, provider, π)` / `…​.quantifier()` |
//! | their per-step outputs | `StreamStep` |
//! | `TheoremBuilder::new(&event, provider)` + `TheoremChecker::new(ε, solver)` | `…​.checker()` |
//! | `plan_greedy(lppm, &event, provider, T, ε, &cfg)` | `…​.plan_greedy(T)` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod pipeline;

pub use error::{PristeError, Result};
pub use pipeline::{Audit, AuditSource, Pipeline, PipelineBuilder, SharedProvider};

pub use priste_calibrate as calibrate;
pub use priste_cluster as cluster;
pub use priste_core as core;
pub use priste_data as data;
pub use priste_event as event;
pub use priste_geo as geo;
pub use priste_linalg as linalg;
pub use priste_lppm as lppm;
pub use priste_markov as markov;
pub use priste_obs as obs;
pub use priste_online as online;
pub use priste_qp as qp;
pub use priste_quantify as quantify;
pub use priste_serve as serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{Audit, AuditSource, Pipeline, PipelineBuilder, PristeError, SharedProvider};
    pub use priste_calibrate::{
        plan_greedy, plan_knapsack, plan_uniform_split, BudgetPlan, CalibratedMechanism,
        CalibratedRelease, Decision, GuardConfig, GuardLadder, MeanEpsilon, PlanarLaplaceError,
        PlannedStep, PlannerConfig, PlmQualityLoss, UtilityModel,
    };
    pub use priste_cluster::{
        jump_hash, ClusterError, PoolConfig, Router, RouterConfig, ShardMap, WorkerStatus,
    };
    pub use priste_core::{
        runner, DeltaLocSource, MechanismSource, PlmSource, Priste, PristeConfig, ReleaseRecord,
    };
    pub use priste_data::{geolife, geolife_sim, synthetic, World};
    pub use priste_event::{dsl::parse_event, EventExpr, Pattern, Predicate, Presence, StEvent};
    pub use priste_geo::{CellId, GeoBounds, GpsPoint, GridMap, Region};
    pub use priste_linalg::{Matrix, Vector};
    pub use priste_lppm::{DeltaLocationSet, Lppm, PlanarLaplace, UniformMechanism};
    pub use priste_markov::{
        gaussian_kernel_chain, stationary_distribution, train_mle, Homogeneous, MarkovModel,
        TimeVarying, TransitionProvider,
    };
    pub use priste_obs::{Counter, EventSink, Gauge, Histogram, Registry, Span, Timer};
    pub use priste_online::{
        DurableError, DurableOptions, EnforcedRelease, OnlineConfig, OnlineError, RecoveryInfo,
        ServiceStats, SessionManager, UserId, UserReport, Verdict, WindowReport,
    };
    pub use priste_qp::{SolverConfig, TheoremChecker, TheoremVerdict};
    pub use priste_quantify::{
        naive, IncrementalTwoWorld, StreamStep, TheoremBuilder, TwoWorldEngine,
    };
    pub use priste_serve::{
        DrainHandle, DrainSummary, LoadMode, LoadgenOptions, LoadgenReport, ServeError, Server,
        ServerConfig,
    };
}
