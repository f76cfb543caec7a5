//! The workspace's front door: one fluent builder, three derived modes.
//!
//! Historically each entry point was wired by hand: the offline auditor
//! ([`Priste`]) wanted an event slice, a provider, a [`MechanismSource`]
//! and a [`PristeConfig`]; the streaming service
//! ([`SessionManager`]) wanted a shared provider and an [`OnlineConfig`];
//! the enforcing guard ([`CalibratedMechanism`]) wanted a boxed mechanism,
//! a `π` and a [`GuardConfig`]. [`Pipeline`] collapses the three into one
//! description of the scenario — world, mobility, secrets, mechanism,
//! target ε — from which every mode is derived:
//!
//! ```
//! use priste::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let grid = GridMap::new(5, 5, 1.0)?;
//! let chain = gaussian_kernel_chain(&grid, 1.0)?;
//! let pipeline = Pipeline::on(grid.clone())
//!     .mobility(chain.clone())
//!     .event_spec("PRESENCE(S={1:5}, T={2:4})")
//!     .mechanism(PlanarLaplace::new(grid, 0.5)?)
//!     .target_epsilon(1.0)
//!     .build()?;
//!
//! let mut audit = pipeline.audit()?;      // offline quantifier (Algorithm 2)
//! let mut rng = StdRng::seed_from_u64(7);
//! let release = audit.release(CellId(12), &mut rng)?;
//! assert!(release.final_budget <= 0.5);
//!
//! let service = pipeline.serve()?;        // streaming multi-user service
//! assert_eq!(service.templates().len(), 1);
//!
//! let guard = pipeline.enforce()?;        // calibrated release guard
//! assert_eq!(guard.config().target_epsilon, 1.0);
//! # Ok::<(), priste::PristeError>(())
//! ```
//!
//! The pipeline shares one mobility model across every derived mode (an
//! [`Arc`]-backed [`SharedProvider`]), so a `Pipeline` — and everything it
//! derives — is `Send + Sync` and can be handed to worker threads.
//!
//! Past one process, the same scenario scales horizontally: per-user
//! accounting is independent across users, so N [`serve_http`]-style
//! daemons (each over its own durable directory) behind a
//! [`crate::cluster`] router — which jump-consistent-hashes user ids
//! onto workers — serve the same protocol with the same guarantees. See
//! the `cluster` crate docs for the topology and the shard-handoff
//! runbook.
//!
//! [`serve_http`]: Pipeline::serve_http

use crate::error::{PristeError, Result};
use priste_calibrate::{
    plan_greedy, plan_knapsack, plan_knapsack_with_probes, plan_uniform_split, BudgetPlan,
    CalibratedMechanism, GuardConfig, PlanarLaplaceError, PlannerConfig, UtilityModel,
};
use priste_core::{DeltaLocSource, MechanismSource, PlmSource, Priste, PristeConfig};
use priste_data::World;
use priste_event::{dsl::parse_event, StEvent};
use priste_geo::GridMap;
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{Homogeneous, MarkovModel, TimeVarying, TransitionProvider};
use priste_obs::Registry;
use priste_online::{DurableOptions, OnlineConfig, SessionManager};
use priste_qp::TheoremChecker;
use priste_quantify::{IncrementalTwoWorld, TheoremBuilder};
use priste_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The pipeline's canonical mobility handle: one model, shared by every
/// session, window and worker thread.
pub type SharedProvider = Arc<dyn TransitionProvider + Send + Sync>;

/// The mechanism source type audits run on (boxed so the α-PLM and
/// δ-location-set instantiations share one [`Audit`] type).
pub type AuditSource = Box<dyn MechanismSource + Send>;

/// The offline auditor derived by [`Pipeline::audit`].
pub type Audit = Priste<SharedProvider, AuditSource>;

/// How the pipeline obtains its mechanism: a concrete prototype, or an
/// α-Planar-Laplace built against the pipeline's own grid on demand.
enum MechanismSpec {
    /// Build `PlanarLaplace::new(grid, alpha)` when a mode needs it.
    Alpha(f64),
    /// A caller-supplied prototype; fresh instances are re-derived at the
    /// prototype's own budget via [`Lppm::with_budget`].
    Custom(Box<dyn Lppm>),
}

impl MechanismSpec {
    fn instantiate(&self, grid: &GridMap) -> Result<Box<dyn Lppm>> {
        match self {
            MechanismSpec::Alpha(alpha) => Ok(Box::new(PlanarLaplace::new(grid.clone(), *alpha)?)),
            MechanismSpec::Custom(proto) => Ok(proto.with_budget(proto.budget())?),
        }
    }

    fn base_budget(&self) -> f64 {
        match self {
            MechanismSpec::Alpha(alpha) => *alpha,
            MechanismSpec::Custom(proto) => proto.budget(),
        }
    }
}

impl std::fmt::Debug for MechanismSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismSpec::Alpha(alpha) => write!(f, "Alpha({alpha})"),
            MechanismSpec::Custom(proto) => f
                .debug_struct("Custom")
                .field("budget", &proto.budget())
                .field("num_cells", &proto.num_cells())
                .finish(),
        }
    }
}

/// Fluent configuration for a [`Pipeline`]. Start from [`Pipeline::on`],
/// chain setters, finish with [`PipelineBuilder::build`] — or jump straight
/// to a mode ([`PipelineBuilder::audit`], [`PipelineBuilder::serve`],
/// [`PipelineBuilder::enforce`]), which builds implicitly.
///
/// Setters never fail; fallible inputs (an unparsable event spec) are
/// recorded and surfaced by `build()`, keeping chains uninterrupted.
pub struct PipelineBuilder {
    grid: GridMap,
    chain: Option<MarkovModel>,
    schedule: Option<Vec<MarkovModel>>,
    sparse: bool,
    provider: Option<SharedProvider>,
    events: Vec<StEvent>,
    mechanism: Option<MechanismSpec>,
    delta: Option<f64>,
    epsilon: f64,
    pi: Option<Vector>,
    audit_config: Option<PristeConfig>,
    service_config: Option<OnlineConfig>,
    guard_config: Option<GuardConfig>,
    planner_config: Option<PlannerConfig>,
    durable_dir: Option<PathBuf>,
    durable_options: DurableOptions,
    registry: Option<Registry>,
    deferred: Option<PristeError>,
}

impl PipelineBuilder {
    /// The mobility model: a time-homogeneous chain (the paper's primary
    /// setting). Also retained as the concrete [`MarkovModel`] that
    /// δ-location-set audits need.
    pub fn mobility(mut self, chain: MarkovModel) -> Self {
        self.chain = Some(chain);
        self
    }

    /// A time-varying mobility schedule (footnote 3): step `t → t+1` uses
    /// `schedule[min(t−1, len−1)]`.
    pub fn mobility_schedule(mut self, schedule: Vec<MarkovModel>) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Converts the mobility model(s) to their density-optimal backend at
    /// build time ([`MarkovModel::with_auto_backend`]): chains whose
    /// transition matrix is at or below the
    /// [`SPARSE_DENSITY_CUTOVER`](priste_markov::SPARSE_DENSITY_CUTOVER)
    /// density run on the CSR backend, so every derived mode — audit,
    /// serve, enforce, the cluster — pays `O(nnz)` per observation instead
    /// of `O(m²)`. Dense-enough chains are left dense; chains built sparse
    /// (e.g. by [`priste_markov::gaussian_kernel_chain_sparse`]) are
    /// already sparse-backed and need no knob. Applies to
    /// [`Self::mobility`] and every model of [`Self::mobility_schedule`];
    /// pre-built [`Self::mobility_provider`]s are used as supplied.
    pub fn sparse_mobility(mut self) -> Self {
        self.sparse = true;
        self
    }

    /// An arbitrary pre-built transition provider (most general; loses the
    /// concrete chain, so δ-location-set audits need [`Self::mobility`]).
    pub fn mobility_provider<P>(mut self, provider: P) -> Self
    where
        P: TransitionProvider + Send + Sync + 'static,
    {
        self.provider = Some(Arc::new(provider));
        self
    }

    /// Adds one protected event.
    pub fn event(mut self, event: StEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Adds protected events in bulk.
    pub fn events<I: IntoIterator<Item = StEvent>>(mut self, events: I) -> Self {
        self.events.extend(events);
        self
    }

    /// Adds one protected event in the paper's notation, parsed against the
    /// pipeline's grid — e.g. `"PRESENCE(S={1:10}, T={4:8})"`. Parse
    /// failures surface from [`PipelineBuilder::build`].
    pub fn event_spec(mut self, spec: &str) -> Self {
        match parse_event(spec, self.grid.num_cells()) {
            Ok(event) => self.events.push(event),
            Err(e) if self.deferred.is_none() => self.deferred = Some(e.into()),
            Err(_) => {}
        }
        self
    }

    /// The location-privacy mechanism every mode converts or audits.
    pub fn mechanism<L: Lppm + 'static>(mut self, lppm: L) -> Self {
        self.mechanism = Some(MechanismSpec::Custom(Box::new(lppm)));
        self
    }

    /// Shorthand for an α-Planar-Laplace mechanism over the pipeline's own
    /// grid (built on demand, so no construction error here).
    pub fn planar_laplace(mut self, alpha: f64) -> Self {
        self.mechanism = Some(MechanismSpec::Alpha(alpha));
        self
    }

    /// Switches [`Pipeline::audit`] to the δ-location-set instantiation
    /// (Algorithm 3): mechanisms rebuilt per step from the adversarial
    /// posterior at the given δ.
    pub fn delta_location(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// The ε of ε-spatiotemporal event privacy every mode targets: the
    /// audit's certification level, the service's verdict threshold, and
    /// the guard's `target_epsilon`.
    pub fn target_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The adversary's initial distribution `π` (uniform when omitted).
    pub fn initial(mut self, pi: Vector) -> Self {
        self.pi = Some(pi);
        self
    }

    /// Advanced audit knobs (QP work budget, decay, attempt caps). The
    /// pipeline's [`Self::target_epsilon`] overrides the config's own ε.
    pub fn audit_config(mut self, config: PristeConfig) -> Self {
        self.audit_config = Some(config);
        self
    }

    /// Advanced service knobs (shards, linger, ledger budget). The
    /// pipeline's [`Self::target_epsilon`] overrides the config's own ε.
    pub fn service_config(mut self, config: OnlineConfig) -> Self {
        self.service_config = Some(config);
        self
    }

    /// Advanced guard knobs (backoff, floor, exhaustion policy). The
    /// pipeline's [`Self::target_epsilon`] overrides the config's own
    /// target.
    pub fn guard(mut self, config: GuardConfig) -> Self {
        self.guard_config = Some(config);
        self
    }

    /// Advanced planner knobs for [`Pipeline::plan_greedy`] /
    /// [`Pipeline::plan_uniform_split`].
    pub fn planner(mut self, config: PlannerConfig) -> Self {
        self.planner_config = Some(config);
        self
    }

    /// Makes every service derived by [`Pipeline::serve`] /
    /// [`Pipeline::serve_enforcing`] **durable**: session state is
    /// journaled to `dir` (snapshot + per-shard WAL) and a service opened
    /// over a directory that already holds state recovers it instead of
    /// starting from zero spend. See the `priste_online::durable` module
    /// docs for the file layout and recovery guarantees.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Advanced durability knobs (fsync policy, snapshot compaction
    /// cadence) for [`PipelineBuilder::durable`].
    pub fn durable_options(mut self, opts: DurableOptions) -> Self {
        self.durable_options = opts;
        self
    }

    /// Attaches a metrics [`Registry`] (from `priste_obs`): every derived
    /// mode exports its counters/histograms into it — the service's
    /// `online_*` stats and batch latencies, the guard's `guard_*` release
    /// accounting, the durable substrate's `durable_*` WAL/snapshot
    /// timings, and `calibrate_plan_*` planner metrics. Registries are
    /// cheap `Arc`-backed handles; the same one can be shared with other
    /// pipelines or rendered at any time (`render_prometheus` /
    /// `render_json`).
    pub fn observe(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Validates the accumulated configuration into an immutable,
    /// shareable [`Pipeline`].
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] when no mobility model was supplied or ε
    /// is not positive and finite; deferred setter errors (event-spec
    /// parses); validation errors from the per-mode configs.
    pub fn build(self) -> Result<Pipeline> {
        if let Some(deferred) = self.deferred {
            return Err(deferred);
        }
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(PristeError::pipeline(format!(
                "target_epsilon must be positive and finite, got {}",
                self.epsilon
            )));
        }
        let chain = if self.sparse {
            self.chain.map(MarkovModel::with_auto_backend)
        } else {
            self.chain
        };
        let schedule = if self.sparse {
            self.schedule
                .map(|s| s.into_iter().map(MarkovModel::with_auto_backend).collect())
        } else {
            self.schedule
        };
        let provider: SharedProvider = if let Some(provider) = self.provider {
            provider
        } else if let Some(schedule) = schedule {
            Arc::new(TimeVarying::new(schedule)?)
        } else if let Some(chain) = chain.clone() {
            Arc::new(Homogeneous::new(chain))
        } else {
            return Err(PristeError::pipeline(
                "a mobility model is required: call .mobility(chain), \
                 .mobility_schedule(models) or .mobility_provider(p)",
            ));
        };
        let m = self.grid.num_cells();
        if provider.num_states() != m {
            return Err(PristeError::pipeline(format!(
                "mobility model has {} states but the grid has {m} cells",
                provider.num_states()
            )));
        }
        for event in &self.events {
            if event.num_cells() != m {
                return Err(PristeError::pipeline(format!(
                    "event {event} is defined over {} cells but the grid has {m}",
                    event.num_cells()
                )));
            }
        }
        let pi = match self.pi {
            Some(pi) => {
                pi.validate_distribution()?;
                if pi.len() != m {
                    return Err(PristeError::pipeline(format!(
                        "initial distribution has length {} but the grid has {m} cells",
                        pi.len()
                    )));
                }
                pi
            }
            None => Vector::uniform(m),
        };

        let mut audit_config = self.audit_config.unwrap_or_default();
        audit_config.epsilon = self.epsilon;
        audit_config.validate()?;
        let mut service_config = self.service_config.unwrap_or_default();
        service_config.epsilon = self.epsilon;
        service_config.validate()?;
        let mut guard_config = self.guard_config.unwrap_or_default();
        guard_config.target_epsilon = self.epsilon;
        guard_config.validate()?;
        let planner_config = self.planner_config.unwrap_or_default();
        planner_config.validate()?;
        if let Some(delta) = self.delta {
            if !(delta > 0.0 && delta < 1.0) {
                return Err(PristeError::pipeline(format!(
                    "delta must lie in (0, 1), got {delta}"
                )));
            }
        }

        Ok(Pipeline {
            grid: self.grid,
            chain,
            provider,
            events: self.events,
            mechanism: self.mechanism,
            delta: self.delta,
            epsilon: self.epsilon,
            pi,
            audit_config,
            service_config,
            guard_config,
            planner_config,
            durable_dir: self.durable_dir,
            durable_options: self.durable_options,
            registry: self.registry,
        })
    }

    /// Builds and derives the offline auditor in one call.
    ///
    /// # Errors
    /// See [`PipelineBuilder::build`] and [`Pipeline::audit`].
    pub fn audit(self) -> Result<Audit> {
        self.build()?.audit()
    }

    /// Builds and derives the streaming service in one call.
    ///
    /// # Errors
    /// See [`PipelineBuilder::build`] and [`Pipeline::serve`].
    pub fn serve(self) -> Result<SessionManager<SharedProvider>> {
        self.build()?.serve()
    }

    /// Builds and derives the enforcing streaming service in one call.
    ///
    /// # Errors
    /// See [`PipelineBuilder::build`] and [`Pipeline::serve_enforcing`].
    pub fn serve_enforcing(self) -> Result<SessionManager<SharedProvider>> {
        self.build()?.serve_enforcing()
    }

    /// Builds and derives the calibrated guard in one call.
    ///
    /// # Errors
    /// See [`PipelineBuilder::build`] and [`Pipeline::enforce`].
    pub fn enforce(self) -> Result<CalibratedMechanism<SharedProvider>> {
        self.build()?.enforce()
    }
}

/// A validated scenario description — world, mobility, protected events,
/// mechanism, target ε — from which every operating mode of the workspace
/// is derived. Cheap to share (`Send + Sync`; the mobility model is behind
/// an [`Arc`]) and reusable: each derivation call yields a fresh,
/// independent stack.
pub struct Pipeline {
    grid: GridMap,
    chain: Option<MarkovModel>,
    provider: SharedProvider,
    events: Vec<StEvent>,
    mechanism: Option<MechanismSpec>,
    delta: Option<f64>,
    epsilon: f64,
    pi: Vector,
    audit_config: PristeConfig,
    service_config: OnlineConfig,
    guard_config: GuardConfig,
    planner_config: PlannerConfig,
    durable_dir: Option<PathBuf>,
    durable_options: DurableOptions,
    registry: Option<Registry>,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("num_cells", &self.grid.num_cells())
            .field("events", &self.events.len())
            .field("mechanism", &self.mechanism)
            .field("target_epsilon", &self.epsilon)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("num_cells", &self.grid.num_cells())
            .field("events", &self.events.len())
            .field("mechanism", &self.mechanism)
            .field("delta", &self.delta)
            .field("target_epsilon", &self.epsilon)
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Opens a pipeline over a spatial world (the grid the mechanism and
    /// the mobility model share).
    pub fn on(grid: GridMap) -> PipelineBuilder {
        PipelineBuilder {
            grid,
            chain: None,
            schedule: None,
            sparse: false,
            provider: None,
            events: Vec::new(),
            mechanism: None,
            delta: None,
            epsilon: 1.0,
            pi: None,
            audit_config: None,
            service_config: None,
            guard_config: None,
            planner_config: None,
            durable_dir: None,
            durable_options: DurableOptions::default(),
            registry: None,
            deferred: None,
        }
    }

    /// Opens a pipeline over a [`World`] (grid + trained chain), e.g. from
    /// the GeoLife parser or the commuter simulator.
    pub fn on_world(world: &World) -> PipelineBuilder {
        Pipeline::on(world.grid.clone()).mobility(world.chain.clone())
    }

    // ---- Accessors -------------------------------------------------------

    /// The spatial grid.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// State-domain size `m`.
    pub fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    /// The concrete mobility chain, when one was supplied via
    /// [`PipelineBuilder::mobility`].
    pub fn chain(&self) -> Option<&MarkovModel> {
        self.chain.as_ref()
    }

    /// The shared transition provider every derived mode runs on.
    pub fn provider(&self) -> SharedProvider {
        Arc::clone(&self.provider)
    }

    /// The protected events.
    pub fn events(&self) -> &[StEvent] {
        &self.events
    }

    /// The target ε of ε-spatiotemporal event privacy.
    pub fn target_epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The adversary's initial distribution `π`.
    pub fn initial(&self) -> &Vector {
        &self.pi
    }

    /// The attached metrics registry, when one was supplied via
    /// [`PipelineBuilder::observe`]. Render it at any time with
    /// [`Registry::render_prometheus`] or [`Registry::render_json`].
    pub fn metrics_registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// A fresh instance of the pipeline's mechanism (e.g. to drive a
    /// client-side feed whose releases the service merely audits).
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] when no mechanism was configured;
    /// mechanism construction failures.
    pub fn mechanism_instance(&self) -> Result<Box<dyn Lppm>> {
        self.mechanism
            .as_ref()
            .ok_or_else(|| {
                PristeError::pipeline(
                    "a mechanism is required: call .mechanism(lppm) or .planar_laplace(alpha)",
                )
            })?
            .instantiate(&self.grid)
    }

    // ---- The three modes -------------------------------------------------

    /// Derives the **offline auditor**: the PriSTE framework of Algorithms
    /// 1–3, releasing one trajectory under the target ε. Uses the
    /// δ-location-set instantiation when [`PipelineBuilder::delta_location`]
    /// was set, the α-PLM instantiation otherwise.
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] when events or the mechanism are missing,
    /// or when a δ-location audit lacks a concrete chain or was given a
    /// sparse-backed one; layer errors.
    pub fn audit(&self) -> Result<Audit> {
        let mechanism = self.require_mechanism()?;
        let source: AuditSource = if let Some(delta) = self.delta {
            let chain = self.chain.clone().ok_or_else(|| {
                PristeError::pipeline(
                    "a delta-location audit needs a concrete chain: call .mobility(chain)",
                )
            })?;
            if chain.is_sparse() {
                return Err(PristeError::pipeline(
                    "delta-location audits rebuild mechanisms from the dense transition \
                     matrix; supply a dense chain or drop .sparse_mobility()",
                ));
            }
            Box::new(DeltaLocSource::new(
                self.grid.clone(),
                delta,
                mechanism.base_budget(),
                chain,
                self.pi.clone(),
            )?)
        } else {
            Box::new(PlmSource::from_mechanism(
                mechanism.instantiate(&self.grid)?,
            ))
        };
        Ok(Priste::new(
            &self.events,
            self.provider(),
            source,
            self.grid.clone(),
            self.audit_config.clone(),
        )?)
    }

    /// Derives the **streaming service**: a [`SessionManager`] sharing the
    /// pipeline's mobility model, with every pipeline event pre-registered
    /// as an attachable template (in [`Pipeline::events`] order).
    ///
    /// With [`PipelineBuilder::durable`] configured, the service opens over
    /// the durable directory: existing state (spent budget included) is
    /// recovered, a fresh directory starts empty, and every committed
    /// mutation is journaled from then on. The pipeline's mechanism, when
    /// configured, is the service's mechanism: it rebuilds the columns the
    /// journal holds by reference.
    ///
    /// # Errors
    /// Service-configuration and template-registration failures; durable
    /// recovery or I/O failures when a durable directory is configured.
    pub fn serve(&self) -> Result<SessionManager<SharedProvider>> {
        let mut service = if let Some(dir) = &self.durable_dir {
            SessionManager::open_durable(
                self.provider(),
                self.service_config.clone(),
                self.events.clone(),
                dir,
                self.durable_options,
                self.mechanism_instance().ok(),
            )?
        } else {
            let mut service = SessionManager::new(self.provider(), self.service_config.clone())?;
            for event in &self.events {
                service.register_template(event.clone())?;
            }
            service
        };
        if let Some(registry) = &self.registry {
            service.observe(registry);
        }
        Ok(service)
    }

    /// Read-only recovery of the durable service state: rebuilds a
    /// [`SessionManager`] from the snapshot + WAL in the pipeline's durable
    /// directory *without* attaching a store, so inspecting state (e.g. the
    /// `priste recover` subcommand) neither journals nor checkpoints.
    /// Recovering twice from the same directory yields byte-identical
    /// state ([`SessionManager::state_digest`]). Replay rebuilds
    /// by-reference columns from the pipeline's mechanism.
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] when no durable directory was configured;
    /// [`PristeError::Online`] wrapping the durable failure otherwise
    /// (missing snapshot, fingerprint mismatch, corruption).
    pub fn recover_service(&self) -> Result<SessionManager<SharedProvider>> {
        let dir = self.durable_dir.as_ref().ok_or_else(|| {
            PristeError::pipeline(
                "recovery needs a durable directory: call .durable(dir) on the builder",
            )
        })?;
        let mut service = SessionManager::recover(
            self.provider(),
            self.service_config.clone(),
            self.events.clone(),
            dir,
            self.mechanism_instance().ok(),
        )?;
        if let Some(registry) = &self.registry {
            service.observe(registry);
        }
        Ok(service)
    }

    /// Derives the **enforcing streaming service**: [`Pipeline::serve`]
    /// plus the pipeline's mechanism installed behind the calibration
    /// guard, so every [`SessionManager::release`] certifies (or
    /// suppresses) before anything ships.
    ///
    /// # Errors
    /// See [`Pipeline::serve`]; mechanism/guard validation failures.
    pub fn serve_enforcing(&self) -> Result<SessionManager<SharedProvider>> {
        let mut service = self.serve()?;
        service.enable_enforcement(self.mechanism_instance()?, self.guard_config.clone())?;
        Ok(service)
    }

    /// Derives the audit-mode streaming service and mounts it as an HTTP
    /// daemon on `addr` (port `0` picks an ephemeral port — read it back
    /// from [`Server::local_addr`]).
    ///
    /// The daemon serves the JSON protocol (`/v1/ingest`, `/v1/release`,
    /// `/v1/users/:id/spend`, `/v1/config`) plus the observability plane
    /// (`/metrics`, `/healthz`, `/readyz`) on the pipeline's metrics
    /// registry — or a fresh one when [`PipelineBuilder::observe`] was
    /// never called, so `/metrics` always works. The pipeline's mechanism
    /// (when configured) turns `"observed"` cells into emission columns
    /// server-side.
    ///
    /// # Errors
    /// See [`Pipeline::serve`]; [`PristeError::Serve`] when the bind
    /// fails.
    pub fn serve_http(&self, addr: &str, config: ServerConfig) -> Result<Server<SharedProvider>> {
        let service = self.serve()?;
        self.start_server(service, addr, config)
    }

    /// [`Pipeline::serve_http`] with the enforcing service behind it, so
    /// `POST /v1/release` performs guarded, certified releases.
    ///
    /// # Errors
    /// See [`Pipeline::serve_enforcing`]; [`PristeError::Serve`] when the
    /// bind fails.
    pub fn serve_http_enforcing(
        &self,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server<SharedProvider>> {
        let service = self.serve_enforcing()?;
        self.start_server(service, addr, config)
    }

    fn start_server(
        &self,
        mut service: SessionManager<SharedProvider>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server<SharedProvider>> {
        let registry = match &self.registry {
            Some(registry) => registry.clone(),
            None => {
                // No observe() on the builder: give the daemon its own
                // registry anyway, so the /metrics plane is never empty.
                let registry = Registry::new();
                service.observe(&registry);
                registry
            }
        };
        let column_source = self.mechanism_instance().ok();
        Ok(Server::start(
            service,
            column_source,
            registry,
            config,
            addr,
        )?)
    }

    /// Derives the **calibrated guard**: the pipeline's mechanism wrapped
    /// so its release stream provably satisfies the target ε for every
    /// pipeline event under `π`.
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] when events or the mechanism are missing;
    /// guard-construction failures.
    pub fn enforce(&self) -> Result<CalibratedMechanism<SharedProvider>> {
        self.require_events()?;
        let mut mech = CalibratedMechanism::new(
            self.mechanism_instance()?,
            &self.events,
            self.provider(),
            self.pi.clone(),
            self.guard_config.clone(),
        )?;
        if let Some(registry) = &self.registry {
            mech.observe_into(registry);
        }
        Ok(mech)
    }

    // ---- Supporting derivations -----------------------------------------

    /// A streaming quantifier for the first pipeline event under `π` — the
    /// diagnostic that shows what an *uncalibrated* release stream leaks.
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] with no events; quantifier construction
    /// failures (degenerate priors).
    pub fn quantifier(&self) -> Result<IncrementalTwoWorld<SharedProvider>> {
        let event = self.first_event()?;
        Ok(IncrementalTwoWorld::new(
            event.clone(),
            self.provider(),
            self.pi.clone(),
        )?)
    }

    /// One streaming quantifier per pipeline event, in order.
    ///
    /// # Errors
    /// See [`Pipeline::quantifier`].
    pub fn quantifiers(&self) -> Result<Vec<IncrementalTwoWorld<SharedProvider>>> {
        self.require_events()?;
        self.events
            .iter()
            .map(|ev| {
                IncrementalTwoWorld::new(ev.clone(), self.provider(), self.pi.clone())
                    .map_err(Into::into)
            })
            .collect()
    }

    /// A Theorem IV.1 checking pair for the first pipeline event: the
    /// incremental coefficient builder plus the any-π QP checker at the
    /// target ε.
    ///
    /// # Errors
    /// See [`Pipeline::quantifier`].
    pub fn checker(&self) -> Result<(TheoremBuilder<SharedProvider>, TheoremChecker)> {
        let event = self.first_event()?;
        let builder = TheoremBuilder::new(event, self.provider())?;
        let checker = TheoremChecker::new(self.epsilon, self.audit_config.solver_config());
        Ok((builder, checker))
    }

    /// The greedy-forward offline budget plan for the first pipeline event
    /// over `horizon` steps at the target ε.
    ///
    /// # Errors
    /// [`PristeError::Pipeline`] when events or the mechanism are missing;
    /// planner failures.
    pub fn plan_greedy(&self, horizon: usize) -> Result<BudgetPlan> {
        let event = self.first_event()?;
        let t0 = Instant::now();
        let plan = plan_greedy(
            self.mechanism_instance()?,
            event,
            self.provider(),
            horizon,
            self.epsilon,
            &self.planner_config,
        )?;
        self.record_plan("greedy", t0, &plan);
        Ok(plan)
    }

    /// The uniform ε*/T baseline plan for the first pipeline event.
    ///
    /// # Errors
    /// See [`Pipeline::plan_greedy`].
    pub fn plan_uniform_split(&self, horizon: usize) -> Result<BudgetPlan> {
        let event = self.first_event()?;
        let t0 = Instant::now();
        let plan = plan_uniform_split(
            self.mechanism_instance()?,
            event,
            self.provider(),
            horizon,
            self.epsilon,
            &self.planner_config,
        )?;
        self.record_plan("uniform", t0, &plan);
        Ok(plan)
    }

    /// The utility-aware knapsack plan for the first pipeline event under
    /// the default [`PlanarLaplaceError`] objective (negated expected
    /// planar-Laplace error, the natural accuracy measure for a PLM
    /// deployment). Use [`Pipeline::plan_knapsack_with`] to plug any other
    /// [`UtilityModel`].
    ///
    /// # Errors
    /// See [`Pipeline::plan_greedy`].
    pub fn plan_knapsack(&self, horizon: usize) -> Result<BudgetPlan> {
        self.plan_knapsack_with(horizon, &PlanarLaplaceError)
    }

    /// [`Pipeline::plan_knapsack`] under a caller-chosen utility model.
    ///
    /// # Errors
    /// See [`Pipeline::plan_greedy`].
    pub fn plan_knapsack_with(
        &self,
        horizon: usize,
        model: &dyn UtilityModel,
    ) -> Result<BudgetPlan> {
        let event = self.first_event()?;
        let t0 = Instant::now();
        let plan = plan_knapsack(
            self.mechanism_instance()?,
            event,
            self.provider(),
            horizon,
            self.epsilon,
            &self.planner_config,
            model,
        )?;
        self.record_plan("knapsack", t0, &plan);
        Ok(plan)
    }

    /// All three plans over one horizon — `(uniform, greedy, knapsack)` —
    /// with the probe work shared: the knapsack allocation reuses the
    /// uniform and greedy plans as its phase-1 probes instead of
    /// recomputing them, so a three-way comparison costs three oracle
    /// walks, not five.
    ///
    /// # Errors
    /// See [`Pipeline::plan_greedy`].
    pub fn plan_all(
        &self,
        horizon: usize,
        model: &dyn UtilityModel,
    ) -> Result<(BudgetPlan, BudgetPlan, BudgetPlan)> {
        let uniform = self.plan_uniform_split(horizon)?;
        let greedy = self.plan_greedy(horizon)?;
        let t0 = Instant::now();
        let knapsack = plan_knapsack_with_probes(
            self.mechanism_instance()?,
            self.first_event()?,
            self.provider(),
            horizon,
            self.epsilon,
            &self.planner_config,
            model,
            &greedy,
            &uniform,
        )?;
        self.record_plan("knapsack", t0, &knapsack);
        Ok((uniform, greedy, knapsack))
    }

    // ---- Internals -------------------------------------------------------

    /// Publishes one planner run into the attached registry: wall time
    /// into `calibrate_plan_seconds{planner=…}` and the total ladder rungs
    /// the oracle walked into
    /// `calibrate_plan_oracle_walks_total{planner=…}`.
    fn record_plan(&self, planner: &str, started: Instant, plan: &BudgetPlan) {
        let Some(registry) = &self.registry else {
            return;
        };
        registry
            .histogram(&format!("calibrate_plan_seconds{{planner=\"{planner}\"}}"))
            .observe(started.elapsed().as_secs_f64());
        let rungs: u64 = plan.steps.iter().map(|s| s.rungs as u64).sum();
        registry
            .counter(&format!(
                "calibrate_plan_oracle_walks_total{{planner=\"{planner}\"}}"
            ))
            .add(rungs);
    }

    fn require_events(&self) -> Result<()> {
        if self.events.is_empty() {
            return Err(PristeError::pipeline(
                "at least one protected event is required: call .event(..) or .event_spec(..)",
            ));
        }
        Ok(())
    }

    fn first_event(&self) -> Result<&StEvent> {
        self.events.first().ok_or_else(|| {
            PristeError::pipeline(
                "at least one protected event is required: call .event(..) or .event_spec(..)",
            )
        })
    }

    fn require_mechanism(&self) -> Result<&MechanismSpec> {
        self.require_events()?;
        self.mechanism.as_ref().ok_or_else(|| {
            PristeError::pipeline(
                "a mechanism is required: call .mechanism(lppm) or .planar_laplace(alpha)",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_geo::CellId;
    use priste_markov::gaussian_kernel_chain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> (GridMap, MarkovModel) {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
        (grid, chain)
    }

    fn built(epsilon: f64) -> Pipeline {
        let (grid, chain) = small();
        Pipeline::on(grid)
            .mobility(chain)
            .event_spec("PRESENCE(S={1:3}, T={2:3})")
            .planar_laplace(0.8)
            .target_epsilon(epsilon)
            .build()
            .unwrap()
    }

    #[test]
    fn all_three_modes_derive_from_one_pipeline() {
        let pipeline = built(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut audit = pipeline.audit().unwrap();
        let rec = audit.release(CellId(4), &mut rng).unwrap();
        assert_eq!(rec.t, 1);

        let service = pipeline.serve().unwrap();
        assert_eq!(service.templates().len(), 1);
        assert!(!service.enforcing());
        let enforcing = pipeline.serve_enforcing().unwrap();
        assert!(enforcing.enforcing());

        let mut guard = pipeline.enforce().unwrap();
        let rel = guard.release(CellId(4), &mut rng).unwrap();
        assert!(rel.loss <= 1.0 + 1e-9);
    }

    #[test]
    fn epsilon_propagates_to_every_mode_config() {
        let pipeline = built(0.7);
        assert_eq!(pipeline.target_epsilon(), 0.7);
        assert_eq!(pipeline.serve().unwrap().config().epsilon, 0.7);
        assert_eq!(pipeline.enforce().unwrap().config().target_epsilon, 0.7);
    }

    #[test]
    fn missing_mobility_is_a_pipeline_error() {
        let (grid, _) = small();
        let err = Pipeline::on(grid).build().unwrap_err();
        assert!(matches!(err, PristeError::Pipeline { .. }), "{err}");
        assert!(err.to_string().contains("mobility"));
    }

    #[test]
    fn missing_mechanism_and_events_are_reported_lazily() {
        let (grid, chain) = small();
        let pipeline = Pipeline::on(grid).mobility(chain).build().unwrap();
        let err = pipeline.audit().unwrap_err();
        assert!(err.to_string().contains("event"), "{err}");
        let err = match pipeline.mechanism_instance() {
            Ok(_) => panic!("no mechanism configured, so this must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("mechanism"), "{err}");
    }

    #[test]
    fn bad_event_spec_surfaces_at_build() {
        let (grid, chain) = small();
        let err = Pipeline::on(grid)
            .mobility(chain)
            .event_spec("NOPE()")
            .build()
            .unwrap_err();
        assert!(matches!(err, PristeError::Event(_)), "{err}");
    }

    #[test]
    fn domain_mismatches_are_rejected_at_build() {
        let (grid, _) = small();
        let other = GridMap::new(2, 2, 1.0).unwrap();
        let chain4 = gaussian_kernel_chain(&other, 1.0).unwrap();
        let err = Pipeline::on(grid).mobility(chain4).build().unwrap_err();
        assert!(err.to_string().contains("states"), "{err}");
    }

    #[test]
    fn sparse_mobility_converts_banded_chains_and_serves() {
        // σ = 0.5 km on a 20×20 grid of 1 km cells: ≤ 45 kept cells a row
        // on 400 cells sit below the cutover density, so CSR is kept.
        let grid = GridMap::new(20, 20, 1.0).unwrap();
        let chain = priste_markov::gaussian_kernel_chain_sparse(&grid, 0.5).unwrap();
        let pipeline = Pipeline::on(grid)
            .mobility(chain)
            .sparse_mobility()
            .event_spec("PRESENCE(S={1:3}, T={2:3})")
            .planar_laplace(0.8)
            .build()
            .unwrap();
        assert!(pipeline.chain().unwrap().is_sparse());
        let service = pipeline.serve().unwrap();
        let user = priste_online::UserId(1);
        service
            .add_user(user, Vector::uniform(pipeline.num_cells()))
            .unwrap();
        service.attach_event(user, 0).unwrap();
        let mechanism = pipeline.mechanism_instance().unwrap();
        let report = service
            .ingest(user, mechanism.emission_column(CellId(7)))
            .unwrap();
        assert_eq!(report.user, user);
    }

    #[test]
    fn sparse_mobility_leaves_dense_chains_dense() {
        // σ = 1000 approaches uniform: density 1.0, far above the cutover,
        // so auto-backend keeps the dense representation.
        let (grid, _) = small();
        let chain = gaussian_kernel_chain(&grid, 1000.0).unwrap();
        let pipeline = Pipeline::on(grid)
            .mobility(chain)
            .sparse_mobility()
            .build()
            .unwrap();
        assert!(!pipeline.chain().unwrap().is_sparse());
    }

    #[test]
    fn delta_location_audit_rejects_sparse_chains() {
        let grid = GridMap::new(20, 20, 1.0).unwrap();
        let chain = priste_markov::gaussian_kernel_chain_sparse(&grid, 0.5).unwrap();
        let err = Pipeline::on(grid)
            .mobility(chain)
            .event_spec("PRESENCE(S={1:3}, T={2:3})")
            .planar_laplace(1.0)
            .delta_location(0.2)
            .build()
            .unwrap()
            .audit()
            .unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn delta_location_audit_requires_a_concrete_chain() {
        let (grid, chain) = small();
        let pipeline = Pipeline::on(grid)
            .mobility_provider(Homogeneous::new(chain))
            .event_spec("PRESENCE(S={1:3}, T={2:3})")
            .planar_laplace(1.0)
            .delta_location(0.2)
            .build()
            .unwrap();
        let err = pipeline.audit().unwrap_err();
        assert!(err.to_string().contains("chain"), "{err}");
    }

    #[test]
    fn durable_pipeline_recovers_spent_budget() {
        let dir = std::env::temp_dir().join(format!(
            "priste-pipeline-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (grid, chain) = small();
        let build = || {
            Pipeline::on(grid.clone())
                .mobility(chain.clone())
                .event_spec("PRESENCE(S={1:3}, T={2:3})")
                .planar_laplace(0.8)
                .durable(&dir)
                .build()
                .unwrap()
        };
        let pipeline = build();
        let mut rng = StdRng::seed_from_u64(11);
        let svc = pipeline.serve_enforcing().unwrap();
        let user = priste_online::UserId(1);
        svc.add_user(user, Vector::uniform(9)).unwrap();
        svc.attach_event(user, 0).unwrap();
        for _ in 0..3 {
            svc.release(user, CellId(4), &mut rng).unwrap();
        }
        let spent = svc.session(user).unwrap().ledger().spent();
        assert!(spent > 0.0);
        let digest = svc.state_digest();
        drop(svc); // crash: no shutdown checkpoint, only the WAL survives

        // A fresh serve over the same directory recovers the spend...
        let reopened = build().serve_enforcing().unwrap();
        assert_eq!(reopened.session(user).unwrap().ledger().spent(), spent);
        assert_eq!(reopened.state_digest(), digest);
        // ...and a read-only recover sees the same bytes.
        let recovered = pipeline.recover_service().unwrap();
        assert_eq!(recovered.state_digest(), digest);
        assert!(recovered.durable_dir().is_none(), "recovery is read-only");

        let err = match built(1.0).recover_service() {
            Ok(_) => panic!("recover without .durable(dir) must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("durable"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn time_varying_schedule_builds() {
        let (grid, chain) = small();
        let pipeline = Pipeline::on(grid)
            .mobility_schedule(vec![chain.clone(), chain])
            .event_spec("PRESENCE(S={1:3}, T={2:3})")
            .planar_laplace(0.5)
            .build()
            .unwrap();
        assert!(pipeline.chain().is_none());
        pipeline.quantifier().unwrap();
    }
}
