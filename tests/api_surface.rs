//! API-surface guard: pins the facade's public contract so it cannot rot
//! silently.
//!
//! Three layers of pinning:
//! 1. every `prelude` symbol is imported *by name* (a removal or rename is
//!    a compile error here before it is a downstream breakage);
//! 2. the [`Pipeline`]/[`PipelineBuilder`] method set is pinned by taking
//!    each method as a typed function value;
//! 3. the concurrency contract — `SessionManager`, `Session`, `Pipeline`
//!    (and the error type) are `Send + Sync` — is asserted at compile
//!    time.

// Layer 1: every prelude symbol, by name. `self as _` would not catch a
// rename; this list does.
#[rustfmt::skip]
#[allow(unused_imports)]
use priste::prelude::{
    // facade
    Audit, AuditSource, Pipeline, PipelineBuilder, PristeError, SharedProvider,
    // calibrate
    plan_greedy, plan_knapsack, plan_uniform_split, BudgetPlan, CalibratedMechanism,
    CalibratedRelease, Decision, GuardConfig, GuardLadder, MeanEpsilon,
    PlanarLaplaceError, PlannedStep, PlannerConfig, PlmQualityLoss, UtilityModel,
    // core
    runner, DeltaLocSource, MechanismSource, PlmSource, Priste, PristeConfig, ReleaseRecord,
    // data
    geolife, geolife_sim, synthetic, World,
    // event
    parse_event, EventExpr, Pattern, Predicate, Presence, StEvent,
    // geo
    CellId, GeoBounds, GpsPoint, GridMap, Region,
    // linalg
    Matrix, Vector,
    // lppm
    DeltaLocationSet, Lppm, PlanarLaplace, UniformMechanism,
    // markov
    gaussian_kernel_chain, stationary_distribution, train_mle, Homogeneous, MarkovModel,
    TimeVarying, TransitionProvider,
    // online
    EnforcedRelease, OnlineConfig, OnlineError, ServiceStats, SessionManager, UserId,
    UserReport, Verdict, WindowReport,
    // qp
    SolverConfig, TheoremChecker, TheoremVerdict,
    // quantify
    naive, IncrementalTwoWorld, StreamStep, TheoremBuilder, TwoWorldEngine,
};
use priste::online::Session;
use priste::quantify::TheoremInputs;
use rand::RngCore;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

/// The hot service types must stay thread-safe: the parallel batched
/// ingest/release paths and any caller sharing a pipeline across workers
/// depend on it.
#[test]
fn service_and_pipeline_are_send_sync() {
    assert_send_sync::<SessionManager<SharedProvider>>();
    assert_send_sync::<Session<SharedProvider>>();
    assert_send_sync::<Pipeline>();
    assert_send_sync::<PipelineBuilder>();
    assert_send_sync::<PristeError>();
    assert_send_sync::<CalibratedMechanism<SharedProvider>>();
    assert_send_sync::<IncrementalTwoWorld<SharedProvider>>();
    assert_send_sync::<Box<dyn Lppm>>();
    assert_send::<Audit>();
}

/// Pins the `Pipeline`/`PipelineBuilder` method set. Removing or re-typing
/// any front-door method fails compilation here.
#[test]
#[allow(clippy::type_complexity)]
fn pipeline_method_set_is_pinned() {
    // Constructors.
    let _: fn(GridMap) -> PipelineBuilder = Pipeline::on;
    let _: fn(&World) -> PipelineBuilder = Pipeline::on_world;

    // Builder setters (fluent: each consumes and returns the builder).
    let _: fn(PipelineBuilder, MarkovModel) -> PipelineBuilder = PipelineBuilder::mobility;
    let _: fn(PipelineBuilder, Vec<MarkovModel>) -> PipelineBuilder =
        PipelineBuilder::mobility_schedule;
    let _: fn(PipelineBuilder, Homogeneous) -> PipelineBuilder =
        PipelineBuilder::mobility_provider::<Homogeneous>;
    let _: fn(PipelineBuilder, StEvent) -> PipelineBuilder = PipelineBuilder::event;
    let _: fn(PipelineBuilder, Vec<StEvent>) -> PipelineBuilder =
        PipelineBuilder::events::<Vec<StEvent>>;
    let _: fn(PipelineBuilder, &str) -> PipelineBuilder = PipelineBuilder::event_spec;
    let _: fn(PipelineBuilder, UniformMechanism) -> PipelineBuilder =
        PipelineBuilder::mechanism::<UniformMechanism>;
    let _: fn(PipelineBuilder, f64) -> PipelineBuilder = PipelineBuilder::planar_laplace;
    let _: fn(PipelineBuilder, f64) -> PipelineBuilder = PipelineBuilder::delta_location;
    let _: fn(PipelineBuilder, f64) -> PipelineBuilder = PipelineBuilder::target_epsilon;
    let _: fn(PipelineBuilder, Vector) -> PipelineBuilder = PipelineBuilder::initial;
    let _: fn(PipelineBuilder, PristeConfig) -> PipelineBuilder = PipelineBuilder::audit_config;
    let _: fn(PipelineBuilder, OnlineConfig) -> PipelineBuilder = PipelineBuilder::service_config;
    let _: fn(PipelineBuilder, GuardConfig) -> PipelineBuilder = PipelineBuilder::guard;
    let _: fn(PipelineBuilder, PlannerConfig) -> PipelineBuilder = PipelineBuilder::planner;
    let _: fn(PipelineBuilder) -> Result<Pipeline, PristeError> = PipelineBuilder::build;

    // Builder one-shot terminals.
    let _: fn(PipelineBuilder) -> Result<Audit, PristeError> = PipelineBuilder::audit;
    let _: fn(PipelineBuilder) -> Result<SessionManager<SharedProvider>, PristeError> =
        PipelineBuilder::serve;
    let _: fn(PipelineBuilder) -> Result<SessionManager<SharedProvider>, PristeError> =
        PipelineBuilder::serve_enforcing;
    let _: fn(PipelineBuilder) -> Result<CalibratedMechanism<SharedProvider>, PristeError> =
        PipelineBuilder::enforce;

    // Pipeline derivations (reusable: take &self).
    let _: fn(&Pipeline) -> Result<Audit, PristeError> = Pipeline::audit;
    let _: fn(&Pipeline) -> Result<SessionManager<SharedProvider>, PristeError> = Pipeline::serve;
    let _: fn(&Pipeline) -> Result<SessionManager<SharedProvider>, PristeError> =
        Pipeline::serve_enforcing;
    let _: fn(&Pipeline) -> Result<CalibratedMechanism<SharedProvider>, PristeError> =
        Pipeline::enforce;
    let _: fn(&Pipeline) -> Result<IncrementalTwoWorld<SharedProvider>, PristeError> =
        Pipeline::quantifier;
    let _: fn(&Pipeline) -> Result<Vec<IncrementalTwoWorld<SharedProvider>>, PristeError> =
        Pipeline::quantifiers;
    let _: fn(&Pipeline) -> Result<(TheoremBuilder<SharedProvider>, TheoremChecker), PristeError> =
        Pipeline::checker;
    let _: fn(&Pipeline, usize) -> Result<BudgetPlan, PristeError> = Pipeline::plan_greedy;
    let _: fn(&Pipeline, usize) -> Result<BudgetPlan, PristeError> = Pipeline::plan_uniform_split;
    let _: fn(&Pipeline, usize) -> Result<BudgetPlan, PristeError> = Pipeline::plan_knapsack;
    let _: fn(&Pipeline, usize, &dyn UtilityModel) -> Result<BudgetPlan, PristeError> =
        Pipeline::plan_knapsack_with;
    let _: fn(
        &Pipeline,
        usize,
        &dyn UtilityModel,
    ) -> Result<(BudgetPlan, BudgetPlan, BudgetPlan), PristeError> = Pipeline::plan_all;
    let _: fn(&Pipeline) -> Result<Box<dyn Lppm>, PristeError> = Pipeline::mechanism_instance;

    // Pipeline accessors.
    let _: fn(&Pipeline) -> &GridMap = Pipeline::grid;
    let _: fn(&Pipeline) -> usize = Pipeline::num_cells;
    let _: fn(&Pipeline) -> Option<&MarkovModel> = Pipeline::chain;
    let _: fn(&Pipeline) -> SharedProvider = Pipeline::provider;
    let _: fn(&Pipeline) -> &[StEvent] = Pipeline::events;
    let _: fn(&Pipeline) -> f64 = Pipeline::target_epsilon;
    let _: fn(&Pipeline) -> &Vector = Pipeline::initial;
}

/// Pins the parallel batched service entry points the benches and the CLI
/// are built on.
#[test]
#[allow(clippy::type_complexity)]
fn parallel_service_methods_are_pinned() {
    type Mgr = SessionManager<SharedProvider>;
    let _: fn(&mut Mgr, &[(UserId, Vector)]) -> Result<Vec<UserReport>, OnlineError> =
        Mgr::ingest_batch;
    let _: fn(&mut Mgr, &[(UserId, Vector)], usize) -> Result<Vec<UserReport>, OnlineError> =
        Mgr::ingest_batch_parallel;
    let _: fn(
        &mut Mgr,
        &[(UserId, CellId)],
        u64,
        usize,
    ) -> Result<Vec<EnforcedRelease>, OnlineError> = Mgr::release_batch;
}

/// Pins the single-user entry points a daemon calls concurrently: each
/// takes `&self` and locks only its user's shard, so the service is shared
/// across worker threads without a lock of its own.
#[test]
#[allow(clippy::type_complexity)]
fn single_user_service_methods_take_a_shared_reference() {
    type Mgr = SessionManager<SharedProvider>;
    let _: fn(&Mgr, UserId, CellId, &mut dyn RngCore) -> Result<EnforcedRelease, OnlineError> =
        Mgr::release;
    let _: fn(&Mgr, UserId, Vector) -> Result<UserReport, OnlineError> = Mgr::ingest;
    let _: fn(&Mgr, UserId, CellId) -> Result<UserReport, OnlineError> = Mgr::ingest_observed;
    let _: fn(&Mgr, UserId, Vector) -> Result<(), OnlineError> = Mgr::add_user;
    let _: fn(&Mgr, UserId, usize) -> Result<(), OnlineError> = Mgr::attach_event;
    let _: fn(&Mgr) -> Result<(), OnlineError> = Mgr::checkpoint;
    assert_send_sync::<Mgr>();
}

/// Pins the guard's prebuilt ladder and the one loop that walks it, the
/// entry points `CalibratedMechanism` and the enforcing service share.
#[test]
#[allow(clippy::type_complexity)]
fn guard_ladder_and_loop_are_pinned() {
    use priste::calibrate::{run_guard, CalibrateError, GuardOutcome};
    type Loss = fn(&Vector) -> Result<f64, CalibrateError>;
    let _: fn(Box<dyn Lppm>, GuardConfig) -> Result<GuardLadder, CalibrateError> = GuardLadder::new;
    let _: fn(
        &GuardLadder,
        CellId,
        &mut dyn RngCore,
        Loss,
    ) -> Result<GuardOutcome, CalibrateError> = run_guard::<Loss>;
    assert_send_sync::<GuardLadder>();
}

/// Every fallible facade API returns `PristeError`, and the ten layer
/// errors convert into it with intact source chains.
#[test]
fn priste_error_wraps_every_layer() {
    use std::error::Error;
    fn depth(mut e: &dyn Error) -> usize {
        let mut d = 0;
        while let Some(next) = e.source() {
            e = next;
            d += 1;
        }
        d
    }
    let layered: Vec<PristeError> = vec![
        priste::linalg::LinalgError::Empty { op: "dot" }.into(),
        priste::geo::GeoError::EmptyGrid.into(),
        priste::markov::MarkovError::NoTrainingData.into(),
        priste::event::EventError::EmptyRegion.into(),
        priste::lppm::LppmError::InvalidBudget { value: 0.0 }.into(),
        priste::quantify::QuantifyError::ZeroLikelihood { t: 1 }.into(),
        priste::calibrate::CalibrateError::InvalidConfig {
            message: "c".into(),
        }
        .into(),
        priste::data::DataError::InsufficientData {
            message: "d".into(),
        }
        .into(),
        priste::core::CoreError::NoEvents.into(),
        priste::online::OnlineError::NotEnforcing.into(),
    ];
    assert_eq!(layered.len(), 10, "one variant per member crate");
    for e in &layered {
        assert!(depth(e) >= 1, "facade error must chain its cause: {e}");
    }

    // Deep chain: markov wraps linalg, facade wraps markov.
    let deep: PristeError = priste::markov::MarkovError::InvalidTransition(
        priste::linalg::LinalgError::NotStochastic { row: 2, sum: 1.3 },
    )
    .into();
    assert_eq!(depth(&deep), 2, "source() chain must reach the root cause");
}

/// Used-to-compile sanity: unused-import lint must not silently allow the
/// prelude import block above to rot (one symbol is exercised per family).
#[test]
fn prelude_symbols_are_usable() {
    let grid = GridMap::new(2, 2, 1.0).unwrap();
    let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
    let pipeline = Pipeline::on(grid)
        .mobility(chain)
        .event_spec("PRESENCE(S={1:2}, T={2:2})")
        .planar_laplace(1.0)
        .target_epsilon(1.0)
        .build()
        .unwrap();
    assert_eq!(pipeline.num_cells(), 4);
    assert_eq!(pipeline.events().len(), 1);
    let _: &Vector = pipeline.initial();
    let _unused: Option<TheoremInputs> = None;
}
