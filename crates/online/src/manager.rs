//! The multi-user service front: sharded sessions, template catalog, and
//! the batched same-timestep ingest path.

use crate::durable::{
    self, DurableError, DurableOptions, DurableStore, SessionSnap, SnapshotSource, SnapshotState,
    WalRecord, WalTail, WindowSnap,
};
use crate::obs::{RecoveryInfo, ServiceInstruments, StoreInstruments};
use crate::priors::{same_bits, PriorTable};
use crate::session::{
    report_from_step, BudgetLedger, EventWindow, Session, UserId, UserReport, Verdict,
};
use crate::{OnlineError, Result};
use priste_calibrate::{
    peek_worst_loss, run_guard, run_guard_prewarmed, Decision, GuardConfig, GuardOutcome,
    MechanismCache,
};
use priste_event::StEvent;
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_lppm::Lppm;
use priste_markov::TransitionProvider;
use priste_obs::Registry;
use priste_quantify::lifted::StepScratch;
use priste_quantify::{
    EventModel, IncrementalTwoWorld, QuantifyError, TwoWorldEngine, WindowStart,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Resolves a caller-facing thread knob: `0` means "one worker per
/// available core".
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// One deterministic RNG stream per shard, split from a batch seed: the
/// parallel release path draws identical candidates for a shard no matter
/// how shards are assigned to worker threads.
fn shard_rng(seed: u64, shard: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Shared fan-out scaffolding for the parallel batched paths: round-robins
/// the per-shard jobs (tagged with their shard index) over up to `threads`
/// scoped workers, joins, and merges results. Shards hold disjoint
/// sessions, so workers need no locks. Returns the collected items, the
/// merged stats delta — including deltas from shards that committed before
/// another shard failed, so the caller can keep [`ServiceStats`]
/// consistent with mutated session state — and the first error, if any.
///
/// A panicking job is contained (`catch_unwind`) and surfaces as
/// [`OnlineError::ShardPanicked`] carrying its shard index instead of
/// taking down the process: the surviving shards' items and deltas are
/// still absorbed. The panicked shard's own partial delta is kept too —
/// its sessions may have mutated up to the panic point, and stats that
/// track the mutation are the lesser inconsistency.
fn fan_out_shards<J, T>(
    jobs: Vec<(usize, J)>,
    threads: usize,
    work: impl Fn(J, &mut Vec<T>, &mut ServiceStats) -> Result<()> + Sync,
) -> (Vec<T>, ServiceStats, Option<OnlineError>)
where
    J: Send,
    T: Send,
{
    let threads = resolve_threads(threads);
    let mut buckets: Vec<Vec<(usize, J)>> = (0..threads).map(|_| Vec::new()).collect();
    for (k, job) in jobs.into_iter().enumerate() {
        buckets[k % threads].push(job);
    }
    let mut items = Vec::new();
    let mut merged = ServiceStats::default();
    let mut failure: Option<OnlineError> = None;
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .filter(|bucket| !bucket.is_empty())
            .map(|bucket| {
                let fallback_shard = bucket[0].0;
                let handle = scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut delta = ServiceStats::default();
                    let mut err = None;
                    for (shard_idx, job) in bucket {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            work(job, &mut out, &mut delta)
                        }));
                        match result {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => {
                                err = Some(e);
                                break;
                            }
                            Err(_) => {
                                err = Some(OnlineError::ShardPanicked { shard: shard_idx });
                                break;
                            }
                        }
                    }
                    (out, delta, err)
                });
                (fallback_shard, handle)
            })
            .collect();
        for (fallback_shard, handle) in handles {
            // Panics inside jobs are caught above; a join error can only
            // come from a panic outside the guarded region, attributed to
            // the bucket's first shard.
            let (mut out, delta, err) = handle.join().unwrap_or_else(|_| {
                (
                    Vec::new(),
                    ServiceStats::default(),
                    Some(OnlineError::ShardPanicked {
                        shard: fallback_shard,
                    }),
                )
            });
            items.append(&mut out);
            merged.absorb(&delta);
            if failure.is_none() {
                failure = err;
            }
        }
    });
    (items, merged, failure)
}

/// The buffers one shard's batched observation runs in: the posterior's
/// propagated row, the lifted window step, and the guard's staged windows
/// (one per window of the session being released). Kept across calls, so
/// a steady-state observation or release of a session that owns its
/// vectors allocates no `O(m)` buffer (at `m = 2500` the scratch itself is
/// about 140 KB, plus 120 KB per staged window).
#[derive(Debug, Default)]
struct ShardScratch {
    moved: Vec<f64>,
    step: StepScratch,
    guard: Vec<StepScratch>,
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// Per-observation realized-loss threshold a window must stay under to
    /// be verdicted [`Verdict::Certified`].
    pub epsilon: f64,
    /// Number of session shards (sessions hash to `id % num_shards`; each
    /// shard batches its posterior propagation and window steps).
    pub num_shards: usize,
    /// Steps a window is kept past its event end before eviction (post-end
    /// observations still sharpen the posterior via Lemma III.3).
    pub linger: usize,
    /// Per-user total loss budget for the [`BudgetLedger`]
    /// (sequential-composition accounting).
    ///
    /// [`BudgetLedger`]: crate::session::BudgetLedger
    pub budget: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            epsilon: 1.0,
            num_shards: 8,
            linger: 2,
            budget: 20.0,
        }
    }
}

impl OnlineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] with a message naming the bad field.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(OnlineError::InvalidConfig {
                message: format!("epsilon must be positive and finite, got {}", self.epsilon),
            });
        }
        if self.num_shards == 0 {
            return Err(OnlineError::InvalidConfig {
                message: "num_shards must be at least 1".into(),
            });
        }
        if !(self.budget > 0.0 && self.budget.is_finite()) {
            return Err(OnlineError::InvalidConfig {
                message: format!("budget must be positive and finite, got {}", self.budget),
            });
        }
        Ok(())
    }
}

/// Aggregate service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Observations ingested across all users.
    pub observations: usize,
    /// Windows evicted (expired or model-mismatched).
    pub evicted_windows: usize,
    /// Per-window verdicts that certified.
    pub certified: usize,
    /// Per-window verdicts that violated ε.
    pub violated: usize,
    /// Windows dropped on zero-likelihood observations.
    pub mismatched: usize,
    /// Enforcing-mode releases withheld by the guard.
    pub suppressed: usize,
}

impl ServiceStats {
    /// Adds another counter set onto this one — the batched paths compute
    /// per-shard deltas (possibly on worker threads) and merge them here.
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.observations += other.observations;
        self.evicted_windows += other.evicted_windows;
        self.certified += other.certified;
        self.violated += other.violated;
        self.mismatched += other.mismatched;
        self.suppressed += other.suppressed;
    }

    /// Counters in declaration order, for the snapshot codec.
    pub(crate) fn to_array(self) -> [u64; 6] {
        [
            self.observations as u64,
            self.evicted_windows as u64,
            self.certified as u64,
            self.violated as u64,
            self.mismatched as u64,
            self.suppressed as u64,
        ]
    }

    /// Inverse of [`ServiceStats::to_array`].
    pub(crate) fn from_array(a: [u64; 6]) -> Self {
        ServiceStats {
            observations: a[0] as usize,
            evicted_windows: a[1] as usize,
            certified: a[2] as usize,
            violated: a[3] as usize,
            mismatched: a[4] as usize,
            suppressed: a[5] as usize,
        }
    }
}

/// The enforcing-mode machinery: one shared mechanism ladder plus the
/// guard configuration. Sessions in an enforcing service release through
/// [`SessionManager::release`], which consults the user's event windows
/// *before* anything leaves the mechanism.
#[derive(Debug)]
struct Enforcer {
    cache: MechanismCache,
    guard: GuardConfig,
}

/// Outcome of one enforcing-mode release.
#[derive(Debug, Clone, PartialEq)]
pub struct EnforcedRelease {
    /// What the guard decided (released observation + budget, or
    /// suppression).
    pub decision: Decision,
    /// Backoff attempts spent.
    pub attempts: usize,
    /// The standard per-user audit report for the committed column (the
    /// released candidate's, or the flat column on suppression).
    pub report: UserReport,
}

/// The live service as a [`SnapshotSource`]: the snapshot encoder reads
/// every posterior and window vector where it lives.
struct LiveState<'a, P> {
    fingerprint: u64,
    stats: [u64; 6],
    shards: &'a [BTreeMap<u64, Session<P>>],
}

impl<P: TransitionProvider> SnapshotSource for LiveState<'_, P> {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn stats(&self) -> [u64; 6] {
        self.stats
    }

    fn num_sessions(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    fn for_each_session(&self, visit: &mut dyn FnMut(SessionSnap<&[f64]>)) {
        for session in self.shards.iter().flat_map(BTreeMap::values) {
            visit(SessionSnap {
                user: session.id().0,
                t: session.observed() as u64,
                budget: session.ledger().budget(),
                spent: session.ledger().spent(),
                observations: session.ledger().observations() as u64,
                violations: session.ledger().violations() as u64,
                posterior: session.posterior().as_slice(),
                windows: session
                    .windows
                    .iter()
                    .map(|w| WindowSnap {
                        template: w.template as u32,
                        t: w.state.observed() as u64,
                        log_scale: w.state.log_scale(),
                        pi: w.state.pi().as_slice(),
                        mantissa: w.state.lifted_state().as_slice(),
                    })
                    .collect(),
            });
        }
    }
}

/// What restoring a snapshot has already worked out, keyed by allocation
/// address, so a vector the snapshot shares between many slots is handled
/// once.
#[derive(Default)]
struct RestoreMemo {
    /// Every allocation a key names, kept alive so that no keyed address
    /// can be freed and reused while the memo lives.
    pinned: Vec<Arc<Vector>>,
    /// Decoded vector → the interned prior it restored to.
    priors: HashMap<usize, Arc<Vector>>,
    /// (decoded mantissa, window π, template, log-scale bits) → whether the
    /// mantissa is that start's lifted vector.
    starts: HashMap<(usize, usize, usize, u64), bool>,
}

impl RestoreMemo {
    /// Whether a persisted `t = 0` window vector is `start`'s own, checked
    /// once per distinct (mantissa, start).
    fn at_start(
        &mut self,
        start: &WindowStart,
        template: usize,
        mantissa: &Arc<Vector>,
        log_scale: f64,
    ) -> bool {
        let key = (
            Arc::as_ptr(mantissa) as usize,
            Arc::as_ptr(start.pi()) as usize,
            template,
            log_scale.to_bits(),
        );
        *self.starts.entry(key).or_insert_with(|| {
            self.pinned.push(Arc::clone(mantissa));
            self.pinned.push(Arc::clone(start.pi()));
            start.matches(mantissa.as_slice(), log_scale)
        })
    }
}

/// The streaming service: shards many users' [`Session`]s over one shared
/// mobility model, batches same-timestep work, and evicts expired windows.
///
/// Batching: within one [`SessionManager::ingest_batch`] call every
/// session's posterior propagation `p · M` runs per (shard, user-age)
/// group, and every event window sharing a (template, window-age) pair is
/// advanced through **one shared [`LiftedStep`]**, built once for the
/// group and run for each of its windows by
/// [`IncrementalTwoWorld::observe_with_step`] in the service's reused
/// scratch buffers.
///
/// Windows run on their own local clock (timestep 1 = first observation
/// after attach), so event templates are written in attach-relative time.
/// With a time-varying provider the window schedule is also attach-relative;
/// absolute-time schedules would need an offsetting provider (future work).
///
/// Each registered template is an [`EventModel`] built once: every window
/// attached from it shares the template's suffix table. Session state is
/// copy-on-write on top of that: [`SessionManager::add_user`] interns the
/// prior by its bits, so users registered with the same `π` share one
/// vector, and attaching a template to a user who has not been observed
/// yet clones that (template, prior) pair's cached start — the shared `π`
/// and lifted initial vector — in `O(1)`. An idle user therefore costs
/// `O(1)` memory (a few hundred bytes); the first observation gives the
/// session its own posterior and forward vectors, `O(m)` from then on
/// (about 60 KB at `m = 2500` with one window). From then on observations
/// overwrite those vectors in place, and the durable journal encodes into a
/// buffer it keeps, so a steady-state ingest allocates no `O(m)` buffer; a
/// vector another session, window, clone or cache still holds is copied on
/// its first write, never written. Recovery re-interns, so a restored idle
/// population shares again. Share the mobility model the
/// same way with a cheap-to-clone provider — `Arc<Homogeneous>` is the
/// intended instantiation (`TransitionProvider` is implemented for
/// `Arc<T>`).
///
/// [`LiftedStep`]: priste_quantify::lifted::LiftedStep
#[derive(Debug)]
pub struct SessionManager<P> {
    provider: P,
    templates: Vec<Arc<EventModel>>,
    shards: Vec<BTreeMap<u64, Session<P>>>,
    priors: PriorTable,
    config: OnlineConfig,
    instruments: ServiceInstruments,
    recovery: Option<RecoveryInfo>,
    enforcer: Option<Enforcer>,
    store: Option<DurableStore>,
    scratch: ShardScratch,
}

impl<P: TransitionProvider + Clone> SessionManager<P> {
    /// Creates an empty service over one shared mobility model.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] from [`OnlineConfig::validate`].
    pub fn new(provider: P, config: OnlineConfig) -> Result<Self> {
        config.validate()?;
        let shards = (0..config.num_shards).map(|_| BTreeMap::new()).collect();
        Ok(SessionManager {
            provider,
            templates: Vec::new(),
            shards,
            priors: PriorTable::default(),
            config,
            instruments: ServiceInstruments::new(),
            recovery: None,
            enforcer: None,
            store: None,
            scratch: ShardScratch::default(),
        })
    }

    /// Switches the service into **enforcing mode**: instead of merely
    /// auditing caller-supplied emission columns, the service itself holds
    /// the mechanism and every [`SessionManager::release`] consults the
    /// user's event windows through the calibration guard — shrinking the
    /// location budget (geometric backoff) until the release certifies
    /// `guard.target_epsilon`, and applying the guard's
    /// [`OnExhaustion`](priste_calibrate::OnExhaustion) policy when nothing
    /// feasible remains. The audit path ([`SessionManager::ingest_batch`])
    /// stays available for observations produced elsewhere.
    ///
    /// Every rung of the guard's backoff ladder is built here, once.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] when the mechanism's domain does not
    /// match the mobility model; guard-configuration validation errors;
    /// rung build failures.
    pub fn enable_enforcement(&mut self, lppm: Box<dyn Lppm>, guard: GuardConfig) -> Result<()> {
        guard.validate()?;
        priste_calibrate::validate_mechanism(
            lppm.as_ref(),
            self.provider.num_states(),
            guard.floor,
        )
        .map_err(|e| OnlineError::InvalidConfig {
            message: e.to_string(),
        })?;
        // Build the whole backoff ladder now, so no release stalls on a
        // rung build mid-traffic.
        let mut cache = MechanismCache::new(lppm);
        cache.prewarm(&guard)?;
        self.enforcer = Some(Enforcer { cache, guard });
        Ok(())
    }

    /// Whether enforcing mode is enabled.
    pub fn enforcing(&self) -> bool {
        self.enforcer.is_some()
    }

    /// Enforcing-mode release: calibrates one observation for the user's
    /// *true* location, certifying it against every active event window
    /// before it leaves the mechanism, then commits it through the normal
    /// audit path (posterior filtering, ledger, eviction, stats).
    ///
    /// A window whose model assigns the candidate zero likelihood counts
    /// as uncertifiable (loss `+∞`) rather than being evicted here — the
    /// guard backs off, and only the *committed* column can evict.
    ///
    /// # Errors
    /// [`OnlineError::NotEnforcing`] without
    /// [`SessionManager::enable_enforcement`];
    /// [`OnlineError::UnknownUser`]/[`OnlineError::InvalidLocation`] for a
    /// bad request; calibration and quantification failures.
    pub fn release(
        &mut self,
        id: UserId,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<EnforcedRelease> {
        let start = self
            .instruments
            .release_seconds
            .is_enabled()
            .then(Instant::now);
        let mut enforcer = self.enforcer.take().ok_or(OnlineError::NotEnforcing)?;
        let outcome = {
            let m = self.provider.num_states();
            if true_loc.index() >= m {
                self.enforcer = Some(enforcer);
                return Err(OnlineError::InvalidLocation {
                    cell: true_loc.index(),
                    num_cells: m,
                });
            }
            let shard = self.shard_of(id);
            let Some(session) = self.shards[shard].get(&id.0) else {
                self.enforcer = Some(enforcer);
                return Err(OnlineError::UnknownUser { user: id.0 });
            };
            let result = run_guard(
                &mut enforcer.cache,
                &enforcer.guard,
                true_loc,
                rng,
                peek_worst_loss(
                    session.windows.iter().map(|w| &w.state),
                    &mut self.scratch.guard,
                ),
            );
            self.enforcer = Some(enforcer);
            result?
        };
        let shard = self.shard_of(id);
        let suppressed = outcome.decision == Decision::Suppressed;
        // Journal the committed column (with its suppression flag, so
        // replay reconstructs the stats) before it leaves the mechanism.
        Self::journal(
            &mut self.store,
            shard,
            &WalRecord::Observe {
                user: id.0,
                suppressed,
                column: Cow::Borrowed(outcome.column.as_slice()),
            },
        )?;
        let report = self.commit_one(shard, id.0, &outcome.column);
        // Count the suppression only once the flat column actually
        // committed — a failed release must not skew the stats.
        if suppressed {
            self.instruments.suppressed.inc();
        }
        self.instruments.guard.record(&outcome);
        self.maybe_checkpoint()?;
        if let Some(t0) = start {
            self.instruments
                .release_seconds
                .observe(t0.elapsed().as_secs_f64());
        }
        Ok(EnforcedRelease {
            decision: outcome.decision,
            attempts: outcome.attempts.len(),
            report,
        })
    }

    /// Commits one already-validated, already-journaled column through the
    /// audit machinery (posterior filtering, windows, ledger, eviction).
    fn commit_one(&mut self, shard: usize, uid: u64, column: &Vector) -> UserReport {
        let mut wanted = BTreeMap::new();
        wanted.insert(uid, column);
        let (mut reports, delta) = Self::process_shard(
            &self.provider,
            &self.templates,
            &mut self.shards[shard],
            &wanted,
            &self.config,
            &mut self.scratch,
        );
        self.instruments.absorb(&delta);
        reports.pop().expect("one observation in, one report out")
    }

    /// The service configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Aggregate counters.
    ///
    /// Since the observability refactor this is a thin shim over the
    /// always-on metrics counters (`online_*_total` in an attached
    /// [`Registry`]) — the registry is the single source of truth; prefer
    /// reading it directly when one is attached via
    /// [`SessionManager::observe`].
    pub fn stats(&self) -> ServiceStats {
        self.instruments.stats()
    }

    /// Attaches a metrics registry: the always-on [`ServiceStats`]
    /// counters are *adopted* (exported with their current values), the
    /// latency/size/occupancy telemetry switches from inert handles to
    /// live ones, the durable substrate starts timing WAL appends/fsyncs
    /// and checkpoints, and — when this service was built by
    /// [`SessionManager::recover`]/[`SessionManager::open_durable`] — the
    /// recovery telemetry is published.
    ///
    /// Hot per-observation loops are untouched: instruments are recorded
    /// once per batch/release/append, so an attached (or absent) registry
    /// never changes results and barely changes throughput.
    pub fn observe(&mut self, registry: &Registry) {
        self.instruments.attach(registry);
        if let Some(store) = &mut self.store {
            store.set_instruments(StoreInstruments::from_registry(registry));
        }
        if let Some(info) = self.recovery {
            self.instruments.publish_recovery(&info);
        }
        self.instruments
            .update_occupancy(self.shards.iter().map(BTreeMap::len));
    }

    /// Telemetry from crash recovery, when this service was built by
    /// [`SessionManager::recover`] or [`SessionManager::open_durable`].
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// Registered users.
    pub fn num_users(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// All registered user ids, in ascending id order.
    pub fn users(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self
            .shards
            .iter()
            .flat_map(|s| s.keys().copied().map(UserId))
            .collect();
        ids.sort_unstable_by_key(|id| id.0);
        ids
    }

    /// Active event windows across all users.
    pub fn active_windows(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.values())
            .map(Session::active_windows)
            .sum()
    }

    /// Registers an event template (attach-relative timestamps), building
    /// its shared [`EventModel`] once, and returns its index for
    /// [`SessionManager::attach_event`].
    ///
    /// # Errors
    /// [`QuantifyError::DomainMismatch`] (wrapped) if the event's state
    /// domain differs from the provider's.
    pub fn register_template(&mut self, event: StEvent) -> Result<usize> {
        let model = EventModel::new(event, &self.provider)?;
        if self.store.is_some() {
            // The template catalog is part of the scenario fingerprint that
            // binds durable files to the service; growing it under an
            // attached store would orphan everything journaled so far.
            return Err(OnlineError::InvalidConfig {
                message: "register all templates before attaching a durable store".into(),
            });
        }
        self.templates.push(Arc::new(model));
        Ok(self.templates.len() - 1)
    }

    /// Registered templates, as the event models their windows share.
    pub fn templates(&self) -> &[Arc<EventModel>] {
        &self.templates
    }

    /// The shared model of template `template`.
    fn template(&self, template: usize) -> Result<Arc<EventModel>> {
        self.templates
            .get(template)
            .map(Arc::clone)
            .ok_or(OnlineError::UnknownTemplate { template })
    }

    /// Adds a user with an initial location distribution. Users added with
    /// bit-identical priors share one vector until their first observation.
    ///
    /// # Errors
    /// [`OnlineError::DuplicateUser`]; validation errors for a bad `π`.
    pub fn add_user(&mut self, id: UserId, pi: Vector) -> Result<()> {
        let pi = self.intern_prior(Arc::new(pi), "session initial distribution")?;
        let shard = self.shard_of(id);
        if self.shards[shard].contains_key(&id.0) {
            return Err(OnlineError::DuplicateUser { user: id.0 });
        }
        // Journal before applying: the insert below cannot fail, and a
        // crash between the two merely replays a registration whose ack
        // never left the building (at-least-once, harmless).
        Self::journal(
            &mut self.store,
            shard,
            &WalRecord::AddUser {
                user: id.0,
                pi: Cow::Borrowed(pi.as_slice()),
            },
        )?;
        self.shards[shard].insert(id.0, Session::new(id, pi, self.config.budget));
        self.maybe_checkpoint()
    }

    /// Checks a registration prior's length and interns it: a prior
    /// bit-identical to a live interned one shares that one, and a new one
    /// must pass the distribution check first.
    fn intern_prior(&mut self, pi: Arc<Vector>, op: &'static str) -> Result<Arc<Vector>> {
        let m = self.provider.num_states();
        if pi.len() != m {
            return Err(OnlineError::Quantify(QuantifyError::InvalidInitial(
                priste_linalg::LinalgError::DimensionMismatch {
                    op,
                    expected: m,
                    actual: pi.len(),
                },
            )));
        }
        self.priors
            .intern(pi)
            .map_err(|e| OnlineError::Quantify(QuantifyError::InvalidInitial(e)))
    }

    /// Read access to one session.
    pub fn session(&self, id: UserId) -> Option<&Session<P>> {
        self.shards[self.shard_of(id)].get(&id.0)
    }

    /// Attaches a registered template to a user as a new event window,
    /// seeded with the user's current filtered posterior. For a user not
    /// observed yet this is `O(1)`: the window shares the (template, prior)
    /// pair's cached start with every other such user.
    ///
    /// # Errors
    /// [`OnlineError::UnknownUser`]/[`OnlineError::UnknownTemplate`];
    /// [`QuantifyError::DegeneratePrior`] (wrapped) when the event is
    /// already certain or impossible under the user's posterior.
    pub fn attach_event(&mut self, id: UserId, template: usize) -> Result<()> {
        let shard = self.shard_of(id);
        self.attach_window(shard, id.0, template)?;
        if let Err(e) = Self::journal(
            &mut self.store,
            shard,
            &WalRecord::AttachEvent {
                user: id.0,
                template: template as u32,
            },
        ) {
            // Roll the attach back so the in-memory state never runs ahead
            // of the journal on an I/O failure.
            self.shards[shard]
                .get_mut(&id.0)
                .expect("attached above")
                .windows
                .pop();
            return Err(e);
        }
        self.maybe_checkpoint()
    }

    /// Attaches `template` to one session without journaling: the window
    /// starts from the (template, prior) pair's cached start when the
    /// session's posterior is an interned prior, and from a fresh one
    /// otherwise.
    fn attach_window(&mut self, shard: usize, uid: u64, template: usize) -> Result<()> {
        let model = self.template(template)?;
        let session = self.shards[shard]
            .get_mut(&uid)
            .ok_or(OnlineError::UnknownUser { user: uid })?;
        let pi = session.shared_posterior();
        let provider = &self.provider;
        let start = self.priors.start(pi, template, || {
            WindowStart::new(&model, provider, Arc::clone(pi))
        })?;
        session.attach(template, model, self.provider.clone(), start);
        Ok(())
    }

    /// Removes a user, returning whether it existed.
    ///
    /// # Errors
    /// [`OnlineError::Durable`] when journaling the removal fails (the
    /// user is kept in that case).
    pub fn remove_user(&mut self, id: UserId) -> Result<bool> {
        let shard = self.shard_of(id);
        if !self.shards[shard].contains_key(&id.0) {
            return Ok(false);
        }
        Self::journal(
            &mut self.store,
            shard,
            &WalRecord::RemoveUser { user: id.0 },
        )?;
        self.shards[shard].remove(&id.0);
        self.maybe_checkpoint()?;
        Ok(true)
    }

    /// Ingests one observation for one user. Equivalent to a singleton
    /// [`SessionManager::ingest_batch`].
    ///
    /// # Errors
    /// See [`SessionManager::ingest_batch`].
    pub fn ingest(&mut self, id: UserId, emission_column: Vector) -> Result<UserReport> {
        let mut reports = self.ingest_batch(&[(id, emission_column)])?;
        Ok(reports.pop().expect("one observation in, one report out"))
    }

    /// Ingests one same-timestep batch: at most one observation (as the
    /// released emission column) per user. Returns one [`UserReport`] per
    /// entry, sorted by user id.
    ///
    /// # Errors
    /// [`OnlineError::UnknownUser`], [`OnlineError::DuplicateObservation`],
    /// and emission validation errors — all detected *before* any state is
    /// mutated, so a failed batch leaves the service unchanged.
    pub fn ingest_batch(&mut self, batch: &[(UserId, Vector)]) -> Result<Vec<UserReport>> {
        let start = self
            .instruments
            .ingest_seconds
            .is_enabled()
            .then(Instant::now);
        let by_shard = self.validate_batch(batch)?;
        // Journal the committed columns before any state mutates: a crash
        // after the append replays an observation whose report was never
        // returned (at-least-once spend — conservative), and an append
        // failure leaves both memory and disk untouched.
        self.journal_observations(&by_shard)?;
        let mut reports = Vec::with_capacity(batch.len());
        for (shard_idx, wanted) in by_shard.iter().enumerate() {
            if wanted.is_empty() {
                continue;
            }
            let (mut shard_reports, delta) = Self::process_shard(
                &self.provider,
                &self.templates,
                &mut self.shards[shard_idx],
                wanted,
                &self.config,
                &mut self.scratch,
            );
            self.instruments.absorb(&delta);
            reports.append(&mut shard_reports);
        }
        reports.sort_by_key(|r| r.user);
        self.maybe_checkpoint()?;
        if let Some(t0) = start {
            self.instruments
                .ingest_seconds
                .observe(t0.elapsed().as_secs_f64());
            self.instruments
                .ingest_batch_size
                .observe(batch.len() as f64);
            self.instruments
                .update_occupancy(self.shards.iter().map(BTreeMap::len));
        }
        Ok(reports)
    }

    /// Appends one [`WalRecord::Observe`] per batch entry (audit path:
    /// nothing is suppressed).
    fn journal_observations(&mut self, by_shard: &[BTreeMap<u64, &Vector>]) -> Result<()> {
        if self.store.is_none() {
            return Ok(());
        }
        for (shard_idx, wanted) in by_shard.iter().enumerate() {
            for (&uid, col) in wanted {
                Self::journal(
                    &mut self.store,
                    shard_idx,
                    &WalRecord::Observe {
                        user: uid,
                        suppressed: false,
                        column: Cow::Borrowed(col.as_slice()),
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Appends a record to the attached store's shard WAL; a no-op for
    /// in-memory services.
    fn journal(store: &mut Option<DurableStore>, shard: usize, record: &WalRecord) -> Result<()> {
        if let Some(store) = store {
            store.append(shard, record)?;
        }
        Ok(())
    }

    /// Compacts the WAL into a fresh snapshot when the auto-checkpoint
    /// threshold has been crossed.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        if self.store.as_ref().is_some_and(DurableStore::due) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Validation pass for one same-timestep batch (no mutation): emission
    /// shape, user existence, one-observation-per-user. Returns the
    /// per-shard observation maps.
    fn validate_batch<'b>(
        &self,
        batch: &'b [(UserId, Vector)],
    ) -> Result<Vec<BTreeMap<u64, &'b Vector>>> {
        let m = self.provider.num_states();
        let mut by_shard: Vec<BTreeMap<u64, &Vector>> =
            (0..self.shards.len()).map(|_| BTreeMap::new()).collect();
        for (id, col) in batch {
            if col.len() != m || col.as_slice().iter().any(|&x| x < 0.0 || !x.is_finite()) {
                return Err(OnlineError::Quantify(QuantifyError::InvalidEmission {
                    expected: m,
                    actual: col.len(),
                }));
            }
            let shard = self.shard_of(*id);
            if !self.shards[shard].contains_key(&id.0) {
                return Err(OnlineError::UnknownUser { user: id.0 });
            }
            if by_shard[shard].insert(id.0, col).is_some() {
                return Err(OnlineError::DuplicateObservation { user: id.0 });
            }
        }
        Ok(by_shard)
    }

    /// One shard's slice of a batched ingest: posterior propagation, window
    /// advancement, ledger/eviction — returning the reports (session-id
    /// order) plus the stats delta to merge. Free of `&mut self` so the
    /// parallel path can run disjoint shards on worker threads, each with
    /// its own `scratch`.
    ///
    /// Only the sessions between the batch's lowest and highest user id are
    /// visited, so a one-user batch costs `O(log n)` to select.
    fn process_shard(
        provider: &P,
        templates: &[Arc<EventModel>],
        shard: &mut BTreeMap<u64, Session<P>>,
        wanted: &BTreeMap<u64, &Vector>,
        config: &OnlineConfig,
        scratch: &mut ShardScratch,
    ) -> (Vec<UserReport>, ServiceStats) {
        let mut stats = ServiceStats::default();
        let mut reports = Vec::with_capacity(wanted.len());
        let (Some((&first, _)), Some((&last, _))) =
            (wanted.first_key_value(), wanted.last_key_value())
        else {
            return (reports, stats);
        };
        let mut selected: Vec<(&mut Session<P>, &Vector)> = shard
            .range_mut(first..=last)
            .filter_map(|(uid, s)| wanted.get(uid).map(|col| (s, *col)))
            .collect();

        Self::propagate_posteriors(provider, &mut selected, &mut scratch.moved);
        let window_reports = Self::advance_windows(
            provider,
            templates,
            &mut selected,
            config.epsilon,
            &mut scratch.step,
        );

        for ((session, _), wreps) in selected.iter_mut().zip(window_reports) {
            for r in &wreps {
                match r.verdict {
                    Verdict::Certified => stats.certified += 1,
                    Verdict::Violated => stats.violated += 1,
                    Verdict::ModelMismatch => stats.mismatched += 1,
                }
            }
            let report = session.finish_observation(wreps, config.linger);
            stats.observations += 1;
            stats.evicted_windows += report.evicted;
            reports.push(report);
        }
        (reports, stats)
    }

    /// Batched posterior filtering: streams each selected session's `p · M`
    /// through the provider's backend into the reused `moved` row (grouped
    /// by user age, so time-varying providers fetch the right matrix), then
    /// applies each session's emission weighting. With a CSR chain each
    /// propagation costs `O(nnz)` instead of `O(m²)`.
    fn propagate_posteriors(
        provider: &P,
        selected: &mut [(&mut Session<P>, &Vector)],
        moved: &mut Vec<f64>,
    ) {
        let mut by_age: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (session, _)) in selected.iter().enumerate() {
            by_age.entry(session.observed()).or_default().push(i);
        }
        moved.resize(provider.num_states(), 0.0);
        for (age, idxs) in by_age {
            if age == 0 {
                // First observation: no propagation, just weigh the prior
                // (borrowed, not copied: it may be shared).
                for &i in &idxs {
                    let (session, col) = &mut selected[i];
                    let prior = Arc::clone(session.shared_posterior());
                    session.weigh_posterior(prior.as_slice(), col);
                }
                continue;
            }
            let matrix = provider.transition_at(age);
            for &i in &idxs {
                let (session, col) = &mut selected[i];
                matrix.vecmat_into(session.posterior().as_slice(), moved);
                session.weigh_posterior(moved, col);
            }
        }
    }

    /// Batched window advancement: every window sharing a (template,
    /// window-age) pair is moved through one shared lifted step built once
    /// from the template schedule, each in turn through the reused
    /// `scratch`. Returns per-session window reports in attach order.
    fn advance_windows(
        provider: &P,
        templates: &[Arc<EventModel>],
        selected: &mut [(&mut Session<P>, &Vector)],
        epsilon: f64,
        scratch: &mut StepScratch,
    ) -> Vec<Vec<crate::session::WindowReport>> {
        let mut results: Vec<Vec<crate::session::WindowReport>> = selected
            .iter()
            .map(|(s, _)| Vec::with_capacity(s.active_windows()))
            .collect();

        // Flatten (session, window) pairs and group by shared step shape.
        let mut flat: Vec<(usize, &mut EventWindow<P>, &Vector)> = Vec::new();
        for (si, (session, col)) in selected.iter_mut().enumerate() {
            let col: &Vector = col;
            for w in session.windows.iter_mut() {
                flat.push((si, w, col));
            }
        }
        let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (fi, (_, w, _)) in flat.iter().enumerate() {
            groups
                .entry((w.template, w.state.observed()))
                .or_default()
                .push(fi);
        }

        let mut staged: Vec<Option<crate::session::WindowReport>> = vec![None; flat.len()];
        for ((template, age), idxs) in groups {
            // One step for the whole group. The first observation has no
            // transition step: it weighs the (possibly shared) initial
            // vector into the window's own first forward vector.
            let engine = TwoWorldEngine::new(templates[template].event(), provider)
                .expect("validated at registration");
            let step = (age > 0).then(|| engine.step_at(age));
            for &fi in &idxs {
                let (_, window, col) = &mut flat[fi];
                let observed = match &step {
                    Some(step) => window.state.observe_with_step(step, scratch, col),
                    None => window.state.observe(col),
                };
                let report = match observed {
                    Ok(step) => report_from_step(window.template, &step, epsilon),
                    Err(QuantifyError::ZeroLikelihood { t }) => crate::session::WindowReport {
                        template: window.template,
                        window_t: t,
                        loss: f64::INFINITY,
                        posterior: 0.0,
                        verdict: Verdict::ModelMismatch,
                    },
                    Err(e) => unreachable!("emission validated up front: {e}"),
                };
                staged[fi] = Some(report);
            }
        }
        // Re-assemble per session in attach order (flat preserves it).
        for (fi, (si, _, _)) in flat.iter().enumerate() {
            results[*si].push(staged[fi].take().expect("every window was advanced"));
        }
        results
    }

    fn shard_of(&self, id: UserId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    // ---- Durability -----------------------------------------------------

    /// Fingerprint binding durable files to this service's scenario: the
    /// state-domain size, the accounting-relevant configuration, and the
    /// registered template catalog. The WAL journals *committed emission
    /// columns*, so the mechanism/guard configuration is deliberately not
    /// part of the binding — replay never re-runs the guard.
    fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "m={};eps={:016x};shards={};linger={};budget={:016x};",
            self.provider.num_states(),
            self.config.epsilon.to_bits(),
            self.config.num_shards,
            self.config.linger,
            self.config.budget.to_bits(),
        );
        for t in &self.templates {
            let _ = write!(s, "tpl={:?};", t.event());
        }
        durable::fnv1a64(s.as_bytes())
    }

    /// The live state as a snapshot source: checkpoints and digests encode
    /// the sessions' vectors in place instead of copying them.
    fn live_state(&self) -> LiveState<'_, P> {
        LiveState {
            fingerprint: self.fingerprint(),
            stats: self.stats().to_array(),
            shards: &self.shards,
        }
    }

    /// Deterministic digest of the full service state (FNV-1a streamed over
    /// the logical snapshot encoding, every vector inline): equal digests
    /// mean bit-identical posteriors, windows, ledgers, and counters. The
    /// equality witness used by the crash-recovery tests. It does not
    /// depend on which vectors share an allocation, so a recovered service
    /// that shares more than the live one did still digests the same.
    pub fn state_digest(&self) -> u64 {
        let mut hash = durable::Fnv1a64::new();
        durable::encode_payload(&self.live_state(), &mut hash, durable::Layout::Logical);
        hash.finish()
    }

    /// Attaches a durable store to this service: writes a full checkpoint
    /// of the current state into `dir` (created if missing) and from then
    /// on journals every committed mutation to a per-shard WAL *before*
    /// its result is returned. See the [`crate::durable`] module docs for
    /// the file layout and recovery guarantees.
    ///
    /// # Errors
    /// [`OnlineError::Durable`] on I/O failure.
    pub fn make_durable(&mut self, dir: &Path, opts: DurableOptions) -> Result<()> {
        let start = if dir.exists() {
            durable::list_generations(dir)?.first().map_or(0, |&s| s) + 1
        } else {
            1
        };
        let state = self.live_state();
        let obs = self
            .instruments
            .registry
            .as_ref()
            .map_or_else(StoreInstruments::disabled, StoreInstruments::from_registry);
        let store = DurableStore::open(
            dir,
            opts,
            state.fingerprint,
            self.config.num_shards,
            start,
            &state,
            obs,
        )?;
        self.store = Some(store);
        Ok(())
    }

    /// The attached durable directory, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(DurableStore::dir)
    }

    /// Compacts the WAL into a fresh snapshot generation. Called
    /// automatically every [`DurableOptions::snapshot_every`] records;
    /// callers may also checkpoint explicitly (e.g. before shutdown).
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] when no store is attached;
    /// [`OnlineError::Durable`] on I/O failure.
    pub fn checkpoint(&mut self) -> Result<()> {
        let mut store = self
            .store
            .take()
            .ok_or_else(|| OnlineError::InvalidConfig {
                message: "no durable store attached; call make_durable or open_durable first"
                    .into(),
            })?;
        let written = store.checkpoint(&self.live_state());
        self.store = Some(store);
        Ok(written?)
    }

    /// Read-only crash recovery: rebuilds a service from the newest valid
    /// snapshot in `dir` plus a deterministic replay of its WAL tail. The
    /// scenario (provider domain, config, templates) must match the one
    /// the directory was written under — a fingerprint mismatch is
    /// rejected rather than silently mixing state.
    ///
    /// The returned service has **no store attached**: recovering twice
    /// from the same directory is side-effect-free and byte-deterministic
    /// (equal [`SessionManager::state_digest`]s). Use
    /// [`SessionManager::open_durable`] to recover *and* resume
    /// journaling.
    ///
    /// Conservative rounding — the recovered ledgers never under-count:
    /// a torn final WAL record exhausts the attributed user's ledger (or
    /// the whole shard when unattributable), and falling back past an
    /// unreadable newer snapshot exhausts every ledger.
    ///
    /// # Errors
    /// [`OnlineError::Durable`] for unreadable/corrupt/mismatched durable
    /// state; quantify/session validation errors when persisted state
    /// fails its invariants.
    pub fn recover(
        provider: P,
        config: OnlineConfig,
        templates: Vec<StEvent>,
        dir: &Path,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let mut svc = Self::new(provider, config)?;
        for t in templates {
            svc.register_template(t)?;
        }
        let rec = durable::recover_dir(dir, svc.fingerprint(), svc.config.num_shards)?;
        svc.restore_snapshot(rec.state)?;
        let mut replayed_records = 0u64;
        for scan in &rec.wal {
            for record in &scan.records {
                svc.replay(record)?;
                replayed_records += 1;
            }
        }
        let mut torn_records = 0u64;
        for (shard_idx, scan) in rec.wal.iter().enumerate() {
            if let WalTail::Torn { user } = scan.tail {
                torn_records += 1;
                let mut exhausted_one = false;
                if let Some(uid) = user {
                    let shard = svc.shard_of(UserId(uid));
                    if let Some(session) = svc.shards[shard].get_mut(&uid) {
                        session.ledger_mut().force_exhaust();
                        exhausted_one = true;
                    }
                }
                // Unattributable tear — or an attribution pointing at a
                // user that does not exist, which means the prefix bytes
                // themselves are suspect: exhaust the whole shard.
                if !exhausted_one {
                    svc.exhaust_shard(shard_idx);
                }
            }
        }
        if rec.skipped_newer {
            for shard in 0..svc.shards.len() {
                svc.exhaust_shard(shard);
            }
        }
        svc.recovery = Some(RecoveryInfo {
            duration_seconds: t0.elapsed().as_secs_f64(),
            replayed_records,
            torn_records,
            skipped_newer: rec.skipped_newer,
        });
        Ok(svc)
    }

    /// Recover-or-create: rebuilds from `dir` exactly like
    /// [`SessionManager::recover`] when it holds durable state, starts
    /// empty when it does not, then attaches the store (writing a fresh
    /// checkpoint generation) so the service continues journaling where
    /// the dead process stopped.
    ///
    /// # Errors
    /// As [`SessionManager::recover`] and
    /// [`SessionManager::make_durable`].
    pub fn open_durable(
        provider: P,
        config: OnlineConfig,
        templates: Vec<StEvent>,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<Self> {
        let recovered = Self::recover(provider.clone(), config.clone(), templates.clone(), dir);
        let mut svc = match recovered {
            Ok(svc) => svc,
            Err(OnlineError::Durable(
                DurableError::NoSnapshot { .. }
                | DurableError::Io {
                    kind: std::io::ErrorKind::NotFound,
                    ..
                },
            )) => {
                let mut svc = Self::new(provider, config)?;
                for t in templates {
                    svc.register_template(t)?;
                }
                svc
            }
            Err(e) => return Err(e),
        };
        svc.make_durable(dir, opts)?;
        Ok(svc)
    }

    /// Rebuilds every session from a decoded snapshot; every window resumes
    /// on its template's shared model. Unobserved sessions' posteriors and
    /// window priors go through the prior table, and a `t = 0` window whose
    /// vector is its prior's cached start, bit for bit, shares that start —
    /// so a restored idle population shares its state as it did live.
    ///
    /// A vector the snapshot shares between slots decodes to one `Arc`,
    /// and [`RestoreMemo`] interns it, or checks it against its start, once:
    /// restoring N idle sessions costs `O(distinct vectors × m)`, not
    /// `O(N × m)`.
    fn restore_snapshot(&mut self, state: SnapshotState) -> Result<()> {
        let m = self.provider.num_states();
        let mut memo = RestoreMemo::default();
        for snap in state.sessions {
            let id = UserId(snap.user);
            if snap.posterior.len() != m {
                return Err(OnlineError::InvalidConfig {
                    message: format!(
                        "persisted posterior for user {} has length {}, expected {m}",
                        snap.user,
                        snap.posterior.len(),
                    ),
                });
            }
            // As live: only a never-observed session's posterior is an
            // interned prior, and a window attached since the session's last
            // observation shares its posterior.
            let decoded = Arc::as_ptr(&snap.posterior);
            let posterior = if snap.t == 0 {
                self.intern_decoded(&mut memo, &snap.posterior, "persisted initial distribution")?
            } else {
                snap.posterior
            };
            let mut windows = Vec::with_capacity(snap.windows.len());
            for w in snap.windows {
                let template = w.template as usize;
                let model = self.template(template)?;
                // `decoded` is still allocated: it is `posterior` or pinned in `memo`.
                let pi = if Arc::as_ptr(&w.pi) == decoded || same_bits(&w.pi, &posterior) {
                    Arc::clone(&posterior)
                } else {
                    self.intern_decoded(&mut memo, &w.pi, "persisted window prior")?
                };
                let provider = &self.provider;
                let start = self.priors.start(&pi, template, || {
                    WindowStart::new(&model, provider, Arc::clone(&pi))
                })?;
                let provider = self.provider.clone();
                let state = if w.t == 0 && memo.at_start(&start, template, &w.mantissa, w.log_scale)
                {
                    IncrementalTwoWorld::from_start(model, provider, start)
                } else {
                    IncrementalTwoWorld::resume(
                        model,
                        provider,
                        start,
                        Arc::unwrap_or_clone(w.mantissa),
                        w.log_scale,
                        w.t as usize,
                    )?
                };
                windows.push(EventWindow { template, state });
            }
            let ledger = BudgetLedger::from_parts(
                snap.budget,
                snap.spent,
                snap.observations as usize,
                snap.violations as usize,
            )?;
            let session = Session::from_parts(id, posterior, windows, ledger, snap.t as usize);
            let shard = self.shard_of(id);
            if self.shards[shard].insert(snap.user, session).is_some() {
                return Err(OnlineError::DuplicateUser { user: snap.user });
            }
        }
        self.instruments
            .store_stats(ServiceStats::from_array(state.stats));
        Ok(())
    }

    /// The interned prior for a decoded vector, interned once per decoded
    /// allocation.
    fn intern_decoded(
        &mut self,
        memo: &mut RestoreMemo,
        decoded: &Arc<Vector>,
        op: &'static str,
    ) -> Result<Arc<Vector>> {
        let key = Arc::as_ptr(decoded) as usize;
        if let Some(interned) = memo.priors.get(&key) {
            return Ok(Arc::clone(interned));
        }
        let interned = self.intern_prior(Arc::clone(decoded), op)?;
        memo.pinned.push(Arc::clone(decoded));
        memo.priors.insert(key, Arc::clone(&interned));
        Ok(interned)
    }

    /// Applies one journaled record without re-journaling it. Replaying an
    /// `Observe` record runs the exact same per-row arithmetic as the
    /// original (possibly batched) execution — posterior propagation and
    /// lifted window steps are row-independent — so the recovered state is
    /// bit-identical to what the live service held after committing it.
    fn replay(&mut self, record: &WalRecord) -> Result<()> {
        match record {
            WalRecord::AddUser { user, pi } => {
                let id = UserId(*user);
                let pi = self.intern_prior(
                    Arc::new(Vector::from(pi.as_ref())),
                    "journaled initial distribution",
                )?;
                let shard = self.shard_of(id);
                if self.shards[shard].contains_key(user) {
                    return Err(OnlineError::DuplicateUser { user: *user });
                }
                self.shards[shard].insert(*user, Session::new(id, pi, self.config.budget));
                Ok(())
            }
            WalRecord::RemoveUser { user } => {
                let shard = self.shard_of(UserId(*user));
                self.shards[shard].remove(user);
                Ok(())
            }
            WalRecord::AttachEvent { user, template } => {
                let shard = self.shard_of(UserId(*user));
                self.attach_window(shard, *user, *template as usize)
            }
            WalRecord::Observe {
                user,
                suppressed,
                column,
            } => self.replay_observe(*user, column, *suppressed),
        }
    }

    /// Replays one committed observation as a singleton commit.
    fn replay_observe(&mut self, user: u64, column: &[f64], suppressed: bool) -> Result<()> {
        let m = self.provider.num_states();
        if column.len() != m || column.iter().any(|&x| x < 0.0 || !x.is_finite()) {
            return Err(OnlineError::Quantify(QuantifyError::InvalidEmission {
                expected: m,
                actual: column.len(),
            }));
        }
        let id = UserId(user);
        let shard = self.shard_of(id);
        if !self.shards[shard].contains_key(&user) {
            return Err(OnlineError::UnknownUser { user });
        }
        let column = Vector::from(column.to_vec());
        let _ = self.commit_one(shard, user, &column);
        if suppressed {
            self.instruments.suppressed.inc();
        }
        Ok(())
    }

    /// Conservative rounding: exhausts every ledger on one shard.
    fn exhaust_shard(&mut self, shard: usize) {
        for session in self.shards[shard].values_mut() {
            session.ledger_mut().force_exhaust();
        }
    }
}

/// The parallel batched paths — available when the shared model is
/// thread-safe (the pipeline's `Arc`-backed provider is). Work fans out
/// over the service's own shards with `std::thread::scope`: shards hold
/// disjoint sessions, so there is nothing to lock, and the enforcing path
/// draws from one prewarmed, read-only mechanism ladder.
impl<P: TransitionProvider + Clone + Send + Sync> SessionManager<P> {
    /// [`SessionManager::ingest_batch`] with the per-shard work fanned out
    /// over up to `threads` workers (`0` = one per available core).
    /// Reports, stats and session state are identical to the sequential
    /// path for any thread count.
    ///
    /// # Errors
    /// See [`SessionManager::ingest_batch`] — validation runs up front, so
    /// a failed batch leaves the service unchanged.
    pub fn ingest_batch_parallel(
        &mut self,
        batch: &[(UserId, Vector)],
        threads: usize,
    ) -> Result<Vec<UserReport>> {
        let start = self
            .instruments
            .ingest_seconds
            .is_enabled()
            .then(Instant::now);
        let by_shard = self.validate_batch(batch)?;
        self.journal_observations(&by_shard)?;
        let provider = &self.provider;
        let templates = &self.templates;
        let config = &self.config;

        let jobs: Vec<_> = self
            .shards
            .iter_mut()
            .enumerate()
            .zip(&by_shard)
            .filter(|((_, _), wanted)| !wanted.is_empty())
            .map(|((idx, shard), wanted)| (idx, (shard, wanted)))
            .collect();
        let (mut reports, merged, failure) =
            fan_out_shards(jobs, threads, |(shard, wanted), out, delta| {
                let mut scratch = ShardScratch::default();
                let (mut shard_reports, shard_delta) =
                    Self::process_shard(provider, templates, shard, wanted, config, &mut scratch);
                out.append(&mut shard_reports);
                delta.absorb(&shard_delta);
                Ok(())
            });
        self.instruments.absorb(&merged);
        if let Some(e) = failure {
            if let OnlineError::ShardPanicked { shard } = &e {
                self.instruments.record_shard_panic(*shard);
            }
            return Err(e);
        }
        reports.sort_by_key(|r| r.user);
        self.maybe_checkpoint()?;
        if let Some(t0) = start {
            self.instruments
                .ingest_seconds
                .observe(t0.elapsed().as_secs_f64());
            self.instruments
                .ingest_batch_size
                .observe(batch.len() as f64);
            self.instruments
                .update_occupancy(self.shards.iter().map(BTreeMap::len));
        }
        Ok(reports)
    }

    /// One same-timestep **enforcing-mode** batch: calibrates and commits
    /// at most one release per user — [`SessionManager::release`] at fleet
    /// scale. The guard + commit work fans out over up to `threads` workers
    /// (`0` = one per available core) on shard-disjoint state, drawing
    /// candidates from one deterministic RNG stream per shard split from
    /// `seed`, so results are bit-identical for any thread count.
    ///
    /// Returns one [`EnforcedRelease`] per request, sorted by user id.
    ///
    /// # Errors
    /// [`OnlineError::NotEnforcing`] without enforcement enabled;
    /// [`OnlineError::UnknownUser`]/[`OnlineError::InvalidLocation`]/
    /// [`OnlineError::DuplicateObservation`] — all detected before any
    /// state is mutated. A quantification failure mid-batch (not reachable
    /// from validated inputs) may leave earlier shards committed; the
    /// stats always reflect exactly what committed.
    pub fn release_batch(
        &mut self,
        batch: &[(UserId, CellId)],
        seed: u64,
        threads: usize,
    ) -> Result<Vec<EnforcedRelease>> {
        let enforcer = self.enforcer.take().ok_or(OnlineError::NotEnforcing)?;
        let result = self.release_batch_with(&enforcer, batch, seed, threads);
        self.enforcer = Some(enforcer);
        result
    }

    fn release_batch_with(
        &mut self,
        enforcer: &Enforcer,
        batch: &[(UserId, CellId)],
        seed: u64,
        threads: usize,
    ) -> Result<Vec<EnforcedRelease>> {
        let start = self
            .instruments
            .release_batch_seconds
            .is_enabled()
            .then(Instant::now);

        // ---- Validation pass (no mutation). -----------------------------
        let m = self.provider.num_states();
        let mut by_shard: Vec<BTreeMap<u64, CellId>> = vec![BTreeMap::new(); self.shards.len()];
        for (id, loc) in batch {
            if loc.index() >= m {
                return Err(OnlineError::InvalidLocation {
                    cell: loc.index(),
                    num_cells: m,
                });
            }
            let shard = self.shard_of(*id);
            if !self.shards[shard].contains_key(&id.0) {
                return Err(OnlineError::UnknownUser { user: id.0 });
            }
            if by_shard[shard].insert(id.0, *loc).is_some() {
                return Err(OnlineError::DuplicateObservation { user: id.0 });
            }
        }

        let provider = &self.provider;
        let templates = &self.templates;
        let config = &self.config;
        let guard = &enforcer.guard;
        // `enable_enforcement` built the whole ladder, so the workers can
        // share the cache read-only.
        let cache = &enforcer.cache;
        let guard_obs = self.instruments.guard.clone();
        let guard_obs = &guard_obs;
        let journaling = self.store.is_some();

        let jobs: Vec<_> = self
            .shards
            .iter_mut()
            .enumerate()
            .zip(&by_shard)
            .filter(|((_, _), wanted)| !wanted.is_empty())
            .map(|((idx, shard), wanted)| (idx, (idx, shard, wanted)))
            .collect();
        let (mut items, merged, failure) =
            fan_out_shards(jobs, threads, |(shard_idx, shard, wanted), out, delta| {
                let mut rng = shard_rng(seed, shard_idx);
                let mut scratch = ShardScratch::default();
                // Guard every user against their own windows (peek-only;
                // commits follow below).
                let mut outcomes: Vec<(u64, GuardOutcome)> = Vec::with_capacity(wanted.len());
                for (&uid, &loc) in wanted {
                    let session = shard.get(&uid).expect("validated above");
                    let outcome = run_guard_prewarmed(
                        cache,
                        guard,
                        loc,
                        &mut rng,
                        peek_worst_loss(
                            session.windows.iter().map(|w| &w.state),
                            &mut scratch.guard,
                        ),
                    )?;
                    guard_obs.record(&outcome);
                    outcomes.push((uid, outcome));
                }
                // Commit the chosen columns through the normal batched
                // audit path (posterior filtering, ledger, eviction). Both
                // sides iterate in user-id order, so they zip 1:1.
                let columns: BTreeMap<u64, &Vector> = outcomes
                    .iter()
                    .map(|(uid, outcome)| (*uid, &outcome.column))
                    .collect();
                let (reports, shard_delta) =
                    Self::process_shard(provider, templates, shard, &columns, config, &mut scratch);
                delta.absorb(&shard_delta);
                for ((_, outcome), report) in outcomes.into_iter().zip(reports) {
                    let suppressed = outcome.decision == Decision::Suppressed;
                    if suppressed {
                        delta.suppressed += 1;
                    }
                    let column = journaling.then_some(outcome.column);
                    out.push((
                        EnforcedRelease {
                            decision: outcome.decision,
                            attempts: outcome.attempts.len(),
                            report,
                        },
                        suppressed,
                        column,
                    ));
                }
                Ok(())
            });
        // Absorb the deltas from shards that committed even when another
        // shard failed — the stats must stay consistent with the mutated
        // session state.
        self.instruments.absorb(&merged);
        // Journal everything that committed, shard failure or not: a
        // release that mutated a ledger must reach the WAL. (The parallel
        // path applies before journaling; a crash in between loses only
        // never-acknowledged releases, which is sound.)
        items.sort_by_key(|(r, _, _)| r.report.user);
        let mut journal_err = None;
        if journaling {
            for (release, suppressed, column) in &items {
                let uid = release.report.user;
                let shard = self.shard_of(uid);
                let column = column.as_ref().expect("kept while journaling");
                if let Err(e) = Self::journal(
                    &mut self.store,
                    shard,
                    &WalRecord::Observe {
                        user: uid.0,
                        suppressed: *suppressed,
                        column: Cow::Borrowed(column.as_slice()),
                    },
                ) {
                    journal_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            if let OnlineError::ShardPanicked { shard } = &e {
                self.instruments.record_shard_panic(*shard);
            }
            return Err(e);
        }
        if let Some(e) = journal_err {
            return Err(e);
        }
        let releases: Vec<EnforcedRelease> = items.into_iter().map(|(r, _, _)| r).collect();
        self.maybe_checkpoint()?;
        if let Some(t0) = start {
            self.instruments
                .release_batch_seconds
                .observe(t0.elapsed().as_secs_f64());
            self.instruments
                .release_batch_size
                .observe(releases.len() as f64);
            self.instruments
                .update_occupancy(self.shards.iter().map(BTreeMap::len));
        }
        Ok(releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_contains_worker_panics_and_keeps_surviving_deltas() {
        let jobs: Vec<(usize, u32)> = vec![(0, 0), (1, 1), (2, 2)];
        let (mut items, stats, failure) = fan_out_shards(jobs, 3, |job, out, delta| {
            if job == 1 {
                panic!("shard worker blew up");
            }
            out.push(job);
            delta.observations += 1;
            Ok(())
        });
        items.sort_unstable();
        assert_eq!(items, vec![0, 2]);
        assert_eq!(stats.observations, 2, "surviving shards' deltas absorbed");
        assert_eq!(failure, Some(OnlineError::ShardPanicked { shard: 1 }));
    }

    #[test]
    fn fan_out_reports_the_first_error_without_dropping_completed_work() {
        let jobs: Vec<(usize, u32)> = (0..4).map(|i| (i, i as u32)).collect();
        let (items, stats, failure) = fan_out_shards(jobs, 1, |job, out, delta| {
            if job == 2 {
                return Err(OnlineError::UnknownUser { user: 2 });
            }
            out.push(job);
            delta.observations += 1;
            Ok(())
        });
        assert_eq!(items, vec![0, 1]);
        assert_eq!(stats.observations, 2);
        assert_eq!(failure, Some(OnlineError::UnknownUser { user: 2 }));
    }
}
