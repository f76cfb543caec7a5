//! The multi-user service front: sharded sessions, template catalog, and
//! the batched same-timestep ingest path.

use crate::durable::{
    self, DurableError, DurableOptions, DurableStore, Emitter, SessionSnap, SnapshotSource,
    SnapshotState, WalRecord, WalTail, WalWriter, WindowSnap,
};
use crate::obs::{RecoveryInfo, ServiceInstruments, StoreInstruments};
use crate::priors::{same_bits, PriorTable};
use crate::session::{
    report_from_step, BudgetLedger, EventWindow, Session, UserId, UserReport, Verdict,
};
use crate::{OnlineError, Result};
use priste_calibrate::{
    peek_worst_loss, run_guard, suppression_column, Decision, GuardConfig, GuardLadder,
    GuardOutcome,
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
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// One deterministic RNG stream per shard, split from a seed. The parallel
/// release path draws a shard's candidates from it, so they do not depend
/// on how shards are assigned to worker threads; a daemon keeps one stream
/// per shard for its releases, so a shard's draws depend only on the order
/// of its own requests.
pub fn shard_rng(seed: u64, shard: usize) -> StdRng {
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
    // Never more buckets than jobs: the caller's count only caps the
    // workers, so a huge request must not size the bucket list.
    let threads = resolve_threads(threads).min(jobs.len());
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

/// A [`ShardScratch`] lent from the service's free list for one call and
/// handed back when dropped: resident scratch is bounded by the number of
/// concurrent calls, not by the number of shards.
struct Lease<'a> {
    pool: &'a Mutex<Vec<ShardScratch>>,
    scratch: ShardScratch,
}

impl<'a> Lease<'a> {
    fn take(pool: &'a Mutex<Vec<ShardScratch>>) -> Self {
        let scratch = pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        Lease { pool, scratch }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
    }
}

/// One shard: its sessions and, while a durable store is attached, the
/// writer of its WAL segment.
#[derive(Debug)]
struct Shard<P> {
    sessions: BTreeMap<u64, Session<P>>,
    wal: Option<WalWriter>,
}

/// A shard reached through `&mut self`, which no other call can hold: no
/// lock is taken. A shard a panic poisoned is refused.
fn owned<P>(shard: &mut Mutex<Shard<P>>, idx: usize) -> Result<&mut Shard<P>> {
    shard
        .get_mut()
        .map_err(|_| OnlineError::ShardPanicked { shard: idx })
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

/// The by-reference record of a column a mechanism emitted for `cell`.
/// Every domain fits the record's 32-bit cell ([`SessionManager::new`]).
fn emitted(
    user: u64,
    by: Emitter,
    cell: CellId,
    budget: f64,
    column: &Vector,
) -> WalRecord<'static> {
    WalRecord::Emitted {
        user,
        by,
        cell: cell.index() as u32,
        budget,
        hash: durable::word_hash(column.as_slice()),
    }
}

/// How a guard outcome is journaled: a release by reference to its rung,
/// a suppression as the flat column's marker.
fn release_record(user: u64, outcome: &GuardOutcome) -> WalRecord<'static> {
    match outcome.decision {
        Decision::Released { observed, budget } => {
            emitted(user, Emitter::Guard, observed, budget, &outcome.column)
        }
        Decision::Suppressed => WalRecord::Suppressed { user },
    }
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
/// every posterior and window vector where it lives, in shards the caller
/// holds.
struct LiveState<'a, P> {
    fingerprint: u64,
    stats: [u64; 6],
    shards: Vec<&'a BTreeMap<u64, Session<P>>>,
}

impl<P: TransitionProvider> SnapshotSource for LiveState<'_, P> {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn stats(&self) -> [u64; 6] {
        self.stats
    }

    fn num_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn for_each_session(&self, visit: &mut dyn FnMut(SessionSnap<&[f64]>)) {
        for session in self.shards.iter().flat_map(|s| s.values()) {
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
/// # Concurrency
///
/// Each shard sits behind its own mutex, together with its WAL writer. The
/// single-user calls take `&self` and lock only their user's shard:
/// [`SessionManager::ingest`], [`SessionManager::ingest_observed`],
/// [`SessionManager::release`], [`SessionManager::enroll`],
/// [`SessionManager::add_user`], [`SessionManager::attach_event`],
/// [`SessionManager::remove_user`] and [`SessionManager::session`]. Calls
/// for users in different shards run in parallel; calls within one shard
/// run one at a time, in the order they take its lock. Counting users reads
/// per-shard counters and locks nothing. The provider, templates,
/// configuration, mechanism and guard ladder are read-only once set up.
///
/// Set-up ([`SessionManager::register_template`],
/// [`SessionManager::set_mechanism`], [`SessionManager::enable_enforcement`],
/// [`SessionManager::observe`], [`SessionManager::make_durable`]), recovery
/// and the batch paths ([`SessionManager::ingest_batch`],
/// [`SessionManager::ingest_batch_parallel`],
/// [`SessionManager::release_batch`]) take `&mut self`, which excludes
/// every other call: the batch paths reach the shards through
/// `Mutex::get_mut` and take no lock.
///
/// Lock order: a single-user call holds one shard lock at a time. While it
/// holds it, it may take the prior table's lock (registering a prior or
/// attaching a window), which is always taken last and held only for that
/// step. A checkpoint, explicit ([`SessionManager::checkpoint`]) or the
/// automatic one a call runs after releasing its shard lock, takes every
/// shard lock in index order; it is the only holder of more than one.
///
/// Panics: a panic inside a shard's critical section poisons that shard,
/// whose state may be half-committed. From then on every call on the shard
/// fails with [`OnlineError::ShardPanicked`], no checkpoint is written, and
/// [`SessionManager::is_poisoned`] reports it, which is what a daemon fences
/// its routes on. The journal holds every acknowledged commit: recover from
/// it.
///
/// [`LiftedStep`]: priste_quantify::lifted::LiftedStep
#[derive(Debug)]
pub struct SessionManager<P> {
    provider: P,
    templates: Vec<Arc<EventModel>>,
    shards: Vec<Mutex<Shard<P>>>,
    /// Sessions per shard, stored under the shard's lock on every add and
    /// remove, so that counting users locks no shard.
    occupancy: Vec<AtomicUsize>,
    /// Held only while a prior is interned or a window start is looked up.
    priors: Mutex<PriorTable>,
    config: OnlineConfig,
    instruments: ServiceInstruments,
    recovery: Option<RecoveryInfo>,
    /// The mechanism observed cells come from ([`SessionManager::set_mechanism`]);
    /// during recovery, also the source of every by-reference column.
    mechanism: Option<Box<dyn Lppm>>,
    /// The enforcing guard's ladder ([`SessionManager::enable_enforcement`]):
    /// every [`SessionManager::release`] walks it, consulting the user's
    /// event windows *before* anything leaves the mechanism.
    enforcer: Option<GuardLadder>,
    store: Option<DurableStore>,
    /// Free scratch buffers, one lent to each call that steps sessions.
    scratch: Mutex<Vec<ShardScratch>>,
}

impl<P: TransitionProvider + Clone> SessionManager<P> {
    /// Creates an empty service over one shared mobility model.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] from [`OnlineConfig::validate`], or
    /// for a model of more than 2³² states (the journal names cells in 32
    /// bits).
    pub fn new(provider: P, config: OnlineConfig) -> Result<Self> {
        config.validate()?;
        if u32::try_from(provider.num_states().saturating_sub(1)).is_err() {
            return Err(OnlineError::InvalidConfig {
                message: format!(
                    "{} states exceed the journal's 32-bit cell index",
                    provider.num_states()
                ),
            });
        }
        let shards = (0..config.num_shards)
            .map(|_| {
                Mutex::new(Shard {
                    sessions: BTreeMap::new(),
                    wal: None,
                })
            })
            .collect();
        Ok(SessionManager {
            provider,
            templates: Vec::new(),
            shards,
            occupancy: (0..config.num_shards)
                .map(|_| AtomicUsize::new(0))
                .collect(),
            priors: Mutex::default(),
            config,
            instruments: ServiceInstruments::new(),
            recovery: None,
            mechanism: None,
            enforcer: None,
            store: None,
            scratch: Mutex::default(),
        })
    }

    /// Hands the service its mechanism: the LPPM whose released cells
    /// clients report. [`SessionManager::ingest_observed`] turns an observed
    /// cell into its emission column with it, and a durable service then
    /// journals the observation by reference (cell, budget and column hash)
    /// instead of journaling the `m`-long column; recovering such a journal
    /// needs the same mechanism ([`SessionManager::recover`]). Replaces any
    /// mechanism set before. The enforcing guard's ladder
    /// ([`SessionManager::enable_enforcement`]) is separate.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] when the mechanism's domain does not
    /// match the mobility model.
    pub fn set_mechanism(&mut self, lppm: Box<dyn Lppm>) -> Result<()> {
        let m = self.provider.num_states();
        if lppm.num_cells() != m {
            return Err(OnlineError::InvalidConfig {
                message: format!(
                    "mechanism domain ({} cells) does not match the model ({m} states)",
                    lppm.num_cells()
                ),
            });
        }
        self.mechanism = Some(lppm);
        Ok(())
    }

    /// The state-domain size `m` every location and column is checked
    /// against.
    pub fn num_states(&self) -> usize {
        self.provider.num_states()
    }

    /// Whether a mechanism is set ([`SessionManager::set_mechanism`]), so
    /// that [`SessionManager::ingest_observed`] can run.
    pub fn has_mechanism(&self) -> bool {
        self.mechanism.is_some()
    }

    /// Switches the service into **enforcing mode**: instead of merely
    /// auditing caller-supplied emission columns, the service itself holds
    /// the mechanism and every [`SessionManager::release`] consults the
    /// user's event windows through the calibration guard — shrinking the
    /// location budget (geometric backoff) until the release certifies
    /// `guard.target_epsilon`, and suppressing the release when nothing
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
        priste_calibrate::validate_mechanism(
            lppm.as_ref(),
            self.provider.num_states(),
            guard.floor,
        )
        .map_err(|e| OnlineError::InvalidConfig {
            message: e.to_string(),
        })?;
        self.enforcer = Some(GuardLadder::new(lppm, guard)?);
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
        &self,
        id: UserId,
        true_loc: CellId,
        rng: &mut dyn RngCore,
    ) -> Result<EnforcedRelease> {
        let start = self
            .instruments
            .release_seconds
            .is_enabled()
            .then(Instant::now);
        let ladder = self.enforcer.as_ref().ok_or(OnlineError::NotEnforcing)?;
        let m = self.provider.num_states();
        if true_loc.index() >= m {
            return Err(OnlineError::InvalidLocation {
                cell: true_loc.index(),
                num_cells: m,
            });
        }
        let mut scratch = Lease::take(&self.scratch);
        let mut shard = self.lock_shard(self.shard_of(id))?;
        let session = shard
            .sessions
            .get(&id.0)
            .ok_or(OnlineError::UnknownUser { user: id.0 })?;
        let outcome = run_guard(
            ladder,
            true_loc,
            rng,
            peek_worst_loss(
                session.windows.iter().map(|w| &w.state),
                &mut scratch.scratch.guard,
            ),
        )?;
        // Journal the committed column by reference (a suppression as
        // such, so replay reconstructs the stats) before it leaves the
        // mechanism.
        if self.store.is_some() {
            Self::journal(&self.store, &mut shard, &release_record(id.0, &outcome))?;
        }
        let report = self.commit_one(&mut shard, id.0, &outcome.column, &mut scratch.scratch);
        // Count the suppression only once the flat column actually
        // committed — a failed release must not skew the stats — and
        // under the shard lock, so a checkpoint sees both or neither.
        if outcome.decision == Decision::Suppressed {
            self.instruments.suppressed.inc();
        }
        drop(shard);
        drop(scratch);
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
    /// audit machinery (posterior filtering, windows, ledger, eviction) in
    /// a shard the caller holds. The stats move here, under that hold, so
    /// a checkpoint never snapshots a session without its counts.
    fn commit_one(
        &self,
        shard: &mut Shard<P>,
        uid: u64,
        column: &Vector,
        scratch: &mut ShardScratch,
    ) -> UserReport {
        let mut wanted = BTreeMap::new();
        wanted.insert(uid, column);
        let (mut reports, delta) = Self::process_shard(
            &self.provider,
            &self.templates,
            &mut shard.sessions,
            &wanted,
            &self.config,
            scratch,
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
        self.instruments.update_occupancy(self.occupancy());
    }

    /// Sessions per shard, as last stored under each shard's lock.
    fn occupancy(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupancy.iter().map(|n| n.load(Ordering::Relaxed))
    }

    /// Telemetry from crash recovery, when this service was built by
    /// [`SessionManager::recover`] or [`SessionManager::open_durable`].
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// Registered users, counted without locking any shard.
    pub fn num_users(&self) -> usize {
        self.occupancy().sum()
    }

    /// All registered user ids, in ascending id order.
    pub fn users(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self
            .read_all()
            .iter()
            .flat_map(|s| s.sessions.keys().copied().map(UserId))
            .collect();
        ids.sort_unstable_by_key(|id| id.0);
        ids
    }

    /// Active event windows across all users.
    pub fn active_windows(&self) -> usize {
        self.read_all()
            .iter()
            .flat_map(|s| s.sessions.values())
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
    pub fn add_user(&self, id: UserId, pi: Vector) -> Result<()> {
        let pi = self.intern_prior(Arc::new(pi), "session initial distribution")?;
        {
            let mut shard = self.lock_shard(self.shard_of(id))?;
            if shard.sessions.contains_key(&id.0) {
                return Err(OnlineError::DuplicateUser { user: id.0 });
            }
            self.insert_session(&mut shard, id, pi)?;
        }
        self.maybe_checkpoint()
    }

    /// First contact: registers `id` with the prior `pi()` and attaches
    /// `templates` to it, all in one critical section of the user's shard,
    /// unless the user is already registered. Concurrent first requests for
    /// one user therefore register it once. Returns whether this call
    /// registered the user. Failures leave the state as the equivalent
    /// [`SessionManager::add_user`] and [`SessionManager::attach_event`]
    /// calls would: a window that failed to attach is not kept, the
    /// registration is.
    ///
    /// # Errors
    /// As [`SessionManager::add_user`] and
    /// [`SessionManager::attach_event`].
    pub fn enroll(
        &self,
        id: UserId,
        pi: impl FnOnce() -> Vector,
        templates: &[usize],
    ) -> Result<bool> {
        {
            let mut shard = self.lock_shard(self.shard_of(id))?;
            if shard.sessions.contains_key(&id.0) {
                return Ok(false);
            }
            let pi = self.intern_prior(Arc::new(pi()), "session initial distribution")?;
            self.insert_session(&mut shard, id, pi)?;
            for &template in templates {
                self.attach_journaled(&mut shard, id.0, template)?;
            }
        }
        self.maybe_checkpoint()?;
        Ok(true)
    }

    /// Journals and inserts a session the caller checked is new, in a shard
    /// it holds.
    fn insert_session(&self, shard: &mut Shard<P>, id: UserId, pi: Arc<Vector>) -> Result<()> {
        // Journal before applying: the insert below cannot fail, and a
        // crash between the two merely replays a registration whose ack
        // never left the building (at-least-once, harmless).
        Self::journal(
            &self.store,
            shard,
            &WalRecord::AddUser {
                user: id.0,
                pi: Cow::Borrowed(pi.as_slice()),
            },
        )?;
        shard
            .sessions
            .insert(id.0, Session::new(id, pi, self.config.budget));
        self.occupancy[self.shard_of(id)].store(shard.sessions.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Checks a registration prior's length and interns it: a prior
    /// bit-identical to a live interned one shares that one, and a new one
    /// must pass the distribution check first.
    fn intern_prior(&self, pi: Arc<Vector>, op: &'static str) -> Result<Arc<Vector>> {
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
        self.priors()
            .intern(pi)
            .map_err(|e| OnlineError::Quantify(QuantifyError::InvalidInitial(e)))
    }

    /// The prior table. It is a cache of weak handles, so what a panic
    /// left in it is still usable.
    fn priors(&self) -> MutexGuard<'_, PriorTable> {
        self.priors.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of one session, taken under its shard's lock; `None` for an
    /// unknown user or a shard a panic poisoned. The copy shares every
    /// vector with the live session, so it costs `O(windows)`; while it is
    /// alive, the session's next observation writes fresh vectors instead
    /// of overwriting the shared ones.
    pub fn session(&self, id: UserId) -> Option<Session<P>> {
        self.lock_shard(self.shard_of(id))
            .ok()?
            .sessions
            .get(&id.0)
            .cloned()
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
    pub fn attach_event(&self, id: UserId, template: usize) -> Result<()> {
        {
            let mut shard = self.lock_shard(self.shard_of(id))?;
            self.attach_journaled(&mut shard, id.0, template)?;
        }
        self.maybe_checkpoint()
    }

    /// Attaches and journals one window in a shard the caller holds.
    fn attach_journaled(&self, shard: &mut Shard<P>, uid: u64, template: usize) -> Result<()> {
        self.attach_window(&mut shard.sessions, uid, template)?;
        let record = WalRecord::AttachEvent {
            user: uid,
            template: template as u32,
        };
        if let Err(e) = Self::journal(&self.store, shard, &record) {
            // Roll the attach back so the in-memory state never runs ahead
            // of the journal on an I/O failure.
            shard
                .sessions
                .get_mut(&uid)
                .expect("attached above")
                .windows
                .pop();
            return Err(e);
        }
        Ok(())
    }

    /// Attaches `template` to one session without journaling: the window
    /// starts from the (template, prior) pair's cached start when the
    /// session's posterior is an interned prior, and from a fresh one
    /// otherwise.
    fn attach_window(
        &self,
        sessions: &mut BTreeMap<u64, Session<P>>,
        uid: u64,
        template: usize,
    ) -> Result<()> {
        let model = self.template(template)?;
        let session = sessions
            .get_mut(&uid)
            .ok_or(OnlineError::UnknownUser { user: uid })?;
        let pi = session.shared_posterior();
        let provider = &self.provider;
        let start = self.priors().start(pi, template, || {
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
    pub fn remove_user(&self, id: UserId) -> Result<bool> {
        {
            let idx = self.shard_of(id);
            let mut shard = self.lock_shard(idx)?;
            if !shard.sessions.contains_key(&id.0) {
                return Ok(false);
            }
            Self::journal(
                &self.store,
                &mut shard,
                &WalRecord::RemoveUser { user: id.0 },
            )?;
            shard.sessions.remove(&id.0);
            self.occupancy[idx].store(shard.sessions.len(), Ordering::Relaxed);
        }
        self.maybe_checkpoint()?;
        Ok(true)
    }

    /// Ingests one observation for one user. Equivalent to a singleton
    /// [`SessionManager::ingest_batch`], but it locks only the user's shard.
    ///
    /// # Errors
    /// See [`SessionManager::ingest_batch`].
    pub fn ingest(&self, id: UserId, emission_column: Vector) -> Result<UserReport> {
        let start = self
            .instruments
            .ingest_seconds
            .is_enabled()
            .then(Instant::now);
        self.check_emission(emission_column.as_slice())?;
        let report = {
            let mut scratch = Lease::take(&self.scratch);
            let mut shard = self.lock_shard(self.shard_of(id))?;
            if !shard.sessions.contains_key(&id.0) {
                return Err(OnlineError::UnknownUser { user: id.0 });
            }
            // A caller-supplied column is journaled whole (audit path:
            // nothing is suppressed).
            let record = WalRecord::Observe {
                user: id.0,
                suppressed: false,
                column: Cow::Borrowed(emission_column.as_slice()),
            };
            Self::journal(&self.store, &mut shard, &record)?;
            self.commit_one(&mut shard, id.0, &emission_column, &mut scratch.scratch)
        };
        self.maybe_checkpoint()?;
        self.record_ingest(start, 1);
        Ok(report)
    }

    /// Ingests one observation for one user as the cell the service's
    /// mechanism released: the emission column is the mechanism's column
    /// for `observed`, computed here. The result is bit-identical to
    /// [`SessionManager::ingest`] with that column, but a durable service
    /// journals the observation by reference, a 37-byte record instead of
    /// the `8m + 26`-byte column.
    ///
    /// # Errors
    /// [`OnlineError::InvalidLocation`] for a cell outside the domain;
    /// [`OnlineError::UnknownUser`]; [`OnlineError::NoMechanism`] without
    /// [`SessionManager::set_mechanism`]; emission validation and
    /// journaling errors. All are detected before any state is mutated.
    pub fn ingest_observed(&self, id: UserId, observed: CellId) -> Result<UserReport> {
        let start = self
            .instruments
            .ingest_seconds
            .is_enabled()
            .then(Instant::now);
        let m = self.provider.num_states();
        if observed.index() >= m {
            return Err(OnlineError::InvalidLocation {
                cell: observed.index(),
                num_cells: m,
            });
        }
        let report = {
            let mut scratch = Lease::take(&self.scratch);
            let mut shard = self.lock_shard(self.shard_of(id))?;
            if !shard.sessions.contains_key(&id.0) {
                return Err(OnlineError::UnknownUser { user: id.0 });
            }
            let mechanism = self.mechanism.as_ref().ok_or(OnlineError::NoMechanism)?;
            // The column is built inside the critical section, so a
            // panicking mechanism poisons the shard like any other
            // mid-update panic.
            let budget = mechanism.budget();
            let column = mechanism.emission_column(observed);
            self.check_emission(column.as_slice())?;
            if self.store.is_some() {
                let record = emitted(id.0, Emitter::Source, observed, budget, &column);
                Self::journal(&self.store, &mut shard, &record)?;
            }
            self.commit_one(&mut shard, id.0, &column, &mut scratch.scratch)
        };
        self.maybe_checkpoint()?;
        self.record_ingest(start, 1);
        Ok(report)
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
        let mut scratch = Lease::take(&self.scratch);
        for ((idx, shard), wanted) in self.shards.iter_mut().enumerate().zip(&by_shard) {
            if wanted.is_empty() {
                continue;
            }
            let (mut shard_reports, delta) = Self::process_shard(
                &self.provider,
                &self.templates,
                &mut owned(shard, idx)?.sessions,
                wanted,
                &self.config,
                &mut scratch.scratch,
            );
            self.instruments.absorb(&delta);
            reports.append(&mut shard_reports);
        }
        drop(scratch);
        reports.sort_by_key(|r| r.user);
        self.maybe_checkpoint()?;
        self.record_ingest(start, batch.len());
        Ok(reports)
    }

    /// Records an ingest of `batch` observations that started at `start`
    /// (`None` while the telemetry is off).
    fn record_ingest(&self, start: Option<Instant>, batch: usize) {
        if let Some(t0) = start {
            self.instruments
                .ingest_seconds
                .observe(t0.elapsed().as_secs_f64());
            self.instruments.ingest_batch_size.observe(batch as f64);
            self.instruments.update_occupancy(self.occupancy());
        }
    }

    /// Appends one [`WalRecord::Observe`] per batch entry: a caller-supplied
    /// column is journaled whole (audit path: nothing is suppressed).
    fn journal_observations(&mut self, by_shard: &[BTreeMap<u64, &Vector>]) -> Result<()> {
        if self.store.is_none() {
            return Ok(());
        }
        for ((idx, shard), wanted) in self.shards.iter_mut().enumerate().zip(by_shard) {
            let shard = owned(shard, idx)?;
            for (&uid, col) in wanted {
                Self::journal(
                    &self.store,
                    shard,
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

    /// Appends a record to `shard`'s WAL segment; a no-op for in-memory
    /// services.
    fn journal(
        store: &Option<DurableStore>,
        shard: &mut Shard<P>,
        record: &WalRecord,
    ) -> Result<()> {
        if let (Some(store), Some(wal)) = (store, shard.wal.as_mut()) {
            store.append(wal, record)?;
        }
        Ok(())
    }

    /// Compacts the WAL into a fresh snapshot when the auto-checkpoint
    /// threshold has been crossed. The caller holds no shard lock.
    fn maybe_checkpoint(&self) -> Result<()> {
        let Some(store) = self.store.as_ref().filter(|s| s.due()) else {
            return Ok(());
        };
        let mut shards = self.lock_all()?;
        // Another call may have checkpointed while this one waited.
        if store.due() {
            self.checkpoint_locked(store, &mut shards)?;
        }
        Ok(())
    }

    /// Validation pass for one same-timestep batch (no mutation): emission
    /// shape, user existence, one-observation-per-user. Returns the
    /// per-shard observation maps.
    fn validate_batch<'b>(
        &mut self,
        batch: &'b [(UserId, Vector)],
    ) -> Result<Vec<BTreeMap<u64, &'b Vector>>> {
        let mut by_shard: Vec<BTreeMap<u64, &Vector>> =
            (0..self.shards.len()).map(|_| BTreeMap::new()).collect();
        for (id, col) in batch {
            self.check_emission(col.as_slice())?;
            let idx = self.shard_of(*id);
            if !owned(&mut self.shards[idx], idx)?
                .sessions
                .contains_key(&id.0)
            {
                return Err(OnlineError::UnknownUser { user: id.0 });
            }
            if by_shard[idx].insert(id.0, col).is_some() {
                return Err(OnlineError::DuplicateObservation { user: id.0 });
            }
        }
        Ok(by_shard)
    }

    /// Checks an emission column: one finite, non-negative entry per
    /// state.
    ///
    /// # Errors
    /// [`QuantifyError::InvalidEmission`] (wrapped) otherwise.
    pub fn check_emission(&self, column: &[f64]) -> Result<()> {
        let m = self.provider.num_states();
        if column.len() != m || column.iter().any(|&x| x < 0.0 || !x.is_finite()) {
            return Err(OnlineError::Quantify(QuantifyError::InvalidEmission {
                expected: m,
                actual: column.len(),
            }));
        }
        Ok(())
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

    /// The shard `id`'s session lives in: `id % num_shards`.
    pub fn shard_of(&self, id: UserId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// Whether a panic poisoned any shard: its state may be half-committed,
    /// so a daemon stops serving until it is restarted from the journal.
    pub fn is_poisoned(&self) -> bool {
        self.shards.iter().any(Mutex::is_poisoned)
    }

    /// Locks shard `idx` for one call, recording the wait in
    /// `online_shard_lock_wait_seconds` while telemetry is on.
    fn lock_shard(&self, idx: usize) -> Result<MutexGuard<'_, Shard<P>>> {
        let wait = &self.instruments.shard_lock_wait_seconds;
        let start = wait.is_enabled().then(Instant::now);
        let shard = self.shard(idx);
        if let Some(t0) = start {
            wait.observe(t0.elapsed().as_secs_f64());
        }
        shard
    }

    /// Locks shard `idx`; a shard a panic poisoned is refused.
    fn shard(&self, idx: usize) -> Result<MutexGuard<'_, Shard<P>>> {
        self.shards[idx]
            .lock()
            .map_err(|_| OnlineError::ShardPanicked { shard: idx })
    }

    /// Every shard, locked in index order (the lock order a checkpoint
    /// relies on).
    fn lock_all(&self) -> Result<Vec<MutexGuard<'_, Shard<P>>>> {
        (0..self.shards.len()).map(|idx| self.shard(idx)).collect()
    }

    /// Every shard, locked in index order for a read that also accepts a
    /// shard a panic poisoned.
    fn read_all(&self) -> Vec<MutexGuard<'_, Shard<P>>> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    // ---- Durability -----------------------------------------------------

    /// Fingerprint binding durable files to this service's scenario: the
    /// state-domain size, the accounting-relevant configuration, and the
    /// registered template catalog. The mechanism is bound per record
    /// instead: a column record carries its column, and a by-reference
    /// record the hash of the column its mechanism produced, which replay
    /// checks against the column the recovery mechanism rebuilds. Recovery
    /// under another mechanism therefore fails at the first record it
    /// would replay differently, a journal of explicit columns recovers
    /// without one, and replay never re-runs the guard.
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

    /// The live state of `shards`, which the caller holds, as a snapshot
    /// source: checkpoints and digests encode the sessions' vectors in
    /// place instead of copying them.
    fn live_state<'a>(&self, shards: &'a [MutexGuard<'_, Shard<P>>]) -> LiveState<'a, P> {
        LiveState {
            fingerprint: self.fingerprint(),
            stats: self.stats().to_array(),
            shards: shards.iter().map(|s| &s.sessions).collect(),
        }
    }

    /// Deterministic digest of the full service state (FNV-1a streamed over
    /// the logical snapshot encoding, every vector inline): equal digests
    /// mean bit-identical posteriors, windows, ledgers, and counters. The
    /// equality witness used by the crash-recovery tests. It does not
    /// depend on which vectors share an allocation, so a recovered service
    /// that shares more than the live one did still digests the same.
    pub fn state_digest(&self) -> u64 {
        let shards = self.read_all();
        let mut hash = durable::Fnv1a64::new();
        durable::encode_payload(
            &self.live_state(&shards),
            &mut hash,
            durable::Layout::Logical,
        );
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
        let obs = self
            .instruments
            .registry
            .as_ref()
            .map_or_else(StoreInstruments::disabled, StoreInstruments::from_registry);
        let mut shards = self.lock_all()?;
        let (store, wals) = DurableStore::open(
            dir,
            opts,
            self.fingerprint(),
            self.config.num_shards,
            start,
            &self.live_state(&shards),
            obs,
        )?;
        for (shard, wal) in shards.iter_mut().zip(wals) {
            shard.wal = Some(wal);
        }
        drop(shards);
        self.store = Some(store);
        Ok(())
    }

    /// The attached durable directory, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(DurableStore::dir)
    }

    /// Compacts the WAL into a fresh snapshot generation. Called
    /// automatically every [`DurableOptions::snapshot_every`] records;
    /// callers may also checkpoint explicitly (e.g. before shutdown). It
    /// holds every shard's lock, taken in index order, while it runs.
    ///
    /// # Errors
    /// [`OnlineError::InvalidConfig`] when no store is attached;
    /// [`OnlineError::ShardPanicked`] when a panic poisoned a shard;
    /// [`OnlineError::Durable`] on I/O failure.
    pub fn checkpoint(&self) -> Result<()> {
        let store = self
            .store
            .as_ref()
            .ok_or_else(|| OnlineError::InvalidConfig {
                message: "no durable store attached; call make_durable or open_durable first"
                    .into(),
            })?;
        self.checkpoint_locked(store, &mut self.lock_all()?)
    }

    /// Writes the next generation from `shards`, every shard in index
    /// order, and switches them to its WAL segments. A failure leaves every
    /// shard appending to the current generation.
    fn checkpoint_locked(
        &self,
        store: &DurableStore,
        shards: &mut [MutexGuard<'_, Shard<P>>],
    ) -> Result<()> {
        let wals = store.checkpoint(&self.live_state(shards))?;
        for (shard, wal) in shards.iter_mut().zip(wals) {
            shard.wal = Some(wal);
        }
        Ok(())
    }

    /// Read-only crash recovery: rebuilds a service from the newest valid
    /// snapshot in `dir` plus a deterministic replay of its WAL tail. The
    /// scenario (provider domain, config, templates) must match the one
    /// the directory was written under — a fingerprint mismatch is
    /// rejected rather than silently mixing state.
    ///
    /// `mechanism` becomes the recovered service's mechanism
    /// ([`SessionManager::set_mechanism`]), and replay rebuilds every
    /// by-reference column from it: an observed cell's from the mechanism
    /// itself, a guarded release's from its rung at the journaled budget.
    /// Pass the mechanism the service ran with; a journal of explicit
    /// columns only needs none. See the [`crate::durable`] module docs.
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
    /// state, and [`DurableError::Replay`] naming the first by-reference
    /// record `mechanism` (or its absence) cannot reproduce;
    /// quantify/session validation errors when persisted state fails its
    /// invariants.
    pub fn recover(
        provider: P,
        config: OnlineConfig,
        templates: Vec<StEvent>,
        dir: &Path,
        mechanism: Option<Box<dyn Lppm>>,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let mut svc = Self::with_scenario(provider, config, templates, mechanism)?;
        // Recovery runs before anyone else can see the service: the shard
        // locks below are never contended.
        let rec = durable::recover_dir(dir, svc.fingerprint(), svc.config.num_shards)?;
        svc.restore_snapshot(rec.state)?;
        let mut replayed_records = 0u64;
        let mut rungs = HashMap::new();
        for (shard, scan) in rec.wal.iter().enumerate() {
            let segment = durable::wal_path(dir, rec.seq, shard);
            for (index, record) in scan.records.iter().enumerate() {
                svc.replay(record, &segment, index, &mut rungs)?;
                replayed_records += 1;
            }
        }
        let mut torn_records = 0u64;
        for (shard_idx, scan) in rec.wal.iter().enumerate() {
            if let WalTail::Torn { user } = scan.tail {
                torn_records += 1;
                let mut exhausted_one = false;
                if let Some(uid) = user {
                    let idx = svc.shard_of(UserId(uid));
                    if let Some(session) = owned(&mut svc.shards[idx], idx)?.sessions.get_mut(&uid)
                    {
                        session.ledger_mut().force_exhaust();
                        exhausted_one = true;
                    }
                }
                // Unattributable tear — or an attribution pointing at a
                // user that does not exist, which means the prefix bytes
                // themselves are suspect: exhaust the whole shard.
                if !exhausted_one {
                    svc.exhaust_shard(shard_idx)?;
                }
            }
        }
        if rec.skipped_newer {
            for shard in 0..svc.shards.len() {
                svc.exhaust_shard(shard)?;
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
        mechanism: Option<Box<dyn Lppm>>,
    ) -> Result<Self> {
        let holds_state = match durable::list_generations(dir) {
            Ok(generations) => !generations.is_empty(),
            Err(DurableError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }) => false,
            Err(e) => return Err(e.into()),
        };
        let mut svc = if holds_state {
            Self::recover(provider, config, templates, dir, mechanism)?
        } else {
            Self::with_scenario(provider, config, templates, mechanism)?
        };
        svc.make_durable(dir, opts)?;
        Ok(svc)
    }

    /// An empty service with its templates registered and, when given, its
    /// mechanism set.
    fn with_scenario(
        provider: P,
        config: OnlineConfig,
        templates: Vec<StEvent>,
        mechanism: Option<Box<dyn Lppm>>,
    ) -> Result<Self> {
        let mut svc = Self::new(provider, config)?;
        for t in templates {
            svc.register_template(t)?;
        }
        if let Some(lppm) = mechanism {
            svc.set_mechanism(lppm)?;
        }
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
    fn restore_snapshot(&self, state: SnapshotState) -> Result<()> {
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
                let start = self.priors().start(&pi, template, || {
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
            let idx = self.shard_of(id);
            let mut shard = self.shard(idx)?;
            if shard.sessions.insert(snap.user, session).is_some() {
                return Err(OnlineError::DuplicateUser { user: snap.user });
            }
            self.occupancy[idx].store(shard.sessions.len(), Ordering::Relaxed);
        }
        self.instruments
            .store_stats(ServiceStats::from_array(state.stats));
        Ok(())
    }

    /// The interned prior for a decoded vector, interned once per decoded
    /// allocation.
    fn intern_decoded(
        &self,
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

    /// Applies one journaled record, the `index`-th of `segment`, without
    /// re-journaling it. Replaying an observation runs the exact same
    /// per-row arithmetic as the original (possibly batched) execution —
    /// posterior propagation and lifted window steps are row-independent —
    /// on the same column, journaled or rebuilt bit for bit, so the
    /// recovered state is bit-identical to what the live service held
    /// after committing it. `rungs` holds the guard rungs rebuilt so far,
    /// by budget bits.
    fn replay(
        &self,
        record: &WalRecord,
        segment: &Path,
        index: usize,
        rungs: &mut HashMap<u64, Box<dyn Lppm>>,
    ) -> Result<()> {
        match record {
            WalRecord::AddUser { user, pi } => {
                let id = UserId(*user);
                let pi = self.intern_prior(
                    Arc::new(Vector::from(pi.as_ref())),
                    "journaled initial distribution",
                )?;
                let mut shard = self.shard(self.shard_of(id))?;
                if shard.sessions.contains_key(user) {
                    return Err(OnlineError::DuplicateUser { user: *user });
                }
                // No store is attached during recovery: nothing is journaled.
                self.insert_session(&mut shard, id, pi)
            }
            WalRecord::RemoveUser { user } => {
                let idx = self.shard_of(UserId(*user));
                let mut shard = self.shard(idx)?;
                shard.sessions.remove(user);
                self.occupancy[idx].store(shard.sessions.len(), Ordering::Relaxed);
                Ok(())
            }
            WalRecord::AttachEvent { user, template } => {
                let mut shard = self.shard(self.shard_of(UserId(*user)))?;
                self.attach_window(&mut shard.sessions, *user, *template as usize)
            }
            WalRecord::Observe {
                user,
                suppressed,
                column,
            } => self.replay_observe(*user, &Vector::from(column.to_vec()), *suppressed),
            WalRecord::Emitted {
                user,
                by,
                cell,
                budget,
                hash,
            } => {
                let column = self
                    .rebuild_column(rungs, *user, *by, *cell, *budget, *hash)
                    .map_err(|detail| DurableError::Replay {
                        path: segment.to_path_buf(),
                        record: index,
                        detail,
                    })?;
                self.replay_observe(*user, &column, false)
            }
            WalRecord::Suppressed { user } => {
                let column = suppression_column(self.provider.num_states());
                self.replay_observe(*user, &column, true)
            }
        }
    }

    /// The column a by-reference record names, rebuilt from the service's
    /// mechanism (a guarded release's from its rung at the journaled
    /// budget, built once into `rungs`) and checked against the journaled
    /// hash; `Err` says why it cannot be.
    fn rebuild_column(
        &self,
        rungs: &mut HashMap<u64, Box<dyn Lppm>>,
        user: u64,
        by: Emitter,
        cell: u32,
        budget: f64,
        hash: u64,
    ) -> std::result::Result<Vector, String> {
        let what = match by {
            Emitter::Source => format!("observed cell {cell} of user {user} at budget {budget}"),
            Emitter::Guard => {
                format!("guarded release of cell {cell} to user {user} at budget {budget}")
            }
        };
        let m = self.provider.num_states();
        let Some(mechanism) = self.mechanism.as_deref() else {
            return Err(format!(
                "{what} is journaled by reference, and recovery was given no mechanism"
            ));
        };
        if cell as usize >= m {
            return Err(format!("{what}: the cell is outside the {m}-cell domain"));
        }
        let lppm = match by {
            _ if budget == mechanism.budget() => mechanism,
            Emitter::Source => {
                return Err(format!(
                    "{what}: the recovery mechanism's budget is {}",
                    mechanism.budget()
                ));
            }
            Emitter::Guard => match rungs.entry(budget.to_bits()) {
                Entry::Occupied(rung) => &**rung.into_mut(),
                Entry::Vacant(slot) => {
                    let rung = mechanism
                        .with_budget(budget)
                        .map_err(|e| format!("{what}: {e}"))?;
                    &**slot.insert(rung)
                }
            },
        };
        let column = lppm.emission_column(CellId(cell as usize));
        let rebuilt = durable::word_hash(column.as_slice());
        if rebuilt != hash {
            return Err(format!(
                "{what}: the recovery mechanism's column hashes to {rebuilt:#018x}, \
                 the journal holds {hash:#018x}"
            ));
        }
        Ok(column)
    }

    /// Replays one committed observation as a singleton commit.
    fn replay_observe(&self, user: u64, column: &Vector, suppressed: bool) -> Result<()> {
        self.check_emission(column.as_slice())?;
        let mut scratch = Lease::take(&self.scratch);
        let mut shard = self.shard(self.shard_of(UserId(user)))?;
        if !shard.sessions.contains_key(&user) {
            return Err(OnlineError::UnknownUser { user });
        }
        let _ = self.commit_one(&mut shard, user, column, &mut scratch.scratch);
        if suppressed {
            self.instruments.suppressed.inc();
        }
        Ok(())
    }

    /// Conservative rounding: exhausts every ledger on one shard.
    fn exhaust_shard(&mut self, idx: usize) -> Result<()> {
        for session in owned(&mut self.shards[idx], idx)?.sessions.values_mut() {
            session.ledger_mut().force_exhaust();
        }
        Ok(())
    }
}

/// The parallel batched paths — available when the shared model is
/// thread-safe (the pipeline's `Arc`-backed provider is). Work fans out
/// over the service's own shards with `std::thread::scope`: shards hold
/// disjoint sessions, so there is nothing to lock, and the enforcing path
/// shares one immutable [`GuardLadder`].
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

        let jobs = self
            .shards
            .iter_mut()
            .enumerate()
            .zip(&by_shard)
            .filter(|((_, _), wanted)| !wanted.is_empty())
            .map(|((idx, shard), wanted)| Ok((idx, (&mut owned(shard, idx)?.sessions, wanted))))
            .collect::<Result<Vec<_>>>()?;
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
        self.record_ingest(start, batch.len());
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
        let ladder = self.enforcer.as_ref().ok_or(OnlineError::NotEnforcing)?;
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
            if !owned(&mut self.shards[shard], shard)?
                .sessions
                .contains_key(&id.0)
            {
                return Err(OnlineError::UnknownUser { user: id.0 });
            }
            if by_shard[shard].insert(id.0, *loc).is_some() {
                return Err(OnlineError::DuplicateObservation { user: id.0 });
            }
        }

        let provider = &self.provider;
        let templates = &self.templates;
        let config = &self.config;
        let guard_obs = self.instruments.guard.clone();
        let guard_obs = &guard_obs;
        let journaling = self.store.is_some();

        let jobs = self
            .shards
            .iter_mut()
            .enumerate()
            .zip(&by_shard)
            .filter(|((_, _), wanted)| !wanted.is_empty())
            .map(|((idx, shard), wanted)| {
                Ok((idx, (idx, &mut owned(shard, idx)?.sessions, wanted)))
            })
            .collect::<Result<Vec<_>>>()?;
        let (mut items, merged, failure) =
            fan_out_shards(jobs, threads, |(shard_idx, shard, wanted), out, delta| {
                let mut rng = shard_rng(seed, shard_idx);
                let mut scratch = ShardScratch::default();
                // Guard every user against their own windows (peek-only;
                // commits follow below).
                let mut outcomes: Vec<(u64, GuardOutcome)> = Vec::with_capacity(wanted.len());
                for (&uid, &loc) in wanted {
                    let session = shard.get(&uid).expect("validated above");
                    let outcome = run_guard(
                        ladder,
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
                for ((uid, outcome), report) in outcomes.into_iter().zip(reports) {
                    if outcome.decision == Decision::Suppressed {
                        delta.suppressed += 1;
                    }
                    let record = journaling.then(|| release_record(uid, &outcome));
                    out.push((
                        EnforcedRelease {
                            decision: outcome.decision,
                            attempts: outcome.attempts.len(),
                            report,
                        },
                        record,
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
        items.sort_by_key(|(r, _)| r.report.user);
        let mut journal_err = None;
        for (release, record) in &items {
            let Some(record) = record else { continue };
            let idx = self.shard_of(release.report.user);
            let journaled = owned(&mut self.shards[idx], idx)
                .and_then(|shard| Self::journal(&self.store, shard, record));
            if let Err(e) = journaled {
                journal_err = Some(e);
                break;
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
        let releases: Vec<EnforcedRelease> = items.into_iter().map(|(r, _)| r).collect();
        self.maybe_checkpoint()?;
        if let Some(t0) = start {
            self.instruments
                .release_batch_seconds
                .observe(t0.elapsed().as_secs_f64());
            self.instruments
                .release_batch_size
                .observe(releases.len() as f64);
            self.instruments.update_occupancy(self.occupancy());
        }
        Ok(releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_geo::GridMap;
    use priste_lppm::PlanarLaplace;
    use priste_markov::{gaussian_kernel_chain, Homogeneous};
    use proptest::prelude::*;

    /// A 3×3 world, the α = 2 Planar Laplace mechanism on it, and a
    /// two-shard durable service in `dir` holding user 5 (shard 1), whose
    /// store is ready to take hand-made records.
    fn durable_world(
        dir: &Path,
    ) -> (
        Arc<Homogeneous>,
        PlanarLaplace,
        SessionManager<Arc<Homogeneous>>,
    ) {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let chain = Arc::new(Homogeneous::new(gaussian_kernel_chain(&grid, 1.0).unwrap()));
        let plm = PlanarLaplace::new(grid, 2.0).unwrap();
        let mut svc = SessionManager::new(Arc::clone(&chain), two_shards()).unwrap();
        svc.add_user(UserId(5), Vector::uniform(9)).unwrap();
        let opts = DurableOptions {
            fsync: false,
            snapshot_every: 0,
        };
        svc.make_durable(dir, opts).unwrap();
        (chain, plm, svc)
    }

    fn two_shards() -> OnlineConfig {
        OnlineConfig {
            num_shards: 2,
            ..OnlineConfig::default()
        }
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "priste-manager-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Recovers `dir` with `mechanism` and returns the replay failure.
    fn replay_failure(
        chain: Arc<Homogeneous>,
        dir: &Path,
        mechanism: Option<Box<dyn Lppm>>,
    ) -> (std::path::PathBuf, usize, String) {
        match SessionManager::recover(chain, two_shards(), Vec::new(), dir, mechanism) {
            Err(OnlineError::Durable(DurableError::Replay {
                path,
                record,
                detail,
            })) => (path, record, detail),
            other => panic!("expected a replay failure, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A by-reference record that decodes but does not hold — a cell
        /// outside the domain, a hash no column of the mechanism has, an
        /// observed cell at another budget than the mechanism's — fails
        /// recovery with a replay error naming its segment and position,
        /// and never panics. So does any by-reference record when recovery
        /// is given no mechanism.
        #[test]
        fn unreplayable_by_reference_records_fail_recovery(
            cell in 0u32..=u32::MAX,
            flip in 1u64..=u64::MAX,
            budget in 1e-3f64..2.0,
            kind in 0usize..4,
        ) {
            let dir = tempdir("unreplayable");
            let (chain, plm, mut svc) = durable_world(&dir);
            let inside = CellId(cell as usize % 9);
            let hash = |lppm: &dyn Lppm| durable::word_hash(lppm.emission_column(inside).as_slice());
            let rung = plm.with_budget(budget).unwrap();
            let (by, cell, budget, hash) = match kind {
                0 => (Emitter::Source, 9 + cell % (u32::MAX - 9), 2.0, hash(&plm)),
                1 => (Emitter::Source, inside.0 as u32, 2.0, hash(&plm) ^ flip),
                2 => (Emitter::Guard, inside.0 as u32, budget, hash(rung.as_ref()) ^ flip),
                _ => (Emitter::Source, inside.0 as u32, budget, hash(rung.as_ref())),
            };
            let record = WalRecord::Emitted { user: 5, by, cell, budget, hash };
            let wal = svc.shards[1].get_mut().unwrap().wal.as_mut().unwrap();
            svc.store.as_ref().unwrap().append(wal, &record).unwrap();
            drop(svc);
            let (path, index, detail) = replay_failure(Arc::clone(&chain), &dir, Some(Box::new(plm)));
            prop_assert!(path.ends_with("wal-0000000000000001-0001.log"), "{}", path.display());
            prop_assert_eq!(index, 0);
            prop_assert!(detail.contains("of user 5") || detail.contains("to user 5"), "{}", detail);
            let (_, _, detail) = replay_failure(chain, &dir, None);
            prop_assert!(detail.contains("no mechanism"), "{}", detail);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

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
    fn huge_thread_counts_match_one_thread() {
        // A thread count far above the shard count (the CLI passes
        // `--threads` through) caps the workers at one per non-empty shard.
        let fleet = || {
            let grid = GridMap::new(3, 3, 1.0).unwrap();
            let chain = Arc::new(Homogeneous::new(gaussian_kernel_chain(&grid, 1.0).unwrap()));
            let config = OnlineConfig {
                num_shards: 3,
                ..OnlineConfig::default()
            };
            let mut svc = SessionManager::new(chain, config).unwrap();
            let region = priste_geo::Region::from_one_based_range(9, 1, 3).unwrap();
            let event = priste_event::Presence::new(region, 1, 3).unwrap().into();
            let tpl = svc.register_template(event).unwrap();
            for u in 0..7 {
                svc.add_user(UserId(u), Vector::uniform(9)).unwrap();
                svc.attach_event(UserId(u), tpl).unwrap();
            }
            let plm = PlanarLaplace::new(grid, 3.0).unwrap();
            svc.enable_enforcement(Box::new(plm), GuardConfig::default())
                .unwrap();
            svc
        };
        let column = |u: u64| {
            let mut col = Vector::filled(9, 0.1);
            col[(u % 9) as usize] = 0.5;
            col
        };
        let ingest: Vec<(UserId, Vector)> = (0..7).map(|u| (UserId(u), column(u))).collect();
        let release: Vec<(UserId, CellId)> = (0..7)
            .map(|u| (UserId(u), CellId((u % 9) as usize)))
            .collect();
        let run = |threads: usize| {
            let mut svc = fleet();
            let reports = svc.ingest_batch_parallel(&ingest, threads).unwrap();
            let releases = svc.release_batch(&release, 11, threads).unwrap();
            (reports, releases, svc.stats())
        };
        assert_eq!(run(usize::MAX), run(1));
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
