//! The in-process shadow: a few users replay the daemon's per-user inputs
//! through direct calls into each layer. The ingest replay checks the
//! daemon's spend bit for bit; under `--trace 1` the timed calls give the
//! per-layer ladder, one row per layer boundary.

use crate::trace::Tracer;
use crate::world::{Inputs, World};
use priste_calibrate::GuardConfig;
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::Homogeneous;
use priste_online::{DurableOptions, OnlineConfig, SessionManager, UserId};
use priste_quantify::{IncrementalTwoWorld, TwoWorldEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Layer metrics by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Windows observe this many steps before eviction: the event ends at
/// t = 5 and lingers two more steps.
const WINDOW_STEPS: usize = 7;

/// Batch size of the batched lifted-step row.
const BATCH: usize = 64;

/// The daemon's service, as the benchmark registers it: every listed user
/// with a uniform prior and the event template attached.
pub fn service(
    world: &World,
    users: impl IntoIterator<Item = u64>,
) -> SessionManager<Arc<Homogeneous>> {
    let mut svc =
        SessionManager::new(Arc::clone(&world.provider), OnlineConfig::default()).expect("service");
    let tpl = svc
        .register_template(world.event.clone())
        .expect("template");
    let pi = Vector::uniform(world.num_cells());
    for u in users {
        svc.add_user(UserId(u), pi.clone()).expect("user");
        svc.attach_event(UserId(u), tpl).expect("attach");
    }
    svc
}

/// Fsync off, no automatic compaction: the WAL grows by one record per
/// ingest and snapshots happen at open and at drain.
pub fn durable_options() -> DurableOptions {
    DurableOptions {
        fsync: false,
        snapshot_every: 0,
    }
}

/// Cell the guard primer observes and releases: cell 0 lies in the
/// protected region.
pub const PRIMER_CELL: usize = 0;

/// An emission column that pins the user to [`PRIMER_CELL`]. Ingested
/// first, it pushes the user's window loss past ε, so the primer's release
/// cannot certify at any budget and walks the guard's whole backoff ladder.
/// The guard builds its rungs lazily (an `O(m²)` mechanism each); priming
/// builds them all during set-up instead of at random inside a timed phase.
pub fn primer_column(m: usize) -> Vector {
    let mut column = vec![0.0; m];
    column[PRIMER_CELL] = 1.0;
    Vector::from(column)
}

/// Rungs of the default guard's ladder from `base` down to its floor —
/// the attempts a fully walked release makes.
pub fn ladder_rungs(base: f64) -> usize {
    let guard = GuardConfig::default();
    let mut budget = base;
    let mut rungs = 1;
    while budget > guard.floor {
        budget = (budget * guard.backoff).max(guard.floor);
        rungs += 1;
    }
    rungs
}

/// Primes an in-process enforcing service with user `user` (see
/// [`primer_column`]); returns the primer release's attempts.
fn prime(svc: &mut SessionManager<Arc<Homogeneous>>, world: &World, user: u64) -> usize {
    let id = UserId(user);
    svc.add_user(id, Vector::uniform(world.num_cells()))
        .expect("primer user");
    svc.attach_event(id, 0).expect("primer window");
    svc.ingest(id, primer_column(world.num_cells()))
        .expect("primer ingest");
    let mut rng = StdRng::seed_from_u64(0);
    svc.release(id, priste_geo::CellId(PRIMER_CELL), &mut rng)
        .expect("primer release")
        .attempts
}

/// The shadow users and the rounds they replay.
pub struct Shadow<'a> {
    pub world: &'a World,
    pub plm: &'a PlanarLaplace,
    pub inputs: &'a Inputs,
    pub ids: Vec<usize>,
    pub rounds: usize,
}

/// Mean of `total` seconds over `n` calls, in µs.
fn mean_us(total: f64, n: usize) -> f64 {
    total * 1e6 / n.max(1) as f64
}

impl Shadow<'_> {
    fn calls(&self) -> usize {
        self.ids.len() * self.rounds
    }

    /// Replays the shadow users' observed cells through an in-process
    /// service (journaled to `durable` when given) in round order. Returns
    /// each user's spend and the mean µs per ingest call.
    pub fn ingest(&self, durable: Option<&Path>, tracer: &Tracer, parent: u64) -> (Vec<f64>, f64) {
        let mut svc = service(self.world, self.ids.iter().map(|&u| u as u64));
        if let Some(dir) = durable {
            svc.make_durable(dir, durable_options())
                .expect("shadow make_durable");
        }
        let name = if durable.is_some() {
            "online.ingest_durable"
        } else {
            "online.ingest"
        };
        let mut total = 0.0;
        for r in 0..self.rounds {
            for &u in &self.ids {
                let column = self.plm.emission_column(self.inputs.observed(u, r));
                let (report, dt) =
                    tracer.time(name, parent, || svc.ingest(UserId(u as u64), column));
                report.expect("shadow ingest");
                total += dt;
            }
        }
        let spent = self
            .ids
            .iter()
            .map(|&u| {
                svc.session(UserId(u as u64))
                    .expect("shadow user")
                    .ledger()
                    .spent()
            })
            .collect();
        (spent, mean_us(total, self.calls()))
    }

    /// Replays the shadow users' true cells through an in-process enforcing
    /// service; mean µs per release call.
    pub fn release(&self, tracer: &Tracer, parent: u64) -> f64 {
        let mut svc = service(self.world, self.ids.iter().map(|&u| u as u64));
        svc.enable_enforcement(Box::new(self.plm.clone()), GuardConfig::default())
            .expect("enforcement");
        let primer = self.inputs.users as u64;
        prime(&mut svc, self.world, primer);
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0.0;
        for r in 0..self.rounds {
            for &u in &self.ids {
                let truth = self.inputs.truth(u, r);
                let (release, dt) = tracer.time("online.release", parent, || {
                    svc.release(UserId(u as u64), truth, &mut rng)
                });
                release.expect("shadow release");
                total += dt;
            }
        }
        mean_us(total, self.calls())
    }

    /// The kernel rows of the ladder: transition kernel, mechanism and the
    /// streaming quantifier, timed on the shadow users' inputs.
    pub fn kernels(&self, tracer: &Tracer, parent: u64, out: &mut Metrics) {
        let world = self.world;
        let m = world.num_cells();
        let provider = world.provider.as_ref();
        let transition = provider.model().transition_matrix();
        let uniform = Vector::uniform(m);
        let calls = self.calls();

        // The allocation-free kernel form the service's posterior
        // propagation and the lifted steps call.
        out.insert("markov.nnz", transition.nnz() as f64);
        let mut p = uniform.as_slice().to_vec();
        let mut q = vec![0.0; m];
        let (_, dt) = tracer.time("markov.vecmat", parent, || {
            for _ in 0..calls {
                transition.vecmat_into(&p, &mut q);
                std::mem::swap(&mut p, &mut q);
            }
        });
        std::hint::black_box(&p);
        out.insert("markov.vecmat_us", mean_us(dt, calls));

        let (_, dt) = tracer.time("lppm.emission_column", parent, || {
            for r in 0..self.rounds {
                for &u in &self.ids {
                    std::hint::black_box(self.plm.emission_column(self.inputs.observed(u, r)));
                }
            }
        });
        out.insert("lppm.emission_column_us", mean_us(dt, calls));
        let mut rng = StdRng::seed_from_u64(11);
        let (_, dt) = tracer.time("lppm.perturb", parent, || {
            for r in 0..self.rounds {
                for &u in &self.ids {
                    std::hint::black_box(self.plm.perturb(self.inputs.truth(u, r), &mut rng));
                }
            }
        });
        out.insert("lppm.perturb_us", mean_us(dt, calls));

        // The streaming quantifier alone: construction, then peek and
        // observe over the steps a window lives.
        let (mut windows, dt) = tracer.time("quantify.new", parent, || {
            self.ids
                .iter()
                .map(|_| {
                    IncrementalTwoWorld::new(world.event.clone(), provider, uniform.clone())
                        .expect("quantifier")
                })
                .collect::<Vec<_>>()
        });
        out.insert("quantify.new_ms", dt * 1e3 / self.ids.len() as f64);
        let steps = self.rounds.min(WINDOW_STEPS);
        let (mut peek, mut observe) = (0.0, 0.0);
        for r in 0..steps {
            for (q, &u) in windows.iter_mut().zip(&self.ids) {
                let column = self.plm.emission_column(self.inputs.observed(u, r));
                let (step, dt) = tracer.time("quantify.peek", parent, || q.peek(&column));
                std::hint::black_box(step.expect("peek"));
                peek += dt;
                let (step, dt) = tracer.time("quantify.observe", parent, || q.observe(&column));
                step.expect("observe");
                observe += dt;
            }
        }
        let window_calls = steps * self.ids.len();
        let observe_us = mean_us(observe, window_calls);
        out.insert("quantify.peek_us", mean_us(peek, window_calls));
        out.insert("quantify.observe_us", observe_us);

        // One shared lifted step (the capture step into the event window)
        // applied to the carried states, singly and in batches of 64.
        let engine = TwoWorldEngine::new(&world.event, provider).expect("engine");
        let step = engine.step_at(2);
        let states: Vec<Vector> = windows.iter().map(|q| q.lifted_state().clone()).collect();
        let (_, dt) = tracer.time("quantify.apply_rows_1", parent, || {
            for s in &states {
                std::hint::black_box(step.apply_rows(std::slice::from_ref(s)));
            }
        });
        out.insert("quantify.apply_rows_us", mean_us(dt, states.len()));
        let batch: Vec<Vector> = states.iter().cycle().take(BATCH).cloned().collect();
        let reps = states.len().div_ceil(BATCH).max(4);
        let (_, dt) = tracer.time("quantify.apply_rows_64", parent, || {
            for _ in 0..reps {
                std::hint::black_box(step.apply_rows(&batch));
            }
        });
        out.insert(
            "quantify.apply_rows_us_per_row_b64",
            mean_us(dt, reps * BATCH),
        );
    }

    /// The service rows on top of [`Shadow::kernels`] (whose metrics must
    /// already be in `out`): in-memory ingest and what the service adds
    /// over its kernels, the same stream journaled, a guard rung build, and
    /// guarded release.
    pub fn services(&self, scratch: &Path, tracer: &Tracer, parent: u64, out: &mut Metrics) {
        let (_, ingest_us) = self.ingest(None, tracer, parent);
        out.insert("online.ingest_us", ingest_us);
        let window_share = self.rounds.min(WINDOW_STEPS) as f64 / self.rounds.max(1) as f64;
        out.insert(
            "online.self_us",
            ingest_us - out["markov.vecmat_us"] - out["quantify.observe_us"] * window_share,
        );
        let dir = scratch.join("ladder-durable");
        let (_, durable_us) = self.ingest(Some(&dir), tracer, parent);
        let _ = std::fs::remove_dir_all(&dir);
        out.insert("durable.added_us", durable_us - ingest_us);
        let (_, dt) = tracer.time("calibrate.rung_build", parent, || {
            std::hint::black_box(self.plm.with_budget(self.plm.budget() / 2.0).expect("rung"))
        });
        out.insert("calibrate.rung_build_s", dt);
        out.insert("online.release_us", self.release(tracer, parent));
    }
}
