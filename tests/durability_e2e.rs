//! Kill-and-restart durability suite: the recovered `BudgetLedger` must
//! never under-count spend, recovery must be byte-deterministic, and a
//! continued stream must still certify at the target ε*.
//!
//! Scenario: an enforcing commuter stream (GeoLife-sim world) journaling
//! to a tempdir with `snapshot_every: 0`, so everything after the opening
//! snapshot lives in the WAL — dropping the service mid-stream is a crash,
//! and recovery exercises the full deterministic-replay path.

use priste::obs::json::Json;
use priste::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TARGET: f64 = 0.8;

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "priste-durability-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The enforcing commuter scenario over a durable directory. WAL-only
/// persistence (`snapshot_every: 0`): checkpoints happen only when a test
/// asks for one.
fn commuter_pipeline(dir: &Path) -> Pipeline {
    observed_commuter_pipeline(dir, None)
}

/// Same scenario, optionally with a metrics registry attached.
fn observed_commuter_pipeline(dir: &Path, registry: Option<&Registry>) -> Pipeline {
    let world = geolife_sim::build(&geolife_sim::CommuterConfig {
        rows: 4,
        cols: 4,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    let mut builder = Pipeline::on_world(&world)
        .event_spec("PRESENCE(S={1:4}, T={2:4})")
        .planar_laplace(2.0)
        .target_epsilon(TARGET)
        .service_config(OnlineConfig {
            num_shards: 2,
            budget: 40.0,
            ..OnlineConfig::default()
        })
        .durable(dir)
        .durable_options(DurableOptions {
            fsync: false,
            snapshot_every: 0,
        });
    if let Some(registry) = registry {
        builder = builder.observe(registry);
    }
    builder.build().unwrap()
}

/// Streams `steps` enforced releases for each of `users` users (registering
/// ids the service does not already know) and returns the worst realized
/// loss observed across every committed window.
fn drive(
    svc: &mut SessionManager<SharedProvider>,
    pipeline: &Pipeline,
    users: u64,
    steps: usize,
    seed: u64,
) -> f64 {
    let chain = pipeline.chain().expect("commuter world has a chain");
    let m = pipeline.num_cells();
    let mut rng = StdRng::seed_from_u64(seed);
    for u in 0..users {
        if svc.session(UserId(u)).is_none() {
            svc.add_user(UserId(u), Vector::uniform(m)).unwrap();
            svc.attach_event(UserId(u), 0).unwrap();
        }
    }
    let trajectories: Vec<Vec<CellId>> = (0..users)
        .map(|_| {
            chain
                .sample_trajectory_from(&Vector::uniform(m), steps, &mut rng)
                .unwrap()
        })
        .collect();
    let mut worst = 0.0f64;
    for t in 0..steps {
        for (u, traj) in trajectories.iter().enumerate() {
            let rel = svc.release(UserId(u as u64), traj[t], &mut rng).unwrap();
            assert!(
                rel.report.worst_loss.is_finite(),
                "planar-Laplace columns are strictly positive, loss must be finite"
            );
            worst = worst.max(rel.report.worst_loss);
        }
    }
    worst
}

/// Per-user ledger spend, in user-id order.
fn spends(svc: &SessionManager<SharedProvider>) -> Vec<(u64, f64)> {
    svc.users()
        .into_iter()
        .map(|id| (id.0, svc.session(id).unwrap().ledger().spent()))
        .collect()
}

#[test]
fn kill_and_restart_recovers_exact_committed_spend() {
    let dir = unique_dir("restart");
    let pipeline = commuter_pipeline(&dir);
    let mut svc = pipeline.serve_enforcing().unwrap();
    let worst = drive(&mut svc, &pipeline, 4, 6, 11);
    assert!(worst <= TARGET + 1e-9, "enforcing stream leaked: {worst}");
    let committed = spends(&svc);
    assert!(committed.iter().all(|&(_, s)| s > 0.0));
    let digest = svc.state_digest();
    drop(svc); // crash: no shutdown checkpoint — only the WAL survives

    // Read-only recovery reproduces the exact committed state...
    let recovered = pipeline.recover_service().unwrap();
    assert_eq!(recovered.state_digest(), digest);
    assert_eq!(spends(&recovered), committed);
    // ...and is byte-deterministic: a second recover from the same
    // directory yields the same bytes.
    let again = pipeline.recover_service().unwrap();
    assert_eq!(again.state_digest(), digest);

    // A reopened service continues from the recovered spend and the
    // continued stream still certifies at ε*.
    let mut reopened = commuter_pipeline(&dir).serve_enforcing().unwrap();
    assert_eq!(reopened.state_digest(), digest);
    assert_eq!(reopened.num_users(), 4);
    for u in 0..4 {
        // The recovered windows expired during the first run; protect a
        // fresh event so the continued stream accrues spend again.
        reopened.attach_event(UserId(u), 0).unwrap();
    }
    let worst = drive(&mut reopened, &pipeline, 4, 4, 13);
    assert!(worst <= TARGET + 1e-9, "continued stream leaked: {worst}");
    for ((u, before), (v, after)) in committed.iter().zip(spends(&reopened)) {
        assert_eq!(*u, v);
        assert!(after > *before, "spend must keep accumulating");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_final_wal_record_rounds_spend_up() {
    let dir = unique_dir("torn");
    let pipeline = commuter_pipeline(&dir);
    let mut svc = pipeline.serve_enforcing().unwrap();
    drive(&mut svc, &pipeline, 4, 6, 17);
    let committed = spends(&svc);
    drop(svc);

    // Tear the final record of the largest WAL segment: keep everything
    // but its last five bytes, as if the process died mid-`write`.
    let mut wals: Vec<(u64, PathBuf)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .map(|p| (std::fs::metadata(&p).unwrap().len(), p))
        .collect();
    wals.sort();
    let (len, torn) = wals.pop().unwrap();
    assert!(len > 64, "the stream must have journaled real records");
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 5]).unwrap();

    // Conservative rounding: every recovered ledger covers its committed
    // spend, and the user owning the torn record is force-exhausted.
    let recovered = pipeline.recover_service().unwrap();
    let after = spends(&recovered);
    assert_eq!(after.len(), committed.len());
    for ((u, before), (v, now)) in committed.iter().zip(&after) {
        assert_eq!(u, v);
        assert!(
            *now >= *before,
            "user {u} under-counted: {now} < {before} after a torn WAL tail"
        );
    }
    assert!(
        after.iter().any(|&(_, s)| s.is_infinite()),
        "the torn record's owner must be exhausted"
    );
    // Torn-tail recovery is just as deterministic as the clean path.
    assert_eq!(
        pipeline.recover_service().unwrap().state_digest(),
        recovered.state_digest()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exported_metrics_agree_with_service_stats_and_recovery_telemetry() {
    let dir = unique_dir("metrics");
    let registry = Registry::new();
    let pipeline = observed_commuter_pipeline(&dir, Some(&registry));
    let mut svc = pipeline.serve_enforcing().unwrap();
    drive(&mut svc, &pipeline, 4, 6, 31);

    // The exported counters and the `ServiceStats` shim read the same
    // cells — one source of truth.
    let stats = svc.stats();
    let doc = priste::obs::json::parse(&registry.render_json()).unwrap();
    let counters = doc.get("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        counter("online_observations_total"),
        stats.observations as u64
    );
    assert_eq!(
        counter("online_verdicts_certified_total"),
        stats.certified as u64
    );
    assert_eq!(
        counter("online_verdicts_violated_total"),
        stats.violated as u64
    );
    assert_eq!(counter("online_suppressed_total"), stats.suppressed as u64);
    assert_eq!(
        counter("online_windows_evicted_total"),
        stats.evicted_windows as u64
    );
    // The durable substrate journaled real bytes and timed each append.
    assert!(counter("durable_wal_bytes_total") > 0);
    let appends = doc
        .get("histograms")
        .unwrap()
        .get("durable_wal_append_seconds")
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(appends > 0, "WAL appends must be timed");
    drop(svc); // crash

    // Tear the largest WAL segment's tail, then recover under a fresh
    // registry: the recovery telemetry must land in the export.
    let mut wals: Vec<(u64, PathBuf)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .map(|p| (std::fs::metadata(&p).unwrap().len(), p))
        .collect();
    wals.sort();
    let (_, torn) = wals.pop().unwrap();
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 5]).unwrap();

    let rec_registry = Registry::new();
    let pipeline = observed_commuter_pipeline(&dir, Some(&rec_registry));
    let recovered = pipeline.recover_service().unwrap();
    let info = recovered.recovery_info().expect("recovery telemetry");
    assert!(info.torn_records >= 1, "the torn tail must be counted");
    assert!(info.replayed_records > 0);
    let doc = priste::obs::json::parse(&rec_registry.render_json()).unwrap();
    let gauges = doc.get("gauges").unwrap();
    assert!(
        gauges
            .get("online_recovery_duration_seconds")
            .and_then(Json::as_f64)
            .unwrap()
            >= 0.0
    );
    assert_eq!(
        gauges
            .get("online_recovery_replayed_records")
            .and_then(Json::as_f64),
        Some(info.replayed_records as f64)
    );
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters
            .get("online_recovery_torn_records_total")
            .and_then(Json::as_u64),
        Some(info.torn_records)
    );
    // The restored service counters are visible through the new registry.
    assert_eq!(
        counters
            .get("online_observations_total")
            .and_then(Json::as_u64),
        Some(recovered.stats().observations as u64)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_tail_replay_agree_with_memory() {
    // Mixed recovery: part of the state comes from a mid-stream snapshot,
    // the rest from WAL-tail replay on top of it.
    let dir = unique_dir("mixed");
    let pipeline = commuter_pipeline(&dir);
    let mut svc = pipeline.serve_enforcing().unwrap();
    drive(&mut svc, &pipeline, 3, 4, 23);
    svc.checkpoint().unwrap();
    drive(&mut svc, &pipeline, 3, 3, 29);
    let digest = svc.state_digest();
    drop(svc);
    assert_eq!(pipeline.recover_service().unwrap().state_digest(), digest);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Strategy: a batch of strictly positive emission columns over `m` cells
/// assigned to users `0..3`.
fn observations(m: usize) -> impl Strategy<Value = Vec<(u64, Vec<f64>)>> {
    proptest::collection::vec((0u64..3, proptest::collection::vec(0.05f64..1.0, m)), 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// recover ∘ (snapshot + replay) is the identity on arbitrary
    /// committed session states: whatever mix of observations lands in
    /// the snapshot versus the WAL tail, the recovered bytes equal the
    /// pre-crash bytes.
    #[test]
    fn recovery_is_identity_on_committed_states(
        ops in observations(4),
        snapshot_every in 0usize..6,
    ) {
        let dir = unique_dir("prop");
        let grid = GridMap::new(2, 2, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
        let pipeline = Pipeline::on(grid)
            .mobility(chain)
            .event_spec("PRESENCE(S={1:2}, T={2:3})")
            .service_config(OnlineConfig { num_shards: 2, ..OnlineConfig::default() })
            .durable(&dir)
            .durable_options(DurableOptions { fsync: false, snapshot_every })
            .build()
            .unwrap();
        let svc = pipeline.serve().unwrap();
        for u in 0..3u64 {
            svc.add_user(UserId(u), Vector::uniform(4)).unwrap();
            svc.attach_event(UserId(u), 0).unwrap();
        }
        for (u, col) in ops {
            svc.ingest(UserId(u), Vector::from(col)).unwrap();
        }
        let digest = svc.state_digest();
        drop(svc);
        prop_assert_eq!(pipeline.recover_service().unwrap().state_digest(), digest);
        prop_assert_eq!(pipeline.recover_service().unwrap().state_digest(), digest);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
