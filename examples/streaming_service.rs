//! Streaming-service quickstart: 100 simulated users released through one
//! α-Planar-Laplace mechanism, ingested by the `priste-online` session
//! manager, which quantifies every user's event-privacy posture
//! incrementally (O(m²) per observation) and evicts windows as they expire.
//! The service — templates pre-registered, model shared via `Arc` — is
//! derived from one [`Pipeline`], and each timestep's batch is fanned out
//! with [`SessionManager::ingest_batch`] at `threads = 0`, one worker per
//! available core.
//!
//! Run with `cargo run --example streaming_service`.

use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), PristeError> {
    // One shared world: an 8×8 grid with a Gaussian-kernel mobility model.
    let grid = GridMap::new(8, 8, 1.0)?;
    let m = grid.num_cells();
    let chain = gaussian_kernel_chain(&grid, 1.0)?;

    // The pipeline: ε = 1.5 per-step verdicts, two protected-event
    // templates (attach-relative timestamps) — presence in the north-west
    // quarter during steps 2–5, and a two-step commute pattern entering
    // the first row then the second — plus the service knobs: 8 shards,
    // windows linger two steps past their event end, 30 units of
    // conservative budget per user.
    let pipeline = Pipeline::on(grid)
        .mobility(chain.clone())
        .event_spec(&format!("PRESENCE(S={{1:{}}}, T={{2:5}})", m / 4))
        .event_spec("PATTERN(S=[{1:8},{9:16}], T={2:3})")
        .planar_laplace(0.6)
        .target_epsilon(1.5)
        .service_config(OnlineConfig {
            num_shards: 8,
            linger: 2,
            budget: 30.0,
            ..OnlineConfig::default()
        })
        .build()?;
    let mut service = pipeline.serve()?;
    let (quarter, commute) = (0, 1); // template indices, in pipeline-event order

    // 100 users with seeded trajectories from the same mobility model.
    let users = 100u64;
    let steps = 12usize;
    let mut rng = StdRng::seed_from_u64(2019);
    let mut trajectories = Vec::with_capacity(users as usize);
    for u in 0..users {
        service.add_user(UserId(u), Vector::uniform(m))?;
        service.attach_event(UserId(u), if u % 3 == 0 { commute } else { quarter })?;
        trajectories.push(chain.sample_trajectory_from(&Vector::uniform(m), steps, &mut rng)?);
    }

    // The feed: every timestamp, every user perturbs their true location
    // through the shared 0.6-PLM and the service ingests the batch in
    // parallel (0 = one worker per core; output is thread-count
    // independent).
    let plm = pipeline.mechanism_instance()?;
    let mut worst = vec![0.0f64; users as usize];
    #[allow(clippy::needless_range_loop)] // column-wise access across per-user rows
    for t in 0..steps {
        let batch: Vec<(UserId, Vector)> = (0..users)
            .map(|u| {
                let observed = plm.perturb(trajectories[u as usize][t], &mut rng);
                (UserId(u), plm.emission_column(observed))
            })
            .collect();
        for report in service.ingest_batch(&batch, 0)? {
            let slot = &mut worst[report.user.0 as usize];
            *slot = slot.max(report.worst_loss);
        }
        println!(
            "t={:>2}: {:>3} active windows, {:>4} verdicts so far ({} violated)",
            t + 1,
            service.active_windows(),
            service.stats().certified + service.stats().violated,
            service.stats().violated,
        );
    }

    let stats = service.stats();
    let exhausted = (0..users)
        .filter(|&u| {
            service
                .session(UserId(u))
                .is_some_and(|s| s.ledger().exhausted())
        })
        .count();
    let finite_worst = worst
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .fold(0.0, f64::max);
    println!(
        "{} users × {} steps → {} observations; {} certified, {} violated, {} mismatched, {} windows evicted",
        users, steps, stats.observations, stats.certified, stats.violated, stats.mismatched,
        stats.evicted_windows
    );
    println!(
        "worst finite per-user realized loss: {finite_worst:.4}; {exhausted} budgets exhausted"
    );
    assert_eq!(stats.observations, users as usize * steps);
    println!("OK");
    Ok(())
}
