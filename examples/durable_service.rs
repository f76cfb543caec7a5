//! Durable streaming service: crash a mid-stream enforcing service and
//! recover its spent ε-budget from disk.
//!
//! Without durability, a restart resets every [`BudgetLedger`] to zero
//! spend and the guard happily re-releases against budget that was already
//! consumed — an under-count, which under sequential composition is a
//! privacy violation, not an availability bug. `.durable(dir)` closes the
//! hole: every committed release is journaled to a per-shard write-ahead
//! log *before* its result is returned, snapshots compact the log
//! periodically, and reopening the same directory recovers the exact
//! committed state (deterministic WAL replay; torn final records round
//! ledger spend *up*, never down).
//!
//! Run with `cargo run --example durable_service`.
//!
//! [`BudgetLedger`]: priste::online::BudgetLedger

use priste::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), PristeError> {
    let dir = std::env::temp_dir().join(format!("priste-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The scenario: a 6×6 world, a protected presence window over steps
    // 2–5, a 1.2-PLM behind the calibration guard at ε* = 0.9 — and a
    // durable directory. The same closure reopens the identical scenario
    // later; the store fingerprints it and refuses mismatched state.
    let pipeline = || -> Result<Pipeline, PristeError> {
        let grid = GridMap::new(6, 6, 1.0)?;
        let chain = gaussian_kernel_chain(&grid, 1.0)?;
        Pipeline::on(grid)
            .mobility(chain)
            .event_spec("PRESENCE(S={1:9}, T={2:5})")
            .planar_laplace(1.2)
            .target_epsilon(0.9)
            .service_config(OnlineConfig {
                num_shards: 4,
                budget: 25.0,
                ..OnlineConfig::default()
            })
            .durable(&dir)
            .build()
    };

    // ---- First life: stream six enforced releases for ten users. --------
    let built = pipeline()?;
    let chain = built.chain().expect("mobility set above").clone();
    let m = built.num_cells();
    let service = built.serve_enforcing()?;
    let users = 10u64;
    let mut rng = StdRng::seed_from_u64(2019);
    let mut trajectories = Vec::new();
    for u in 0..users {
        service.add_user(UserId(u), Vector::uniform(m))?;
        service.attach_event(UserId(u), 0)?;
        trajectories.push(chain.sample_trajectory_from(&Vector::uniform(m), 6, &mut rng)?);
    }
    for t in 0..6 {
        for (u, traj) in trajectories.iter().enumerate() {
            service.release(UserId(u as u64), traj[t], &mut rng)?;
        }
    }
    let spent_before: Vec<f64> = (0..users)
        .map(|u| service.session(UserId(u)).unwrap().ledger().spent())
        .collect();
    let digest = service.state_digest();
    println!("first life: {} users, state digest {digest:016x}", users);
    println!(
        "  user 0 spent {:.4} of {:.1}",
        spent_before[0],
        service.session(UserId(0)).unwrap().ledger().budget()
    );

    // ---- Crash: drop the service without a shutdown checkpoint. ---------
    drop(service);
    println!("crash: service dropped mid-stream (no checkpoint)");

    // ---- Second life: reopen the directory; the WAL replays. ------------
    let reopened = pipeline()?.serve_enforcing()?;
    assert_eq!(reopened.state_digest(), digest, "recovery must be exact");
    println!(
        "recovered: {} users, state digest {:016x} (identical)",
        reopened.num_users(),
        reopened.state_digest()
    );
    for u in 0..users {
        let ledger = reopened.session(UserId(u)).unwrap().ledger();
        assert_eq!(ledger.spent(), spent_before[u as usize]);
    }
    println!(
        "  user 0 spent {:.4} — the restart forgot nothing",
        reopened.session(UserId(0)).unwrap().ledger().spent()
    );

    // ---- Read-only inspection without touching the journal. -------------
    let inspected = pipeline()?.recover_service()?;
    println!(
        "read-only recover: digest {:016x}, {} observations on record",
        inspected.state_digest(),
        inspected.stats().observations
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
