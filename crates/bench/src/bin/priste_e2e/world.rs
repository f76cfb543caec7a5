//! The shared scenarios and the seeded inputs every workload replays.
//!
//! Inputs are made before set-up starts, from the seed alone: user `u`
//! walks a trajectory sampled from the chain with its own RNG, and each
//! visited cell is also perturbed by the α = 2 Planar Laplace mechanism. So
//! request `i` of a serving workload — user `i mod U`, round `i div U` — is a
//! pure function of `(seed, i)`, whatever the thread schedule.

use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, gaussian_kernel_chain_sparse, Homogeneous};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Budget of the Planar Laplace mechanism that serves emission columns and
/// guards releases.
pub const SERVE_ALPHA: f64 = 2.0;

/// How big the worlds and runs are. [`Scale::FULL`] is what the benchmark
/// measures; the test-only `TOY` scale runs every workload end to end in a
/// unit test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Grid side of the "m2500" world (50 ⇒ m = 2500).
    pub side: usize,
    /// Users registered by the two m = 2500 serving workloads.
    pub users: usize,
    /// Users of the routed 6×6 workload.
    pub routed_users: usize,
    /// Set-ups per run of the routed and audit workloads. Each set-up is
    /// measured in turn, so the measurement samples the host at several
    /// points of the run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Set-ups per run of the two m = 2500 serving workloads. Each
    /// registers 10⁴ users and takes 12–20 s, so a run affords one.
    pub setup_reps_m2500: usize,
    /// Users the in-process shadow replays (correctness and layer ladder).
    pub shadow_users: usize,
    /// Multiplies every phase length (rounds, trajectories).
    pub work: f64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        side: 50,
        users: 10_000,
        routed_users: 10_000,
        setup_reps: 3,
        setup_reps_m2500: 1,
        shadow_users: 256,
        work: 1.0,
    };

    #[cfg(test)]
    pub const TOY: Scale = Scale {
        side: 6,
        users: 16,
        routed_users: 32,
        setup_reps: 2,
        setup_reps_m2500: 2,
        shadow_users: 4,
        work: 0.0,
    };
}

/// One mobility world: map, shared chain and the protected event
/// `PRESENCE(S = first quarter of the cells, T = {2:5})`.
pub struct World {
    pub grid: GridMap,
    pub provider: Arc<Homogeneous>,
    pub event: StEvent,
}

impl World {
    /// The banded §V.A world on a `side × side` grid of 1 km cells with the
    /// CSR chain of σ = 0.5 km (at most 81 nonzeros per row).
    pub fn banded(side: usize) -> World {
        let grid = GridMap::new(side, side, 1.0).expect("grid");
        let chain = gaussian_kernel_chain_sparse(&grid, 0.5).expect("sparse chain");
        World::with_chain(grid, Arc::new(Homogeneous::new(chain)))
    }

    /// The 6×6 world with the dense σ = 1 km chain.
    pub fn small_dense() -> World {
        let grid = GridMap::new(6, 6, 1.0).expect("grid");
        let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
        World::with_chain(grid, Arc::new(Homogeneous::new(chain)))
    }

    fn with_chain(grid: GridMap, provider: Arc<Homogeneous>) -> World {
        let m = grid.num_cells();
        let event = Presence::new(
            Region::from_one_based_range(m, 1, m / 4).expect("region"),
            2,
            5,
        )
        .expect("presence")
        .into();
        World {
            grid,
            provider,
            event,
        }
    }

    pub fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    /// The Planar Laplace mechanism at budget `alpha` on this map.
    pub fn plm(&self, alpha: f64) -> PlanarLaplace {
        PlanarLaplace::new(self.grid.clone(), alpha).expect("plm")
    }
}

/// Per-(user, round) true and perturbed cells, user-major.
pub struct Inputs {
    pub users: usize,
    pub rounds: usize,
    truth: Vec<u32>,
    observed: Vec<u32>,
}

/// SplitMix64 finalizer: decorrelates per-user RNG seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Samples `users` trajectories of `rounds` cells (uniform start) from
    /// the world's chain and perturbs every cell with `plm`.
    pub fn generate(
        world: &World,
        plm: &dyn Lppm,
        users: usize,
        rounds: usize,
        seed: u64,
    ) -> Inputs {
        let model = world.provider.model();
        let uniform = Vector::uniform(world.num_cells());
        let mut truth = Vec::with_capacity(users * rounds);
        let mut observed = Vec::with_capacity(users * rounds);
        for u in 0..users {
            let mut rng = StdRng::seed_from_u64(mix(seed, u as u64));
            let path = model
                .sample_trajectory_from(&uniform, rounds, &mut rng)
                .expect("trajectory");
            for cell in path {
                truth.push(cell.index() as u32);
                observed.push(plm.perturb(cell, &mut rng).index() as u32);
            }
        }
        Inputs {
            users,
            rounds,
            truth,
            observed,
        }
    }

    /// True cell of `user` at 0-based `round`.
    pub fn truth(&self, user: usize, round: usize) -> CellId {
        CellId(self.truth[user * self.rounds + round] as usize)
    }

    /// Perturbed cell of `user` at 0-based `round`.
    pub fn observed(&self, user: usize, round: usize) -> CellId {
        CellId(self.observed[user * self.rounds + round] as usize)
    }

    /// The users the in-process shadow replays: `n` ids spread evenly over
    /// the population (all of them when `n ≥ users`).
    pub fn shadow_ids(&self, n: usize) -> Vec<usize> {
        let n = n.min(self.users).max(1);
        let stride = self.users / n;
        (0..n).map(|k| k * stride).collect()
    }
}

/// Resident-set figures of this process from `/proc/self/status`, in MB:
/// `VmHWM` (peak) and `VmRSS` (current). Zero where the file is missing.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let world = World::banded(6);
        let plm = world.plm(SERVE_ALPHA);
        let a = Inputs::generate(&world, &plm, 12, 4, 9);
        let b = Inputs::generate(&world, &plm, 12, 4, 9);
        let c = Inputs::generate(&world, &plm, 12, 4, 10);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.observed, b.observed);
        assert_ne!(a.truth, c.truth);
        // A user's stream does not depend on how many users exist.
        let d = Inputs::generate(&world, &plm, 3, 4, 9);
        for r in 0..4 {
            assert_eq!(a.truth(2, r), d.truth(2, r));
            assert_eq!(a.observed(2, r), d.observed(2, r));
        }
        assert_eq!(a.shadow_ids(4), vec![0, 3, 6, 9]);
        assert_eq!(a.shadow_ids(100).len(), 12);
    }
}
