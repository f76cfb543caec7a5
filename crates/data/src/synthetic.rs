//! The paper's synthetic world (§V.A).
//!
//! "First, a map with 20∗20 cells is generated. Then, the transition
//! probability from one cell to another is proportional to the
//! two-dimensional Gaussian distribution with scale parameter σ. … Finally,
//! we produced trajectories with 50 timestamps using such transition matrix
//! to simulate movement of a user."

use crate::{Result, World};
use priste_geo::GridMap;
use priste_linalg::Vector;
use priste_markov::gaussian_kernel_chain;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default horizon of synthetic trajectories (paper: 50 timestamps).
pub const DEFAULT_HORIZON: usize = 50;

/// Parameters of the synthetic world.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Grid rows (paper: 20).
    pub rows: usize,
    /// Grid columns (paper: 20).
    pub cols: usize,
    /// Cell side length in km (1 km gives the paper's distance scale).
    pub cell_size_km: f64,
    /// Gaussian kernel scale σ (Fig. 13 sweeps {0.01, 0.1, 1, 10}).
    pub sigma: f64,
    /// Trajectory length (paper: 50).
    pub horizon: usize,
    /// Number of trajectories to sample.
    pub num_trajectories: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            rows: 20,
            cols: 20,
            cell_size_km: 1.0,
            sigma: 1.0,
            horizon: DEFAULT_HORIZON,
            num_trajectories: 1,
            seed: 0,
        }
    }
}

/// Builds the synthetic world: Gaussian-kernel chain plus sampled
/// trajectories (starting states drawn uniformly, matching the uniform `π`
/// of the experiments).
///
/// # Errors
/// Grid/chain construction or sampling failures.
pub fn build(config: &SyntheticConfig) -> Result<World> {
    let grid = GridMap::new(config.rows, config.cols, config.cell_size_km)?;
    let chain = gaussian_kernel_chain(&grid, config.sigma)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pi = Vector::uniform(grid.num_cells());
    let mut trajectories = Vec::with_capacity(config.num_trajectories);
    for _ in 0..config.num_trajectories {
        trajectories.push(chain.sample_trajectory_from(&pi, config.horizon, &mut rng)?);
    }
    Ok(World {
        grid,
        chain,
        trajectories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_dimensions() {
        let c = SyntheticConfig::default();
        let world = build(&c).unwrap();
        assert_eq!(world.grid.num_cells(), 400);
        assert_eq!(world.trajectories.len(), 1);
        assert_eq!(world.trajectories[0].len(), 50);
        world
            .chain
            .transition_matrix()
            .validate_stochastic()
            .unwrap();
    }

    #[test]
    fn small_sigma_trajectories_barely_move() {
        let c = SyntheticConfig {
            rows: 5,
            cols: 5,
            sigma: 0.01,
            horizon: 30,
            seed: 3,
            ..Default::default()
        };
        let world = build(&c).unwrap();
        let traj = &world.trajectories[0];
        let distinct: std::collections::HashSet<_> = traj.iter().collect();
        assert!(
            distinct.len() <= 2,
            "σ=0.01 should pin the user, saw {distinct:?}"
        );
    }

    #[test]
    fn large_sigma_trajectories_roam() {
        let c = SyntheticConfig {
            rows: 5,
            cols: 5,
            sigma: 50.0,
            horizon: 40,
            seed: 3,
            ..Default::default()
        };
        let world = build(&c).unwrap();
        let distinct: std::collections::HashSet<_> = world.trajectories[0].iter().collect();
        assert!(
            distinct.len() > 10,
            "σ=50 should roam, saw {} cells",
            distinct.len()
        );
    }

    #[test]
    fn seeding_is_reproducible() {
        let c = SyntheticConfig {
            seed: 9,
            num_trajectories: 3,
            ..Default::default()
        };
        let a = build(&c).unwrap();
        let b = build(&c).unwrap();
        assert_eq!(a.trajectories, b.trajectories);
        let c2 = SyntheticConfig {
            seed: 10,
            num_trajectories: 3,
            ..Default::default()
        };
        let d = build(&c2).unwrap();
        assert_ne!(a.trajectories, d.trajectories);
    }
}
