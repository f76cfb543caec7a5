//! GeoLife substitute: a commuter simulator.
//!
//! The real dataset is 1.7 GB of GPS traces and cannot ship with this
//! repository; what the paper actually *consumes* from it is a single
//! user's discretized cell trajectory and the Markov transition matrix
//! trained from it. The simulator reproduces the statistical features that
//! drive the PriSTE experiments:
//!
//! * a strong home↔work commuting pattern (the paper's motivating secret
//!   "regularly commuting between Address 1 and Address 2"),
//! * dwell periods at anchor locations with local jitter,
//! * grid-path commutes through intermediate cells (so the chain has
//!   realistic banded structure rather than teleports), and
//! * occasional exploration visits that spread support over the map.
//!
//! Output is the same [`World`] artifact as the real-data pipeline, trained
//! with the identical MLE estimator — downstream code cannot tell the
//! difference, which is the point of the substitution.

use crate::{DataError, Result, World};
use priste_geo::{CellId, GridMap};
use priste_markov::train_mle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the commuter simulator.
#[derive(Debug, Clone)]
pub struct CommuterConfig {
    /// Grid rows (default 20 — the paper's map granularity).
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Cell side in km. The paper reports GeoLife Euclidean-distance
    /// utilities of 2–5 km, implying a grid over Beijing's urban core
    /// (≈20 km) rather than the full metro extent; 1 km cells on a 20×20
    /// grid match that scale.
    pub cell_size_km: f64,
    /// Number of simulated days (each contributing one trajectory).
    pub days: usize,
    /// Steps per day (timestamps of the daily trajectory).
    pub steps_per_day: usize,
    /// Probability of a jitter move to a neighbouring cell while dwelling.
    pub jitter: f64,
    /// Probability of an exploration detour instead of a routine day.
    pub exploration: f64,
    /// MLE smoothing (keeps unvisited rows uniform).
    pub smoothing_alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CommuterConfig {
    fn default() -> Self {
        CommuterConfig {
            rows: 20,
            cols: 20,
            cell_size_km: 1.0,
            days: 60,
            steps_per_day: 48,
            jitter: 0.15,
            exploration: 0.1,
            smoothing_alpha: 0.05,
            seed: 2019,
        }
    }
}

/// Simulates the commuter and trains the world from the generated days.
///
/// # Errors
/// Construction failures from the grid/training layers.
pub fn build(config: &CommuterConfig) -> Result<World> {
    if config.days == 0 || config.steps_per_day < 4 {
        return Err(DataError::InsufficientData {
            message: "need at least one day of at least 4 steps".into(),
        });
    }
    let grid = GridMap::new(config.rows, config.cols, config.cell_size_km)?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Anchors: home in the lower-left quadrant, work in the upper-right —
    // the commute crosses the map like a Beijing west-suburb → CBD run.
    // The day-to-day wobble of the home row only applies on grids big
    // enough to have one (rows/8 ≥ 1).
    let wobble_range = (config.rows / 8).max(1);
    let home_row = (config.rows * 3 / 4 + rng.gen_range(0..wobble_range)).min(config.rows - 1);
    let home = grid.from_row_col(home_row, config.cols / 8)?;
    let work = grid.from_row_col(config.rows / 8, config.cols * 3 / 4)?;

    let mut days: Vec<Vec<CellId>> = Vec::with_capacity(config.days);
    for _ in 0..config.days {
        days.push(simulate_day(&grid, home, work, config, &mut rng)?);
    }
    let chain = train_mle(grid.num_cells(), &days, config.smoothing_alpha)?;
    Ok(World {
        grid,
        chain,
        trajectories: days,
    })
}

/// One simulated day: dwell at home, commute, dwell at work (with an
/// optional exploration detour routed through real grid paths), commute
/// back, dwell at home. Every consecutive pair of cells is identical or
/// 4-adjacent — no teleports, so the trained chain is banded like a real
/// pedestrian/vehicle trace.
fn simulate_day(
    grid: &GridMap,
    home: CellId,
    work: CellId,
    config: &CommuterConfig,
    rng: &mut StdRng,
) -> Result<Vec<CellId>> {
    let steps = config.steps_per_day;
    let leave = steps / 4 + rng.gen_range(0..steps / 12 + 1);
    let depart = steps * 3 / 4 + rng.gen_range(0..steps / 12 + 1);

    let mut day: Vec<CellId> = Vec::with_capacity(steps + 8);
    day.extend(dwell_steps(grid, home, leave, config.jitter, rng)?);
    append_path(&mut day, &grid_path(grid, home, work)?);

    if rng.gen_bool(config.exploration) {
        // Detour: walk to a nearby random cell and back before settling in.
        let (wr, wc) = grid.to_row_col(work)?;
        let er = wr.saturating_sub(2)
            + rng
                .gen_range(0usize..5)
                .min(grid.rows() - 1 - wr.saturating_sub(2));
        let ec = wc.saturating_sub(2)
            + rng
                .gen_range(0usize..5)
                .min(grid.cols() - 1 - wc.saturating_sub(2));
        let target = grid.from_row_col(er.min(grid.rows() - 1), ec.min(grid.cols() - 1))?;
        append_path(&mut day, &grid_path(grid, work, target)?);
        day.extend(dwell_steps(grid, target, 2, config.jitter, rng)?);
        append_path(&mut day, &grid_path(grid, target, work)?);
    }

    if day.len() < depart {
        let remaining = depart - day.len();
        day.extend(dwell_steps(grid, work, remaining, config.jitter, rng)?);
    }
    append_path(&mut day, &grid_path(grid, work, home)?);
    while day.len() < steps {
        let remaining = steps - day.len();
        day.extend(dwell_steps(grid, home, remaining, config.jitter, rng)?);
    }
    day.truncate(steps);
    Ok(day)
}

/// Appends a grid path, skipping its first cell (the current position).
fn append_path(day: &mut Vec<CellId>, path: &[CellId]) {
    day.extend_from_slice(&path[1..]);
}

/// `n` dwell steps anchored at `anchor`: mostly staying put, with jitter
/// excursions to a random neighbour that return on the following step (so
/// the sequence starts and ends on the anchor and all moves are adjacent).
fn dwell_steps(
    grid: &GridMap,
    anchor: CellId,
    n: usize,
    jitter: f64,
    rng: &mut StdRng,
) -> Result<Vec<CellId>> {
    let mut out = Vec::with_capacity(n);
    let neighbors = grid.neighbors4(anchor)?;
    let mut i = 0;
    while i < n {
        if i + 2 <= n && rng.gen_bool(jitter) {
            out.push(neighbors[rng.gen_range(0..neighbors.len())]);
            out.push(anchor);
            i += 2;
        } else {
            out.push(anchor);
            i += 1;
        }
    }
    Ok(out)
}

/// L-shaped grid path between two cells (rows first, then columns),
/// inclusive of both endpoints.
fn grid_path(grid: &GridMap, from: CellId, to: CellId) -> Result<Vec<CellId>> {
    let (fr, fc) = grid.to_row_col(from)?;
    let (tr, tc) = grid.to_row_col(to)?;
    let mut path = Vec::new();
    let mut r = fr;
    let mut c = fc;
    path.push(grid.from_row_col(r, c)?);
    while r != tr {
        r = if r < tr { r + 1 } else { r - 1 };
        path.push(grid.from_row_col(r, c)?);
    }
    while c != tc {
        c = if c < tc { c + 1 } else { c - 1 };
        path.push(grid.from_row_col(r, c)?);
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_valid_world() {
        let world = build(&CommuterConfig {
            days: 10,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(world.grid.num_cells(), 400);
        assert_eq!(world.trajectories.len(), 10);
        assert_eq!(world.trajectories[0].len(), 48);
        world
            .chain
            .transition_matrix()
            .validate_stochastic()
            .unwrap();
    }

    #[test]
    fn reproducible_by_seed() {
        let cfg = CommuterConfig {
            days: 5,
            ..Default::default()
        };
        let a = build(&cfg).unwrap();
        let b = build(&cfg).unwrap();
        assert_eq!(a.trajectories, b.trajectories);
    }

    #[test]
    fn commuting_pattern_dominates_the_chain() {
        let world = build(&CommuterConfig {
            days: 40,
            ..Default::default()
        })
        .unwrap();
        // Self-transitions at anchors should be strong (dwelling), i.e. the
        // chain has a significant mobility pattern in Fig. 13's sense.
        let t = world.chain.transition_matrix();
        let mut max_self: f64 = 0.0;
        for i in 0..world.grid.num_cells() {
            max_self = max_self.max(t.get(i, i));
        }
        assert!(
            max_self > 0.5,
            "expected sticky anchors, max self-prob {max_self}"
        );
    }

    #[test]
    fn trajectories_move_between_distant_cells() {
        let world = build(&CommuterConfig {
            days: 3,
            ..Default::default()
        })
        .unwrap();
        for day in &world.trajectories {
            let first = day[0];
            let max_d = day
                .iter()
                .map(|&c| world.grid.distance_km(first, c).unwrap())
                .fold(0.0f64, f64::max);
            assert!(max_d > 10.0, "commute should cross the map, max {max_d} km");
            // Anchored days dwell: many consecutive steps repeat a cell.
            let dwells = day.windows(2).filter(|w| w[0] == w[1]).count();
            let dwell_share = dwells as f64 / (day.len() - 1) as f64;
            assert!(dwell_share > 0.1, "dwell share {dwell_share}");
        }
    }

    #[test]
    fn transitions_are_local_no_teleports() {
        let world = build(&CommuterConfig {
            days: 5,
            ..Default::default()
        })
        .unwrap();
        for day in &world.trajectories {
            for w in day.windows(2) {
                let d = world.grid.distance_km(w[0], w[1]).unwrap();
                assert!(
                    d <= world.grid.cell_size_km() * 1.5 + 1e-9,
                    "teleport of {d} km between consecutive steps"
                );
            }
        }
    }

    #[test]
    fn degenerate_config_is_rejected() {
        assert!(build(&CommuterConfig {
            days: 0,
            ..Default::default()
        })
        .is_err());
        assert!(build(&CommuterConfig {
            steps_per_day: 2,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn grid_path_is_connected_and_inclusive() {
        let grid = GridMap::new(6, 6, 1.0).unwrap();
        let path = grid_path(&grid, CellId(0), CellId(35)).unwrap();
        assert_eq!(path.first(), Some(&CellId(0)));
        assert_eq!(path.last(), Some(&CellId(35)));
        for w in path.windows(2) {
            let d = grid.distance_km(w[0], w[1]).unwrap();
            assert!((d - 1.0).abs() < 1e-9, "non-adjacent path step");
        }
    }
}
