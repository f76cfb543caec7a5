//! Multi-run experiment driver and utility aggregation.
//!
//! The paper's utility plots aggregate 100 runs of Algorithm 2/3 over noisy
//! trajectories (§V.A: "We run our algorithm 100 times and aggregate the
//! results to calculate average privacy budget and Euclidean distance").
//! This module owns that loop: trajectory sampling, per-run release
//! sequences, and the two aggregate views the figures use — per-timestamp
//! means (Figs. 7–10) and whole-horizon means (Figs. 11–13).

use crate::source::MechanismSource;
use crate::{Priste, PristeConfig, ReleaseRecord, Result};
use priste_event::StEvent;
use priste_geo::{CellId, GridMap};
use priste_linalg::par;
use priste_markov::{Homogeneous, MarkovModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One run's release sequence.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The true trajectory driving the run.
    pub trajectory: Vec<CellId>,
    /// Per-timestamp release records.
    pub records: Vec<ReleaseRecord>,
}

impl RunResult {
    /// Mean released budget over the horizon.
    pub fn mean_budget(&self) -> f64 {
        mean(self.records.iter().map(|r| r.final_budget))
    }

    /// Mean Euclidean distance (km) over the horizon.
    pub fn mean_euclid_km(&self) -> f64 {
        mean(self.records.iter().map(|r| r.euclid_km))
    }

    /// Total conservative-release hits over the horizon (Table III).
    pub fn conservative_hits(&self) -> u32 {
        self.records.iter().map(|r| r.conservative_hits).sum()
    }
}

/// Aggregate over many runs.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Per-timestamp mean released budget (the y-axis of Figs. 7–10).
    pub budget_by_t: Vec<f64>,
    /// Per-timestamp standard deviation of the released budget.
    pub budget_std_by_t: Vec<f64>,
    /// Per-timestamp mean Euclidean distance (km).
    pub euclid_by_t: Vec<f64>,
    /// Mean over runs of the per-run mean budget (Figs. 11–13 left panels).
    pub mean_budget: f64,
    /// Mean over runs of the per-run mean distance (right panels).
    pub mean_euclid_km: f64,
    /// Mean conservative hits per run (Table III).
    pub mean_conservative_hits: f64,
}

/// Runs the framework over `runs` sampled trajectories of length `horizon`
/// and aggregates utility. Run `k` is seeded with `base_seed + k`, so whole
/// experiments are reproducible. `source_factory` builds a fresh mechanism
/// source per run (sources are stateful: Algorithm 3's posterior must
/// restart). The runs are spread over `threads` workers
/// ([`priste_linalg::par::map_chunks`]: `0` = one per available core) and
/// aggregated in run order, so the result is bit-identical for any thread
/// count.
///
/// # Errors
/// Propagates the lowest-numbered failing run's error.
#[allow(clippy::too_many_arguments)]
pub fn run_many<S: MechanismSource>(
    events: &[StEvent],
    chain: &MarkovModel,
    grid: &GridMap,
    config: &PristeConfig,
    source_factory: &(dyn Fn() -> Result<S> + Sync),
    horizon: usize,
    runs: usize,
    base_seed: u64,
    threads: usize,
) -> Result<Aggregate> {
    let seeds: Vec<u64> = (0..runs as u64)
        .map(|k| base_seed.wrapping_add(k))
        .collect();
    let chunks = par::map_chunks(&seeds, threads, |chunk| {
        chunk
            .iter()
            .map(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let start = sample_start(chain, &mut rng)?;
                let trajectory = chain.sample_trajectory(start, horizon, &mut rng)?;
                run_one(
                    events,
                    chain,
                    grid,
                    config,
                    source_factory()?,
                    &trajectory,
                    &mut rng,
                )
            })
            .collect::<Result<Vec<RunResult>>>()
    });
    let mut all = Vec::with_capacity(runs);
    for chunk in chunks {
        all.extend(chunk?);
    }
    Ok(aggregate(&all, horizon))
}

/// Runs one trajectory through the framework.
///
/// # Errors
/// Propagates construction and release errors.
pub fn run_one<S: MechanismSource>(
    events: &[StEvent],
    chain: &MarkovModel,
    grid: &GridMap,
    config: &PristeConfig,
    source: S,
    trajectory: &[CellId],
    rng: &mut StdRng,
) -> Result<RunResult> {
    let provider = Homogeneous::new(chain.clone());
    let mut priste = Priste::new(events, provider, source, grid.clone(), config.clone())?;
    let mut records = Vec::with_capacity(trajectory.len());
    for &loc in trajectory {
        records.push(priste.release(loc, rng)?);
    }
    Ok(RunResult {
        trajectory: trajectory.to_vec(),
        records,
    })
}

/// Aggregates run results into the figure-ready series.
pub fn aggregate(results: &[RunResult], horizon: usize) -> Aggregate {
    let runs = results.len();
    let mut budget_by_t = vec![0.0; horizon];
    let mut budget_sq_by_t = vec![0.0; horizon];
    let mut euclid_by_t = vec![0.0; horizon];
    for r in results {
        for rec in &r.records {
            let i = rec.t - 1;
            budget_by_t[i] += rec.final_budget;
            budget_sq_by_t[i] += rec.final_budget * rec.final_budget;
            euclid_by_t[i] += rec.euclid_km;
        }
    }
    let n = runs.max(1) as f64;
    for i in 0..horizon {
        budget_by_t[i] /= n;
        euclid_by_t[i] /= n;
        budget_sq_by_t[i] = (budget_sq_by_t[i] / n - budget_by_t[i] * budget_by_t[i])
            .max(0.0)
            .sqrt();
    }
    Aggregate {
        runs,
        mean_budget: mean(results.iter().map(RunResult::mean_budget)),
        mean_euclid_km: mean(results.iter().map(RunResult::mean_euclid_km)),
        mean_conservative_hits: mean(results.iter().map(|r| r.conservative_hits() as f64)),
        budget_by_t,
        budget_std_by_t: budget_sq_by_t,
        euclid_by_t,
    }
}

/// Samples a starting state from the chain's uniform initial distribution
/// (the experiments' `π`, §IV.D).
fn sample_start(chain: &MarkovModel, rng: &mut StdRng) -> Result<CellId> {
    let pi = priste_linalg::Vector::uniform(chain.num_states());
    let traj = chain.sample_trajectory_from(&pi, 1, rng)?;
    Ok(traj[0])
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PlmSource;
    use priste_event::Presence;
    use priste_geo::Region;
    use priste_markov::gaussian_kernel_chain;

    fn world() -> (GridMap, MarkovModel, Vec<StEvent>) {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
        let ev: StEvent = Presence::new(Region::from_one_based_range(9, 1, 3).unwrap(), 2, 3)
            .unwrap()
            .into();
        (grid, chain, vec![ev])
    }

    #[test]
    fn run_many_aggregates_reproducibly() {
        let (grid, chain, events) = world();
        let config = PristeConfig::with_epsilon(1.0);
        let factory = {
            let grid = grid.clone();
            move || PlmSource::new(grid.clone(), 0.5)
        };
        let a1 = run_many(&events, &chain, &grid, &config, &factory, 4, 3, 42, 1).unwrap();
        let a2 = run_many(&events, &chain, &grid, &config, &factory, 4, 3, 42, 1).unwrap();
        assert_eq!(a1.budget_by_t, a2.budget_by_t, "same seed must reproduce");
        assert_eq!(a1.runs, 3);
        assert_eq!(a1.budget_by_t.len(), 4);
        assert!(a1.mean_budget > 0.0);
        assert!(a1.mean_euclid_km >= 0.0);
    }

    #[test]
    fn different_seeds_vary() {
        let (grid, chain, events) = world();
        let config = PristeConfig::with_epsilon(1.0);
        let factory = {
            let grid = grid.clone();
            move || PlmSource::new(grid.clone(), 0.5)
        };
        let a1 = run_many(&events, &chain, &grid, &config, &factory, 4, 2, 1, 1).unwrap();
        let a2 = run_many(&events, &chain, &grid, &config, &factory, 4, 2, 2, 1).unwrap();
        assert_ne!(a1.euclid_by_t, a2.euclid_by_t);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        // A world whose per-timestamp sums are inexact in f64, so any
        // change in summation order shows in the last bit.
        let grid = GridMap::new(5, 5, 0.7).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.3).unwrap();
        let events: Vec<StEvent> =
            vec![
                Presence::new(Region::from_one_based_range(25, 1, 6).unwrap(), 2, 4)
                    .unwrap()
                    .into(),
            ];
        let config = PristeConfig::with_epsilon(0.7);
        let factory = {
            let grid = grid.clone();
            move || PlmSource::new(grid.clone(), 0.9)
        };
        let run = |threads| run_many(&events, &chain, &grid, &config, &factory, 6, 40, 5, threads);
        let bits = |a: &Aggregate| {
            let series = [&a.budget_by_t, &a.budget_std_by_t, &a.euclid_by_t];
            let scalars = [a.mean_budget, a.mean_euclid_km, a.mean_conservative_hits];
            let mut bits: Vec<u64> = series
                .iter()
                .flat_map(|s| s.iter().map(|x| x.to_bits()))
                .collect();
            bits.extend(scalars.iter().map(|x| x.to_bits()));
            (a.runs, bits)
        };
        let seq = bits(&run(1).unwrap());
        for threads in [0, 2, 3, 4, 7] {
            assert_eq!(bits(&run(threads).unwrap()), seq, "threads={threads}");
        }
    }

    #[test]
    fn aggregate_of_empty_is_zeroed() {
        let a = aggregate(&[], 3);
        assert_eq!(a.runs, 0);
        assert_eq!(a.budget_by_t, vec![0.0; 3]);
        assert_eq!(a.mean_budget, 0.0);
    }

    #[test]
    fn budget_std_is_zero_when_budgets_identical() {
        let (grid, chain, events) = world();
        // Huge ε: the base budget always certifies, so std per t is 0.
        let config = PristeConfig::with_epsilon(50.0);
        let factory = {
            let grid = grid.clone();
            move || PlmSource::new(grid.clone(), 0.2)
        };
        let a = run_many(&events, &chain, &grid, &config, &factory, 3, 3, 7, 1).unwrap();
        for (t, std) in a.budget_std_by_t.iter().enumerate() {
            assert!(std.abs() < 1e-9, "t={t}: std {std}");
        }
        for b in &a.budget_by_t {
            assert!((b - 0.2).abs() < 1e-12);
        }
    }
}
