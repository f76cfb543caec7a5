use crate::source::MechanismSource;
use crate::{CoreError, PristeConfig, Result};
use priste_event::StEvent;
use priste_geo::{CellId, GridMap};
use priste_lppm::{Lppm, UniformMechanism};
use priste_markov::TransitionProvider;
use priste_qp::{TheoremChecker, TheoremVerdict};
use priste_quantify::TheoremBuilder;
use rand::RngCore;
use std::sync::Arc;

/// Outcome of one released timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseRecord {
    /// Timestamp (1-based).
    pub t: usize,
    /// The released (perturbed) location.
    pub observed: CellId,
    /// The mechanism budget that finally certified (`0` = uniform
    /// fallback) — the paper's per-timestamp utility metric (Figs. 7–10).
    pub final_budget: f64,
    /// Candidate locations drawn before one certified (Algorithm 2 may
    /// re-run line 2 several times per timestamp).
    pub attempts: u32,
    /// Checks that ended `Unknown` (QP budget exhausted) — the paper's
    /// "# of Conservative Release" column in Table III.
    pub conservative_hits: u32,
    /// Euclidean distance to the true location in km (the second utility
    /// metric of §V.A).
    pub euclid_km: f64,
}

/// The PriSTE engine: one [`TheoremBuilder`] per protected event, a QP
/// checker, and the budget-decay release loop of Algorithms 2/3.
///
/// Owns its per-event builders (which own their events), so a `Priste`
/// value has no borrowed event slice and can be returned from builder APIs
/// such as `priste::Pipeline::audit`.
pub struct Priste<P, S> {
    builders: Vec<TheoremBuilder<P>>,
    checker: TheoremChecker,
    source: S,
    config: PristeConfig,
    grid: GridMap,
    t: usize,
}

impl<P, S> std::fmt::Debug for Priste<P, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Priste")
            .field("events", &self.builders.len())
            .field("epsilon", &self.config.epsilon)
            .field("released", &self.t)
            .finish_non_exhaustive()
    }
}

impl<P, S> Priste<P, S>
where
    P: TransitionProvider + Clone,
    S: MechanismSource,
{
    /// Assembles the framework for a set of user-specified events.
    ///
    /// # Errors
    /// [`CoreError::NoEvents`] for an empty event list; domain mismatches
    /// and configuration errors from the layers below.
    pub fn new(
        events: &[StEvent],
        provider: P,
        source: S,
        grid: GridMap,
        config: PristeConfig,
    ) -> Result<Self> {
        config.validate()?;
        if events.is_empty() {
            return Err(CoreError::NoEvents);
        }
        let mut builders = Vec::with_capacity(events.len());
        for ev in events {
            builders.push(TheoremBuilder::new(ev, provider.clone())?);
        }
        let checker = TheoremChecker::new(config.epsilon, config.solver_config());
        Ok(Priste {
            builders,
            checker,
            source,
            config,
            grid,
            t: 0,
        })
    }

    /// Timestamps released so far.
    pub fn released(&self) -> usize {
        self.t
    }

    /// The mechanism source (e.g. to read Algorithm 3's posterior).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Releases one timestamp: draws candidates from the mechanism, halving
    /// its budget until every event's Theorem IV.1 check certifies, then
    /// commits the released emission column to all event builders.
    ///
    /// # Errors
    /// Layer errors; [`CoreError::LocationOutOfRange`] for a bad input.
    pub fn release(&mut self, true_loc: CellId, rng: &mut dyn RngCore) -> Result<ReleaseRecord> {
        let m = self.grid.num_cells();
        if true_loc.index() >= m {
            return Err(CoreError::LocationOutOfRange {
                cell: true_loc.index(),
                num_cells: m,
            });
        }
        let t = self.t + 1;
        let base = self.source.base_mechanism(t)?;
        let mut budget = self.source.base_budget();
        let mut mechanism = Arc::clone(&base);
        let mut attempts = 0u32;
        let mut conservative_hits = 0u32;

        loop {
            attempts += 1;
            // Algorithm 2 line 2: draw a candidate perturbed location.
            let candidate = mechanism.perturb(true_loc, rng);
            let column = mechanism.emission_column(candidate);

            // Lines 3–16: check ε-ST-event privacy for every event.
            let mut all_ok = true;
            for builder in &self.builders {
                let inputs = builder.candidate(&column)?;
                match self.checker.check(&inputs.a, &inputs.b, &inputs.c) {
                    TheoremVerdict::Satisfied => {}
                    TheoremVerdict::Unknown { .. } => {
                        conservative_hits += 1;
                        all_ok = false;
                        break;
                    }
                    TheoremVerdict::Violated { .. } => {
                        all_ok = false;
                        break;
                    }
                }
            }

            if all_ok {
                // Lines 17 & 21–25: release and commit the real column.
                for builder in &mut self.builders {
                    builder.commit(column.clone())?;
                }
                self.source.on_release(t, candidate, &column)?;
                self.t = t;
                return Ok(ReleaseRecord {
                    t,
                    observed: candidate,
                    final_budget: budget,
                    attempts,
                    conservative_hits,
                    euclid_km: self.grid.distance_km(true_loc, candidate)?,
                });
            }

            // Line 19: decay the budget and retry.
            let next_budget = budget * self.config.decay;
            if next_budget < self.config.budget_floor || attempts >= self.config.max_attempts {
                // The paper's α→0 limit: the uniform mechanism carries no
                // information about the true location, so both Theorem IV.1
                // inequalities hold for every π (§IV.C). Release through it
                // with budget reported as 0.
                let uniform = UniformMechanism::new(m);
                let candidate = uniform.perturb(true_loc, rng);
                let column = uniform.emission_column(candidate);
                for builder in &mut self.builders {
                    builder.commit(column.clone())?;
                }
                self.source.on_release(t, candidate, &column)?;
                self.t = t;
                return Ok(ReleaseRecord {
                    t,
                    observed: candidate,
                    final_budget: 0.0,
                    attempts,
                    conservative_hits,
                    euclid_km: self.grid.distance_km(true_loc, candidate)?,
                });
            }
            budget = next_budget;
            mechanism = Arc::new(mechanism.with_budget(budget)?);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PlmSource;
    use priste_event::Presence;
    use priste_geo::Region;
    use priste_linalg::Vector;
    use priste_markov::{gaussian_kernel_chain, Homogeneous};
    use priste_quantify::IncrementalTwoWorld;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_world() -> (GridMap, Homogeneous) {
        let grid = GridMap::new(3, 3, 1.0).unwrap();
        let chain = gaussian_kernel_chain(&grid, 1.0).unwrap();
        (grid, Homogeneous::new(chain))
    }

    fn presence_event(grid: &GridMap) -> StEvent {
        Presence::new(
            Region::from_one_based_range(grid.num_cells(), 1, 3).unwrap(),
            2,
            3,
        )
        .unwrap()
        .into()
    }

    #[test]
    fn releases_certify_and_fill_records() {
        let (grid, chain) = small_world();
        let events = vec![presence_event(&grid)];
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        let mut priste = Priste::new(
            &events,
            chain.clone(),
            source,
            grid.clone(),
            PristeConfig::with_epsilon(1.0),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let traj = chain
            .model()
            .sample_trajectory(CellId(4), 6, &mut rng)
            .unwrap();
        for (i, &loc) in traj.iter().enumerate() {
            let rec = priste.release(loc, &mut rng).unwrap();
            assert_eq!(rec.t, i + 1);
            assert!(rec.final_budget <= 0.5);
            assert!(rec.attempts >= 1);
            assert!(rec.euclid_km >= 0.0);
            assert!(rec.observed.index() < 9);
        }
        assert_eq!(priste.released(), 6);
    }

    #[test]
    fn released_sequence_actually_satisfies_epsilon_for_fixed_pi() {
        // End-to-end soundness: re-quantify the released emission columns
        // with the fixed-π tracker; the realized loss must respect ε at
        // every timestamp (fixed π is a special case of "any π").
        let (grid, chain) = small_world();
        let events = vec![presence_event(&grid)];
        let epsilon = 0.8;
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        let mut priste = Priste::new(
            &events,
            chain.clone(),
            source,
            grid.clone(),
            PristeConfig::with_epsilon(epsilon),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let pi = Vector::uniform(9);
        let mut quantifier =
            IncrementalTwoWorld::new(events[0].clone(), chain.clone(), pi).unwrap();

        let traj = chain
            .model()
            .sample_trajectory(CellId(0), 8, &mut rng)
            .unwrap();
        let mut source_for_columns = PlmSource::new(grid.clone(), 0.5).unwrap();
        for &loc in &traj {
            let rec = priste.release(loc, &mut rng).unwrap();
            // Reconstruct the emission column the framework released under.
            let mech: Arc<Box<dyn priste_lppm::Lppm>> = if rec.final_budget == 0.0 {
                Arc::new(Box::new(UniformMechanism::new(9)))
            } else {
                source_for_columns.at_budget(rec.final_budget).unwrap()
            };
            let col = mech.emission_column(rec.observed);
            let step = quantifier.observe(&col).unwrap();
            assert!(
                step.privacy_loss <= epsilon + 1e-6,
                "t={}: realized loss {} exceeds ε={epsilon}",
                step.t,
                step.privacy_loss
            );
        }
    }

    #[test]
    fn stricter_epsilon_forces_smaller_budgets() {
        let (grid, chain) = small_world();
        let events = vec![presence_event(&grid)];
        let mut avg = Vec::new();
        for epsilon in [0.05, 2.0] {
            let source = PlmSource::new(grid.clone(), 1.0).unwrap();
            let mut priste = Priste::new(
                &events,
                chain.clone(),
                source,
                grid.clone(),
                PristeConfig::with_epsilon(epsilon),
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let traj = chain
                .model()
                .sample_trajectory(CellId(4), 5, &mut rng)
                .unwrap();
            let mut total = 0.0;
            for &loc in &traj {
                total += priste.release(loc, &mut rng).unwrap().final_budget;
            }
            avg.push(total / 5.0);
        }
        assert!(
            avg[0] <= avg[1] + 1e-12,
            "ε=0.05 budget {} should not exceed ε=2 budget {}",
            avg[0],
            avg[1]
        );
    }

    #[test]
    fn multiple_events_are_all_protected() {
        let (grid, chain) = small_world();
        let ev1 = presence_event(&grid);
        let ev2: StEvent = Presence::new(Region::from_one_based_range(9, 4, 6).unwrap(), 4, 5)
            .unwrap()
            .into();
        let events = vec![ev1, ev2];
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        let mut priste = Priste::new(
            &events,
            chain.clone(),
            source,
            grid.clone(),
            PristeConfig::with_epsilon(0.5),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let traj = chain
            .model()
            .sample_trajectory(CellId(4), 6, &mut rng)
            .unwrap();
        for &loc in &traj {
            priste.release(loc, &mut rng).unwrap();
        }
        assert_eq!(priste.released(), 6);
    }

    #[test]
    fn empty_event_list_is_rejected() {
        let (grid, chain) = small_world();
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        let r = Priste::new(&[], chain, source, grid, PristeConfig::default());
        assert!(matches!(r, Err(CoreError::NoEvents)));
    }

    #[test]
    fn out_of_range_location_is_rejected() {
        let (grid, chain) = small_world();
        let events = vec![presence_event(&grid)];
        let source = PlmSource::new(grid.clone(), 0.5).unwrap();
        let mut priste =
            Priste::new(&events, chain, source, grid, PristeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            priste.release(CellId(9), &mut rng),
            Err(CoreError::LocationOutOfRange { .. })
        ));
    }

    #[test]
    fn uniform_fallback_engages_under_impossible_epsilon() {
        // ε so small that even heavy decay rarely certifies within the
        // attempt cap: the fallback must keep the stream flowing with
        // budget 0 rather than erroring.
        let (grid, chain) = small_world();
        let events = vec![presence_event(&grid)];
        let source = PlmSource::new(grid.clone(), 1.0).unwrap();
        let mut config = PristeConfig::with_epsilon(1e-4);
        config.max_attempts = 3;
        let mut priste = Priste::new(&events, chain.clone(), source, grid, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let traj = chain
            .model()
            .sample_trajectory(CellId(0), 4, &mut rng)
            .unwrap();
        let mut saw_fallback = false;
        for &loc in &traj {
            let rec = priste.release(loc, &mut rng).unwrap();
            if rec.final_budget == 0.0 {
                saw_fallback = true;
            }
        }
        assert!(
            saw_fallback,
            "expected at least one uniform fallback at ε=1e-4"
        );
    }
}
