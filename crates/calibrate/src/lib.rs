//! `priste-calibrate` — budget planning and mechanism conversion that
//! *guarantees* ε-spatiotemporal event privacy.
//!
//! The rest of the workspace quantifies event privacy (`priste_quantify`)
//! and checks a given release against Theorem IV.1 (`priste_qp`). This
//! crate closes the loop back to mechanism design — the PriSTE framework's
//! headline contribution: **converting** an existing location-privacy
//! mechanism into one that satisfies a target ε-spatiotemporal event
//! privacy level by calibrating per-timestamp location budgets.
//!
//! * [`plan`] — offline: [`plan_greedy`] searches per-timestep budgets
//!   ε_t against the all-columns, all-priors Theorem IV.1 oracle
//!   (ε-capacity bisection via
//!   [`min_certifiable_epsilon`](priste_quantify::sweep::min_certifiable_epsilon)),
//!   with [`plan_uniform_split`] as the sequential-composition baseline
//!   and [`plan_knapsack`] as the utility-aware allocator (a
//!   piecewise-linear knapsack over `priste-qp`'s budgeted LP, objective
//!   pluggable via [`UtilityModel`]).
//! * [`guard`] — online: [`CalibratedMechanism`] wraps any
//!   [`Lppm`](priste_lppm::Lppm), peeks every candidate release through
//!   per-event incremental quantifiers, and shrinks the location budget
//!   (geometric backoff to a floor) until the release certifies —
//!   suppressing it when nothing feasible remains, so no uncertified
//!   candidate ever ships. Its rungs are one prebuilt [`GuardLadder`], and
//!   `priste-online` builds its *enforcing mode* on the same [`run_guard`]
//!   loop over it, as `priste_core::Priste` builds the paper's Algorithm 2
//!   audit.
//!
//! ```
//! use priste_calibrate::{CalibratedMechanism, GuardConfig};
//! use priste_event::{Presence, StEvent};
//! use priste_geo::{CellId, GridMap, Region};
//! use priste_linalg::Vector;
//! use priste_lppm::{Lppm, PlanarLaplace};
//! use priste_markov::{gaussian_kernel_chain, Homogeneous};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let grid = GridMap::new(3, 3, 1.0)?;
//! let m = grid.num_cells();
//! let chain = Homogeneous::new(gaussian_kernel_chain(&grid, 1.0)?);
//! let event: StEvent = Presence::new(Region::from_one_based_range(m, 1, 3)?, 2, 4)?.into();
//! let plm: Box<dyn Lppm> = Box::new(PlanarLaplace::new(grid, 2.0)?);
//!
//! let mut mech = CalibratedMechanism::new(
//!     plm,
//!     std::slice::from_ref(&event),
//!     chain,
//!     Vector::uniform(m),
//!     GuardConfig { target_epsilon: 0.8, ..GuardConfig::default() },
//! )?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let release = mech.release(CellId(4), &mut rng)?;
//! assert!(release.loss <= 0.8, "committed prefixes always certify");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod guard;
pub mod plan;
pub mod utility;

pub use error::CalibrateError;
pub use guard::{
    peek_worst_loss, run_guard, suppression_column, validate_mechanism, Attempt,
    CalibratedMechanism, CalibratedRelease, Decision, GuardConfig, GuardInstruments, GuardLadder,
    GuardOutcome,
};
pub use plan::{
    plan_greedy, plan_knapsack, plan_knapsack_with_probes, plan_uniform_split, BudgetPlan,
    PlannedStep, PlannerConfig,
};
pub use utility::{MeanEpsilon, PlanarLaplaceError, PlmQualityLoss, UtilityModel};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CalibrateError>;
