//! Datasets for the PriSTE experiments (paper §V.A).
//!
//! Three sources, all producing the same artifact — a `(GridMap,
//! MarkovModel)` world plus trajectories — so every experiment is
//! data-source agnostic:
//!
//! * [`synthetic`] — the paper's synthetic world: a 20×20 grid whose
//!   transition kernel is a two-dimensional Gaussian with scale `σ`, and
//!   50-step trajectories sampled from it.
//! * [`geolife`] — a parser for the real GeoLife GPS dataset's `.plt`
//!   files (Zheng et al.), with grid discretization and Markov training, so
//!   the actual data can be dropped in by anyone who has it.
//! * [`stats`] — trajectory statistics (radius of gyration, visit entropy,
//!   dwell fractions) used to validate that simulated data behaves like
//!   commuter GPS traces.
//! * [`geolife_sim`] — the **substitute** used by default here (the 1.7 GB
//!   dataset is not redistributable with this repository): a commuter
//!   simulator producing multi-day home↔work trajectories with Gaussian
//!   jitter and exploration noise over a Beijing-extent grid, trained into
//!   a transition matrix exactly the way §V.A trains on GeoLife. This
//!   preserves the evaluated behaviour because the experiments consume only
//!   a discretized trajectory and the transition matrix trained from it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod geolife;
pub mod geolife_sim;
pub mod stats;
pub mod synthetic;

pub use error::DataError;

use priste_geo::GridMap;
use priste_markov::MarkovModel;

/// A ready-to-run experiment world: geometry, mobility model, and the
/// trajectories the model was trained on (or generated from).
#[derive(Debug, Clone)]
pub struct World {
    /// The spatial grid.
    pub grid: GridMap,
    /// The trained/synthesized mobility model.
    pub chain: MarkovModel,
    /// Trajectories associated with the world (training data for trained
    /// worlds; sample runs for synthetic ones).
    pub trajectories: Vec<Vec<priste_geo::CellId>>,
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DataError>;
