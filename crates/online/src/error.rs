use crate::durable::DurableError;
use priste_calibrate::CalibrateError;
use priste_quantify::QuantifyError;
use std::fmt;

/// Errors produced by the streaming service layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OnlineError {
    /// A quantification-layer error (domain mismatches, bad distributions,
    /// malformed emission columns, degenerate priors, zero likelihoods).
    Quantify(QuantifyError),
    /// A calibration-layer error from the enforcing-mode guard (mechanism
    /// rebuilds, guard configuration).
    Calibrate(CalibrateError),
    /// [`SessionManager::release`](crate::SessionManager::release) was
    /// called on a service that never enabled enforcement.
    NotEnforcing,
    /// [`SessionManager::ingest_observed`](crate::SessionManager::ingest_observed)
    /// was called on a service that holds no mechanism to turn the observed
    /// cell into an emission column.
    NoMechanism,
    /// A true location handed to the enforcing path was outside the
    /// mechanism's domain.
    InvalidLocation {
        /// Offending 0-based cell index.
        cell: usize,
        /// Domain size.
        num_cells: usize,
    },
    /// The service configuration failed validation.
    InvalidConfig {
        /// What was wrong.
        message: String,
    },
    /// An operation referenced a user id that is not registered.
    UnknownUser {
        /// The offending user id.
        user: u64,
    },
    /// A user id was registered twice.
    DuplicateUser {
        /// The offending user id.
        user: u64,
    },
    /// An operation referenced an event template that was never registered.
    UnknownTemplate {
        /// The offending template index.
        template: usize,
    },
    /// One ingest batch carried two observations for the same user; batches
    /// are one-observation-per-user-per-timestep by construction.
    DuplicateObservation {
        /// The offending user id.
        user: u64,
    },
    /// A shard worker thread panicked during a fanned-out batch, or an
    /// earlier call panicked inside this shard's critical section, so its
    /// sessions may be half-committed. In a batch the surviving shards'
    /// results and stats deltas are still absorbed, so
    /// [`ServiceStats`](crate::ServiceStats) stays consistent with the
    /// session state that actually mutated.
    ShardPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
    },
    /// The durable persistence layer failed (journaling, checkpointing, or
    /// recovery).
    Durable(DurableError),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Quantify(e) => write!(f, "quantification error: {e}"),
            OnlineError::Calibrate(e) => write!(f, "calibration error: {e}"),
            OnlineError::NotEnforcing => {
                write!(f, "enforcing mode is not enabled on this service")
            }
            OnlineError::NoMechanism => {
                write!(
                    f,
                    "no mechanism configured on this service; send an explicit emission column"
                )
            }
            OnlineError::InvalidLocation { cell, num_cells } => {
                write!(
                    f,
                    "true location {cell} outside the {num_cells}-cell domain"
                )
            }
            OnlineError::InvalidConfig { message } => {
                write!(f, "invalid service configuration: {message}")
            }
            OnlineError::UnknownUser { user } => write!(f, "unknown user {user}"),
            OnlineError::DuplicateUser { user } => write!(f, "user {user} already registered"),
            OnlineError::UnknownTemplate { template } => {
                write!(f, "unknown event template {template}")
            }
            OnlineError::DuplicateObservation { user } => {
                write!(f, "user {user} appears twice in one ingest batch")
            }
            OnlineError::ShardPanicked { shard } => {
                write!(f, "shard {shard} panicked mid-update")
            }
            OnlineError::Durable(e) => write!(f, "durable persistence error: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Quantify(e) => Some(e),
            OnlineError::Calibrate(e) => Some(e),
            OnlineError::Durable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DurableError> for OnlineError {
    fn from(e: DurableError) -> Self {
        OnlineError::Durable(e)
    }
}

impl From<QuantifyError> for OnlineError {
    fn from(e: QuantifyError) -> Self {
        OnlineError::Quantify(e)
    }
}

impl From<CalibrateError> for OnlineError {
    fn from(e: CalibrateError) -> Self {
        OnlineError::Calibrate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        for e in [
            OnlineError::Quantify(QuantifyError::DegeneratePrior { prior: 0.0 }),
            OnlineError::InvalidConfig {
                message: "x".into(),
            },
            OnlineError::UnknownUser { user: 3 },
            OnlineError::DuplicateUser { user: 4 },
            OnlineError::UnknownTemplate { template: 5 },
            OnlineError::DuplicateObservation { user: 6 },
            OnlineError::Calibrate(CalibrateError::InvalidConfig {
                message: "y".into(),
            }),
            OnlineError::NotEnforcing,
            OnlineError::NoMechanism,
            OnlineError::InvalidLocation {
                cell: 9,
                num_cells: 4,
            },
            OnlineError::ShardPanicked { shard: 2 },
            OnlineError::Durable(DurableError::NoSnapshot {
                dir: std::path::PathBuf::from("/tmp/d"),
            }),
            OnlineError::Durable(DurableError::Replay {
                path: std::path::PathBuf::from("/tmp/d/wal.log"),
                record: 3,
                detail: "z".into(),
            }),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn durable_errors_convert_and_chain() {
        let e: OnlineError = DurableError::NoSnapshot {
            dir: std::path::PathBuf::from("/tmp/d"),
        }
        .into();
        assert!(matches!(e, OnlineError::Durable(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn quantify_errors_convert_and_chain() {
        let e: OnlineError = QuantifyError::ZeroLikelihood { t: 2 }.into();
        assert!(matches!(
            e,
            OnlineError::Quantify(QuantifyError::ZeroLikelihood { t: 2 })
        ));
        assert!(std::error::Error::source(&e).is_some());
    }
}
