use crate::{CoreError, Result};
use priste_qp::SolverConfig;

/// Configuration of the PriSTE framework.
///
/// Algorithm 2's budget ladder is fixed, not configured: it is the guard's
/// [`GuardLadder`](priste_calibrate::GuardLadder) under
/// [`GuardConfig::default`](priste_calibrate::GuardConfig)'s backoff and
/// floor. Each failed check halves the budget (line 19) down to the floor
/// of 1e-3, or to the base budget if that is lower; once the floor rung
/// fails too, the timestamp is released through the *uniform* mechanism
/// (the paper's α → 0 limit, which satisfies Eqs. (15)/(16) for every π).
/// Each Theorem IV.1 check runs under [`SolverConfig::default`]'s work
/// budget unless `qp_work_budget` sets one. That default completes a check
/// only for m ≤ 446 cells; above that every check is `Unknown`, and every
/// timestamp falls back to the uniform mechanism.
#[derive(Debug, Clone)]
pub struct PristeConfig {
    /// The ε of ε-spatiotemporal event privacy (Definition II.4).
    pub epsilon: f64,
    /// Coordinate pairs one Theorem IV.1 check may scan (Table III's
    /// threshold); `None` keeps [`SolverConfig::default`]'s budget.
    pub qp_work_budget: Option<u64>,
}

impl Default for PristeConfig {
    fn default() -> Self {
        PristeConfig {
            epsilon: 1.0,
            qp_work_budget: None,
        }
    }
}

impl PristeConfig {
    /// A default configuration at the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        PristeConfig {
            epsilon,
            ..Default::default()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] describing the first offending field.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(CoreError::InvalidConfig {
                message: format!("epsilon must be positive, got {}", self.epsilon),
            });
        }
        Ok(())
    }

    /// The solver configuration for one constraint check.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            work_budget: self
                .qp_work_budget
                .unwrap_or(SolverConfig::default().work_budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PristeConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let c = PristeConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn solver_config_inherits_fields() {
        let default = SolverConfig::default();
        let solver = PristeConfig::default().solver_config();
        assert_eq!(solver.work_budget, default.work_budget);
        let c = PristeConfig {
            qp_work_budget: Some(7),
            ..Default::default()
        };
        let solver = c.solver_config();
        assert_eq!(solver.work_budget, 7);
    }
}
