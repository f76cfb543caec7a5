use crate::{CoreError, Result};
use priste_qp::SolverConfig;

/// Configuration of the PriSTE framework.
///
/// Algorithm 2's budget ladder is fixed, not configured: each failed check
/// halves the budget (`DECAY` = ½, line 19), and once the halved budget
/// falls below `BUDGET_FLOOR` = 1e-4, or after `MAX_ATTEMPTS` = 40
/// candidates, the timestamp is released through the *uniform* mechanism
/// (the paper's α → 0 limit, which satisfies Eqs. (15)/(16) for every π).
/// Each Theorem IV.1 check runs under [`SolverConfig::default`]'s work
/// budget.
#[derive(Debug, Clone)]
pub struct PristeConfig {
    /// The ε of ε-spatiotemporal event privacy (Definition II.4).
    pub epsilon: f64,
    /// Optional wall-clock deadline per QP check (Table III's threshold).
    pub qp_deadline: Option<std::time::Duration>,
}

impl Default for PristeConfig {
    fn default() -> Self {
        PristeConfig {
            epsilon: 1.0,
            qp_deadline: None,
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
            deadline: self.qp_deadline,
            ..SolverConfig::default()
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
        let c = PristeConfig {
            qp_deadline: Some(std::time::Duration::from_millis(3)),
            ..Default::default()
        };
        let solver = c.solver_config();
        assert_eq!(solver.deadline, c.qp_deadline);
        assert_eq!(solver.work_budget, SolverConfig::default().work_budget);
    }
}
