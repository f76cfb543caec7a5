use crate::{CoreError, Result};
use priste_qp::SolverConfig;

/// Configuration of the PriSTE framework.
#[derive(Debug, Clone)]
pub struct PristeConfig {
    /// The ε of ε-spatiotemporal event privacy (Definition II.4).
    pub epsilon: f64,
    /// QP work budget (coordinate pairs) per Theorem IV.1 check — the
    /// deterministic analogue of the paper's CPLEX wall-clock threshold,
    /// which `qp_deadline` mirrors directly. Defaults to
    /// `SolverConfig::default().work_budget`.
    pub qp_work_budget: u64,
    /// Budget decay factor applied on each failed check (Algorithm 2
    /// line 19 uses ½; §IV.C discusses the efficiency/utility trade-off of
    /// other values).
    pub decay: f64,
    /// Budget floor: once the decayed budget falls below this, the
    /// framework releases through the *uniform* mechanism (the paper's
    /// α = 0 limit, which always satisfies Eqs. (15)/(16)).
    pub budget_floor: f64,
    /// Maximum calibration attempts per timestamp before forcing the
    /// uniform fallback — a safety net against pathological inputs.
    pub max_attempts: u32,
    /// Optional wall-clock deadline per QP check (Table III's threshold).
    pub qp_deadline: Option<std::time::Duration>,
}

impl Default for PristeConfig {
    fn default() -> Self {
        PristeConfig {
            epsilon: 1.0,
            qp_work_budget: SolverConfig::default().work_budget,
            decay: 0.5,
            budget_floor: 1e-4,
            max_attempts: 40,
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
        if !(self.decay.is_finite() && self.decay > 0.0 && self.decay < 1.0) {
            return Err(CoreError::InvalidConfig {
                message: format!("decay must lie in (0,1), got {}", self.decay),
            });
        }
        if !(self.budget_floor.is_finite() && self.budget_floor >= 0.0) {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "budget floor must be non-negative, got {}",
                    self.budget_floor
                ),
            });
        }
        if self.max_attempts == 0 {
            return Err(CoreError::InvalidConfig {
                message: "max_attempts must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The solver configuration for one constraint check.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            work_budget: self.qp_work_budget,
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
        let c = PristeConfig {
            decay: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PristeConfig {
            budget_floor: f64::NAN,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PristeConfig {
            max_attempts: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn solver_config_inherits_fields() {
        let c = PristeConfig {
            qp_work_budget: 123,
            ..Default::default()
        };
        assert_eq!(c.solver_config().work_budget, 123);
    }
}
