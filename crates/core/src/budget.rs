//! The step limit of a run.
//!
//! A [`CellBudget`] bounds a run at a number of retired instructions.
//! [`SessionBuilder::budget`](crate::session::SessionBuilder::budget) holds a
//! LASER session to one: the session checks [`CellBudget::check`] once per
//! poll quantum and, on a trip, stops with
//! [`SessionStatus::Stopped`](crate::session::SessionStatus::Stopped). A run
//! that cannot be cut short (a native run, the baselines) is checked once,
//! against its final step count, by the same rule. A budget counts simulated
//! instructions, never real time, so a budgeted run trips (or doesn't) at the
//! same quantum, with the same [`StopReason`], on every host and thread count
//! and in every pipeline deployment.

/// Why a run was stopped before it finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The run retired more instructions than its budget allows.
    StepBudget {
        /// The configured limit.
        limit: u64,
        /// Instructions retired when the limit tripped.
        used: u64,
    },
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::StepBudget { limit, used } => {
                write!(f, "step budget exceeded ({used} steps > limit {limit})")
            }
        }
    }
}

/// The resource limit of one run (one campaign cell): a step budget, or
/// none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellBudget {
    /// Maximum instructions the run may retire.
    pub max_steps: Option<u64>,
}

impl CellBudget {
    /// A step budget. Step budgets are deterministic: the same run trips
    /// (or doesn't) at the same quantum on every thread count.
    pub fn steps(max_steps: u64) -> Self {
        CellBudget {
            max_steps: Some(max_steps),
        }
    }

    /// The budget rule: a run that has retired `steps` instructions is over
    /// budget once `steps` exceeds the limit.
    ///
    /// # Errors
    /// [`StopReason::StepBudget`] reporting `steps` as `used`.
    pub fn check(&self, steps: u64) -> Result<(), StopReason> {
        match self.max_steps {
            Some(limit) if steps > limit => Err(StopReason::StepBudget { limit, used: steps }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(limit: u64, used: u64) -> Result<(), StopReason> {
        Err(StopReason::StepBudget { limit, used })
    }

    #[test]
    fn step_budget_trips_when_accumulated_steps_exceed_the_limit() {
        let budget = CellBudget::steps(25);
        for (steps, expected) in [
            (0, Ok(())),
            (25, Ok(())),
            (26, trip(25, 26)),
            (30, trip(25, 30)),
        ] {
            assert_eq!(budget.check(steps), expected, "at {steps}");
        }
    }

    #[test]
    fn step_budget_also_checks_a_bare_finished_event() {
        // Tools that cannot be cut short (native, baselines) check their final
        // step count once; the same rule holds them to the budget.
        assert_eq!(CellBudget::steps(100).check(100), Ok(()));
        assert_eq!(CellBudget::steps(100).check(101), trip(100, 101));
        assert_eq!(CellBudget::steps(1).check(2), trip(1, 2));
    }

    #[test]
    fn unlimited_budget_never_stops() {
        assert_eq!(CellBudget::default().max_steps, None);
        assert_eq!(CellBudget::default().check(0), Ok(()));
        assert_eq!(CellBudget::default().check(u64::MAX), Ok(()));
        assert_eq!(CellBudget::steps(u64::MAX).check(u64::MAX), Ok(()));
    }

    #[test]
    fn stop_reason_display_is_stable() {
        assert_eq!(
            StopReason::StepBudget {
                limit: 10,
                used: 12
            }
            .to_string(),
            "step budget exceeded (12 steps > limit 10)"
        );
    }
}
