//! The event stream of an in-flight LASER run.
//!
//! LASER is an *online* pipeline: sampled HITM records flow driver → detector
//! → repair while the application is still running. This module gives that
//! pipeline a public surface. A [`LaserSession`](crate::session::LaserSession)
//! built with an [`Observer`] (see
//! [`SessionBuilder::observer`](crate::session::SessionBuilder::observer))
//! reports every poll quantum as a typed [`LaserEvent`], and the observer's
//! return value — a [`ControlFlow`]`<`[`StopReason`]`>` — steers the run:
//! returning `ControlFlow::Break` cancels the session mid-flight.
//!
//! Two stock observers cover the common cases: [`EventLog`] records the event
//! sequence through a shareable handle (the sequence is deterministic for a
//! given workload and configuration, and identical on whatever thread the
//! session runs), and [`BudgetObserver`] enforces a [`CellBudget`] — the
//! mechanism `laser-bench`'s campaign runner uses for per-cell step and
//! wall-clock limits.
//!
//! The event stream is part of the determinism contract: an observer cannot
//! tell how the session it watches is deployed. Inline or pipelined, the
//! same workload and configuration produce the same events in the same order
//! with the same payloads — an observed pipelined session waits for its
//! detector thread's reply on each batch before it emits the batch's
//! `RecordBatch`/`DetectionUpdate` events.

use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The live HITM rate of one source line, as carried by
/// [`LaserEvent::DetectionUpdate`].
#[derive(Debug, Clone, PartialEq)]
pub struct LineRate {
    /// Source file (`<unknown>` when the PC has no line info).
    pub file: String,
    /// 1-based source line (0 when unknown).
    pub line: u32,
    /// HITM records attributed to the line so far.
    pub hitm_records: u64,
    /// Records per second of dilated benchmark time elapsed so far.
    pub rate_per_sec: f64,
}

/// One step of an in-flight LASER run, as delivered to an [`Observer`].
///
/// Events are emitted in a fixed order within each
/// [`advance`](crate::session::LaserSession::advance) call — `QuantumCompleted`,
/// then (when the driver delivered records) `RecordBatch` and
/// `DetectionUpdate`, then `RepairAttached` the quantum repair triggers — and
/// the whole sequence is deterministic for a given workload, configuration
/// and seed.
#[derive(Debug, Clone, PartialEq)]
pub enum LaserEvent {
    /// One poll quantum of application execution finished.
    QuantumCompleted {
        /// Instructions retired during this quantum.
        steps: u64,
        /// Machine wall-clock so far (maximum per-core cycle count).
        cycles: u64,
    },
    /// The driver delivered a batch of HITM records to the detector.
    RecordBatch {
        /// Records in the batch.
        n: usize,
        /// Ground-truth events the PMU dropped (rather than sampled or
        /// skipped) since the previous batch — e.g. events from cores outside
        /// the PMU's configured range.
        dropped: u64,
    },
    /// The detector finished processing a batch: the live per-line HITM
    /// rates, hottest line first.
    DetectionUpdate {
        /// Per-line rates over the benchmark time elapsed so far.
        lines: Vec<LineRate>,
        /// Fraction of the ground-truth HITM events so far that crossed a
        /// socket boundary (0.0 on a single-socket topology). Drawn from
        /// machine statistics at the batch's charge point, so it is
        /// identical inline and pipelined.
        remote_hitm_share: f64,
    },
    /// LASERREPAIR attached its instrumentation to the running program.
    RepairAttached {
        /// Machine cycle count at the attachment point.
        at_cycle: u64,
        /// Basic blocks whose memory operations are instrumented.
        instrumented_blocks: usize,
        /// Blocks on whose entry the software store buffer is flushed.
        flush_blocks: usize,
        /// Store PCs redirected into the store buffer.
        ssb_stores: usize,
        /// The plan's estimated dynamic stores-per-flush ratio.
        estimated_stores_per_flush: f64,
    },
    /// The run completed (including the final record flush).
    Finished {
        /// Total instructions retired.
        steps: u64,
        /// Final machine wall-clock.
        cycles: u64,
    },
}

/// Why an [`Observer`] stopped a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The run retired more instructions than its budget allows.
    StepBudget {
        /// The configured limit.
        limit: u64,
        /// Instructions retired when the limit tripped.
        used: u64,
    },
    /// The run held its worker longer than its wall-clock budget allows.
    WallClock {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
        /// Real time elapsed when the limit tripped, in milliseconds.
        elapsed_ms: u64,
    },
    /// The caller cancelled the run for its own reason.
    Cancelled(String),
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::StepBudget { limit, used } => {
                write!(f, "step budget exceeded ({used} steps > limit {limit})")
            }
            StopReason::WallClock {
                limit_ms,
                elapsed_ms,
            } => {
                write!(
                    f,
                    "wall-clock budget exceeded ({elapsed_ms} ms > limit {limit_ms} ms)"
                )
            }
            StopReason::Cancelled(why) => write!(f, "cancelled: {why}"),
        }
    }
}

/// A watcher (and steerer) of an in-flight LASER run.
///
/// The session calls [`Observer::on_event`] for every [`LaserEvent`];
/// returning `ControlFlow::Break(reason)` cancels the run, which surfaces as
/// [`LaserError::Stopped`](crate::system::LaserError::Stopped) from
/// [`LaserSession::run`](crate::session::LaserSession::run).
///
/// Any `FnMut(&LaserEvent) -> ControlFlow<StopReason>` closure (that is
/// `Send`) is an observer:
///
/// ```
/// use std::ops::ControlFlow;
/// use laser_core::{LaserEvent, Observer, StopReason};
///
/// let mut quanta = 0u32;
/// let mut observer = move |event: &LaserEvent| {
///     if let LaserEvent::QuantumCompleted { .. } = event {
///         quanta += 1;
///         if quanta > 100 {
///             return ControlFlow::Break(StopReason::Cancelled("enough".into()));
///         }
///     }
///     ControlFlow::Continue(())
/// };
/// assert!(observer
///     .on_event(&LaserEvent::Finished { steps: 0, cycles: 0 })
///     .is_continue());
/// ```
pub trait Observer: Send {
    /// React to one event. `Break` cancels the run.
    fn on_event(&mut self, event: &LaserEvent) -> ControlFlow<StopReason>;
}

impl<F> Observer for F
where
    F: FnMut(&LaserEvent) -> ControlFlow<StopReason> + Send,
{
    fn on_event(&mut self, event: &LaserEvent) -> ControlFlow<StopReason> {
        self(event)
    }
}

/// An observer that ignores every event and never stops the run — the default
/// when a session is built without one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _event: &LaserEvent) -> ControlFlow<StopReason> {
        ControlFlow::Continue(())
    }
}

/// An observer that records the full event sequence behind a shareable
/// handle.
///
/// Cloning an `EventLog` clones the *handle*, not the log: hand one clone to
/// [`SessionBuilder::observer`](crate::session::SessionBuilder::observer) and
/// keep the other to read [`EventLog::events`] back after the run — even when
/// the session was moved to another thread.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<LaserEvent>>>,
}

impl EventLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// A snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<LaserEvent> {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        self.events.lock().unwrap().clone()
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, event: &LaserEvent) -> ControlFlow<StopReason> {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        self.events.lock().unwrap().push(event.clone());
        ControlFlow::Continue(())
    }
}

/// Resource limits for one run (one campaign cell): a step budget, a
/// wall-clock budget, neither, or both. Enforced by [`BudgetObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellBudget {
    /// Maximum instructions the run may retire.
    pub max_steps: Option<u64>,
    /// Maximum real time the run may hold its worker.
    pub max_wall: Option<Duration>,
}

impl CellBudget {
    /// A pure step budget. Step budgets are deterministic: the same run trips
    /// (or doesn't) at the same event on every thread count.
    pub fn steps(max_steps: u64) -> Self {
        CellBudget {
            max_steps: Some(max_steps),
            max_wall: None,
        }
    }

    /// A pure wall-clock budget. Wall-clock budgets depend on real time and
    /// machine load; use step budgets where determinism matters.
    pub fn wall(max_wall: Duration) -> Self {
        CellBudget {
            max_steps: None,
            max_wall: Some(max_wall),
        }
    }

    /// Whether this budget can never stop a run.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.max_wall.is_none()
    }
}

/// An observer that cancels a run once it exceeds a [`CellBudget`].
///
/// Steps are accumulated from [`LaserEvent::QuantumCompleted`] events and
/// also checked against [`LaserEvent::Finished`], so tools that report only a
/// final event (a native run, the baselines) are still held to the budget —
/// their over-budget cells are marked after completion rather than cancelled
/// mid-flight.
#[derive(Debug)]
pub struct BudgetObserver {
    budget: CellBudget,
    steps: u64,
    started: Instant,
}

impl BudgetObserver {
    /// Start enforcing `budget` now (the wall clock starts at construction).
    pub fn new(budget: CellBudget) -> Self {
        BudgetObserver {
            budget,
            steps: 0,
            #[expect(
                clippy::disallowed_methods,
                reason = "BudgetObserver is the opt-in wall-clock budget; it aborts runs and never feeds simulated state or emitted bytes"
            )]
            started: Instant::now(),
        }
    }

    fn check(&self, total_steps: u64) -> ControlFlow<StopReason> {
        if let Some(limit) = self.budget.max_steps {
            if total_steps > limit {
                return ControlFlow::Break(StopReason::StepBudget {
                    limit,
                    used: total_steps,
                });
            }
        }
        if let Some(limit) = self.budget.max_wall {
            let elapsed = self.started.elapsed();
            if elapsed > limit {
                return ControlFlow::Break(StopReason::WallClock {
                    limit_ms: limit.as_millis() as u64,
                    elapsed_ms: elapsed.as_millis() as u64,
                });
            }
        }
        ControlFlow::Continue(())
    }
}

impl Observer for BudgetObserver {
    fn on_event(&mut self, event: &LaserEvent) -> ControlFlow<StopReason> {
        match event {
            LaserEvent::QuantumCompleted { steps, .. } => {
                self.steps += steps;
                self.check(self.steps)
            }
            LaserEvent::Finished { steps, .. } => self.check(self.steps.max(*steps)),
            _ => ControlFlow::Continue(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantum(steps: u64) -> LaserEvent {
        LaserEvent::QuantumCompleted { steps, cycles: 0 }
    }

    #[test]
    fn observers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NullObserver>();
        assert_send::<EventLog>();
        assert_send::<BudgetObserver>();
        assert_send::<Box<dyn Observer>>();
    }

    #[test]
    fn event_log_handle_shares_the_log() {
        let log = EventLog::new();
        let mut writer = log.clone();
        assert!(writer.on_event(&quantum(10)).is_continue());
        assert!(writer
            .on_event(&LaserEvent::Finished {
                steps: 10,
                cycles: 99
            })
            .is_continue());
        assert_eq!(
            log.events(),
            vec![
                quantum(10),
                LaserEvent::Finished {
                    steps: 10,
                    cycles: 99
                }
            ]
        );
    }

    #[test]
    fn step_budget_trips_when_accumulated_steps_exceed_the_limit() {
        let mut obs = BudgetObserver::new(CellBudget::steps(25));
        assert!(obs.on_event(&quantum(10)).is_continue());
        assert!(obs.on_event(&quantum(10)).is_continue());
        assert_eq!(
            obs.on_event(&quantum(10)),
            ControlFlow::Break(StopReason::StepBudget {
                limit: 25,
                used: 30
            })
        );
    }

    #[test]
    fn step_budget_also_checks_a_bare_finished_event() {
        // Tools that emit no quanta (native, baselines) report their total at
        // Finished; the budget must still hold them to it.
        let mut obs = BudgetObserver::new(CellBudget::steps(100));
        assert!(obs
            .on_event(&LaserEvent::Finished {
                steps: 100,
                cycles: 5
            })
            .is_continue());
        let mut obs = BudgetObserver::new(CellBudget::steps(100));
        assert_eq!(
            obs.on_event(&LaserEvent::Finished {
                steps: 101,
                cycles: 5
            }),
            ControlFlow::Break(StopReason::StepBudget {
                limit: 100,
                used: 101
            })
        );
    }

    #[test]
    fn unlimited_budget_never_stops() {
        assert!(CellBudget::default().is_unlimited());
        assert!(!CellBudget::steps(1).is_unlimited());
        assert!(!CellBudget::wall(Duration::from_millis(1)).is_unlimited());
        let mut obs = BudgetObserver::new(CellBudget::default());
        assert!(obs.on_event(&quantum(u64::MAX / 2)).is_continue());
        assert!(obs.on_event(&quantum(u64::MAX / 2)).is_continue());
    }

    #[test]
    fn wall_clock_budget_trips_on_elapsed_time() {
        let mut obs = BudgetObserver::new(CellBudget::wall(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        match obs.on_event(&quantum(1)) {
            ControlFlow::Break(StopReason::WallClock { limit_ms: 1, .. }) => {}
            other => panic!("expected wall-clock stop, got {other:?}"),
        }
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
        assert_eq!(
            StopReason::WallClock {
                limit_ms: 5,
                elapsed_ms: 9
            }
            .to_string(),
            "wall-clock budget exceeded (9 ms > limit 5 ms)"
        );
        assert_eq!(
            StopReason::Cancelled("why".into()).to_string(),
            "cancelled: why"
        );
    }
}
