//! The end-to-end LASER system (paper Section 6, Figure 8).
//!
//! A session built by [`Laser::builder`] wires the pieces together the way
//! the paper's deployment does: the application runs on the simulated
//! machine; the kernel driver configures the PMU and ships stripped HITM
//! records to the user-space detector; the detector runs its pipeline
//! online and, when the false-sharing rate crosses a threshold, attaches the
//! Pin-based SSB instrumentation to the still-running program. Driver,
//! detector and instrumentation overhead are all charged to the machine, so
//! the run's cycle count is directly comparable to a native run — which is
//! exactly how the paper's Figures 10–14 are built.

use std::fmt;

use laser_machine::machine::MachineError;
use laser_machine::{HitmEvent, Machine, MachineConfig, RunResult, WorkloadImage};
use laser_pebs::driver::DriverStats;

use crate::budget::StopReason;
use crate::repair::{RepairPlan, SsbStats};
use crate::report::ContentionReport;
use crate::session::{SessionBuilder, StageOccupancy};

/// What LASERREPAIR did during a run.
#[derive(Debug, Clone)]
pub struct RepairSummary {
    /// Machine cycle count at which repair was attached.
    pub triggered_at_cycle: u64,
    /// The plan that was applied.
    pub plan: RepairPlan,
    /// Instrumentation statistics at the end of the run.
    pub stats: SsbStats,
}

/// Everything a LASER run produces.
#[derive(Debug, Clone)]
pub struct LaserOutcome {
    /// The detector's contention report.
    pub report: ContentionReport,
    /// The machine-level run result (cycles include all tool overhead).
    pub run: RunResult,
    /// Driver activity and overhead.
    pub driver_stats: DriverStats,
    /// Cycles the detector process consumed.
    pub detector_cycles: u64,
    /// Repair activity, if LASERREPAIR was triggered.
    pub repair: Option<RepairSummary>,
    /// Benchmark time in (dilated) seconds.
    pub elapsed_benchmark_seconds: f64,
    /// Per-stage busy times of a pipelined run (`None` for inline runs).
    /// Wall-clock bookkeeping only — it never feeds back into any simulated
    /// or reported quantity, so outcomes stay byte-identical across hosts.
    pub stage_occupancy: Option<StageOccupancy>,
}

impl LaserOutcome {
    /// Convenience: the end-to-end cycle count of the monitored run.
    pub fn cycles(&self) -> u64 {
        self.run.cycles
    }

    /// Normalized runtime against a native (un-monitored) run of the same
    /// workload.
    pub fn normalized_runtime(&self, native: &RunResult) -> f64 {
        self.run.cycles as f64 / native.cycles.max(1) as f64
    }
}

/// Errors from the LASER system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaserError {
    /// The underlying machine failed (e.g. the workload livelocked).
    Machine(MachineError),
    /// The run went past the session's
    /// [`CellBudget`](crate::budget::CellBudget) and was stopped mid-flight;
    /// there is no complete outcome.
    Stopped(StopReason),
}

impl fmt::Display for LaserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaserError::Machine(e) => write!(f, "machine error: {e}"),
            LaserError::Stopped(reason) => write!(f, "run stopped: {reason}"),
        }
    }
}

impl std::error::Error for LaserError {}

impl From<MachineError> for LaserError {
    fn from(e: MachineError) -> Self {
        LaserError::Machine(e)
    }
}

/// The LASER system: detection plus (optionally) online repair, run
/// through a session from [`Laser::builder`], and the native baseline runs
/// every overhead figure is normalized against.
#[derive(Debug)]
pub struct Laser;

impl Laser {
    /// Start building a session: the one way to run LASER. The builder
    /// unifies the LASER and machine configurations, the pipeline deployment
    /// and an optional step [`CellBudget`](crate::budget::CellBudget).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Run `image` natively — no driver, no detector, no repair. This is the
    /// baseline every overhead figure is normalized against.
    ///
    /// # Errors
    /// Returns an error if the workload exceeds the machine's step budget.
    pub fn run_native(image: &WorkloadImage) -> Result<RunResult, LaserError> {
        Self::run_native_on(image, MachineConfig::default())
    }

    /// Like [`Laser::run_native`] but with an explicit machine configuration.
    ///
    /// Nobody reads a native run's HITM events, so they are discarded as the
    /// run goes ([`Machine::run_draining`]) instead of queueing up inside the
    /// machine; the result equals [`Machine::run_to_completion`]'s field for
    /// field.
    ///
    /// # Errors
    /// Returns an error if the workload exceeds the machine's step budget.
    pub fn run_native_on(
        image: &WorkloadImage,
        machine_config: MachineConfig,
    ) -> Result<RunResult, LaserError> {
        Self::run_native_with_events(image, machine_config, &mut |_| {})
    }

    /// Like [`Laser::run_native_on`], handing the run's HITM events to
    /// `sink` a batch at a time, in the order the machine generated them
    /// ([`Machine::run_draining`]). A caller that folds the events into a
    /// summary (Sheriff-Detect's writer aggregation) never holds more than
    /// one batch of them; the result is the same as
    /// [`Laser::run_native_on`]'s.
    ///
    /// # Errors
    /// Returns an error if the workload exceeds the machine's step budget.
    pub fn run_native_with_events(
        image: &WorkloadImage,
        machine_config: MachineConfig,
        sink: &mut dyn FnMut(&[HitmEvent]),
    ) -> Result<RunResult, LaserError> {
        Ok(Machine::new(machine_config, image).run_draining(sink)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaserConfig;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::ThreadSpec;

    /// Two threads false-sharing adjacent counters in one cache line, using
    /// the memory-destination increment compilers emit for `counter[i]++`.
    fn false_sharing_image(iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new("fs_demo");
        b.source("fs_demo.c", 12);
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.mem_add(Reg(0), 0, Operand::Imm(1), 8);
        b.source("fs_demo.c", 13);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let mut image = WorkloadImage::new("fs_demo", program);
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "entry").with_reg(Reg(0), base));
        image.push_thread(ThreadSpec::new("t1", "entry").with_reg(Reg(0), base + 8));
        image
    }

    /// Four threads doing purely thread-private work.
    fn private_image(iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new("private");
        b.source("private.c", 3);
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.load(Reg(1), Reg(0), 0, 8);
        b.addi(Reg(1), Reg(1), 3);
        b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let mut image = WorkloadImage::new("private", program);
        for t in 0..4u64 {
            let a = image.layout_mut().heap_alloc(64, 64).unwrap();
            image.push_thread(ThreadSpec::new(format!("t{t}"), "entry").with_reg(Reg(0), a));
        }
        image
    }

    #[test]
    fn detects_and_repairs_false_sharing_online() {
        let image = false_sharing_image(4000);
        let native = Laser::run_native(&image).unwrap();
        let outcome = Laser::builder().build(&image).run().unwrap();

        // The contending source line is reported.
        assert!(
            outcome.report.line("fs_demo.c", 12).is_some(),
            "report: {}",
            outcome.report.render()
        );
        // Repair was triggered and the run beat native execution.
        let repair = outcome.repair.as_ref().expect("repair should trigger");
        assert!(repair.plan.profitable);
        assert!(repair.stats.buffered_stores > 0);
        assert!(outcome.report.repair_invoked);
        assert!(
            outcome.cycles() < native.cycles,
            "repaired {} should beat native {}",
            outcome.cycles(),
            native.cycles
        );
    }

    #[test]
    fn detection_only_mode_reports_without_repair() {
        let image = false_sharing_image(3000);
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        assert!(outcome.repair.is_none());
        assert!(!outcome.report.repair_invoked);
        assert!(!outcome.report.lines.is_empty());
        assert!(outcome.driver_stats.records_sampled > 0);
    }

    #[test]
    fn uncontended_workload_has_negligible_overhead() {
        let image = private_image(3000);
        let native = Laser::run_native(&image).unwrap();
        assert_eq!(native.stats.hitm_events, 0);
        let outcome = Laser::builder().build(&image).run().unwrap();
        let normalized = outcome.normalized_runtime(&native);
        assert!(normalized < 1.02, "overhead too high: {normalized}");
        assert!(outcome.report.lines.is_empty());
        assert!(outcome.repair.is_none());
    }

    #[test]
    fn native_run_is_deterministic() {
        let image = false_sharing_image(1000);
        let a = Laser::run_native(&image).unwrap();
        let b = Laser::run_native(&image).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
    }

    fn assert_same_result(native: &RunResult, reference: &RunResult, what: &str) {
        assert_eq!(native.steps, reference.steps, "{what}: steps");
        assert_eq!(native.cycles, reference.cycles, "{what}: cycles");
        assert_eq!(
            native.per_core_cycles, reference.per_core_cycles,
            "{what}: core clocks"
        );
        assert_eq!(native.stats, reference.stats, "{what}: statistics");
    }

    /// What discarding promises: a native run is `run_to_completion` field
    /// for field, on every registry workload, on 4 cores and on 32.
    #[test]
    fn native_runs_equal_run_to_completion_on_every_registry_workload() {
        use laser_machine::TopologySpec;
        use laser_workloads::BuildOptions;
        for topology in [TopologySpec::Flat, TopologySpec::OctoSocket] {
            let config = MachineConfig::for_topology(topology);
            for spec in laser_workloads::registry() {
                let image = spec.build(&BuildOptions::scaled(0.02).for_topology(topology));
                let what = format!("{} on {topology}", spec.name);
                let reference = Machine::new(config.clone(), &image)
                    .run_to_completion()
                    .unwrap();
                let native = Laser::run_native_on(&image, config.clone()).unwrap();
                assert_same_result(&native, &reference, &what);
            }
        }
    }

    #[test]
    fn native_runs_stop_on_exactly_the_step_budget() {
        let image = false_sharing_image(4000);
        let total = Laser::run_native(&image).unwrap().steps;
        for max_steps in [10_000, 999, 0] {
            let config = MachineConfig {
                max_steps,
                ..Default::default()
            };
            assert_eq!(
                Laser::run_native_on(&image, config.clone()).unwrap_err(),
                LaserError::Machine(MachineError::MaxStepsExceeded { steps: max_steps })
            );
            let mut machine = Machine::new(config, &image);
            assert_eq!(
                machine.run_draining(|_| {}).unwrap_err(),
                MachineError::MaxStepsExceeded { steps: max_steps }
            );
            assert_eq!(machine.steps(), max_steps);
        }
        // A budget of exactly the run's length is enough.
        let config = MachineConfig {
            max_steps: total,
            ..Default::default()
        };
        assert_eq!(Laser::run_native_on(&image, config).unwrap().steps, total);
    }

    /// A contended native run drains the machine's queue as it goes: the
    /// buffer left behind never grew to hold more than a small part of the
    /// run's events.
    #[test]
    fn native_runs_hold_one_batch_of_events_at_most() {
        let image = false_sharing_image(40_000);
        let mut machine = Machine::new(MachineConfig::default(), &image);
        let run = machine.run_draining(|_| {}).unwrap();
        assert!(run.stats.hitm_events > 40_000, "a contended run");
        let queue = machine.take_hitm_events();
        assert!(queue.is_empty());
        assert!(
            queue.capacity() <= 4096,
            "queue grew to {} events of {}",
            queue.capacity(),
            run.stats.hitm_events
        );
    }

    /// A sink sees every event `run_to_completion` would have queued, in
    /// order, one batch at a time — and the run is unchanged by it.
    #[test]
    fn a_native_sink_sees_every_event_in_order_one_batch_at_a_time() {
        let image = false_sharing_image(20_000);
        let mut reference = Machine::new(MachineConfig::default(), &image);
        let expected_run = reference.run_to_completion().unwrap();
        let expected = reference.take_hitm_events();
        assert!(expected.len() > 20_000, "a contended run");

        let mut seen = Vec::new();
        let mut batches = 0;
        let run = Laser::run_native_with_events(&image, MachineConfig::default(), &mut |events| {
            batches += 1;
            seen.extend_from_slice(events);
        })
        .unwrap();
        assert_same_result(&run, &expected_run, "run_native_with_events");
        assert_eq!(seen, expected);
        assert!(batches > 5, "{} events in {batches} batches", seen.len());
    }

    #[test]
    fn laser_run_is_deterministic_given_seed() {
        let image = false_sharing_image(1000);
        let run = || {
            Laser::builder()
                .config(LaserConfig::default().with_seed(9))
                .build(&image)
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.report, b.report);
    }
}
