//! A VTune Amplifier-style profiler model.
//!
//! Per the paper (Section 7.1–7.2), VTune:
//!
//! * uses the same PEBS HITM events as LASER but "configures the PEBS
//!   mechanism to raise an interrupt after each HITM event for improved
//!   accuracy (which has significant performance ramifications)";
//! * runs heavier always-on profiling machinery, giving it an 84 % average
//!   slowdown and a 7× worst case even on contention-free programs;
//! * "simply reports source code locations where HITM events arise": no
//!   spurious-record filtering, no stack filtering, and no true-vs-false
//!   sharing classification — hence more false positives.

use std::collections::BTreeMap;

use laser_core::LaserError;
use laser_isa::program::SourceLoc;
use laser_machine::{Machine, MachineConfig, RunResult, RunStatus, WorkloadImage};
use laser_pebs::driver::{Driver, DriverConfig};
use laser_pebs::imprecision::{ImprecisionModel, ImprecisionParams};
use laser_pebs::pmu::{Pmu, PmuConfig};

/// Reporting threshold in HITM records per second. The paper applies a
/// 2 000/s threshold to VTune's output to give it the benefit of the doubt.
const RATE_THRESHOLD: f64 = 2_000.0;
/// General profiling machinery: one sampling interruption every this many
/// instructions, independent of HITM activity.
const SAMPLING_INTERVAL_INSTS: u64 = 900;
/// Cost of each such interruption, charged to every core.
const SAMPLE_COST_CYCLES: u64 = 420;
/// Driver overhead parameters (interrupt-per-record mode).
const DRIVER: DriverConfig = DriverConfig {
    interrupt_cycles: 3000,
    per_record_cycles: 120,
};
/// Poll interval in instructions.
const POLL_INTERVAL_STEPS: u64 = 20_000;
/// Seed for the imprecision model.
const SEED: u64 = 0x77AB1E;

/// A source line VTune reports, with its record count and rate.
#[derive(Debug, Clone, PartialEq)]
pub struct VtuneLine {
    /// Reported location (`[unknown]` for records outside the binary, which
    /// VTune does not filter).
    pub location: SourceLoc,
    /// HITM records attributed to the line.
    pub records: u64,
    /// Records per second of dilated benchmark time.
    pub rate_per_sec: f64,
}

/// The result of profiling one workload with the VTune model.
#[derive(Debug, Clone)]
pub struct VtuneOutcome {
    /// The machine run, with all profiling overhead charged.
    pub run: RunResult,
    /// Reported lines above the rate threshold, ordered by record count.
    pub reported_lines: Vec<VtuneLine>,
    /// Total records collected.
    pub total_records: u64,
}

impl VtuneOutcome {
    /// Reported source locations.
    pub fn reported_locations(&self) -> Vec<&SourceLoc> {
        self.reported_lines.iter().map(|l| &l.location).collect()
    }
}

/// The VTune profiler model.
#[derive(Debug, Clone, Default)]
pub struct Vtune;

impl Vtune {
    /// Profile `image` on the default (single-socket) machine.
    ///
    /// # Errors
    /// Returns an error if the workload exceeds the machine's step budget.
    pub fn run(&self, image: &WorkloadImage) -> Result<VtuneOutcome, LaserError> {
        self.run_on(image, MachineConfig::default())
    }

    /// Profile `image` on an explicit machine configuration (e.g. a
    /// multi-socket topology preset via [`MachineConfig::for_topology`]).
    ///
    /// # Errors
    /// Returns an error if the workload exceeds the machine's step budget.
    pub fn run_on(
        &self,
        image: &WorkloadImage,
        machine_config: MachineConfig,
    ) -> Result<VtuneOutcome, LaserError> {
        let num_cores = machine_config.num_cores;
        let max_steps = machine_config.max_steps;
        let mut machine = Machine::new(machine_config, image);
        let program = image.program();
        let model = ImprecisionModel::new(
            // Record imprecision: the same hardware as LASER.
            ImprecisionParams::default(),
            image.memory_map(),
            (program.base_pc(), program.end_pc()),
            SEED,
        );
        // Interrupt on every sampled record, SAV=1: maximum timeliness,
        // maximum overhead.
        let pmu = Pmu::new(
            PmuConfig {
                sav: 1,
                interrupt_on_each_sample: true,
                num_cores,
                ..Default::default()
            },
            model,
        );
        let mut driver = Driver::new(pmu, DRIVER);

        let mut per_line: BTreeMap<SourceLoc, u64> = BTreeMap::new();
        let mut total_records = 0u64;
        let mut last_steps = 0u64;
        loop {
            let status = machine.run_steps(POLL_INTERVAL_STEPS);
            driver.poll(&mut machine);
            // Always-on profiling machinery, independent of HITM activity.
            let executed = machine.steps() - last_steps;
            last_steps = machine.steps();
            let samples = executed / SAMPLING_INTERVAL_INSTS;
            if samples > 0 {
                machine.charge_all_cores(samples * SAMPLE_COST_CYCLES / num_cores as u64);
            }
            for r in driver.read_records() {
                total_records += 1;
                let loc = program
                    .source_of(r.pc)
                    .cloned()
                    .unwrap_or_else(|| SourceLoc::new("[unknown]", 0));
                *per_line.entry(loc).or_insert(0) += 1;
            }
            if status == RunStatus::Done {
                break;
            }
            if machine.steps() >= max_steps {
                return Err(LaserError::Machine(
                    laser_machine::machine::MachineError::MaxStepsExceeded { steps: max_steps },
                ));
            }
        }
        driver.flush();
        for r in driver.read_records() {
            total_records += 1;
            let loc = program
                .source_of(r.pc)
                .cloned()
                .unwrap_or_else(|| SourceLoc::new("[unknown]", 0));
            *per_line.entry(loc).or_insert(0) += 1;
        }

        let elapsed = machine.elapsed_benchmark_seconds().max(1e-9);
        let mut reported_lines: Vec<VtuneLine> = per_line
            .into_iter()
            .map(|(location, records)| VtuneLine {
                location,
                records,
                rate_per_sec: records as f64 / elapsed,
            })
            .filter(|l| l.rate_per_sec >= RATE_THRESHOLD)
            .collect();
        reported_lines.sort_by(|a, b| b.records.cmp(&a.records).then(a.location.cmp(&b.location)));
        Ok(VtuneOutcome {
            run: machine.result(),
            reported_lines,
            total_records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_core::Laser;
    use laser_workloads::{find, BuildOptions};

    #[test]
    fn vtune_is_much_slower_than_laser_on_contended_code() {
        let image = find("histogram'")
            .unwrap()
            .build(&BuildOptions::scaled(0.2));
        let native = Laser::run_native(&image).unwrap();
        let laser = Laser::builder()
            .config(laser_core::LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        let vtune = Vtune.run(&image).unwrap();
        let laser_norm = laser.run.cycles as f64 / native.cycles as f64;
        let vtune_norm = vtune.run.cycles as f64 / native.cycles as f64;
        assert!(
            vtune_norm > laser_norm,
            "vtune {vtune_norm} vs laser {laser_norm}"
        );
        assert!(
            vtune_norm > 1.10,
            "vtune overhead should be substantial: {vtune_norm}"
        );
    }

    #[test]
    fn vtune_slows_down_even_contention_free_programs() {
        let image = find("string_match")
            .unwrap()
            .build(&BuildOptions::scaled(0.2));
        let native = Laser::run_native(&image).unwrap();
        let vtune = Vtune.run(&image).unwrap();
        let norm = vtune.run.cycles as f64 / native.cycles as f64;
        assert!(
            norm > 1.2,
            "always-on profiling should cost something: {norm}"
        );
        assert!(vtune.reported_lines.is_empty());
    }

    #[test]
    fn vtune_reports_contended_lines_without_classification() {
        let image = find("histogram'")
            .unwrap()
            .build(&BuildOptions::scaled(0.3));
        let vtune = Vtune.run(&image).unwrap();
        assert!(vtune.total_records > 0);
        assert!(
            vtune
                .reported_lines
                .iter()
                .any(|l| l.location.file == "histogram.c"),
            "reported: {:?}",
            vtune.reported_locations()
        );
    }
}
