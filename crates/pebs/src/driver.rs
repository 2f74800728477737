//! The kernel-driver model.
//!
//! The paper's driver is "a standard Linux kernel module … \[it\] configures the
//! chip's performance monitoring unit to record HITM events into per-core
//! memory buffers. The driver receives an interrupt whenever a per-core buffer
//! is full, and empties the buffer by moving the records to an internal buffer
//! that feeds into a kernel file-like device. The driver removes irrelevant
//! information from the HITM records … and sends only the PC, data address,
//! and originating core to the detector." (Section 6)
//!
//! This module reproduces that flow: [`Driver::poll`] pulls ground-truth HITM
//! events out of the machine, feeds them to the [`Pmu`], charges the
//! interrupted cores for interrupt handling and record copying, and stages the
//! resulting records in an internal buffer the detector reads with
//! [`Driver::read_records`].

use laser_machine::{HitmEvent, Machine};

use crate::pmu::Pmu;
use crate::record::HitmRecord;

/// Overhead parameters of the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Cycles charged to a core for handling one performance-monitoring
    /// interrupt (register save/restore, handler body, buffer swap).
    pub interrupt_cycles: u64,
    /// Cycles charged per record for stripping and copying it to the internal
    /// buffer.
    pub per_record_cycles: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            interrupt_cycles: 3000,
            per_record_cycles: 60,
        }
    }
}

/// Aggregate statistics of the driver's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Ground-truth HITM events observed by the PMU.
    pub events_observed: u64,
    /// Records sampled.
    pub records_sampled: u64,
    /// Ground-truth events the PMU dropped outright (e.g. events from cores
    /// outside its configured range) — never sampled, never counted against a
    /// SAV countdown.
    pub events_dropped: u64,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Cycles of overhead charged to the application's cores.
    pub overhead_cycles: u64,
}

/// The kernel driver standing between the PMU and the user-space detector.
#[derive(Debug)]
pub struct Driver {
    pmu: Pmu,
    config: DriverConfig,
    staged: Vec<HitmRecord>,
    stats: DriverStats,
    /// Per-core targeted charges of the batch being ingested, kept so a
    /// batch does not allocate them.
    charges: Vec<u64>,
}

impl Driver {
    /// Create a driver around a configured PMU.
    pub fn new(pmu: Pmu, config: DriverConfig) -> Self {
        Driver {
            pmu,
            config,
            staged: Vec::new(),
            stats: DriverStats::default(),
            charges: Vec::new(),
        }
    }

    /// Driver statistics so far.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Access the underlying PMU (e.g. to read the raw event counter).
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// Service the PMU: drain the machine's pending HITM events, sample them,
    /// take any buffer-full interrupts (charging their cost to the cores), and
    /// stage completed records for the detector.
    pub fn poll(&mut self, machine: &mut Machine) {
        let events = machine.take_hitm_events();
        self.ingest(events, machine);
    }

    /// Consume one *yielded* batch of HITM events (see
    /// [`laser_machine::Machine::run_quantum`]): sample the batch, take any
    /// buffer-full interrupts (charging their cost to the cores), and stage
    /// completed records for the detector. [`Driver::poll`] is this operation
    /// applied to the machine's own pending events.
    pub fn ingest(&mut self, events: Vec<HitmEvent>, machine: &mut Machine) {
        if events.is_empty() {
            return;
        }
        let num_cores = machine.num_cores();
        self.stats.events_observed += events.len() as u64;
        let activity = self.pmu.observe(&events);
        self.stats.records_sampled += activity.records_sampled as u64;
        self.stats.events_dropped += activity.events_dropped as u64;
        self.stats.interrupts += activity.interrupts as u64;
        if activity.interrupts > 0 || activity.records_sampled > 0 {
            // Targeted charges accumulate per core and land in one
            // `charge_per_core` call: one scheduler fix-up per charged core
            // rather than one per interrupt.
            let per_core = &mut self.charges;
            per_core.clear();
            per_core.resize(num_cores, 0);
            // Interrupt handling lands on the core whose buffer filled; we
            // charge it round-robin over the cores that produced events, which
            // is equivalent in aggregate.
            let per_interrupt = self.config.interrupt_cycles;
            for i in 0..activity.interrupts {
                per_core[events[i % events.len()].core.0 % num_cores] += per_interrupt;
                self.stats.overhead_cycles += per_interrupt;
            }
            let copy_cycles = self.config.per_record_cycles * activity.records_sampled as u64;
            if copy_cycles > 0 {
                // Record copying is spread over the cores. Integer division
                // would silently drop `copy_cycles % n_cores` — on small
                // batches that rounds the whole charge down to zero — so the
                // remainder is distributed one cycle each to the first cores,
                // keeping the total charged exactly `copy_cycles`.
                let uniform = copy_cycles / num_cores as u64;
                if uniform > 0 {
                    machine.charge_all_cores(uniform);
                }
                let remainder = (copy_cycles % num_cores as u64) as usize;
                for cycles in &mut per_core[..remainder] {
                    *cycles += 1;
                }
                self.stats.overhead_cycles += copy_cycles;
            }
            machine.charge_per_core(per_core);
        }
        let ready = self.pmu.drain_ready();
        self.stage(ready);
    }

    /// Queue `records` behind whatever the detector has not read yet. The
    /// usual case — every batch is read before the next arrives — moves the
    /// buffer instead of copying it.
    fn stage(&mut self, mut records: Vec<HitmRecord>) {
        if self.staged.is_empty() {
            self.staged = records;
        } else {
            self.staged.append(&mut records);
        }
    }

    /// Flush everything still sitting in PEBS buffers (used at the end of a
    /// run so no sampled record is lost).
    pub fn flush(&mut self) {
        let rest = self.pmu.drain_all_buffers();
        self.stage(rest);
    }

    /// Read the records staged for the detector (the file-like device read).
    pub fn read_records(&mut self) -> Vec<HitmRecord> {
        std::mem::take(&mut self.staged)
    }

    /// Give back a buffer [`Driver::read_records`] returned, once its
    /// records are consumed: the PMU fills it next (see
    /// [`Pmu::give_back`]), so a reader that gives back every batch keeps
    /// one buffer circulating and allocates nothing per batch.
    pub fn give_back(&mut self, buffer: Vec<HitmRecord>) {
        self.pmu.give_back(buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imprecision::{ImprecisionModel, ImprecisionParams};
    use crate::pmu::PmuConfig;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::{Machine, MachineConfig, ThreadSpec, WorkloadImage};

    /// Two threads pounding the same cache line.
    fn contended_image(iters: u64) -> WorkloadImage {
        let mut b = ProgramBuilder::new("contended");
        b.source("contended.c", 5);
        let body = b.block("body");
        let done = b.block("done");
        b.switch_to(body);
        b.load(Reg(1), Reg(0), 0, 8);
        b.addi(Reg(1), Reg(1), 1);
        b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, done);
        b.switch_to(done);
        b.halt();
        let program = b.finish();
        let mut image = WorkloadImage::new("contended", program);
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));
        image.push_thread(ThreadSpec::new("t1", "body").with_reg(Reg(0), base + 8));
        image
    }

    fn driver_for(machine: &Machine, sav: u32) -> Driver {
        let code = (machine.program().base_pc(), machine.program().end_pc());
        let model =
            ImprecisionModel::new(ImprecisionParams::perfect(), machine.memory_map(), code, 11);
        let pmu = Pmu::new(
            PmuConfig {
                sav,
                num_cores: machine.num_cores(),
                ..Default::default()
            },
            model,
        );
        Driver::new(pmu, DriverConfig::default())
    }

    #[test]
    fn driver_collects_records_online() {
        let image = contended_image(3000);
        let mut machine = Machine::new(MachineConfig::default(), &image);
        let mut driver = driver_for(&machine, 19);
        let mut collected = Vec::new();
        loop {
            let status = machine.run_steps(5_000);
            driver.poll(&mut machine);
            collected.extend(driver.read_records());
            if status == laser_machine::RunStatus::Done {
                break;
            }
        }
        driver.flush();
        collected.extend(driver.read_records());
        let stats = driver.stats();
        assert!(stats.events_observed > 1000);
        assert_eq!(stats.records_sampled as usize, collected.len());
        // Sampling at 19 keeps roughly 1/19 of the events.
        let ratio = stats.records_sampled as f64 / stats.events_observed as f64;
        assert!((ratio - 1.0 / 19.0).abs() < 0.02, "sampling ratio {ratio}");
        // Overhead was charged to the machine.
        assert!(machine.stats().injected_overhead_cycles > 0);
    }

    #[test]
    fn lower_sav_costs_more_overhead() {
        let image = contended_image(3000);
        let mut m1 = Machine::new(MachineConfig::default(), &image);
        let mut d1 = driver_for(&m1, 1);
        while m1.run_steps(5_000) == laser_machine::RunStatus::Running {
            d1.poll(&mut m1);
        }
        d1.poll(&mut m1);

        let mut m19 = Machine::new(MachineConfig::default(), &image);
        let mut d19 = driver_for(&m19, 19);
        while m19.run_steps(5_000) == laser_machine::RunStatus::Running {
            d19.poll(&mut m19);
        }
        d19.poll(&mut m19);

        assert!(d1.stats().overhead_cycles > d19.stats().overhead_cycles * 5);
    }

    #[test]
    fn copy_overhead_totals_are_exact() {
        // A per-record cost that is not divisible by the core count: the old
        // `copy_cycles / n_cores` spreading dropped the remainder, silently
        // charging small batches nothing. The total charged must now equal
        // interrupt cost plus exactly `per_record_cycles` per sampled record.
        let image = contended_image(3000);
        let mut machine = Machine::new(MachineConfig::default(), &image);
        let code = (machine.program().base_pc(), machine.program().end_pc());
        let model =
            ImprecisionModel::new(ImprecisionParams::perfect(), machine.memory_map(), code, 11);
        let pmu = Pmu::new(
            PmuConfig {
                sav: 19,
                num_cores: machine.num_cores(),
                ..Default::default()
            },
            model,
        );
        let config = DriverConfig {
            interrupt_cycles: 101,
            per_record_cycles: 7,
        };
        let mut driver = Driver::new(pmu, config);
        loop {
            let status = machine.run_steps(5_000);
            driver.poll(&mut machine);
            if status == laser_machine::RunStatus::Done {
                break;
            }
        }
        let stats = driver.stats();
        assert!(stats.records_sampled > 0);
        assert_eq!(
            stats.overhead_cycles,
            stats.interrupts * config.interrupt_cycles
                + stats.records_sampled * config.per_record_cycles
        );
        // Every charged cycle landed on the machine — nothing double-counted,
        // nothing dropped.
        assert_eq!(
            machine.stats().injected_overhead_cycles,
            stats.overhead_cycles
        );
    }

    #[test]
    fn ingesting_yielded_quanta_matches_polling_in_place() {
        // `run_quantum` + `ingest` is the session's decomposition of
        // `run_steps` + `poll`; the two must produce identical records,
        // statistics and machine charges.
        let image = contended_image(3000);

        let mut polled_machine = Machine::new(MachineConfig::default(), &image);
        let mut polled_driver = driver_for(&polled_machine, 19);
        let mut polled = Vec::new();
        loop {
            let status = polled_machine.run_steps(5_000);
            polled_driver.poll(&mut polled_machine);
            polled.extend(polled_driver.read_records());
            if status == laser_machine::RunStatus::Done {
                break;
            }
        }

        let mut yielded_machine = Machine::new(MachineConfig::default(), &image);
        let mut yielded_driver = driver_for(&yielded_machine, 19);
        let mut ingested = Vec::new();
        loop {
            let quantum = yielded_machine.run_quantum(5_000);
            yielded_driver.ingest(quantum.events, &mut yielded_machine);
            ingested.extend(yielded_driver.read_records());
            if quantum.status == laser_machine::RunStatus::Done {
                break;
            }
        }

        assert_eq!(polled, ingested);
        assert_eq!(polled_driver.stats(), yielded_driver.stats());
        assert_eq!(polled_machine.cycles(), yielded_machine.cycles());
        assert_eq!(
            polled_machine.stats().injected_overhead_cycles,
            yielded_machine.stats().injected_overhead_cycles
        );

        // A reader that turns up at every eighth poll: batches queue behind
        // unread ones, and nothing is lost or reordered.
        let mut lazy_machine = Machine::new(MachineConfig::default(), &image);
        let mut lazy_driver = driver_for(&lazy_machine, 19);
        let mut lazily_read = Vec::new();
        let mut queued_behind = 0;
        for quantum in 0.. {
            let status = lazy_machine.run_steps(5_000);
            let unread = lazy_driver.staged.len();
            lazy_driver.poll(&mut lazy_machine);
            if unread > 0 && lazy_driver.staged.len() > unread {
                queued_behind += 1;
            }
            if quantum % 8 == 7 || status == laser_machine::RunStatus::Done {
                lazily_read.extend(lazy_driver.read_records());
            }
            if status == laser_machine::RunStatus::Done {
                break;
            }
        }
        assert!(queued_behind > 0, "no batch ever found one unread");
        assert_eq!(polled, lazily_read);
        assert_eq!(polled_driver.stats(), lazy_driver.stats());
    }

    #[test]
    fn empty_poll_is_free() {
        let image = contended_image(10);
        let mut machine = Machine::new(MachineConfig::default(), &image);
        let mut driver = driver_for(&machine, 19);
        driver.poll(&mut machine); // nothing ran yet
        assert_eq!(driver.stats().events_observed, 0);
        assert_eq!(machine.stats().injected_overhead_cycles, 0);
    }
}
