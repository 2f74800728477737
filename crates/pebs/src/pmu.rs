//! The per-core performance monitoring unit with PEBS sampling.
//!
//! The PMU counts HITM events per core and, every *Sample-After-Value* (SAV)
//! events, captures a PEBS record into that core's buffer. When a buffer fills
//! up (or, in the "interrupt on every sample" mode that VTune uses for extra
//! precision, after every sample) a performance-monitoring interrupt is
//! raised; the driver handles the interrupt, drains the buffer and charges the
//! interrupted core for the handler's cycles.

use laser_machine::HitmEvent;

use crate::imprecision::ImprecisionModel;
use crate::record::HitmRecord;

/// PMU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuConfig {
    /// Sample-After-Value: every `sav`-th HITM event is sampled. The paper
    /// uses 19 (a prime, as PEBS folklore recommends) by default and 1 for the
    /// characterization experiments.
    pub sav: u32,
    /// Per-core PEBS buffer capacity, in records, before a buffer-full
    /// interrupt is raised.
    pub pebs_buffer_capacity: usize,
    /// Raise an interrupt after every sampled record instead of waiting for
    /// the buffer to fill. VTune configures the PMU this way; it improves
    /// timeliness at a large overhead cost (paper Section 7.1).
    pub interrupt_on_each_sample: bool,
    /// Number of cores.
    pub num_cores: usize,
}

impl Default for PmuConfig {
    fn default() -> Self {
        PmuConfig {
            sav: 19,
            pebs_buffer_capacity: 32,
            interrupt_on_each_sample: false,
            num_cores: 4,
        }
    }
}

/// Work the PMU generated while observing a batch of events; the driver uses
/// this to charge overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmuActivity {
    /// Records captured into PEBS buffers.
    pub records_sampled: usize,
    /// Interrupts raised (buffer full, or per-sample in VTune mode).
    pub interrupts: usize,
    /// Events dropped outright (not sampled, not counted against a SAV
    /// countdown) — e.g. events from cores outside the configured range.
    pub events_dropped: usize,
}

/// The performance monitoring unit for all cores.
#[derive(Debug)]
pub struct Pmu {
    config: PmuConfig,
    model: ImprecisionModel,
    countdown: Vec<u32>,
    buffers: Vec<Vec<HitmRecord>>,
    ready: Vec<HitmRecord>,
    /// An emptied buffer the reader gave back while `ready` held records
    /// ([`Pmu::give_back`]): the next `ready` once those are drained.
    spare: Vec<HitmRecord>,
    /// Whether the reader gives its buffers back, so a drain can leave
    /// `ready` unallocated for the give-back to fill.
    recycling: bool,
    total_events: u64,
    total_samples: u64,
    total_interrupts: u64,
    total_dropped: u64,
}

impl Pmu {
    /// Create a PMU with the given sampling configuration and imprecision
    /// model.
    ///
    /// # Panics
    /// Panics if `sav` is zero.
    pub fn new(config: PmuConfig, model: ImprecisionModel) -> Self {
        assert!(config.sav >= 1, "SAV must be at least 1");
        Pmu {
            countdown: vec![config.sav; config.num_cores],
            buffers: vec![Vec::new(); config.num_cores],
            ready: Vec::new(),
            spare: Vec::new(),
            recycling: false,
            total_events: 0,
            total_samples: 0,
            total_interrupts: 0,
            total_dropped: 0,
            config,
            model,
        }
    }

    /// The sampling configuration.
    pub fn config(&self) -> &PmuConfig {
        &self.config
    }

    /// Total ground-truth HITM events observed (the raw counter, which
    /// pre-Haswell chips already exposed).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Total PEBS records sampled.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Total interrupts raised.
    pub fn total_interrupts(&self) -> u64 {
        self.total_interrupts
    }

    /// Total events dropped outright (see [`PmuActivity::events_dropped`]).
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Feed a batch of ground-truth HITM events into the PMU. Sampled events
    /// are distorted by the imprecision model and recorded into the
    /// originating core's PEBS buffer.
    pub fn observe(&mut self, events: &[HitmEvent]) -> PmuActivity {
        let mut activity = PmuActivity::default();
        for event in events {
            self.total_events += 1;
            let core = event.core.0;
            if core >= self.config.num_cores {
                self.total_dropped += 1;
                activity.events_dropped += 1;
                continue;
            }
            self.countdown[core] -= 1;
            if self.countdown[core] > 0 {
                continue;
            }
            self.countdown[core] = self.config.sav;
            let record = self.model.distort(event);
            self.buffers[core].push(record);
            self.total_samples += 1;
            activity.records_sampled += 1;
            let full = self.buffers[core].len() >= self.config.pebs_buffer_capacity;
            if full || self.config.interrupt_on_each_sample {
                self.ready.append(&mut self.buffers[core]);
                self.total_interrupts += 1;
                activity.interrupts += 1;
            }
        }
        activity
    }

    /// Records whose buffers have already been flushed by an interrupt.
    pub fn drain_ready(&mut self) -> Vec<HitmRecord> {
        // The next `ready` is a buffer the reader gave back. A reader that
        // gives buffers back will hand this one back too, so `ready` may
        // wait for it unallocated; otherwise it is sized to the batch just
        // yielded, so a contended run does not regrow it from empty every
        // quantum.
        let next = if self.spare.capacity() > 0 {
            std::mem::take(&mut self.spare)
        } else if self.recycling {
            Vec::new()
        } else {
            Vec::with_capacity(self.ready.len())
        };
        std::mem::replace(&mut self.ready, next)
    }

    /// Give back a buffer [`Pmu::drain_ready`] yielded, once its records
    /// are read: it becomes `ready` again, emptied — at once if nothing has
    /// been made ready since, else after the next drain. A reader that gives
    /// back every batch keeps one buffer circulating and allocates nothing
    /// per batch. Of two buffers competing for a place, the larger is kept.
    pub fn give_back(&mut self, mut buffer: Vec<HitmRecord>) {
        self.recycling = true;
        buffer.clear();
        let slot = if self.ready.is_empty() {
            &mut self.ready
        } else {
            &mut self.spare
        };
        if buffer.capacity() > slot.capacity() {
            *slot = buffer;
        }
    }

    /// Flush every per-core buffer (end of run) and return everything,
    /// including records previously made ready.
    pub fn drain_all_buffers(&mut self) -> Vec<HitmRecord> {
        let mut out = std::mem::take(&mut self.ready);
        for b in &mut self.buffers {
            out.append(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imprecision::ImprecisionParams;
    use laser_machine::memmap::{Region, RegionKind};
    use laser_machine::{CoreId, MemAccessKind, MemoryMap};

    fn model(seed: u64) -> ImprecisionModel {
        let mut m = MemoryMap::new();
        m.add(Region::new(
            0x40_0000,
            0x50_0000,
            RegionKind::AppCode,
            "app",
        ));
        ImprecisionModel::new(
            ImprecisionParams::perfect(),
            &m,
            (0x40_0000, 0x50_0000),
            seed,
        )
    }

    fn events(n: usize, core: usize) -> Vec<HitmEvent> {
        (0..n)
            .map(|i| HitmEvent {
                core: CoreId(core),
                pc: 0x40_0000 + (i as u64 % 16) * 4,
                addr: 0x1000_0000 + (i as u64 % 8) * 8,
                size: 8,
                kind: MemAccessKind::Load,
                cycle: i as u64 * 10,
            })
            .collect()
    }

    #[test]
    fn sav_controls_sampling_rate() {
        let mut pmu = Pmu::new(
            PmuConfig {
                sav: 19,
                ..Default::default()
            },
            model(1),
        );
        pmu.observe(&events(1900, 0));
        assert_eq!(pmu.total_events(), 1900);
        assert_eq!(pmu.total_samples(), 100);
        let mut pmu1 = Pmu::new(
            PmuConfig {
                sav: 1,
                ..Default::default()
            },
            model(1),
        );
        pmu1.observe(&events(1900, 0));
        assert_eq!(pmu1.total_samples(), 1900);
    }

    #[test]
    fn buffer_full_raises_interrupt() {
        let cfg = PmuConfig {
            sav: 1,
            pebs_buffer_capacity: 10,
            ..Default::default()
        };
        let mut pmu = Pmu::new(cfg, model(2));
        let act = pmu.observe(&events(25, 0));
        assert_eq!(act.records_sampled, 25);
        assert_eq!(act.interrupts, 2); // two buffer fills of 10
        assert_eq!(pmu.drain_ready().len(), 20);
        // The remaining 5 sit in the per-core buffer until a final drain.
        assert_eq!(pmu.drain_all_buffers().len(), 5);
    }

    #[test]
    fn per_sample_interrupt_mode() {
        let cfg = PmuConfig {
            sav: 1,
            pebs_buffer_capacity: 64,
            interrupt_on_each_sample: true,
            ..Default::default()
        };
        let mut pmu = Pmu::new(cfg, model(3));
        let act = pmu.observe(&events(50, 1));
        assert_eq!(act.interrupts, 50);
        assert_eq!(pmu.drain_ready().len(), 50);
    }

    #[test]
    fn per_core_counters_are_independent() {
        let cfg = PmuConfig {
            sav: 10,
            ..Default::default()
        };
        let mut pmu = Pmu::new(cfg, model(4));
        // 9 events on each of two cores: no samples yet.
        pmu.observe(&events(9, 0));
        pmu.observe(&events(9, 1));
        assert_eq!(pmu.total_samples(), 0);
        // One more on core 0 triggers its sample only.
        pmu.observe(&events(1, 0));
        assert_eq!(pmu.total_samples(), 1);
    }

    #[test]
    fn out_of_range_core_events_are_ignored() {
        let cfg = PmuConfig {
            sav: 1,
            num_cores: 2,
            ..Default::default()
        };
        let mut pmu = Pmu::new(cfg, model(5));
        let act = pmu.observe(&events(5, 3));
        assert_eq!(pmu.total_samples(), 0);
        // The drop is counted, per batch and in total.
        assert_eq!(act.events_dropped, 5);
        assert_eq!(pmu.total_dropped(), 5);
        // In-range events are not drops.
        let act = pmu.observe(&events(3, 1));
        assert_eq!(act.events_dropped, 0);
        assert_eq!(pmu.total_dropped(), 5);
    }

    #[test]
    fn a_recycled_buffer_drains_the_same_batches_as_a_fresh_one() {
        let cfg = PmuConfig {
            sav: 3,
            pebs_buffer_capacity: 7,
            num_cores: 2,
            ..Default::default()
        };
        let mut fresh = Pmu::new(cfg, model(7));
        let mut recycled = Pmu::new(cfg, model(7));
        let stale = HitmRecord {
            pc: 0xdead,
            data_addr: 0xbeef,
            core: CoreId(1),
            cycle: 1,
        };
        for round in 0..12 {
            let batch = events(10 + round * 7, round % 2);
            fresh.observe(&batch);
            recycled.observe(&batch);
            let want = fresh.drain_ready();
            let got = recycled.drain_ready();
            assert_eq!(want, got, "round {round}");
            // Every other round, records are made ready again before the
            // buffer comes back, so it waits as the spare.
            if round % 2 == 1 {
                let early = events(40, 0);
                fresh.observe(&early);
                recycled.observe(&early);
            }
            // Hand back the drained buffer with stale records in it and
            // spare capacity, or (every third round) a foreign one.
            let mut back = if round % 3 == 2 {
                Vec::with_capacity(500)
            } else {
                got
            };
            back.extend(std::iter::repeat_n(stale, round + 1));
            recycled.give_back(back);
        }
        assert_eq!(fresh.drain_all_buffers(), recycled.drain_all_buffers());
        assert_eq!(fresh.total_samples(), recycled.total_samples());
    }

    #[test]
    #[should_panic(expected = "SAV")]
    fn zero_sav_rejected() {
        let _ = Pmu::new(
            PmuConfig {
                sav: 0,
                ..Default::default()
            },
            model(6),
        );
    }
}
