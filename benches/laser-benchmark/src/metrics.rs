//! The metric dictionary: every name the benchmark prints, with its unit,
//! direction and — for per-layer metrics — the end-to-end number it is
//! expected to move. `BENCHMARK.json` lists the same names; a unit test keeps
//! the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number is read from. *Host* is wall time of the simulator
/// and carries the sandbox's noise; *sim* is the modelled machine and repeats
/// exactly for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBase {
    Host,
    Sim,
}

impl TimeBase {
    pub fn key(self) -> &'static str {
        match self {
            TimeBase::Host => "host",
            TimeBase::Sim => "sim",
        }
    }
}

/// The simulated quantities of one pass, behind `sim_cycles_per_s`,
/// `sim_overhead`, `bug_recall` and `report_precision`. They are the same for
/// every pass of a run, so they are worked out once, from the warm-up pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    pub cycles: u64,
    /// Geomean over the LASER cells of cycles under LASER / native cycles.
    pub sim_overhead: f64,
    pub known_bugs: usize,
    pub bugs_found: usize,
    pub sites_reported: usize,
    pub false_positives: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression. One bound covers all seven workloads,
    /// and ten runs of each must spread by less than it whatever the host is
    /// doing; the README gives the measured spreads behind the host bounds.
    /// Simulated metrics are exact and `compare` judges them by equality;
    /// their 0.001 is for the driver, which may read a bound of 0 as a missing
    /// one.
    pub bound: f64,
    pub base: TimeBase,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        base: TimeBase::Host,
        what: "CPU seconds of one set-up, median of five to twelve: image builds, native reference runs, cache population",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        base: TimeBase::Host,
        what: "CPU seconds of the process per pass, median over the timed passes",
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        base: TimeBase::Host,
        what: "simulated cycles of the cells a pass delivers per CPU second, median",
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        base: TimeBase::Host,
        what: "cells (session runs or campaign cells) delivered per CPU second, median",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        base: TimeBase::Host,
        what: "VmHWM of the workload's process after the timed passes",
    },
    EndToEnd {
        name: "sim_overhead",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.001,
        base: TimeBase::Sim,
        what: "geomean over the LASER cells of cycles under LASER / native cycles",
    },
    EndToEnd {
        name: "bug_recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        base: TimeBase::Sim,
        what: "(known bugs LASER reported + 1) / (known bugs + 1)",
    },
    EndToEnd {
        name: "report_precision",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        base: TimeBase::Sim,
        what: "(reported sites on a known bug + 1) / (reported sites + 1)",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move; "exact"
    /// marks simulated counters a simulator-speed change must leave alone.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // isa
    m(
        "isa.decode_ns_per_inst",
        "ns",
        Lower,
        "cpu_s @ campaign_cold",
    ),
    m(
        "isa.plan_analyze_us",
        "us",
        Lower,
        "cpu_s @ repair_inline only",
    ),
    // workloads
    m(
        "workloads.build_us_per_image",
        "us",
        Lower,
        "setup_s @ session workloads; cells_per_s @ campaign_cold",
    ),
    // machine
    m("machine.new_us", "us", Lower, "cpu_s @ campaign_cold"),
    m(
        "machine.run_quantum.busy_frac",
        "ratio",
        Lower,
        "share of the pass: 0.999 @ inert_inline, ~0.6 @ contended_inline",
    ),
    m(
        "machine.step_ns",
        "ns",
        Lower,
        "cpu_s @ inert_inline 1:1; by its share @ contended_inline",
    ),
    m(
        "machine.steps_per_s",
        "1/s",
        Higher,
        "retired instructions per host second of the pass (session workloads)",
    ),
    m(
        "machine.quantum_us.p50",
        "us",
        Lower,
        "cpu_s @ inline workloads",
    ),
    m(
        "machine.quantum_us.p99",
        "us",
        Lower,
        "cpu_s @ inline workloads",
    ),
    m(
        "machine.native_step_ns",
        "ns",
        Lower,
        "setup_s @ session workloads; cells_per_s @ campaign_cold",
    ),
    m(
        "machine.coherence.access_ns.private",
        "ns",
        Lower,
        "cpu_s @ inert_inline",
    ),
    m(
        "machine.coherence.access_ns.pingpong",
        "ns",
        Lower,
        "cpu_s @ contended_inline, contended_8s",
    ),
    m("machine.steps", "count", Lower, "exact"),
    m("machine.quanta", "count", Lower, "exact"),
    m("machine.sim_cycles", "count", Lower, "exact"),
    m("machine.hitm_events", "count", Lower, "exact"),
    m("machine.hitm_per_kstep", "ratio", Lower, "exact"),
    m("machine.hitm_remote", "count", Lower, "exact"),
    m("machine.l1_hits", "count", Higher, "exact"),
    m("machine.llc_hits", "count", Lower, "exact"),
    m("machine.dram_accesses", "count", Lower, "exact"),
    m("machine.hook_handled_ops", "count", Lower, "exact"),
    m("machine.htm_commits", "count", Lower, "exact"),
    m("machine.htm_capacity_aborts", "count", Lower, "exact"),
    m(
        "machine.injected_overhead_cycles",
        "count",
        Lower,
        "exact; sim_overhead everywhere",
    ),
    // pebs
    m(
        "pebs.driver.ingest.busy_frac",
        "ratio",
        Lower,
        "share of the pass @ contended_inline",
    ),
    m(
        "pebs.driver.ingest_ns_per_event",
        "ns",
        Lower,
        "cpu_s @ contended_inline",
    ),
    m(
        "pebs.pmu.observe_ns_per_event",
        "ns",
        Lower,
        "cpu_s @ contended_inline",
    ),
    m(
        "pebs.imprecision.distort_ns_per_event",
        "ns",
        Lower,
        "cpu_s @ contended_inline",
    ),
    m(
        "pebs.channel.roundtrip_ns",
        "ns",
        Lower,
        "cpu_s @ contended_piped only",
    ),
    m(
        "pebs.channel.send_recv_ns",
        "ns",
        Lower,
        "cpu_s @ contended_piped only",
    ),
    m("pebs.driver.events_observed", "count", Lower, "exact"),
    m("pebs.driver.records_sampled", "count", Lower, "exact"),
    m("pebs.driver.events_dropped", "count", Lower, "exact"),
    m("pebs.driver.interrupts", "count", Lower, "exact"),
    m(
        "pebs.driver.overhead_cycles",
        "count",
        Lower,
        "exact; sim_overhead everywhere",
    ),
    m("pebs.sample_ratio", "ratio", Lower, "exact"),
    // core
    m(
        "core.detector.process.busy_frac",
        "ratio",
        Lower,
        "share of the pass @ contended_inline",
    ),
    m(
        "core.detector.process_ns_per_record",
        "ns",
        Lower,
        "cpu_s @ contended_inline, contended_8s",
    ),
    m(
        "core.detector.report_us",
        "us",
        Lower,
        "cpu_s @ contended_inline",
    ),
    m(
        "core.detector.absorb_us",
        "us",
        Lower,
        "nothing end-to-end at 1 shard; the shard audit's number",
    ),
    m("core.detector.records", "count", Lower, "exact"),
    m(
        "core.detector.cycles",
        "count",
        Lower,
        "exact; sim_overhead",
    ),
    m(
        "core.session.glue_frac",
        "ratio",
        Lower,
        "cpu_s @ inline workloads",
    ),
    m(
        "core.pipeline.machine_busy_frac",
        "ratio",
        Higher,
        "cpu_s @ contended_piped",
    ),
    m(
        "core.pipeline.driver_busy_frac",
        "ratio",
        Lower,
        "cpu_s @ contended_piped",
    ),
    m(
        "core.pipeline.detector_busy_frac",
        "ratio",
        Lower,
        "cpu_s @ contended_piped",
    ),
    m(
        "core.pipeline.spawn_us",
        "us",
        Lower,
        "cpu_s @ contended_piped",
    ),
    m(
        "core.pipeline.piped_over_inline",
        "ratio",
        Higher,
        "the keep-or-cut audit's ratio; base = inline passes run next to the pipelined ones",
    ),
    m(
        "core.repair.attach_cycle",
        "count",
        Lower,
        "exact; sim_overhead @ repair_inline",
    ),
    m("core.repair.buffered_stores", "count", Higher, "exact"),
    m("core.repair.flushes", "count", Lower, "exact"),
    m(
        "core.repair.hooked_step_ns",
        "ns",
        Lower,
        "cpu_s @ repair_inline",
    ),
    // laser: the counts behind bug_recall and report_precision
    m("laser.known_bugs", "count", Higher, "exact"),
    m("laser.bugs_found", "count", Higher, "exact; bug_recall"),
    m("laser.sites_reported", "count", Lower, "exact"),
    m(
        "laser.false_positives",
        "count",
        Lower,
        "exact; report_precision",
    ),
    // baselines
    m(
        "baselines.vtune.cell_ms",
        "ms",
        Lower,
        "cells_per_s @ campaign_cold",
    ),
    m(
        "baselines.sheriff.cell_ms",
        "ms",
        Lower,
        "cells_per_s @ campaign_cold",
    ),
    // bench
    m("bench.grid.cells", "count", Lower, "exact"),
    m(
        "bench.grid.cell_ms.native",
        "ms",
        Lower,
        "cells_per_s @ campaign_cold",
    ),
    m(
        "bench.grid.cell_ms.laser",
        "ms",
        Lower,
        "cells_per_s @ campaign_cold",
    ),
    m(
        "bench.pool.utilisation",
        "ratio",
        Higher,
        "cells_per_s @ campaign_cold",
    ),
    m(
        "bench.pool.tail_idle_frac",
        "ratio",
        Lower,
        "cells_per_s @ campaign_cold",
    ),
    m(
        "bench.grid.views_ms",
        "ms",
        Lower,
        "cells_per_s @ campaign_warm",
    ),
    m(
        "bench.emit.json_ms",
        "ms",
        Lower,
        "cells_per_s @ campaign_warm",
    ),
    m(
        "bench.emit.csv_ms",
        "ms",
        Lower,
        "cells_per_s @ campaign_warm",
    ),
    m(
        "bench.emit.text_ms",
        "ms",
        Lower,
        "cells_per_s @ campaign_warm",
    ),
    m("bench.emit.bytes", "count", Lower, "exact"),
    m(
        "bench.cache.load_us_per_cell",
        "us",
        Lower,
        "cells_per_s @ campaign_warm",
    ),
    m(
        "bench.cache.populate_s",
        "s",
        Lower,
        "setup_s @ campaign_warm: CellCache::store of all cells into an empty directory",
    ),
    m("bench.cache.bytes_per_cell", "count", Lower, "exact"),
    m("bench.cache.hits", "count", Higher, "exact"),
    m(
        "bench.cache.simulated",
        "count",
        Lower,
        "exact; 0 @ campaign_warm",
    ),
    m(
        "bench.service.first_cell_ms",
        "ms",
        Lower,
        "laser-serve time to first cell",
    ),
    m(
        "bench.service.summary_ms",
        "ms",
        Lower,
        "laser-serve time to summary",
    ),
    // host: what the wall clock read while the CPU clock measured
    m(
        "host.wall_s",
        "s",
        Lower,
        "wall seconds per timed pass, median; what cpu_s would be on an idle host with a CPU per thread",
    ),
    m(
        "host.cpu_over_wall",
        "ratio",
        Higher,
        "CPU seconds per wall second of the timed passes: CPUs kept busy; below 1 on one thread, the hypervisor took the rest",
    ),
    m(
        "host.speed",
        "ratio",
        Higher,
        "nominal over measured calibration-kernel time, median: the factor cpu_s was scaled by",
    ),
    // trace
    m(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "traced pass wall over the untraced median, minus 1",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn is_valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
            .chain(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|w| (w.name, "count")),
            );
        for (name, unit) in all {
            assert!(is_valid_name(name), "bad name {name}");
            assert!(is_valid_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.len() <= 16);
    }

    #[test]
    fn setup_has_the_largest_bound_and_no_bound_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for e in END_TO_END {
            assert!(e.bound <= 0.25 && e.bound <= setup.bound, "{}", e.name);
        }
    }
}
