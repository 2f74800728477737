//! Sheriff-Detect and Sheriff-Protect models (Liu & Berger, OOPSLA'11).
//!
//! Sheriff runs each thread as a separate process with a private address
//! space; private pages are twinned, diffed and merged at synchronization
//! points. The LASER paper leans on three consequences (Sections 5 and 7.3):
//!
//! 1. **Compatibility** — much of the suite either crashes under Sheriff or
//!    uses constructs it does not support (spin locks, OpenMP); only about
//!    half the workloads run at all.
//! 2. **Performance** — every synchronization operation pays for page
//!    protection, twinning and diffing, so synchronization-heavy programs slow
//!    down dramatically, while programs that rarely synchronize are cheap.
//!    Address-space isolation also *removes* false-sharing misses whether or
//!    not anything is detected, which is why Sheriff "fixes" `histogram'` and
//!    `linear_regression` without reporting them.
//! 3. **Reporting** — Sheriff-Detect observes write interleavings only when
//!    twins are compared at synchronization points, and reports the
//!    *allocation site* (the object), not the contending source lines.
//!
//! The model reproduces those three behaviours on top of a native simulated
//! run: the compatibility matrix comes from the workload spec, the runtime is
//! the native runtime minus the coherence cycles isolation removes plus the
//! per-synchronization tax, and detection scans the ground-truth write-HITM
//! events for heap lines written by multiple threads — but only if the
//! program synchronizes at all during its parallel phase.

use std::collections::{BTreeMap, BTreeSet};

use laser_core::{Laser, LaserError};
use laser_isa::MemAccessSets;
use laser_machine::{
    line_of, Addr, HitmEvent, MachineConfig, MemAccessKind, MemoryMap, RunResult, WorkloadImage,
};
use laser_workloads::{BuildOptions, SheriffCompat, WorkloadSpec};

/// Which Sheriff scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SheriffMode {
    /// Sheriff-Detect: periodic write-protection and twin comparison to report
    /// falsely-shared objects.
    Detect,
    /// Sheriff-Protect: isolation only, no detection.
    Protect,
}

/// Why a workload could not be run under Sheriff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SheriffFailure {
    /// The benchmark encounters a runtime error ("x" in the paper's Table 1).
    Crash,
    /// The benchmark uses unsupported constructs such as spin locks or OpenMP
    /// ("i" in Table 1).
    Incompatible,
}

/// Cycles charged per synchronization operation under Sheriff-Protect
/// (commit/merge of private pages).
const PER_SYNC_CYCLES_PROTECT: u64 = 2_800;
/// Cycles charged per synchronization operation under Sheriff-Detect (adds
/// page write-protection and twin diffing).
const PER_SYNC_CYCLES_DETECT: u64 = 7_000;
/// Fixed start-up cost (process creation, segregated heap setup).
const STARTUP_CYCLES: u64 = 2_000;
/// Minimum number of multi-thread writes to a heap line before
/// Sheriff-Detect reports the object.
const DETECT_WRITE_THRESHOLD: u64 = 50;

/// A completed Sheriff run.
#[derive(Debug, Clone, PartialEq)]
pub struct SheriffRun {
    /// Estimated cycles under the Sheriff execution model.
    pub cycles: u64,
    /// Cycles of the corresponding native run.
    pub native_cycles: u64,
    /// Cache lines (allocation-site granularity) Sheriff-Detect reported as
    /// falsely shared; always empty for Sheriff-Protect.
    pub reported_lines: Vec<Addr>,
    /// Synchronization operations observed (what the slowdown scales with).
    pub sync_ops: u64,
    /// Coherence cycles that address-space isolation removed (why Sheriff can
    /// accidentally "fix" false sharing it never detected).
    pub removed_coherence_cycles: u64,
}

impl SheriffRun {
    /// Runtime normalized to native execution.
    pub fn normalized_runtime(&self) -> f64 {
        self.cycles as f64 / self.native_cycles.max(1) as f64
    }
}

/// Outcome of attempting to run a workload under Sheriff.
#[derive(Debug, Clone, PartialEq)]
pub struct SheriffOutcome {
    /// Which scheme was run.
    pub mode: SheriffMode,
    /// The run, or the reason it could not happen.
    pub result: Result<SheriffRun, SheriffFailure>,
}

impl SheriffOutcome {
    /// True if the workload ran to completion under Sheriff.
    pub fn ran(&self) -> bool {
        self.result.is_ok()
    }
}

/// The Sheriff baseline.
#[derive(Debug, Clone, Default)]
pub struct Sheriff;

impl Sheriff {
    /// Run `spec` under the given Sheriff scheme on the default
    /// (single-socket) machine.
    ///
    /// # Errors
    /// Returns an error if the underlying simulation exceeds its step budget;
    /// Sheriff-specific failures (crash / incompatibility) are reported inside
    /// the [`SheriffOutcome`] instead.
    pub fn run(
        &self,
        spec: &WorkloadSpec,
        opts: &BuildOptions,
        mode: SheriffMode,
    ) -> Result<SheriffOutcome, LaserError> {
        self.run_on(spec, opts, mode, MachineConfig::default())
    }

    /// Like [`Sheriff::run`], on an explicit machine configuration (e.g. a
    /// multi-socket topology preset). The isolation model removes local-rate
    /// coherence cycles per HITM; on a multi-socket machine that makes it a
    /// conservative estimate of what address-space isolation saves.
    ///
    /// This is [`Sheriff::compatibility`], then [`Sheriff::run_native`] and
    /// [`Sheriff::project`]: a caller that wants both modes (or the native
    /// cell as well) runs the native image once and projects it twice.
    ///
    /// # Errors
    /// Returns an error if the underlying simulation exceeds its step budget.
    pub fn run_on(
        &self,
        spec: &WorkloadSpec,
        opts: &BuildOptions,
        mode: SheriffMode,
        machine_config: MachineConfig,
    ) -> Result<SheriffOutcome, LaserError> {
        let result = match Sheriff::compatibility(spec) {
            Ok(()) => {
                let image = spec.build(opts);
                let native =
                    Sheriff::run_native(&image, machine_config, mode == SheriffMode::Detect)?;
                Ok(self.project(&native, mode))
            }
            Err(failure) => Err(failure),
        };
        Ok(SheriffOutcome { mode, result })
    }

    /// Whether `spec` runs under Sheriff at all (the paper's Table 1 "x" and
    /// "i" entries), decided from the workload before anything is built.
    ///
    /// # Errors
    /// The [`SheriffFailure`] of a workload that crashes or is incompatible.
    pub fn compatibility(spec: &WorkloadSpec) -> Result<(), SheriffFailure> {
        match spec.sheriff {
            SheriffCompat::Crash => Err(SheriffFailure::Crash),
            SheriffCompat::Incompatible => Err(SheriffFailure::Incompatible),
            SheriffCompat::Works => Ok(()),
        }
    }

    /// Run `image` natively as the model reads it. With `observe_writers`,
    /// each batch of the run's HITM events is folded into Sheriff-Detect's
    /// per-line writer aggregation as the run goes, so the whole run's
    /// events are never held; without it the events are dropped and only
    /// Sheriff-Protect can be projected from the result.
    ///
    /// # Errors
    /// Returns an error if the simulation exceeds its step budget.
    pub fn run_native(
        image: &WorkloadImage,
        machine_config: MachineConfig,
        observe_writers: bool,
    ) -> Result<SheriffNative, LaserError> {
        let num_cores = machine_config.num_cores as u64;
        let lat = machine_config.latency.clone();
        let mut writers = BTreeMap::new();
        let run = if observe_writers {
            let memsets = MemAccessSets::analyze(image.program());
            let heap = image.memory_map();
            Laser::run_native_with_events(image, machine_config, &mut |events| {
                record_writes(&mut writers, &memsets, heap, events)
            })?
        } else {
            Laser::run_native_on(image, machine_config)?
        };
        Ok(SheriffNative {
            run,
            num_cores,
            hitm_penalty: lat.hitm - lat.l1_hit,
            writers,
        })
    }

    /// Sheriff's run in `mode`, as arithmetic on a native run.
    pub fn project(&self, native: &SheriffNative, mode: SheriffMode) -> SheriffRun {
        let stats = &native.run.stats;
        // Address-space isolation removes cross-thread coherence misses: each
        // process keeps touching its own copy of the line.
        let removed_coherence_cycles = stats.hitm_events * native.hitm_penalty;
        // ... but every synchronization operation pays for protection,
        // twinning and diffing.
        let sync_ops = stats.atomics + stats.fences;
        let per_sync = match mode {
            SheriffMode::Protect => PER_SYNC_CYCLES_PROTECT,
            SheriffMode::Detect => PER_SYNC_CYCLES_DETECT,
        };
        let overhead = sync_ops * per_sync / native.num_cores.max(1) + STARTUP_CYCLES;
        let cycles = native.run.cycles.saturating_sub(removed_coherence_cycles) + overhead;

        // Sheriff-Detect's twin comparison happens at synchronization points,
        // so a parallel phase that never synchronizes is never sampled. The
        // map is in line order, so the reported lines come out sorted.
        let reported_lines = if mode == SheriffMode::Detect && sync_ops > 0 {
            native
                .writers
                .iter()
                .filter(|(_, w)| {
                    w.cores.len() >= 2 && w.writes >= DETECT_WRITE_THRESHOLD && w.words.len() >= 2
                })
                .map(|(&line, _)| line)
                .collect()
        } else {
            Vec::new()
        };

        SheriffRun {
            cycles,
            native_cycles: native.run.cycles,
            reported_lines,
            sync_ops,
            removed_coherence_cycles,
        }
    }
}

/// Who wrote one heap line with a HITM, as Sheriff-Detect's twin comparison
/// would see it.
#[derive(Debug, Clone, Default)]
struct LineWriters {
    cores: BTreeSet<usize>,
    writes: u64,
    /// The 8-byte words written.
    words: BTreeSet<u64>,
}

/// Fold one batch of HITM events into the per-line writer aggregation:
/// stores (by event kind, or by the PC's place in the store set) to heap
/// data.
fn record_writes(
    writers: &mut BTreeMap<Addr, LineWriters>,
    memsets: &MemAccessSets,
    heap: &MemoryMap,
    events: &[HitmEvent],
) {
    for e in events {
        if e.kind != MemAccessKind::Store && !memsets.is_store(e.pc) {
            continue;
        }
        if !heap.is_data(e.addr) {
            continue;
        }
        let line = writers.entry(line_of(e.addr)).or_default();
        line.cores.insert(e.core.0);
        line.writes += 1;
        line.words.insert(e.addr & !7);
    }
}

/// A native run as Sheriff's model reads it: what [`Sheriff::project`]
/// turns into either mode's [`SheriffRun`].
#[derive(Debug, Clone)]
pub struct SheriffNative {
    /// The native run itself.
    pub run: RunResult,
    num_cores: u64,
    /// Cycles a HITM costs over an L1 hit: what isolation saves per HITM.
    hitm_penalty: u64,
    /// Per heap line written with a HITM, in line order; empty unless the
    /// run observed writers.
    writers: BTreeMap<Addr, LineWriters>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_workloads::find;

    fn small() -> BuildOptions {
        BuildOptions::scaled(0.15)
    }

    /// The model before it was split into a native run plus a projection:
    /// `run_to_completion`, every HITM event of the run held, then both
    /// modes' arithmetic and the writer scan over the held events.
    fn reference_run_on(
        spec: &WorkloadSpec,
        opts: &BuildOptions,
        machine_config: MachineConfig,
    ) -> [SheriffRun; 2] {
        use laser_machine::Machine;
        let image = spec.build(opts);
        let lat = machine_config.latency.clone();
        let mut machine = Machine::new(machine_config, &image);
        let native = machine.run_to_completion().unwrap();
        let events = machine.take_hitm_events();
        let memsets = MemAccessSets::analyze(image.program());
        [SheriffMode::Detect, SheriffMode::Protect].map(|mode| {
            let removed_coherence_cycles = native.stats.hitm_events * (lat.hitm - lat.l1_hit);
            let sync_ops = native.stats.atomics + native.stats.fences;
            let per_sync = match mode {
                SheriffMode::Protect => PER_SYNC_CYCLES_PROTECT,
                SheriffMode::Detect => PER_SYNC_CYCLES_DETECT,
            };
            let overhead =
                sync_ops * per_sync / (machine.num_cores() as u64).max(1) + STARTUP_CYCLES;
            let cycles = native.cycles.saturating_sub(removed_coherence_cycles) + overhead;
            let mut reported_lines = Vec::new();
            if mode == SheriffMode::Detect && sync_ops > 0 {
                let heap = image.memory_map();
                let mut writers: BTreeMap<Addr, (BTreeSet<usize>, u64, BTreeSet<u64>)> =
                    BTreeMap::new();
                for e in &events {
                    if e.kind != MemAccessKind::Store && !memsets.is_store(e.pc) {
                        continue;
                    }
                    if !heap.is_data(e.addr) {
                        continue;
                    }
                    let entry = writers.entry(line_of(e.addr)).or_default();
                    entry.0.insert(e.core.0);
                    entry.1 += 1;
                    entry.2.insert(e.addr & !7);
                }
                reported_lines = writers
                    .into_iter()
                    .filter(|(_, (cores, count, words))| {
                        cores.len() >= 2 && *count >= DETECT_WRITE_THRESHOLD && words.len() >= 2
                    })
                    .map(|(line, _)| line)
                    .collect();
                reported_lines.sort_unstable();
            }
            SheriffRun {
                cycles,
                native_cycles: native.cycles,
                reported_lines,
                sync_ops,
                removed_coherence_cycles,
            }
        })
    }

    /// Folding writers batch by batch and projecting one native run into
    /// both modes changes no outcome: every Sheriff-compatible workload, on
    /// one socket and on two.
    #[test]
    fn sheriff_outcomes_match_the_held_event_reference() {
        use laser_machine::TopologySpec;
        let sheriff = Sheriff;
        let compatible: Vec<_> = laser_workloads::registry()
            .into_iter()
            .filter(|spec| Sheriff::compatibility(spec).is_ok())
            .collect();
        assert_eq!(compatible.len(), 17);
        let mut reported = 0;
        for topology in [TopologySpec::Flat, TopologySpec::DualSocket] {
            let machine_config = MachineConfig::for_topology(topology);
            for spec in &compatible {
                let what = format!("{} on {topology}", spec.name);
                let opts = BuildOptions::scaled(0.1).for_topology(topology);
                let [detect, protect] = reference_run_on(spec, &opts, machine_config.clone());
                reported += detect.reported_lines.len();

                let image = spec.build(&opts);
                let observed = Sheriff::run_native(&image, machine_config.clone(), true).unwrap();
                assert_eq!(
                    sheriff.project(&observed, SheriffMode::Detect),
                    detect,
                    "{what}"
                );
                assert_eq!(
                    sheriff.project(&observed, SheriffMode::Protect),
                    protect,
                    "{what}"
                );
                let unobserved =
                    Sheriff::run_native(&image, machine_config.clone(), false).unwrap();
                assert_eq!(unobserved.run.stats, observed.run.stats, "{what}");
                assert_eq!(
                    sheriff.project(&unobserved, SheriffMode::Protect),
                    protect,
                    "{what}"
                );

                let via_run_on = |mode| {
                    sheriff
                        .run_on(spec, &opts, mode, machine_config.clone())
                        .unwrap()
                        .result
                        .unwrap()
                };
                assert_eq!(via_run_on(SheriffMode::Detect), detect, "{what}");
            }
        }
        assert!(reported > 0, "some workload reports a line");
    }

    #[test]
    fn incompatible_and_crashing_workloads_do_not_run() {
        let sheriff = Sheriff;
        let dedup = find("dedup").unwrap();
        let out = sheriff.run(&dedup, &small(), SheriffMode::Detect).unwrap();
        assert_eq!(out.result, Err(SheriffFailure::Incompatible));
        let barnes = find("barnes").unwrap();
        let out = sheriff
            .run(&barnes, &small(), SheriffMode::Protect)
            .unwrap();
        assert_eq!(out.result, Err(SheriffFailure::Crash));
        assert!(!out.ran());
    }

    #[test]
    fn isolation_fixes_false_sharing_it_never_detects() {
        // linear_regression never synchronizes inside its parallel phase, so
        // Sheriff-Detect reports nothing — yet its isolation removes the
        // false-sharing misses and the program speeds up (paper Section 7.3).
        let sheriff = Sheriff;
        let lreg = find("linear_regression").unwrap();
        let out = sheriff.run(&lreg, &small(), SheriffMode::Detect).unwrap();
        let run = out.result.unwrap();
        assert!(
            run.reported_lines.is_empty(),
            "Sheriff-Detect should miss linear_regression"
        );
        assert!(run.removed_coherence_cycles > 0);
        assert!(
            run.normalized_runtime() < 1.0,
            "isolation should speed it up"
        );
    }

    #[test]
    fn detects_false_sharing_in_synchronizing_workloads() {
        let sheriff = Sheriff;
        let ri = find("reverse_index").unwrap();
        let out = sheriff.run(&ri, &small(), SheriffMode::Detect).unwrap();
        let run = out.result.unwrap();
        assert!(
            !run.reported_lines.is_empty(),
            "reverse_index synchronizes, so its use_len line should be reported"
        );
    }

    #[test]
    fn sync_heavy_workloads_slow_down_dramatically() {
        let sheriff = Sheriff;
        let opts = BuildOptions::scaled(0.5);
        let water = find("water_nsquared").unwrap();
        let protect = sheriff
            .run(&water, &opts, SheriffMode::Protect)
            .unwrap()
            .result
            .unwrap();
        let detect = sheriff
            .run(&water, &opts, SheriffMode::Detect)
            .unwrap()
            .result
            .unwrap();
        assert!(
            protect.normalized_runtime() > 1.3,
            "{}",
            protect.normalized_runtime()
        );
        assert!(detect.normalized_runtime() > protect.normalized_runtime());

        // A workload with almost no synchronization stays cheap.
        let swaptions = find("swaptions").unwrap();
        let cheap = sheriff
            .run(&swaptions, &opts, SheriffMode::Protect)
            .unwrap()
            .result
            .unwrap();
        assert!(
            cheap.normalized_runtime() < 1.2,
            "{}",
            cheap.normalized_runtime()
        );
    }
}
