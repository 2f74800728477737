//! The tools a cell can run: native execution, the manual fix, LASER and
//! LASERDETECT, VTune, Sheriff and Figure 3's record scoring, as one closed
//! [`ToolSpec`].
//!
//! The paper's evaluation repeatedly runs the same 35 workloads under
//! different tools (Figures 10–14, Tables 1–2). [`ToolSpec::run`] is "run
//! this workload under this tool and tell me what it saw", so a
//! [`Grid`](crate::grid::Grid) can fan `workload × tool` grids across a
//! thread pool. A spec is a `Copy` value
//! and every underlying simulation is deterministic, so a cell's result is
//! independent of which worker thread computes it, and a spec's key
//! ([`ToolSpec::key`]) names everything the cell runs.
//!
//! A [`ToolRun`] carries everything any figure or table derives from a cell —
//! cycles, structured reported lines, repair activity, the driver/detector
//! overhead split and Figure 3's record counts — which is what lets the
//! [`crate::grid::Grid`] cache run each unique `(workload, tool)` cell
//! exactly once and serve every consumer from the cached result.

use laser_baselines::{Sheriff, SheriffFailure, SheriffMode, SheriffNative, SheriffRun, Vtune};
use laser_core::{CellBudget, ContentionKind, LaserConfig, LaserError, StopReason, TopologySpec};
use laser_machine::RunResult;
use laser_workloads::{BuildOptions, WorkloadSpec};

use crate::characterization::score_case;
use crate::config::CellConfig;
use crate::runner::{build_under_tool, run_laser, run_native};

/// One contention site a tool reported, in a tool-neutral shape.
///
/// LASER and VTune report source lines (`file`/`line` present); Sheriff
/// reports falsely-shared allocation-site cache lines (`file`/`line` absent,
/// only the `label`). The extra per-line metrics are what the accuracy
/// experiments (Tables 1–2, Figure 9) consume from cached campaign cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportedLine {
    /// Human-readable label as it appears in text output.
    pub label: String,
    /// Source file, for tools that attribute to source lines.
    pub file: Option<String>,
    /// 1-based source line, for tools that attribute to source lines.
    pub line: Option<u32>,
    /// Contention classification (LASER only).
    pub kind: Option<ContentionKind>,
    /// HITM records attributed to this site (0 where not applicable).
    pub hitm_records: u64,
    /// HITM records per second of dilated benchmark time (0 where not
    /// applicable).
    pub rate_per_sec: f64,
}

impl ReportedLine {
    /// A reported source location, if this tool attributes to source lines.
    pub fn location(&self) -> Option<(&str, u32)> {
        Some((self.file.as_deref()?, self.line?))
    }
}

/// What one tool observed on one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ToolRun {
    /// End-to-end cycles of the run, all tool overhead included.
    pub cycles: u64,
    /// The contention sites the tool reported.
    pub reported: Vec<ReportedLine>,
    /// Whether online repair was invoked during the run (LASER only).
    pub repair_invoked: bool,
    /// Cycles of driver overhead charged to the run (LASER only).
    pub driver_overhead_cycles: u64,
    /// Cycles the detector process consumed (LASER only).
    pub detector_cycles: u64,
    /// Ground-truth HITM events of the monitored run (0 where the tool's
    /// model exposes no machine statistics, i.e. Sheriff).
    pub hitm_events: u64,
    /// Ground-truth HITM events serviced across a socket boundary; always 0
    /// on the flat topology. The cross-socket sweep derives its
    /// repair-reduces-remote-HITMs claim from this.
    pub hitm_remote: u64,
    /// How many of the run's `hitm_events` kept their address and PC
    /// through the imprecision model (`pebs-accuracy` only).
    pub pebs_accuracy: Option<PebsAccuracy>,
}

/// How many HITM records of a characterization case kept the right address
/// and PC: the counts Figure 3 divides by the case's `hitm_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PebsAccuracy {
    /// Records with the correct data address.
    pub addr_correct: u64,
    /// Records with the exact PC.
    pub pc_exact: u64,
    /// Records with the exact or an adjacent PC.
    pub pc_adjacent: u64,
}

impl ToolRun {
    /// Labels of the reported sites, for display.
    pub fn reported_labels(&self) -> Vec<&str> {
        self.reported.iter().map(|l| l.label.as_str()).collect()
    }
}

/// Why a tool produced no run for a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolFailure {
    /// The tool cannot run this workload at all (Sheriff's compatibility
    /// matrix: crashes and unsupported constructs).
    Unsupported(SheriffFailure),
    /// The underlying simulation failed (e.g. step-budget exhaustion).
    Error(String),
    /// The tool panicked while running the cell; the campaign runner isolates
    /// the panic to this cell instead of aborting the grid.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The cell exceeded its per-cell budget ([`CellConfig::budget`]).
    /// LASER runs are stopped mid-flight; whole-run tools are checked
    /// against their final step count and marked after completion.
    BudgetExceeded {
        /// Which budget tripped, and by how much.
        reason: StopReason,
    },
}

impl From<StopReason> for ToolFailure {
    fn from(reason: StopReason) -> Self {
        ToolFailure::BudgetExceeded { reason }
    }
}

impl std::fmt::Display for ToolFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolFailure::Unsupported(SheriffFailure::Crash) => {
                write!(f, "unsupported: crashes under Sheriff")
            }
            ToolFailure::Unsupported(SheriffFailure::Incompatible) => {
                write!(f, "unsupported: uses constructs Sheriff does not support")
            }
            ToolFailure::Error(why) => write!(f, "error: {why}"),
            ToolFailure::Panicked { message } => write!(f, "panicked: {message}"),
            ToolFailure::BudgetExceeded { reason } => write!(f, "budget exceeded: {reason}"),
        }
    }
}

/// The cell key of a tool deployed on a topology: the bare tool name on the
/// flat (default) topology, `name@2s` / `name@4s` on the multi-socket
/// presets. Keeping flat keys bare preserves the pre-topology cell naming
/// byte-for-byte.
pub fn cell_key(tool_name: &str, topo: TopologySpec) -> String {
    if topo == TopologySpec::Flat {
        tool_name.to_string()
    } else {
        format!("{tool_name}@{topo}")
    }
}

/// A native run of `spec` as `cell` deploys it, held to the cell's budget.
fn native_run(spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
    let result = run_native(spec, cell).map_err(|e| ToolFailure::Error(e.to_string()))?;
    native_cell(&result, cell.budget)
}

/// The native cell of a finished native run, held to `budget`.
fn native_cell(result: &RunResult, budget: CellBudget) -> Result<ToolRun, ToolFailure> {
    budget.check(result.steps)?;
    Ok(ToolRun {
        cycles: result.cycles,
        hitm_events: result.stats.hitm_events,
        hitm_remote: result.stats.hitm_remote,
        ..ToolRun::default()
    })
}

/// A LASER run of `spec` under `config` as `cell` deploys it.
fn laser_run(
    spec: &WorkloadSpec,
    cell: &CellConfig,
    config: LaserConfig,
) -> Result<ToolRun, ToolFailure> {
    run_laser(spec, cell, config)
        .map(laser_outcome_to_tool_run)
        .map_err(|e| match e {
            LaserError::Stopped(reason) => reason.into(),
            other => ToolFailure::Error(other.to_string()),
        })
}

/// Project a finished LASER run onto the tool-neutral [`ToolRun`] shape.
fn laser_outcome_to_tool_run(outcome: laser_core::LaserOutcome) -> ToolRun {
    ToolRun {
        cycles: outcome.cycles(),
        reported: outcome
            .report
            .lines
            .iter()
            .map(|l| ReportedLine {
                label: format!("{} ({})", l.location.label(), l.kind),
                file: Some(l.location.file.clone()),
                line: Some(l.location.line),
                kind: Some(l.kind),
                hitm_records: l.hitm_records,
                rate_per_sec: l.rate_per_sec,
            })
            .collect(),
        repair_invoked: outcome.repair.is_some(),
        driver_overhead_cycles: outcome.driver_stats.overhead_cycles,
        detector_cycles: outcome.detector_cycles,
        hitm_events: outcome.run.stats.hitm_events,
        hitm_remote: outcome.run.stats.hitm_remote,
        pebs_accuracy: None,
    }
}

/// A VTune profile of `spec` as `cell` deploys it, held to the cell's
/// budget.
fn vtune_run(spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
    let image = build_under_tool(spec, &cell.adapted_opts());
    let outcome = Vtune
        .run_on(&image, cell.machine_config())
        .map_err(|e| ToolFailure::Error(e.to_string()))?;
    cell.budget.check(outcome.run.steps)?;
    Ok(ToolRun {
        cycles: outcome.run.cycles,
        reported: outcome
            .reported_lines
            .iter()
            .map(|l| ReportedLine {
                label: l.location.label(),
                file: Some(l.location.file.clone()),
                line: Some(l.location.line),
                kind: None,
                hitm_records: l.records,
                rate_per_sec: l.rate_per_sec,
            })
            .collect(),
        hitm_events: outcome.run.stats.hitm_events,
        hitm_remote: outcome.run.stats.hitm_remote,
        ..ToolRun::default()
    })
}

/// A Sheriff run of `spec` in `mode` as `cell` deploys it.
fn sheriff_run(
    spec: &WorkloadSpec,
    cell: &CellConfig,
    mode: SheriffMode,
) -> Result<ToolRun, ToolFailure> {
    let outcome = Sheriff
        .run_on(spec, &cell.adapted_opts(), mode, cell.machine_config())
        .map_err(|e| ToolFailure::Error(e.to_string()))?;
    sheriff_cell(outcome.result)
}

/// The Sheriff cell of the model's verdict. The model reports no
/// instruction count, so no step budget applies.
fn sheriff_cell(result: Result<SheriffRun, SheriffFailure>) -> Result<ToolRun, ToolFailure> {
    let run = result.map_err(ToolFailure::Unsupported)?;
    Ok(ToolRun {
        cycles: run.cycles,
        reported: run
            .reported_lines
            .iter()
            .map(|line| ReportedLine {
                label: format!("line@{line:#x}"),
                file: None,
                line: None,
                kind: None,
                hitm_records: 0,
                rate_per_sec: 0.0,
            })
            .collect(),
        ..ToolRun::default()
    })
}

/// A whole tool configuration. Its key ([`ToolSpec::key`]) is what a
/// [`crate::grid::Grid`] and the cell cache file a cell under, and the spec
/// is all [`ToolSpec::run`] needs to run the cell. The set is closed: the
/// paper's tools (native, the manual fix, LASER and LASERDETECT, VTune,
/// Sheriff-Detect and Sheriff-Protect) and Figure 3's scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ToolSpec {
    /// Un-instrumented baseline.
    Native,
    /// Un-instrumented manually-fixed binary.
    NativeFixed,
    /// LASER with online repair enabled (the paper's default deployment).
    Laser,
    /// LASERDETECT: detection only, paper-default thresholds.
    LaserDetect,
    /// LASERDETECT with the rate threshold at zero, so every line survives
    /// filtering and Figure 9 can apply candidate thresholds offline.
    LaserDetectRaw,
    /// LASERDETECT at an explicit Sample-After-Value (the Figure 13 sweep);
    /// at least 1, the least a PMU counts down from.
    LaserDetectSav(u32),
    /// The VTune profiler model.
    Vtune,
    /// Sheriff-Detect.
    SheriffDetect,
    /// Sheriff-Protect.
    SheriffProtect,
    /// The Figure 3 scoring of a characterization case's HITM records:
    /// sampling off, every ground-truth HITM event of the case passes
    /// through the imprecision model, and the cell counts the records that
    /// keep the right address and PC. Any other workload is an error cell.
    PebsAccuracy,
}

impl ToolSpec {
    /// The cell key of this tool on topology `topo` (see [`cell_key`]).
    pub fn key_at(&self, topo: TopologySpec) -> String {
        cell_key(&self.key(), topo)
    }

    /// The stable cell key, which names the whole configuration.
    pub fn key(&self) -> String {
        match self {
            ToolSpec::Native => "native".to_string(),
            ToolSpec::NativeFixed => "native-fixed".to_string(),
            ToolSpec::Laser => "laser".to_string(),
            ToolSpec::LaserDetect => "laser-detect".to_string(),
            ToolSpec::LaserDetectRaw => "laser-detect-raw".to_string(),
            ToolSpec::LaserDetectSav(sav) => format!("{SAV_PREFIX}{sav}"),
            ToolSpec::Vtune => "vtune".to_string(),
            ToolSpec::SheriffDetect => "sheriff-detect".to_string(),
            ToolSpec::SheriffProtect => "sheriff-protect".to_string(),
            ToolSpec::PebsAccuracy => "pebs-accuracy".to_string(),
        }
    }

    /// Parse a stable cell key back into its spec — the exact inverse of
    /// [`ToolSpec::key`]: a spec with a fixed key, or the
    /// parameterized `laser-detect-sav{N}` family for every `N >= 1` (a PMU
    /// cannot sample at SAV 0). Scenario files name tools with these keys.
    pub fn parse(key: &str) -> Option<ToolSpec> {
        if let Some(spec) = FIXED_SPECS.into_iter().find(|spec| spec.key() == key) {
            return Some(spec);
        }
        let sav = key.strip_prefix(SAV_PREFIX)?;
        // Reject non-canonical spellings ("sav007") so parse(key())
        // round-trips exactly and nothing else is accepted.
        let value: u32 = sav.parse().ok()?;
        if value == 0 || value.to_string() != sav {
            return None;
        }
        Some(ToolSpec::LaserDetectSav(value))
    }

    /// Every key [`ToolSpec::parse`] accepts, as an error message lists
    /// them: the fixed keys, then the SAV family.
    pub(crate) fn expected_keys() -> String {
        let fixed: Vec<String> = FIXED_SPECS.iter().map(ToolSpec::key).collect();
        format!("{}, or {SAV_PREFIX}N for N >= 1", fixed.join(", "))
    }

    /// Run `spec` under this tool, on a simulation of its own, as `cell`
    /// configures it: build options adapted to the topology
    /// ([`CellConfig::adapted_opts`]), the machine
    /// ([`CellConfig::machine_config`]), the session pipeline and the budget
    /// ([`CellConfig::budget`]). A campaign derives the cells of one
    /// workload that can share a simulation from one run (`SharedRuns`);
    /// each such cell equals this one.
    ///
    /// A budgeted LASER session stops at the first quantum past the budget;
    /// the native, VTune and Figure 3 runs hold their finished step count to
    /// the same rule ([`CellBudget::check`]), so a budget can mark them over
    /// budget but not shorten them. (The Sheriff model exposes no step
    /// counter, so no budget catches a Sheriff cell.) The pipeline is an
    /// execution strategy, not a measurement change, so runs without a
    /// detector stage to move ignore it.
    ///
    /// # Errors
    /// Returns [`ToolFailure::Unsupported`] when the tool cannot run the
    /// workload, [`ToolFailure::Error`] when the simulation fails and
    /// [`ToolFailure::BudgetExceeded`] when the budget stopped the run.
    pub fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
        if let Some(config) = self.laser_config() {
            return laser_run(spec, cell, config);
        }
        match self {
            ToolSpec::NativeFixed => {
                let opts = BuildOptions {
                    fixed: true,
                    ..cell.opts.clone()
                };
                native_run(
                    spec,
                    &CellConfig {
                        opts: &opts,
                        ..*cell
                    },
                )
            }
            ToolSpec::Vtune => vtune_run(spec, cell),
            ToolSpec::SheriffDetect => sheriff_run(spec, cell, SheriffMode::Detect),
            ToolSpec::SheriffProtect => sheriff_run(spec, cell, SheriffMode::Protect),
            ToolSpec::PebsAccuracy => {
                let case = spec.characterization().ok_or_else(|| {
                    ToolFailure::Error(format!("{} is not a characterization case", spec.name))
                })?;
                score_case(case, cell.machine_config(), cell.budget)
            }
            // `Native`: every LASER spec has a configuration.
            _ => native_run(spec, cell),
        }
    }

    /// The configuration a LASER spec runs; `None` for every other tool.
    fn laser_config(&self) -> Option<LaserConfig> {
        let detect = LaserConfig::detection_only();
        match self {
            ToolSpec::Laser => Some(LaserConfig::default()),
            ToolSpec::LaserDetect => Some(detect),
            ToolSpec::LaserDetectRaw => Some(detect.with_rate_threshold(0.0)),
            ToolSpec::LaserDetectSav(sav) => Some(detect.with_sav(*sav)),
            _ => None,
        }
    }

    /// The simulation this spec's cell can share with the cells of the same
    /// workload and deployment, named by the spec that runs it on its own;
    /// `None` for a cell that shares nothing. Native and both Sheriff modes
    /// share the native run; a LASER cell whose configuration differs from
    /// the raw detection session's only in its report threshold and in
    /// repair shares that session.
    pub(crate) fn simulation(&self) -> Option<ToolSpec> {
        match self {
            ToolSpec::Native | ToolSpec::SheriffDetect | ToolSpec::SheriffProtect => {
                Some(ToolSpec::Native)
            }
            _ => {
                let config = self.laser_config()?;
                let raw = ToolSpec::LaserDetectRaw.laser_config()?;
                let detection = LaserConfig {
                    enable_repair: false,
                    ..config.with_rate_threshold(raw.rate_threshold_hitm_per_sec)
                };
                (detection == raw).then_some(ToolSpec::LaserDetectRaw)
            }
        }
    }
}

/// Every spec with a fixed key, in the order [`ToolSpec::expected_keys`]
/// lists them; every other spec is a `laser-detect-sav{N}`.
const FIXED_SPECS: [ToolSpec; 9] = [
    ToolSpec::Native,
    ToolSpec::NativeFixed,
    ToolSpec::Laser,
    ToolSpec::LaserDetect,
    ToolSpec::LaserDetectRaw,
    ToolSpec::Vtune,
    ToolSpec::SheriffDetect,
    ToolSpec::SheriffProtect,
    ToolSpec::PebsAccuracy,
];

/// The key prefix of the `laser-detect-sav{N}` family.
const SAV_PREFIX: &str = "laser-detect-sav";

/// The tool panel of `experiments campaign`: native, LASER, VTune and both
/// Sheriff modes — every column of the paper's comparison tables.
pub(crate) const DEFAULT_PANEL: [ToolSpec; 5] = [
    ToolSpec::Native,
    ToolSpec::Laser,
    ToolSpec::Vtune,
    ToolSpec::SheriffDetect,
    ToolSpec::SheriffProtect,
];

/// The simulations the cells of one group share — one workload on one
/// deployment, its cells agreeing on [`ToolSpec::simulation`] — run at most
/// once each, when the first cell that needs one is simulated, and dropped
/// with the group. Every member cell is derived from them, and each
/// derivation is exact by construction:
///
/// - A LASER session runs at report threshold 0, and each cell re-applies
///   its own threshold to the report's lines: the detector applies the
///   threshold once, when the report is made after the run, and nothing
///   during the run reads it.
/// - A repair-enabled session in which repair never attached is the
///   detection-only session: the armed trigger only reads the detector's
///   aggregates, and nothing is charged until a plan attaches.
/// - `native` is the native run, and Sheriff-Protect and Sheriff-Detect are
///   arithmetic on it ([`Sheriff::project`]), with Sheriff-Detect's writer
///   aggregation folded in batch by batch while it runs.
///
/// A cell whose spec shares nothing runs on its own ([`ToolSpec::run`]).
#[derive(Debug, Default)]
pub(crate) struct SharedRuns {
    /// Whether the native run feeds Sheriff-Detect's writer aggregation.
    observe_writers: bool,
    /// The repair-enabled LASER session at report threshold 0.
    repaired: Option<Result<ToolRun, ToolFailure>>,
    /// The detection-only LASER session at report threshold 0.
    detected: Option<Result<ToolRun, ToolFailure>>,
    native: Option<Result<SheriffNative, ToolFailure>>,
    /// Simulations started so far.
    simulations: usize,
}

impl SharedRuns {
    /// The shared runs of a group on `workload` whose cells run `members`.
    pub(crate) fn new(
        workload: &WorkloadSpec,
        mut members: impl Iterator<Item = ToolSpec>,
    ) -> Self {
        SharedRuns {
            observe_writers: members.any(|spec| spec == ToolSpec::SheriffDetect)
                && Sheriff::compatibility(workload).is_ok(),
            ..SharedRuns::default()
        }
    }

    /// Simulations this group has started.
    pub(crate) fn simulations(&self) -> usize {
        self.simulations
    }

    /// The cell of `spec` on `workload` as `cell` configures it:
    /// [`ToolSpec::run`]'s result, derived from the group's shared
    /// simulations where the spec has one.
    ///
    /// # Errors
    /// As [`ToolSpec::run`].
    pub(crate) fn run(
        &mut self,
        spec: ToolSpec,
        workload: &WorkloadSpec,
        cell: &CellConfig,
    ) -> Result<ToolRun, ToolFailure> {
        if spec.simulation().is_none() {
            self.simulations += 1;
            return spec.run(workload, cell);
        }
        if let Some(config) = spec.laser_config() {
            return self.laser(config, workload, cell);
        }
        let mode = match spec {
            ToolSpec::SheriffDetect => SheriffMode::Detect,
            ToolSpec::SheriffProtect => SheriffMode::Protect,
            // `Native`, the one other spec with a simulation.
            _ => return native_cell(&self.native(workload, cell)?.run, cell.budget),
        };
        Sheriff::compatibility(workload).map_err(ToolFailure::Unsupported)?;
        let native = self.native(workload, cell)?;
        sheriff_cell(Ok(Sheriff.project(native, mode)))
    }

    /// A LASER cell under `config`: the group's session at threshold 0,
    /// filtered to `config`'s threshold.
    fn laser(
        &mut self,
        config: LaserConfig,
        workload: &WorkloadSpec,
        cell: &CellConfig,
    ) -> Result<ToolRun, ToolFailure> {
        let threshold = config.rate_threshold_hitm_per_sec;
        let unrepaired = match &self.repaired {
            Some(Ok(run)) if !config.enable_repair && !run.repair_invoked => Some(run.clone()),
            _ => None,
        };
        let mut run = match unrepaired {
            Some(run) => run,
            None => {
                let slot = if config.enable_repair {
                    &mut self.repaired
                } else {
                    &mut self.detected
                };
                simulate(slot, &mut self.simulations, || {
                    laser_run(workload, cell, config.with_rate_threshold(0.0))
                })?
                .clone()
            }
        };
        run.reported.retain(|line| line.rate_per_sec >= threshold);
        Ok(run)
    }

    /// The group's native run.
    fn native(
        &mut self,
        workload: &WorkloadSpec,
        cell: &CellConfig,
    ) -> Result<&SheriffNative, ToolFailure> {
        let observe_writers = self.observe_writers;
        simulate(&mut self.native, &mut self.simulations, || {
            let image = workload.build(&cell.adapted_opts());
            Sheriff::run_native(&image, cell.machine_config(), observe_writers)
                .map_err(|e| ToolFailure::Error(e.to_string()))
        })
    }
}

/// The result in `slot`, simulated by `run` (and counted) on first use.
fn simulate<'a, T>(
    slot: &'a mut Option<Result<T, ToolFailure>>,
    simulations: &mut usize,
    run: impl FnOnce() -> Result<T, ToolFailure>,
) -> Result<&'a T, ToolFailure> {
    slot.get_or_insert_with(|| {
        *simulations += 1;
        run()
    })
    .as_ref()
    .map_err(Clone::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_core::{CellBudget, PipelineConfig};
    use laser_workloads::find;

    /// Run `tool` on `spec` as the flat inline cell at scale 0.08, with
    /// `budget` and `pipeline` overriding its defaults.
    fn run_cell(
        tool: ToolSpec,
        spec: &WorkloadSpec,
        budget: CellBudget,
        pipeline: PipelineConfig,
    ) -> Result<ToolRun, ToolFailure> {
        let opts = BuildOptions::scaled(0.08);
        tool.run(
            spec,
            &CellConfig {
                budget,
                pipeline,
                ..CellConfig::flat(spec.name, &tool.key(), &opts)
            },
        )
    }

    fn run(tool: ToolSpec, spec: &WorkloadSpec) -> Result<ToolRun, ToolFailure> {
        run_cell(tool, spec, CellBudget::default(), PipelineConfig::default())
    }

    #[test]
    fn tool_spec_parse_round_trips_every_key() {
        let specs = [
            ToolSpec::Native,
            ToolSpec::NativeFixed,
            ToolSpec::Laser,
            ToolSpec::LaserDetect,
            ToolSpec::LaserDetectRaw,
            ToolSpec::LaserDetectSav(1),
            ToolSpec::LaserDetectSav(97),
            ToolSpec::LaserDetectSav(20011),
            ToolSpec::Vtune,
            ToolSpec::SheriffDetect,
            ToolSpec::SheriffProtect,
            ToolSpec::PebsAccuracy,
        ];
        for spec in specs {
            assert_eq!(ToolSpec::parse(&spec.key()), Some(spec), "{}", spec.key());
        }
        for bad in [
            "natve",
            "NATIVE",
            "laser-detect-sav",
            "laser-detect-sav007",
            "laser-detect-sav-3",
            "laser-detect-savx",
            // SAV 0 once parsed and panicked the cell inside `Pmu::new`.
            "laser-detect-sav0",
            "",
            "native@2s",
        ] {
            assert_eq!(ToolSpec::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn the_expected_keys_are_exactly_the_keys_that_parse() {
        let expected = ToolSpec::expected_keys();
        // Every fixed key is listed, `pebs-accuracy` among them...
        for spec in FIXED_SPECS {
            assert!(
                expected.split(", ").any(|k| k == spec.key()),
                "{} missing from {expected:?}",
                spec.key()
            );
        }
        assert!(expected.contains("pebs-accuracy"), "{expected}");
        // ...and every key listed parses, the SAV family at any N >= 1.
        for key in expected.split(", ") {
            let key = key.strip_prefix("or ").unwrap_or(key);
            let key = match key.strip_suffix("N for N >= 1") {
                Some(prefix) => format!("{prefix}19"),
                None => key.to_string(),
            };
            assert!(ToolSpec::parse(&key).is_some(), "{key:?} is listed");
        }
        assert_eq!(
            expected.split(", ").count(),
            FIXED_SPECS.len() + 1,
            "{expected}"
        );
    }

    #[test]
    fn a_cell_key_names_its_whole_tool() {
        let specs = FIXED_SPECS
            .into_iter()
            .chain((1..=32).map(ToolSpec::LaserDetectSav));
        let opts = BuildOptions::scaled(0.4);
        let mut fingerprints = std::collections::BTreeMap::new();
        for spec in specs {
            let key = spec.key();
            for topology in TopologySpec::ALL {
                let cell = CellConfig {
                    topology,
                    ..CellConfig::flat("histogram'", &key, &opts)
                };
                let canonical = cell.canonical();
                let tool = canonical
                    .lines()
                    .find_map(|line| line.strip_prefix("tool="))
                    .expect("a tool= line");
                assert_eq!(ToolSpec::parse(tool), Some(spec), "{canonical}");
                let previous =
                    fingerprints.insert(crate::cache::fingerprint(&cell), (spec, topology));
                assert_eq!(previous, None, "{spec:?} at {topology} collides");
            }
        }
        assert_eq!(fingerprints.len(), (FIXED_SPECS.len() + 32) * 4);
    }

    #[test]
    fn tools_are_share_and_send() {
        fn assert_sync_send<T: Send + Sync>() {}
        assert_sync_send::<ToolSpec>();
        assert_sync_send::<ToolRun>();
        assert_sync_send::<ToolFailure>();
    }

    #[test]
    fn native_runs_and_reports_nothing() {
        let spec = find("swaptions").unwrap();
        let run = run(ToolSpec::Native, &spec).unwrap();
        assert!(run.cycles > 0);
        assert!(run.reported.is_empty());
        assert!(!run.repair_invoked);
        assert_eq!(run.driver_overhead_cycles, 0);
    }

    #[test]
    fn fixed_native_beats_buggy_native_where_a_fix_exists() {
        let spec = find("linear_regression").unwrap();
        assert!(spec.has_fix);
        let buggy = run(ToolSpec::Native, &spec).unwrap();
        let fixed = run(ToolSpec::NativeFixed, &spec).unwrap();
        assert!(
            fixed.cycles < buggy.cycles,
            "{} vs {}",
            fixed.cycles,
            buggy.cycles
        );
    }

    #[test]
    fn laser_tool_reports_contention_with_overhead() {
        let spec = find("histogram'").unwrap();
        let native = run(ToolSpec::Native, &spec).unwrap();
        let laser = run(ToolSpec::LaserDetect, &spec).unwrap();
        assert!(laser.cycles >= native.cycles);
        assert!(!laser.reported.is_empty(), "histogram' contends");
        let first = &laser.reported[0];
        assert!(first.location().is_some());
        assert!(first.kind.is_some());
        assert!(first.hitm_records > 0);
        assert!(laser.driver_overhead_cycles > 0);
        assert!(laser.detector_cycles > 0);
    }

    #[test]
    fn sheriff_tool_surfaces_incompatibility() {
        let spec = find("dedup").unwrap();
        let out = run(ToolSpec::SheriffDetect, &spec);
        assert_eq!(
            out,
            Err(ToolFailure::Unsupported(SheriffFailure::Incompatible))
        );
    }

    #[test]
    fn tool_names_are_distinct() {
        let mut names: Vec<String> = DEFAULT_PANEL.iter().map(ToolSpec::key).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DEFAULT_PANEL.len());
    }

    #[test]
    fn simulations_group_exactly_the_specs_that_can_share_one() {
        let raw = Some(ToolSpec::LaserDetectRaw);
        let native = Some(ToolSpec::Native);
        for (spec, simulation) in [
            (ToolSpec::Laser, raw),
            (ToolSpec::LaserDetect, raw),
            (ToolSpec::LaserDetectRaw, raw),
            (ToolSpec::LaserDetectSav(19), raw),
            (ToolSpec::LaserDetectSav(7), None),
            (ToolSpec::Native, native),
            (ToolSpec::SheriffDetect, native),
            (ToolSpec::SheriffProtect, native),
            (ToolSpec::NativeFixed, None),
            (ToolSpec::Vtune, None),
            (ToolSpec::PebsAccuracy, None),
        ] {
            assert_eq!(spec.simulation(), simulation, "{spec:?}");
        }
    }

    #[test]
    fn failure_display_is_stable() {
        assert_eq!(
            ToolFailure::Unsupported(SheriffFailure::Crash).to_string(),
            "unsupported: crashes under Sheriff"
        );
        assert_eq!(
            ToolFailure::Panicked {
                message: "boom".into()
            }
            .to_string(),
            "panicked: boom"
        );
        assert_eq!(
            ToolFailure::BudgetExceeded {
                reason: StopReason::StepBudget { limit: 5, used: 9 }
            }
            .to_string(),
            "budget exceeded: step budget exceeded (9 steps > limit 5)"
        );
    }

    #[test]
    fn laser_tool_is_cancelled_mid_flight_by_a_step_budget() {
        let spec = find("histogram'").unwrap();
        let out = run_cell(
            ToolSpec::LaserDetect,
            &spec,
            CellBudget::steps(5_000),
            PipelineConfig::default(),
        );
        match out {
            Err(ToolFailure::BudgetExceeded {
                reason: StopReason::StepBudget { limit: 5_000, used },
            }) => assert!(used > 5_000),
            other => panic!("expected a step-budget failure, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_laser_cell_is_byte_identical_to_inline() {
        let spec = find("histogram'").unwrap();
        let piped = |tool| {
            run_cell(
                tool,
                &spec,
                CellBudget::default(),
                PipelineConfig::pipelined(),
            )
            .unwrap()
        };
        let inline = run(ToolSpec::LaserDetect, &spec).unwrap();
        assert_eq!(inline, piped(ToolSpec::LaserDetect));

        // Tools without a detector stage accept (and ignore) the deployment.
        assert_eq!(
            piped(ToolSpec::Native),
            run(ToolSpec::Native, &spec).unwrap()
        );
    }

    #[test]
    fn native_tool_is_marked_over_budget_after_completion() {
        let spec = find("swaptions").unwrap();
        let budgeted = |steps| {
            run_cell(
                ToolSpec::Native,
                &spec,
                CellBudget::steps(steps),
                PipelineConfig::default(),
            )
        };
        // Native runs cannot be shortened: the run completes and is then held
        // to the budget via its Finished event.
        assert!(matches!(
            budgeted(1),
            Err(ToolFailure::BudgetExceeded {
                reason: StopReason::StepBudget { limit: 1, .. }
            })
        ));
        // A generous budget changes nothing about the run.
        assert_eq!(
            run(ToolSpec::Native, &spec).unwrap(),
            budgeted(u64::MAX).unwrap()
        );
    }
}
