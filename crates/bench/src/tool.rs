//! The [`Tool`] abstraction: LASER, VTune, Sheriff and native execution
//! behind one interface.
//!
//! The paper's evaluation repeatedly runs the same 35 workloads under
//! different tools (Figures 10–14, Tables 1–2). A `Tool` encapsulates "run
//! this workload under me and tell me what you saw" so the
//! [`crate::campaign::Campaign`] runner can fan arbitrary `workload × tool`
//! grids across a thread pool. Implementations are `Send + Sync` values whose
//! `run` takes `&self`, and every underlying simulation is deterministic, so
//! a cell's result is independent of which worker thread computes it.
//!
//! A [`ToolRun`] carries everything any figure or table derives from a cell —
//! cycles, structured reported lines, repair activity and the driver/detector
//! overhead split — which is what lets the [`crate::grid::Grid`] cache run
//! each unique `(workload, tool)` cell exactly once and serve every consumer
//! from the cached result.

use std::ops::ControlFlow;

use laser_baselines::{Sheriff, SheriffConfig, SheriffFailure, SheriffMode, Vtune, VtuneConfig};
use laser_core::{
    BudgetObserver, ContentionKind, LaserConfig, LaserError, LaserEvent, Observer, StopReason,
    TopologySpec,
};
use laser_workloads::{BuildOptions, WorkloadSpec};

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
    /// The cell exceeded its per-cell budget ([`CellConfig::budget`]): the
    /// budget observer stopped the run. LASER runs are cancelled mid-flight;
    /// tools that report only a final event are marked after completion.
    BudgetExceeded {
        /// Which budget tripped, and by how much.
        reason: StopReason,
    },
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

/// A contention tool (or the absence of one) that can run a workload.
///
/// [`Tool::run`] takes the cell's whole [`CellConfig`] — the same value the
/// cache fingerprints — and the tool deploys itself from it: build options
/// adapted to the topology ([`CellConfig::adapted_opts`]), the machine
/// ([`CellConfig::machine_config`]), the session pipeline and the budget
/// ([`CellConfig::observer`]). A caller never keeps options and machine
/// configuration in sync by hand.
pub trait Tool: Send + Sync {
    /// Stable display name, used (decorated with the deployment by
    /// [`CellConfig::cell_key`]) as the cell key in campaign results.
    fn name(&self) -> &str;

    /// Build and run `spec` under this tool as `cell` configures it.
    ///
    /// A budgeted LASER run streams its [`LaserEvent`]s to the budget
    /// observer and stops mid-quantum; the native and baseline tools report
    /// a single [`LaserEvent::Finished`] after the simulation, so a budget
    /// can mark them over-budget but not shorten them. (The Sheriff model
    /// exposes no step counter; its `Finished` events carry `steps: 0`, so
    /// only wall-clock budgets can catch Sheriff cells.) The pipeline
    /// deployment is an *execution strategy*, not a measurement change, so
    /// tools without a detector stage to move ignore it.
    ///
    /// # Errors
    /// Returns [`ToolFailure::Unsupported`] when the tool cannot run the
    /// workload, [`ToolFailure::Error`] when the simulation fails and
    /// [`ToolFailure::BudgetExceeded`] when the budget stopped the run.
    fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure>;
}

/// Deliver the post-run [`LaserEvent::Finished`] event for a tool that cannot
/// stream intermediate events, translating an observer break into the
/// budget-exceeded cell failure. `observer` is the cell's, started before
/// the run so a wall-clock budget covers it.
fn finish_observed(
    observer: Option<BudgetObserver>,
    steps: u64,
    cycles: u64,
) -> Result<(), ToolFailure> {
    match observer.map(|mut o| o.on_event(&LaserEvent::Finished { steps, cycles })) {
        Some(ControlFlow::Break(reason)) => Err(ToolFailure::BudgetExceeded { reason }),
        _ => Ok(()),
    }
}

/// A native run of `spec` as `cell` deploys it, held to the cell's budget.
fn native_run(spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
    let observer = cell.observer();
    let result = run_native(spec, cell).map_err(|e| ToolFailure::Error(e.to_string()))?;
    finish_observed(observer, result.steps, result.cycles)?;
    Ok(ToolRun {
        cycles: result.cycles,
        hitm_events: result.stats.hitm_events,
        hitm_remote: result.stats.hitm_remote,
        ..ToolRun::default()
    })
}

/// Native execution: no tool attached; the baseline every overhead figure is
/// normalized against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeTool;

impl Tool for NativeTool {
    fn name(&self) -> &str {
        "native"
    }

    fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
        native_run(spec, cell)
    }
}

/// Native execution of the manually-fixed binary variant (padding/alignment/
/// restructuring applied by hand, as in Figures 11 and 14). Only meaningful
/// for workloads with `has_fix`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedNativeTool;

impl Tool for FixedNativeTool {
    fn name(&self) -> &str {
        "native-fixed"
    }

    fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
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
}

/// The LASER system (detection, and repair when the configuration allows it).
#[derive(Debug, Clone)]
pub struct LaserTool {
    config: LaserConfig,
    name: String,
}

impl Default for LaserTool {
    fn default() -> Self {
        LaserTool::new(LaserConfig::default())
    }
}

impl LaserTool {
    /// Run LASER with `config` (e.g. [`LaserConfig::detection_only`]). The
    /// tool is named `laser` when repair is enabled, `laser-detect` otherwise.
    pub fn new(config: LaserConfig) -> Self {
        let name = if config.enable_repair {
            "laser"
        } else {
            "laser-detect"
        };
        LaserTool::named(config, name)
    }

    /// Run LASER with `config` under an explicit cell-key name. Campaign cells
    /// are keyed by tool name, so variant configurations sharing a grid (the
    /// Figure 13 SAV sweep, Figure 9's unfiltered detector) need distinct
    /// names.
    pub fn named(config: LaserConfig, name: impl Into<String>) -> Self {
        LaserTool {
            config,
            name: name.into(),
        }
    }
}

impl Tool for LaserTool {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
        let outcome = run_laser(spec, cell, self.config.clone()).map_err(|e| match e {
            LaserError::Stopped(reason) => ToolFailure::BudgetExceeded { reason },
            other => ToolFailure::Error(other.to_string()),
        })?;
        Ok(laser_outcome_to_tool_run(outcome))
    }
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
    }
}

/// The VTune profiler model.
#[derive(Debug, Clone, Default)]
pub struct VtuneTool {
    config: VtuneConfig,
}

impl VtuneTool {
    /// Run VTune with an explicit configuration.
    pub fn new(config: VtuneConfig) -> Self {
        VtuneTool { config }
    }
}

impl Tool for VtuneTool {
    fn name(&self) -> &str {
        "vtune"
    }

    fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
        let observer = cell.observer();
        let image = build_under_tool(spec, &cell.adapted_opts());
        let outcome = Vtune::new(self.config.clone())
            .run_on(&image, cell.machine_config())
            .map_err(|e| ToolFailure::Error(e.to_string()))?;
        finish_observed(observer, outcome.run.steps, outcome.run.cycles)?;
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
}

/// The Sheriff baseline in either mode.
#[derive(Debug, Clone)]
pub struct SheriffTool {
    config: SheriffConfig,
    mode: SheriffMode,
}

impl SheriffTool {
    /// Sheriff with the default cost model in `mode`.
    pub fn new(mode: SheriffMode) -> Self {
        SheriffTool {
            config: SheriffConfig::default(),
            mode,
        }
    }

    /// Sheriff with an explicit cost model.
    pub fn with_config(config: SheriffConfig, mode: SheriffMode) -> Self {
        SheriffTool { config, mode }
    }
}

impl Tool for SheriffTool {
    fn name(&self) -> &str {
        match self.mode {
            SheriffMode::Detect => "sheriff-detect",
            SheriffMode::Protect => "sheriff-protect",
        }
    }

    fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
        let observer = cell.observer();
        let outcome = Sheriff::new(self.config)
            .run_on(spec, &cell.adapted_opts(), self.mode, cell.machine_config())
            .map_err(|e| ToolFailure::Error(e.to_string()))?;
        match outcome.result {
            Ok(run) => {
                // The Sheriff model reports no instruction count.
                finish_observed(observer, 0, run.cycles)?;
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
            Err(failure) => Err(ToolFailure::Unsupported(failure)),
        }
    }
}

/// Machine-readable identity of a tool configuration: the key under which a
/// [`crate::grid::Grid`] caches cells, and a factory for the corresponding
/// [`Tool`] instance. `key()` always equals `build().name()`.
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
    /// LASERDETECT at an explicit Sample-After-Value (the Figure 13 sweep).
    LaserDetectSav(u32),
    /// The VTune profiler model.
    Vtune,
    /// Sheriff-Detect.
    SheriffDetect,
    /// Sheriff-Protect.
    SheriffProtect,
}

impl ToolSpec {
    /// The cell key of this tool on topology `topo` (see [`cell_key`]).
    pub fn key_at(&self, topo: TopologySpec) -> String {
        cell_key(&self.key(), topo)
    }

    /// The stable cell key: identical to the built tool's `name()`.
    pub fn key(&self) -> String {
        match self {
            ToolSpec::Native => "native".to_string(),
            ToolSpec::NativeFixed => "native-fixed".to_string(),
            ToolSpec::Laser => "laser".to_string(),
            ToolSpec::LaserDetect => "laser-detect".to_string(),
            ToolSpec::LaserDetectRaw => "laser-detect-raw".to_string(),
            ToolSpec::LaserDetectSav(sav) => format!("laser-detect-sav{sav}"),
            ToolSpec::Vtune => "vtune".to_string(),
            ToolSpec::SheriffDetect => "sheriff-detect".to_string(),
            ToolSpec::SheriffProtect => "sheriff-protect".to_string(),
        }
    }

    /// Parse a stable cell key back into its spec — the exact inverse of
    /// [`ToolSpec::key`], including the parameterized
    /// `laser-detect-sav{N}` family. Scenario files name tools with these
    /// keys.
    pub fn parse(key: &str) -> Option<ToolSpec> {
        match key {
            "native" => Some(ToolSpec::Native),
            "native-fixed" => Some(ToolSpec::NativeFixed),
            "laser" => Some(ToolSpec::Laser),
            "laser-detect" => Some(ToolSpec::LaserDetect),
            "laser-detect-raw" => Some(ToolSpec::LaserDetectRaw),
            "vtune" => Some(ToolSpec::Vtune),
            "sheriff-detect" => Some(ToolSpec::SheriffDetect),
            "sheriff-protect" => Some(ToolSpec::SheriffProtect),
            _ => {
                let sav = key.strip_prefix("laser-detect-sav")?;
                // Reject non-canonical spellings ("sav007") so parse(key())
                // round-trips exactly and nothing else is accepted.
                let value: u32 = sav.parse().ok()?;
                if value.to_string() != sav {
                    return None;
                }
                Some(ToolSpec::LaserDetectSav(value))
            }
        }
    }

    /// Instantiate the tool this spec describes.
    pub fn build(&self) -> Box<dyn Tool> {
        match self {
            ToolSpec::Native => Box::new(NativeTool),
            ToolSpec::NativeFixed => Box::new(FixedNativeTool),
            ToolSpec::Laser => Box::new(LaserTool::default()),
            ToolSpec::LaserDetect => Box::new(LaserTool::new(LaserConfig::detection_only())),
            ToolSpec::LaserDetectRaw => Box::new(LaserTool::named(
                LaserConfig::detection_only().with_rate_threshold(0.0),
                self.key(),
            )),
            ToolSpec::LaserDetectSav(sav) => Box::new(LaserTool::named(
                LaserConfig::detection_only().with_sav(*sav),
                self.key(),
            )),
            ToolSpec::Vtune => Box::new(VtuneTool::default()),
            ToolSpec::SheriffDetect => Box::new(SheriffTool::new(SheriffMode::Detect)),
            ToolSpec::SheriffProtect => Box::new(SheriffTool::new(SheriffMode::Protect)),
        }
    }
}

/// The default tool panel: native, LASER, VTune and both Sheriff modes —
/// every column of the paper's comparison tables.
pub fn default_tools() -> Vec<Box<dyn Tool>> {
    vec![
        Box::new(NativeTool),
        Box::new(LaserTool::default()),
        Box::new(VtuneTool::default()),
        Box::new(SheriffTool::new(SheriffMode::Detect)),
        Box::new(SheriffTool::new(SheriffMode::Protect)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_core::{CellBudget, PipelineConfig};
    use laser_workloads::find;

    /// Run `tool` on `spec` as the flat inline cell at scale 0.08, with
    /// `budget` and `pipeline` overriding its defaults.
    fn run_cell(
        tool: &dyn Tool,
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
                ..CellConfig::flat(spec.name, tool.name(), &opts)
            },
        )
    }

    fn run(tool: &dyn Tool, spec: &WorkloadSpec) -> Result<ToolRun, ToolFailure> {
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
            ToolSpec::LaserDetectSav(0),
            ToolSpec::LaserDetectSav(97),
            ToolSpec::LaserDetectSav(20011),
            ToolSpec::Vtune,
            ToolSpec::SheriffDetect,
            ToolSpec::SheriffProtect,
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
            "",
            "native@2s",
        ] {
            assert_eq!(ToolSpec::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn tools_are_share_and_send() {
        fn assert_sync_send<T: Send + Sync>() {}
        assert_sync_send::<NativeTool>();
        assert_sync_send::<FixedNativeTool>();
        assert_sync_send::<LaserTool>();
        assert_sync_send::<VtuneTool>();
        assert_sync_send::<SheriffTool>();
        assert_sync_send::<Box<dyn Tool>>();
    }

    #[test]
    fn native_runs_and_reports_nothing() {
        let spec = find("swaptions").unwrap();
        let run = run(&NativeTool, &spec).unwrap();
        assert!(run.cycles > 0);
        assert!(run.reported.is_empty());
        assert!(!run.repair_invoked);
        assert_eq!(run.driver_overhead_cycles, 0);
    }

    #[test]
    fn fixed_native_beats_buggy_native_where_a_fix_exists() {
        let spec = find("linear_regression").unwrap();
        assert!(spec.has_fix);
        let buggy = run(&NativeTool, &spec).unwrap();
        let fixed = run(&FixedNativeTool, &spec).unwrap();
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
        let native = run(&NativeTool, &spec).unwrap();
        let laser = run(&LaserTool::new(LaserConfig::detection_only()), &spec).unwrap();
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
        let out = run(&SheriffTool::new(SheriffMode::Detect), &spec);
        assert_eq!(
            out,
            Err(ToolFailure::Unsupported(SheriffFailure::Incompatible))
        );
    }

    #[test]
    fn tool_names_are_distinct() {
        let tools = default_tools();
        let mut names: Vec<&str> = tools.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tools.len());
    }

    #[test]
    fn tool_spec_keys_match_built_tool_names() {
        let specs = [
            ToolSpec::Native,
            ToolSpec::NativeFixed,
            ToolSpec::Laser,
            ToolSpec::LaserDetect,
            ToolSpec::LaserDetectRaw,
            ToolSpec::LaserDetectSav(7),
            ToolSpec::Vtune,
            ToolSpec::SheriffDetect,
            ToolSpec::SheriffProtect,
        ];
        for spec in specs {
            assert_eq!(spec.key(), spec.build().name(), "{spec:?}");
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
            &LaserTool::new(LaserConfig::detection_only()),
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
        let piped = |tool: &dyn Tool| {
            run_cell(
                tool,
                &spec,
                CellBudget::default(),
                PipelineConfig::pipelined(),
            )
            .unwrap()
        };
        let laser = LaserTool::new(LaserConfig::detection_only());
        let inline = run(&laser, &spec).unwrap();
        assert_eq!(inline, piped(&laser));

        // The trait-object path the campaign runner uses agrees too.
        assert_eq!(piped(ToolSpec::LaserDetect.build().as_ref()), inline);

        // Tools without a detector stage accept (and ignore) the deployment.
        assert_eq!(piped(&NativeTool), run(&NativeTool, &spec).unwrap());
    }

    #[test]
    fn native_tool_is_marked_over_budget_after_completion() {
        let spec = find("swaptions").unwrap();
        let budgeted = |steps| {
            run_cell(
                &NativeTool,
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
            run(&NativeTool, &spec).unwrap(),
            budgeted(u64::MAX).unwrap()
        );
    }
}
