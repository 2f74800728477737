//! Shared plumbing for the experiments: workload selection, tool invocation
//! and scoring against the known-bug database.

use laser_core::{ContentionReport, Laser, LaserConfig, LaserError, LaserOutcome};
use laser_machine::{RunResult, WorkloadImage};
use laser_workloads::{find, registry, BuildOptions, WorkloadSpec};

use crate::config::CellConfig;

/// How large an experiment to run, and on which workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Input-scale multiplier applied to every workload.
    pub workload_scale: f64,
    /// The one workload filter every planner selects through
    /// ([`ExperimentScale::workloads`]): `experiments --only` fills it. `None`
    /// means the full suite; order and repeats do not matter.
    pub only: Option<Vec<&'static str>>,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            workload_scale: 0.4,
            only: None,
        }
    }
}

impl ExperimentScale {
    /// Build options for a workload at this scale.
    pub fn options(&self) -> BuildOptions {
        BuildOptions {
            scale: self.workload_scale,
            ..Default::default()
        }
    }

    /// The workloads selected by this scale, in registry order.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        registry()
            .into_iter()
            .filter(|s| {
                self.only
                    .as_ref()
                    .is_none_or(|names| names.contains(&s.name))
            })
            .collect()
    }
}

/// The registry workload called `name`: the one name check behind
/// `experiments --only` and every workload a scenario names, so a typo is
/// refused up front, before anything simulates, with the same words either
/// way.
///
/// # Errors
/// Names the unknown workload. Names are case-sensitive, and the
/// alternative-input histogram carries an apostrophe.
pub fn find_workload(name: &str) -> Result<WorkloadSpec, String> {
    find(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (names are case-sensitive; the alternative-input \
             histogram is \"histogram'\")"
        )
    })
}

/// Incidental heap-layout shift caused by running a workload under a tool
/// (driver + detector resident in the process environment). Only `lu_ncb` is
/// sensitive to it, reproducing the paper's "coincidental change in memory
/// layout caused by LASER" observation.
pub const TOOL_LAYOUT_PERTURBATION: u64 = 32;

/// Build a workload image the way it is laid out when running *under a tool*
/// (LASER or VTune). Only `lu_ncb` is sensitive to the incidental allocator
/// shift the tool environment causes (Section 7.4.2 of the paper); applying it
/// elsewhere would perturb layouts the paper reports as unchanged.
pub fn build_under_tool(spec: &WorkloadSpec, opts: &BuildOptions) -> WorkloadImage {
    if spec.name == "lu_ncb" {
        let opts = BuildOptions {
            layout_perturbation: TOOL_LAYOUT_PERTURBATION,
            ..opts.clone()
        };
        spec.build(&opts)
    } else {
        spec.build(opts)
    }
}

/// Run a workload natively (no tool attached) as `cell` deploys it: build
/// options adapted to the cell's topology, machine on its topology and core
/// count.
///
/// # Errors
/// Propagates simulator errors (step-budget exhaustion).
pub fn run_native(spec: &WorkloadSpec, cell: &CellConfig) -> Result<RunResult, LaserError> {
    Laser::run_native_on(&spec.build(&cell.adapted_opts()), cell.machine_config())
}

/// Run a workload under LASER as `cell` deploys it: its machine, its
/// pipeline deployment (which changes only the wall-clock: the outcome is
/// byte-identical to an inline run) and its step budget.
///
/// The machine configuration is passed explicitly, so it wins over
/// `config.topology` — except on the flat preset, whose default machine never
/// clobbers a topology the caller put in their own config.
///
/// # Errors
/// Propagates simulator errors, and [`LaserError::Stopped`] when the run
/// went past the cell's budget.
pub fn run_laser(
    spec: &WorkloadSpec,
    cell: &CellConfig,
    config: LaserConfig,
) -> Result<LaserOutcome, LaserError> {
    Laser::builder()
        .config(config)
        .machine(cell.machine_config())
        .pipeline_config(cell.pipeline)
        .budget(cell.budget)
        .build(&build_under_tool(spec, &cell.adapted_opts()))
        .run()
}

/// False negatives and false positives of a report, scored against the
/// workload's known-bug database exactly as the paper's Table 1 does: a bug is
/// *found* if any reported line matches one of its locations; every reported
/// line that matches no bug is a false positive.
pub fn score_report(spec: &WorkloadSpec, report: &ContentionReport) -> (usize, usize) {
    score_locations(
        spec,
        &report
            .lines
            .iter()
            .map(|l| (l.location.file.clone(), l.location.line))
            .collect::<Vec<_>>(),
    )
}

/// Score the reported lines of a cached campaign cell against the known-bug
/// database. Only lines that attribute to source locations participate;
/// Sheriff's allocation-site reports are scored separately (see
/// `crate::accuracy`).
pub fn score_reported(
    spec: &WorkloadSpec,
    reported: &[crate::tool::ReportedLine],
) -> (usize, usize) {
    score_locations(
        spec,
        &reported
            .iter()
            .filter_map(|l| l.location().map(|(f, line)| (f.to_string(), line)))
            .collect::<Vec<_>>(),
    )
}

/// Score an arbitrary list of reported `(file, line)` locations against the
/// known-bug database.
pub fn score_locations(spec: &WorkloadSpec, reported: &[(String, u32)]) -> (usize, usize) {
    let false_negatives = spec
        .known_bugs
        .iter()
        .filter(|bug| !reported.iter().any(|(f, l)| bug.matches(f, *l)))
        .count();
    let false_positives = reported
        .iter()
        .filter(|(f, l)| !spec.known_bugs.iter().any(|bug| bug.matches(f, *l)))
        .count();
    (false_negatives, false_positives)
}

/// Geometric mean of a slice of ratios (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_workloads::find;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scoring_counts_fn_and_fp() {
        let spec = find("linear_regression").unwrap();
        // Nothing reported: one false negative, no false positives.
        assert_eq!(score_locations(&spec, &[]), (1, 0));
        // The bug line plus a stray line: bug found, one false positive.
        let reported = vec![
            ("linear_regression.c".to_string(), 45),
            ("other.c".to_string(), 3),
        ];
        assert_eq!(score_locations(&spec, &reported), (0, 1));
    }

    #[test]
    fn laser_and_native_runners_work_end_to_end() {
        let spec = find("swaptions").unwrap();
        let opts = BuildOptions::scaled(0.05);
        let flat = CellConfig::flat(spec.name, "laser-detect", &opts);
        let native = run_native(&spec, &flat).unwrap();
        let laser = run_laser(&spec, &flat, LaserConfig::detection_only()).unwrap();
        assert!(native.cycles > 0);
        assert!(laser.run.cycles >= native.cycles);
    }
}
