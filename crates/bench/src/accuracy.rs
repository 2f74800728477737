//! Detection-accuracy experiments: Table 1, Table 2 and Figure 9.
//!
//! Like the performance figures, each table is a *planner* over a [`Grid`]
//! plus a *view* over the cached [`GridResult`] — the accuracy experiments
//! share their `laser-detect` and `sheriff-detect` cells with each other (and
//! the campaign's native cells with every overhead figure) instead of
//! re-simulating them.

use std::fmt::Write as _;

use laser_baselines::SheriffFailure;
use laser_core::ContentionKind;
use laser_workloads::{BugKind, WorkloadSpec};
use serde::json::Value;

use crate::emit::{sheriff_cell, sheriff_mark, sheriff_status, Column, Emit, Prec, View};
use crate::grid::{ExperimentError, Grid, GridResult};
use crate::runner::{score_locations, score_reported};
use crate::tool::ToolSpec;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Workload name.
    pub name: &'static str,
    /// Number of known performance bugs.
    pub bugs: usize,
    /// LASER false negatives / false positives.
    pub laser: (usize, usize),
    /// VTune false negatives / false positives.
    pub vtune: (usize, usize),
    /// Sheriff-Detect result: FN/FP, or the failure that prevented the run.
    pub sheriff: Result<(usize, usize), SheriffFailure>,
}

/// Table 1: detection accuracy of LASER, VTune and Sheriff-Detect.
#[derive(Debug, Clone, Default)]
pub struct Table1Report {
    /// Per-workload rows.
    pub rows: Vec<Table1Row>,
}

impl Table1Report {
    /// Sum of (bugs, LASER FN, LASER FP, VTune FN, VTune FP, Sheriff FN,
    /// Sheriff FP) across all rows.
    pub fn totals(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0, 0, 0);
        for r in &self.rows {
            t.0 += r.bugs;
            t.1 += r.laser.0;
            t.2 += r.laser.1;
            t.3 += r.vtune.0;
            t.4 += r.vtune.1;
            if let Ok((f, p)) = r.sheriff {
                t.5 += f;
                t.6 += p;
            } else {
                // A tool that cannot run the workload misses all of its bugs.
                t.5 += r.bugs;
            }
        }
        t
    }
}

const TABLE1_COLUMNS: &[Column] = &[
    Column::left("workload", "benchmark", 20),
    Column::right("bugs", "bugs", 4),
    Column::right("laser_fn", "laserFN", 8),
    Column::right("laser_fp", "laserFP", 8),
    Column::right("vtune_fn", "vtuneFN", 8),
    Column::right("vtune_fp", "vtuneFP", 8),
    Column::data("sheriff_fn"),
    Column::data("sheriff_fp"),
    Column::data("sheriff_status"),
];

impl Emit for Table1Report {
    fn view(&self) -> View {
        View::new("table1", "Table 1:", TABLE1_COLUMNS, &self.rows, |r| {
            let sheriff = r.sheriff.ok();
            vec![
                r.name.into(),
                r.bugs.into(),
                r.laser.0.into(),
                r.laser.1.into(),
                r.vtune.0.into(),
                r.vtune.1.into(),
                sheriff.map(|s| s.0).into(),
                sheriff.map(|s| s.1).into(),
                sheriff_status(&r.sheriff).into(),
            ]
        })
    }

    /// The paper's table: tools grouped by `|`, Sheriff's FN/FP in one cell,
    /// and a TOTAL row.
    fn render(&self) -> String {
        type Pair = (usize, usize);
        let line =
            |out: &mut String, name: &str, bugs: usize, (lfn, lfp): Pair, (vfn, vfp): Pair| {
                let _ = write!(
                    out,
                    "         {name:<20} {bugs:>4} | {lfn:>8} {lfp:>8} | {vfn:>8} {vfp:>8} | "
                );
            };
        let mut out = format!(
            "Table 1: {:<20} {:>4} | {:>8} {:>8} | {:>8} {:>8} | {:>16}\n",
            "benchmark", "bugs", "laserFN", "laserFP", "vtuneFN", "vtuneFP", "sheriffDet FN/FP"
        );
        for r in &self.rows {
            line(&mut out, r.name, r.bugs, r.laser, r.vtune);
            let _ = match r.sheriff {
                Ok((f, p)) => writeln!(out, "{:>16}", format!("{f}/{p}")),
                Err(f) => writeln!(out, "{:>16}", sheriff_mark(f)),
            };
        }
        let t = self.totals();
        line(&mut out, "TOTAL", t.0, (t.1, t.2), (t.3, t.4));
        let _ = writeln!(out, "{:>13}/{}", t.5, t.6);
        out
    }

    /// Each tool's FN/FP as a nested pair, then the totals under the CSV's
    /// keys.
    fn to_json(&self) -> Value {
        let pair = |(fneg, fpos): (usize, usize)| {
            Value::object()
                .set("false_negatives", fneg)
                .set("false_positives", fpos)
        };
        let rows = self.rows.iter().map(|r| {
            Value::object()
                .set("workload", r.name)
                .set("bugs", r.bugs)
                .set("laser", pair(r.laser))
                .set("vtune", pair(r.vtune))
                .set("sheriff_detect", r.sheriff.map_or(Value::Null, pair))
                .set("sheriff_detect_status", sheriff_status(&r.sheriff))
        });
        let t = self.totals();
        let totals = TABLE1_COLUMNS[1..8]
            .iter()
            .zip([t.0, t.1, t.2, t.3, t.4, t.5, t.6])
            .fold(Value::object(), |v, (c, n)| v.set(c.key, n));
        Value::object()
            .set("kind", "table1")
            .set("rows", Value::Array(rows.collect()))
            .set("totals", totals)
    }
}

fn sheriff_score(spec: &WorkloadSpec, reported_lines: usize) -> (usize, usize) {
    // Sheriff reports falsely-shared objects (allocation sites). A false-
    // sharing bug counts as found when Sheriff reported at least one object;
    // true-sharing bugs are outside its scope. Reports beyond the number of
    // false-sharing bugs count as false positives.
    let fs_bugs = spec
        .known_bugs
        .iter()
        .filter(|b| b.kind == BugKind::FalseSharing)
        .count();
    let ts_bugs = spec.known_bugs.len() - fs_bugs;
    let found = fs_bugs.min(if reported_lines > 0 { fs_bugs } else { 0 });
    let false_negatives = (fs_bugs - found) + ts_bugs;
    let false_positives = reported_lines.saturating_sub(found);
    (false_negatives, false_positives)
}

/// Plan the cells Table 1 needs.
pub fn plan_table1(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        grid.request(&spec, ToolSpec::LaserDetect);
        grid.request(&spec, ToolSpec::Vtune);
        grid.request(&spec, ToolSpec::SheriffDetect);
    }
}

/// Derive Table 1 from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn table1_from_grid(grid: &GridResult) -> Result<Table1Report, ExperimentError> {
    let mut rows = Vec::new();
    for spec in grid.scale().workloads() {
        let laser = score_reported(
            &spec,
            &grid.tool_run(spec.name, ToolSpec::LaserDetect)?.reported,
        );
        let vtune = score_reported(&spec, &grid.tool_run(spec.name, ToolSpec::Vtune)?.reported);
        let sheriff = grid
            .sheriff_run(spec.name, ToolSpec::SheriffDetect)?
            .map(|run| sheriff_score(&spec, run.reported.len()));
        rows.push(Table1Row {
            name: spec.name,
            bugs: spec.known_bugs.len(),
            laser,
            vtune,
            sheriff,
        });
    }
    Ok(Table1Report { rows })
}

/// One row of Table 2: the contention type of a known bug versus what the
/// tools reported.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub name: &'static str,
    /// The bug's actual contention type.
    pub actual: BugKind,
    /// What LASERDETECT reported for the bug's location (None if unreported).
    pub laser: Option<ContentionKind>,
    /// Whether Sheriff-Detect reported the bug (it can only ever say "false
    /// sharing"), or why it could not run.
    pub sheriff: Result<bool, SheriffFailure>,
}

/// Table 2: contention-type identification for the buggy workloads.
#[derive(Debug, Clone, Default)]
pub struct Table2Report {
    /// Per-workload rows.
    pub rows: Vec<Table2Row>,
}

impl Table2Report {
    /// Number of rows where LASER reported the correct type.
    pub fn laser_correct(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                matches!(
                    (r.actual, r.laser),
                    (BugKind::FalseSharing, Some(ContentionKind::FalseSharing))
                        | (BugKind::TrueSharing, Some(ContentionKind::TrueSharing))
                )
            })
            .count()
    }
}

/// Table 2's kinds: JSON spells them in full, the text and CSV tables as the
/// paper does.
const TABLE2_COLUMNS: &[Column] = &[
    Column::left("workload", "benchmark", 20),
    Column::json_only("actual"),
    Column::right("actual", "contention", 10).json(Prec::Omit),
    Column::json_only("laser"),
    Column::right("laser", "LaserDetect", 16).json(Prec::Omit),
    Column::json_only("sheriff_found"),
    Column::json_only("sheriff_status"),
    Column::right("sheriff", "Sheriff-Detect", 16).json(Prec::Omit),
];

/// A contention kind in full and as the paper's table spells it.
fn kind_names(kind: ContentionKind) -> (&'static str, &'static str) {
    match kind {
        ContentionKind::FalseSharing => ("false-sharing", "FS"),
        ContentionKind::TrueSharing => ("true-sharing", "TS"),
        ContentionKind::Unknown => ("unknown", "unknown"),
    }
}

impl Emit for Table2Report {
    fn view(&self) -> View {
        View::new("table2", "Table 2:", TABLE2_COLUMNS, &self.rows, |r| {
            let actual = kind_names(match r.actual {
                BugKind::FalseSharing => ContentionKind::FalseSharing,
                BugKind::TrueSharing => ContentionKind::TrueSharing,
            });
            let laser = r.laser.map(kind_names);
            vec![
                r.name.into(),
                actual.0.into(),
                actual.1.into(),
                laser.map(|l| l.0).into(),
                laser.map(|l| l.1).into(),
                r.sheriff.ok().into(),
                sheriff_status(&r.sheriff).into(),
                sheriff_cell(r.sheriff.map(|found| found.then_some("FS"))),
            ]
        })
    }

    /// The table, then how many bugs LASER classified correctly.
    fn render(&self) -> String {
        format!(
            "{}         LASER correct for {} of {} bugs\n",
            self.view().text(),
            self.laser_correct(),
            self.rows.len()
        )
    }

    /// The rows, then how many bugs LASER classified correctly.
    fn to_json(&self) -> Value {
        self.view()
            .json()
            .set("laser_correct", self.laser_correct())
    }
}

/// Plan the cells Table 2 needs.
pub fn plan_table2(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        if !spec.has_bugs() {
            continue;
        }
        grid.request(&spec, ToolSpec::LaserDetect);
        grid.request(&spec, ToolSpec::SheriffDetect);
    }
}

/// Derive Table 2 from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn table2_from_grid(grid: &GridResult) -> Result<Table2Report, ExperimentError> {
    let mut rows = Vec::new();
    for spec in grid.scale().workloads() {
        if !spec.has_bugs() {
            continue;
        }
        let bug = &spec.known_bugs[0];
        // The report line for the bug with the most records determines the
        // reported type.
        let laser = grid
            .tool_run(spec.name, ToolSpec::LaserDetect)?
            .reported
            .iter()
            .filter(|l| {
                l.location()
                    .is_some_and(|(f, line)| spec.is_known_bug_location(f, line))
            })
            .max_by_key(|l| l.hitm_records)
            .and_then(|l| l.kind);
        let sheriff = grid
            .sheriff_run(spec.name, ToolSpec::SheriffDetect)?
            .map(|run| !run.reported.is_empty());
        rows.push(Table2Row {
            name: spec.name,
            actual: bug.kind,
            laser,
            sheriff,
        });
    }
    Ok(Table2Report { rows })
}

/// One point of Figure 9: total false negatives and false positives across
/// the suite at one rate threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Point {
    /// Rate threshold in HITM records per second.
    pub threshold: f64,
    /// Total false negatives across all workloads.
    pub false_negatives: usize,
    /// Total false positives across all workloads.
    pub false_positives: usize,
}

/// Figure 9: sensitivity of LASER's accuracy to the rate threshold.
#[derive(Debug, Clone, Default)]
pub struct Fig9Report {
    /// One point per threshold.
    pub points: Vec<Fig9Point>,
}

const FIG9_COLUMNS: &[Column] = &[
    Column::right("threshold_hitm_per_sec", "HITM/s", 12)
        .text(Prec::Fixed(0))
        .csv(Prec::Fixed(0)),
    Column::right("false_negatives", "FN", 8),
    Column::right("false_positives", "FP", 8),
];

impl Emit for Fig9Report {
    fn view(&self) -> View {
        let row = |p: &Fig9Point| {
            vec![
                p.threshold.into(),
                p.false_negatives.into(),
                p.false_positives.into(),
            ]
        };
        View {
            rows_key: "points",
            ..View::new("fig9", "Figure 9:", FIG9_COLUMNS, &self.points, row)
        }
    }
}

/// Plan the cells the Figure 9 threshold sweep needs: one unfiltered
/// (`laser-detect-raw`) detection run per workload; every candidate threshold
/// is applied offline to the cached report, just as the paper's detector
/// allows.
pub fn plan_fig9(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        grid.request(&spec, ToolSpec::LaserDetectRaw);
    }
}

/// Derive Figure 9 from cached cells by applying each threshold offline.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn fig9_from_grid(
    grid: &GridResult,
    thresholds: &[f64],
) -> Result<Fig9Report, ExperimentError> {
    let mut reports = Vec::new();
    for spec in grid.scale().workloads() {
        let run = grid.tool_run(spec.name, ToolSpec::LaserDetectRaw)?;
        reports.push((spec, run.reported.clone()));
    }
    let mut points = Vec::new();
    for &threshold in thresholds {
        let mut false_negatives = 0;
        let mut false_positives = 0;
        for (spec, reported) in &reports {
            let kept: Vec<(String, u32)> = reported
                .iter()
                .filter(|l| l.rate_per_sec >= threshold)
                .filter_map(|l| l.location().map(|(f, line)| (f.to_string(), line)))
                .collect();
            let (fneg, fpos) = score_locations(spec, &kept);
            false_negatives += fneg;
            false_positives += fpos;
        }
        points.push(Fig9Point {
            threshold,
            false_negatives,
            false_positives,
        });
    }
    Ok(Fig9Report { points })
}

/// The thresholds of the paper's Figure 9 (32 HITM/s to 64K HITM/s, log scale).
pub fn fig9_thresholds() -> Vec<f64> {
    (5..=16).map(|p| (1u64 << p) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::single_figure;
    use crate::runner::ExperimentScale;

    fn tiny() -> ExperimentScale {
        // 0.10 is the smallest scale at which enough HITM records survive
        // sampling + imprecision for the type classification to be stable.
        ExperimentScale {
            workload_scale: 0.10,
            only: Some(vec![
                "histogram'",
                "kmeans",
                "swaptions",
                "linear_regression",
            ]),
        }
    }

    #[test]
    fn table1_finds_bugs_with_no_false_negatives_on_subset() {
        let report = single_figure(tiny(), plan_table1, table1_from_grid).unwrap();
        assert_eq!(report.rows.len(), 4);
        let totals = report.totals();
        assert_eq!(
            totals.1,
            0,
            "LASER should miss no bugs: {}",
            report.render()
        );
        // VTune reports at least as many false positives as LASER.
        assert!(totals.4 >= totals.2, "{}", report.render());
    }

    #[test]
    fn table2_reports_types_for_buggy_workloads() {
        let report = single_figure(tiny(), plan_table2, table2_from_grid).unwrap();
        assert_eq!(report.rows.len(), 3); // histogram', kmeans, linear_regression
        let hist = report.rows.iter().find(|r| r.name == "histogram'").unwrap();
        assert_eq!(
            hist.laser,
            Some(ContentionKind::FalseSharing),
            "{}",
            report.render()
        );
        assert!(!report.render().is_empty());
    }

    #[test]
    fn fig9_higher_thresholds_trade_fp_for_fn() {
        let report = single_figure(tiny(), plan_fig9, |grid| {
            fig9_from_grid(grid, &[1.0, 1_000.0, 10_000_000.0])
        })
        .unwrap();
        assert_eq!(report.points.len(), 3);
        let loosest = report.points[0];
        let strictest = report.points[2];
        assert!(loosest.false_positives >= strictest.false_positives);
        assert!(strictest.false_negatives >= loosest.false_negatives);
        // An absurdly high threshold filters everything => every bug missed.
        assert!(strictest.false_negatives >= 3);
        assert_eq!(strictest.false_positives, 0);
    }

    #[test]
    fn fig9_threshold_grid_matches_paper_range() {
        let t = fig9_thresholds();
        assert_eq!(t.first().copied(), Some(32.0));
        assert_eq!(t.last().copied(), Some(65536.0));
    }

    #[test]
    fn accuracy_tables_share_detection_cells_in_one_grid() {
        let mut grid = Grid::new(tiny());
        plan_table1(&mut grid);
        plan_table2(&mut grid);
        // Table 2's laser-detect/sheriff-detect cells are a subset of
        // Table 1's: the union costs exactly Table 1's 3 cells per workload.
        assert_eq!(grid.cells(), 3 * 4);
        let result = grid.run();
        assert_eq!(table1_from_grid(&result).unwrap().rows.len(), 4);
        assert_eq!(table2_from_grid(&result).unwrap().rows.len(), 3);
    }
}
