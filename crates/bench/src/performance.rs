//! Performance experiments: Figures 10, 11, 12, 13 and 14.
//!
//! Each figure is split into a *planner* (`plan_fig10`, …) that registers the
//! `(workload, tool)` cells it needs on a [`Grid`], and a *view*
//! (`fig10_from_grid`, …) that derives the figure's rows from the cached
//! [`GridResult`] without simulating anything. The `experiments` binary plans
//! every selected figure into **one** grid so shared cells run once.

use laser_baselines::SheriffFailure;
use laser_workloads::SheriffCompat;

use crate::emit::{sheriff_cell, sheriff_status, Column, Emit, Prec, View};
use crate::grid::{ExperimentError, Grid, GridResult};
use crate::runner::geomean;
use crate::tool::ToolSpec;

/// One bar pair of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Workload name.
    pub name: &'static str,
    /// LASER runtime normalized to native.
    pub laser: f64,
    /// VTune runtime normalized to native.
    pub vtune: f64,
}

/// Figure 10: runtime overhead of LASER and VTune.
#[derive(Debug, Clone, Default)]
pub struct Fig10Report {
    /// Per-workload normalized runtimes.
    pub rows: Vec<Fig10Row>,
}

impl Fig10Report {
    /// Geometric-mean normalized runtimes of (LASER, VTune).
    pub fn geomeans(&self) -> (f64, f64) {
        (
            geomean(&self.rows.iter().map(|r| r.laser).collect::<Vec<_>>()),
            geomean(&self.rows.iter().map(|r| r.vtune).collect::<Vec<_>>()),
        )
    }
}

const FIG10_COLUMNS: &[Column] = &[
    Column::left("workload", "benchmark", 20),
    Column::right("laser", "LASER", 10).text(Prec::Fixed(3)),
    Column::right("vtune", "VTune", 10).text(Prec::Fixed(3)),
];

impl Emit for Fig10Report {
    fn view(&self) -> View {
        let row = |r: &Fig10Row| vec![r.name.into(), r.laser.into(), r.vtune.into()];
        let (laser, vtune) = self.geomeans();
        View {
            footer: Some(vec!["geomean".into(), laser.into(), vtune.into()]),
            ..View::new("fig10", "Figure 10:", FIG10_COLUMNS, &self.rows, row)
        }
    }
}

/// Plan the cells Figure 10 needs.
pub fn plan_fig10(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        grid.request(&spec, ToolSpec::Native);
        grid.request(&spec, ToolSpec::Laser);
        grid.request(&spec, ToolSpec::Vtune);
    }
}

/// Derive Figure 10 from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn fig10_from_grid(grid: &GridResult) -> Result<Fig10Report, ExperimentError> {
    let mut rows = Vec::new();
    for spec in grid.scale().workloads() {
        rows.push(Fig10Row {
            name: spec.name,
            laser: grid.normalized(spec.name, ToolSpec::Laser)?,
            vtune: grid.normalized(spec.name, ToolSpec::Vtune)?,
        });
    }
    Ok(Fig10Report { rows })
}

/// One bar of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Workload name.
    pub name: &'static str,
    /// Speedup from LASERREPAIR's online repair (native / LASER runtime), if
    /// repair triggered.
    pub automatic: Option<f64>,
    /// Speedup from the manual fix guided by LASERDETECT's report, if a fixed
    /// variant exists.
    pub manual: Option<f64>,
}

/// Figure 11: speedups from automatic repair and manual fixes.
#[derive(Debug, Clone, Default)]
pub struct Fig11Report {
    /// Per-workload speedups.
    pub rows: Vec<Fig11Row>,
}

const FIG11_COLUMNS: &[Column] = &[
    Column::left("workload", "benchmark", 20),
    Column::right("automatic", "automatic", 12).text(Prec::Times(2)),
    Column::right("manual", "manual", 10).text(Prec::Times(2)),
];

impl Emit for Fig11Report {
    fn view(&self) -> View {
        View::new("fig11", "Figure 11:", FIG11_COLUMNS, &self.rows, |r| {
            vec![r.name.into(), r.automatic.into(), r.manual.into()]
        })
    }
}

/// The workloads the paper's Figure 11 shows.
pub const FIG11_WORKLOADS: &[&str] = &[
    "histogram'",
    "linear_regression",
    "dedup",
    "kmeans",
    "lu_ncb",
    "reverse_index",
];

/// Plan the cells Figure 11 needs.
pub fn plan_fig11(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        if !FIG11_WORKLOADS.contains(&spec.name) {
            continue;
        }
        grid.request(&spec, ToolSpec::Native);
        grid.request(&spec, ToolSpec::Laser);
        if spec.has_fix {
            grid.request(&spec, ToolSpec::NativeFixed);
        }
    }
}

/// Derive Figure 11 from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn fig11_from_grid(grid: &GridResult) -> Result<Fig11Report, ExperimentError> {
    let mut rows = Vec::new();
    for spec in grid.scale().workloads() {
        if !FIG11_WORKLOADS.contains(&spec.name) {
            continue;
        }
        let native = grid.tool_run(spec.name, ToolSpec::Native)?.cycles;
        let laser = grid.tool_run(spec.name, ToolSpec::Laser)?;
        let automatic = laser
            .repair_invoked
            .then(|| native as f64 / laser.cycles.max(1) as f64);
        let manual = if spec.has_fix {
            let fixed = grid.tool_run(spec.name, ToolSpec::NativeFixed)?.cycles;
            Some(native as f64 / fixed.max(1) as f64)
        } else {
            None
        };
        rows.push(Fig11Row {
            name: spec.name,
            automatic,
            manual,
        });
    }
    Ok(Fig11Report { rows })
}

/// One bar of Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Workload name.
    pub name: &'static str,
    /// LASER runtime normalized to native.
    pub slowdown: f64,
    /// Fraction of application time spent in the driver.
    pub driver_fraction: f64,
    /// Fraction of application time spent in the detector.
    pub detector_fraction: f64,
}

/// Figure 12: where LASER's overhead goes for the workloads with ≥ 10 %
/// overhead.
#[derive(Debug, Clone, Default)]
pub struct Fig12Report {
    /// Rows for the qualifying workloads.
    pub rows: Vec<Fig12Row>,
}

const FIG12_COLUMNS: &[Column] = &[
    Column::left("workload", "benchmark", 20),
    Column::right("slowdown", "slowdown", 10).text(Prec::Times(2)),
    Column::right("driver_fraction", "driver%", 10).text(Prec::Percent(2)),
    Column::right("detector_fraction", "detector%", 12).text(Prec::Percent(2)),
];

impl Emit for Fig12Report {
    fn view(&self) -> View {
        View::new("fig12", "Figure 12:", FIG12_COLUMNS, &self.rows, |r| {
            vec![
                r.name.into(),
                r.slowdown.into(),
                r.driver_fraction.into(),
                r.detector_fraction.into(),
            ]
        })
    }
}

/// The LASERDETECT overhead below which a workload is left out of Figure 12
/// (the paper's 10 %).
pub const FIG12_MIN_OVERHEAD: f64 = 0.10;

/// Plan the cells Figure 12 needs.
pub fn plan_fig12(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        grid.request(&spec, ToolSpec::Native);
        grid.request(&spec, ToolSpec::LaserDetect);
    }
}

/// Derive Figure 12 from cached cells. `min_overhead` selects which workloads
/// appear (the paper uses [`FIG12_MIN_OVERHEAD`]).
///
/// # Errors
/// Propagates missing or failed cells.
pub fn fig12_from_grid(
    grid: &GridResult,
    min_overhead: f64,
) -> Result<Fig12Report, ExperimentError> {
    let mut rows = Vec::new();
    for spec in grid.scale().workloads() {
        let slowdown = grid.normalized(spec.name, ToolSpec::LaserDetect)?;
        if slowdown < 1.0 + min_overhead {
            continue;
        }
        let laser = grid.tool_run(spec.name, ToolSpec::LaserDetect)?;
        let total = laser.cycles.max(1) as f64;
        rows.push(Fig12Row {
            name: spec.name,
            slowdown,
            driver_fraction: laser.driver_overhead_cycles as f64 / total,
            detector_fraction: laser.detector_cycles as f64 / total,
        });
    }
    Ok(Fig12Report { rows })
}

/// One point of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Point {
    /// Sample-after value.
    pub sav: u32,
    /// dedup runtime under LASER normalized to native.
    pub normalized_runtime: f64,
}

/// Figure 13: dedup's normalized runtime as a function of the SAV.
#[derive(Debug, Clone, Default)]
pub struct Fig13Report {
    /// One point per SAV.
    pub points: Vec<Fig13Point>,
}

const FIG13_COLUMNS: &[Column] = &[
    Column::right("sav", "SAV", 6),
    Column::right("normalized_runtime", "normalized runtime", 20).text(Prec::Fixed(3)),
];

impl Emit for Fig13Report {
    fn view(&self) -> View {
        let row = |p: &Fig13Point| vec![u64::from(p.sav).into(), p.normalized_runtime.into()];
        View {
            rows_key: "points",
            ..View::new("fig13", "Figure 13:", FIG13_COLUMNS, &self.points, row)
        }
    }
}

/// The SAV values of the paper's Figure 13: 1 and every prime up to 31.
pub fn fig13_savs() -> Vec<u32> {
    vec![1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
}

/// The workload Figure 13 sweeps.
pub const FIG13_WORKLOAD: &str = "dedup";

/// Plan the cells the Figure 13 SAV sweep needs.
pub fn plan_fig13(grid: &mut Grid, savs: &[u32]) {
    #[expect(
        clippy::expect_used,
        reason = "a missing built-in workload is a bench-table bug, not a runtime condition"
    )]
    let spec = laser_workloads::find(FIG13_WORKLOAD).expect("dedup exists");
    grid.request(&spec, ToolSpec::Native);
    for &sav in savs {
        grid.request(&spec, ToolSpec::LaserDetectSav(sav));
    }
}

/// Derive Figure 13 from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn fig13_from_grid(grid: &GridResult, savs: &[u32]) -> Result<Fig13Report, ExperimentError> {
    let mut points = Vec::new();
    for &sav in savs {
        points.push(Fig13Point {
            sav,
            normalized_runtime: grid.normalized(FIG13_WORKLOAD, ToolSpec::LaserDetectSav(sav))?,
        });
    }
    Ok(Fig13Report { points })
}

/// One group of bars of Figure 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Workload name.
    pub name: &'static str,
    /// LASER normalized runtime.
    pub laser: f64,
    /// Manually fixed binary's normalized runtime, if a fix exists.
    pub manual_fix: Option<f64>,
    /// Sheriff-Detect normalized runtime, or why it did not run.
    pub sheriff_detect: Result<f64, SheriffFailure>,
    /// Sheriff-Protect normalized runtime, or why it did not run.
    pub sheriff_protect: Result<f64, SheriffFailure>,
}

/// Figure 14: LASER versus Sheriff on the Sheriff-compatible workloads.
#[derive(Debug, Clone, Default)]
pub struct Fig14Report {
    /// Per-workload rows.
    pub rows: Vec<Fig14Row>,
}

/// A Sheriff run is `null` plus a status in JSON, its failure's mark in the
/// text and CSV tables.
const FIG14_COLUMNS: &[Column] = &[
    Column::left("workload", "benchmark", 20),
    Column::right("laser", "LASER", 8).text(Prec::Fixed(2)),
    Column::right("manual_fix", "manualfix", 10).text(Prec::Fixed(2)),
    Column::json_only("sheriff_detect"),
    Column::json_only("sheriff_detect_status"),
    Column::right("sheriff_detect", "SheriffDet", 12)
        .text(Prec::Fixed(2))
        .json(Prec::Omit),
    Column::json_only("sheriff_protect"),
    Column::json_only("sheriff_protect_status"),
    Column::right("sheriff_protect", "SheriffProt", 12)
        .text(Prec::Fixed(2))
        .json(Prec::Omit),
];

impl Emit for Fig14Report {
    fn view(&self) -> View {
        View::new("fig14", "Figure 14:", FIG14_COLUMNS, &self.rows, |r| {
            let mut row = vec![r.name.into(), r.laser.into(), r.manual_fix.into()];
            for sheriff in [r.sheriff_detect, r.sheriff_protect] {
                row.push(sheriff.ok().into());
                row.push(sheriff_status(&sheriff).into());
                row.push(sheriff_cell(sheriff));
            }
            row
        })
    }
}

/// Plan the cells Figure 14 needs.
pub fn plan_fig14(grid: &mut Grid) {
    for spec in grid.scale().workloads() {
        if spec.sheriff != SheriffCompat::Works {
            continue;
        }
        grid.request(&spec, ToolSpec::Native);
        grid.request(&spec, ToolSpec::Laser);
        grid.request(&spec, ToolSpec::SheriffDetect);
        grid.request(&spec, ToolSpec::SheriffProtect);
        if spec.has_fix {
            grid.request(&spec, ToolSpec::NativeFixed);
        }
    }
}

/// Derive Figure 14 from cached cells.
///
/// # Errors
/// Propagates missing or failed cells.
pub fn fig14_from_grid(grid: &GridResult) -> Result<Fig14Report, ExperimentError> {
    let mut rows = Vec::new();
    for spec in grid.scale().workloads() {
        if spec.sheriff != SheriffCompat::Works {
            continue;
        }
        let native = grid.tool_run(spec.name, ToolSpec::Native)?.cycles;
        let norm = |cycles: u64| cycles as f64 / native.max(1) as f64;
        let manual_fix = if spec.has_fix {
            Some(norm(
                grid.tool_run(spec.name, ToolSpec::NativeFixed)?.cycles,
            ))
        } else {
            None
        };
        let detect = grid
            .sheriff_run(spec.name, ToolSpec::SheriffDetect)?
            .map(|run| norm(run.cycles));
        let protect = grid
            .sheriff_run(spec.name, ToolSpec::SheriffProtect)?
            .map(|run| norm(run.cycles));
        rows.push(Fig14Row {
            name: spec.name,
            laser: norm(grid.tool_run(spec.name, ToolSpec::Laser)?.cycles),
            manual_fix,
            sheriff_detect: detect,
            sheriff_protect: protect,
        });
    }
    Ok(Fig14Report { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::single_figure;
    use crate::runner::ExperimentScale;

    fn tiny(names: &'static [&'static str]) -> ExperimentScale {
        ExperimentScale {
            workload_scale: 0.06,
            only: Some(names.to_vec()),
        }
    }

    #[test]
    fn fig10_laser_is_cheaper_than_vtune() {
        let scale = tiny(&["swaptions", "histogram'", "kmeans"]);
        let report = single_figure(scale, plan_fig10, fig10_from_grid).unwrap();
        assert_eq!(report.rows.len(), 3);
        let (laser, vtune) = report.geomeans();
        assert!(laser < vtune, "{}", report.render());
        assert!(vtune > 1.1, "{}", report.render());
    }

    #[test]
    fn fig11_reports_automatic_and_manual_speedups() {
        let scale = tiny(&["linear_regression", "histogram'", "reverse_index"]);
        let report = single_figure(scale, plan_fig11, fig11_from_grid).unwrap();
        assert_eq!(report.rows.len(), 3);
        let lreg = report
            .rows
            .iter()
            .find(|r| r.name == "linear_regression")
            .unwrap();
        assert!(lreg.manual.unwrap() > 2.0, "{}", report.render());
        assert!(!report.render().is_empty());
    }

    #[test]
    fn fig13_sav_one_is_slower_than_nineteen() {
        let report = single_figure(
            tiny(&["dedup"]),
            |grid| plan_fig13(grid, &[1, 19]),
            |grid| fig13_from_grid(grid, &[1, 19]),
        )
        .unwrap();
        assert_eq!(report.points.len(), 2);
        assert!(
            report.points[0].normalized_runtime > report.points[1].normalized_runtime,
            "{}",
            report.render()
        );
    }

    #[test]
    fn fig14_covers_only_sheriff_compatible_workloads() {
        let scale = tiny(&["swaptions", "dedup", "water_nsquared"]);
        let report = single_figure(scale, plan_fig14, fig14_from_grid).unwrap();
        // dedup is incompatible with Sheriff and therefore not a Fig 14 row.
        assert!(report.rows.iter().all(|r| r.name != "dedup"));
        assert!(!report.rows.is_empty());
        assert!(!report.render().is_empty());
    }

    #[test]
    fn fig12_selects_high_overhead_workloads_only() {
        let report = single_figure(tiny(&["swaptions", "kmeans"]), plan_fig12, |grid| {
            fig12_from_grid(grid, 0.0)
        })
        .unwrap();
        // With a zero cutoff every selected workload appears.
        assert!(report.rows.len() <= 2);
        for r in &report.rows {
            assert!(r.driver_fraction >= 0.0 && r.driver_fraction <= 1.0);
        }
        assert!(!report.render().is_empty());
    }

    #[test]
    fn shared_grid_serves_multiple_figures_from_one_run() {
        // fig10 and fig12 overlap on every native cell; a shared grid plans
        // the union and both figures derive from the same cached cells.
        let scale = tiny(&["swaptions", "histogram'"]);
        let mut grid = Grid::new(scale.clone());
        plan_fig10(&mut grid);
        plan_fig12(&mut grid);
        // native, laser, vtune, laser-detect per workload = 8 unique cells,
        // not the 10 a serial re-run of both figures would have cost.
        assert_eq!(grid.cells(), 8);
        let result = grid.run();
        let fig10 = fig10_from_grid(&result).unwrap();
        let fig12 = fig12_from_grid(&result, 0.0).unwrap();
        assert_eq!(fig10.rows.len(), 2);
        assert!(fig12.rows.len() <= 2);
        // A single-figure grid derives the same figure.
        let alone = single_figure(scale, plan_fig10, fig10_from_grid).unwrap();
        assert_eq!(fig10.rows, alone.rows);
    }
}
