//! The whole `workload × tool` grid of `experiments campaign` and the
//! results every grid run returns.
//!
//! The paper's evaluation is one grid: 35 workloads under up to 5 tools.
//! [`plan_campaign`] requests all of it on a [`Grid`], which runs it (see
//! [`crate::grid`] for the executor: thread pool, shared simulations, cache,
//! panic isolation and budgets). A run returns a [`CampaignResult`], one
//! [`CellResult`] per cell in grid order, which renders as the campaign
//! table. Callers that want incremental feedback pass a progress sink to
//! [`Grid::run_with_progress`]; cells are announced as they start and
//! complete ([`CampaignProgress`]), while the aggregated result stays
//! deterministic.

use serde::json::Value;

use crate::emit::{Column, Emit, Prec, View};
use crate::grid::Grid;
use crate::tool::{ToolFailure, ToolRun, DEFAULT_PANEL};

/// One `workload × tool` cell of a finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Workload name.
    pub workload: String,
    /// Tool name.
    pub tool: String,
    /// What the tool produced, or why it could not run.
    pub outcome: Result<ToolRun, ToolFailure>,
}

impl CellResult {
    /// One-word status for progress displays and machine-readable output.
    pub fn status(&self) -> &'static str {
        match &self.outcome {
            Ok(_) => "ok",
            Err(ToolFailure::Unsupported(_)) => "unsupported",
            Err(ToolFailure::Error(_)) => "error",
            Err(ToolFailure::Panicked { .. }) => "panicked",
            Err(ToolFailure::BudgetExceeded { .. }) => "budget-exceeded",
        }
    }
}

/// One progress notification from an in-flight campaign, as delivered to the
/// sink passed to [`Grid::run_with_progress`].
///
/// Notification order depends on scheduling — that is the point: the sink
/// streams what is happening while the run is hot — but the aggregated
/// [`CampaignResult`] never does.
#[derive(Debug, Clone, Copy)]
pub enum CampaignProgress<'a> {
    /// A worker claimed a cell and is about to run it.
    Started {
        /// Index of the cell in grid (aggregation) order.
        index: usize,
        /// Total cells in the campaign.
        total: usize,
        /// Workload name.
        workload: &'a str,
        /// Tool name.
        tool: &'a str,
    },
    /// A cell finished (successfully or not).
    Finished {
        /// Cells finished so far, including this one.
        done: usize,
        /// Total cells in the campaign.
        total: usize,
        /// The completed cell, including its outcome.
        cell: &'a CellResult,
        /// Whether the cell was answered from the campaign's
        /// [`CellCache`](crate::cache::CellCache) instead of being
        /// simulated. Always `false` without a cache.
        cached: bool,
    },
}

/// Plan the whole `workload × tool` grid of `experiments campaign`: every
/// workload the grid selects ([`ExperimentScale::only`](crate::ExperimentScale::only),
/// the full registry by default) under the default tool panel — native,
/// LASER, VTune and both Sheriff modes — on the grid's topology. The grid's
/// sorted order is registry order, workload-major, with the tools in panel
/// order.
pub fn plan_campaign(grid: &mut Grid) {
    for workload in grid.scale().workloads() {
        for tool in DEFAULT_PANEL {
            grid.request(&workload, tool);
        }
    }
}

/// The aggregated results of a campaign, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// One entry per cell, in the campaign's grid order.
    pub cells: Vec<CellResult>,
}

impl CampaignResult {
    /// The cell for a given workload/tool pair, if present.
    pub fn cell(&self, workload: &str, tool: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.tool == tool)
    }

    /// Runtime of `workload` under `tool` normalized to its native run on
    /// the *same topology* (a `laser@2s` cell normalizes against
    /// `native@2s`); `None` unless both cells completed and the campaign
    /// included the native tool there.
    pub fn normalized(&self, workload: &str, tool: &str) -> Option<f64> {
        let tool_cycles = self.cell(workload, tool)?.outcome.as_ref().ok()?.cycles;
        let native_key = match tool.rsplit_once('@') {
            Some((_, topo)) => format!("native@{topo}"),
            None => "native".to_string(),
        };
        let native_cycles = self
            .cell(workload, &native_key)?
            .outcome
            .as_ref()
            .ok()?
            .cycles;
        Some(tool_cycles as f64 / native_cycles.max(1) as f64)
    }
}

const CAMPAIGN_COLUMNS: &[Column] = &[
    Column::left("workload", "workload", 20),
    Column::left("tool", "tool", 16),
    Column::data("status"),
    Column::right("cycles", "cycles", 14),
    Column::right("normalized", "norm", 8).text(Prec::Fixed(3)),
    Column::right("repair_invoked", "repair", 7),
    Column::data("reported"),
    Column::data("failure"),
    // The text table shows a failed cell's message where the lines go.
    Column::free_text("reported", "reported"),
];

impl Emit for CampaignResult {
    /// The whole grid, one row per cell in grid order.
    fn view(&self) -> View {
        let row = |c: &CellResult| {
            let mut row = vec![
                c.workload.as_str().into(),
                c.tool.as_str().into(),
                c.status().into(),
            ];
            row.extend(match &c.outcome {
                Ok(run) => {
                    let reported: Vec<Value> =
                        run.reported_labels().into_iter().map(Value::from).collect();
                    [
                        run.cycles.into(),
                        self.normalized(&c.workload, &c.tool).into(),
                        run.repair_invoked.into(),
                        reported.clone().into(),
                        Value::Null,
                        reported.into(),
                    ]
                }
                Err(failure) => [
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Vec::new().into(),
                    failure.to_string().into(),
                    failure.to_string().into(),
                ],
            });
            row
        };
        View {
            rows_key: "cells",
            ..View::new("campaign", "Campaign:", CAMPAIGN_COLUMNS, &self.cells, row)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::runner::find_workload;
    use crate::tool::ToolSpec;
    use laser_core::{CellBudget, PipelineConfig};
    use laser_workloads::{find, BuildOptions};
    use std::num::NonZeroUsize;
    use std::sync::Mutex;

    /// Native and LASERDETECT on `histogram'` and `swaptions` at scale 0.08
    /// on `threads` workers, `deploy` applied to the config.
    fn small_campaign(threads: usize, deploy: impl FnOnce(&mut CampaignConfig)) -> Grid {
        let mut config = CampaignConfig {
            opts: BuildOptions::scaled(0.08),
            threads: NonZeroUsize::new(threads),
            ..CampaignConfig::default()
        };
        deploy(&mut config);
        let mut grid = Grid::with_config(config);
        for workload in ["histogram'", "swaptions"] {
            for tool in [ToolSpec::Native, ToolSpec::LaserDetect] {
                grid.request(&find(workload).unwrap(), tool);
            }
        }
        grid
    }

    /// The whole campaign grid, restricted to `only` as `--only` restricts
    /// it, planned on an empty grid.
    fn plan_only(only: &[&str]) -> Result<Grid, String> {
        let mut config = CampaignConfig::default();
        config.set_only(only.iter().copied())?;
        let mut grid = Grid::with_config(config);
        plan_campaign(&mut grid);
        Ok(grid)
    }

    #[test]
    fn only_order_and_repeats_do_not_change_the_plan() {
        let requests = |only: &[&str]| plan_only(only).unwrap().requests().clone();
        assert_eq!(
            requests(&["swaptions", "histogram'", "swaptions"]),
            requests(&["histogram'", "swaptions"])
        );
        assert_eq!(requests(&["histogram'", "swaptions"]).len(), 10);
    }

    #[test]
    fn grid_is_workload_major_and_complete() {
        let result = small_campaign(2, |_| {}).run().into_campaign();
        assert_eq!(result.cells.len(), 4);
        assert_eq!(
            result
                .cells
                .iter()
                .map(|c| (c.workload.as_str(), c.tool.as_str()))
                .collect::<Vec<_>>(),
            vec![
                ("histogram'", "native"),
                ("histogram'", "laser-detect"),
                ("swaptions", "native"),
                ("swaptions", "laser-detect"),
            ]
        );
        assert!(result.cells.iter().all(|c| c.outcome.is_ok()));
    }

    #[test]
    fn normalized_overhead_is_sane() {
        let result = small_campaign(4, |_| {}).run().into_campaign();
        let norm = result.normalized("histogram'", "laser-detect").unwrap();
        assert!(
            norm >= 1.0,
            "tool run cannot beat native without repair: {norm}"
        );
        assert!(result.normalized("histogram'", "native").unwrap() == 1.0);
        assert!(result.normalized("histogram'", "no-such-tool").is_none());
    }

    #[test]
    fn thread_count_caps_do_not_drop_cells() {
        // More workers than cells must still fill the grid exactly once each.
        let result = small_campaign(64, |_| {}).run().into_campaign();
        assert_eq!(result.cells.len(), 4);
        assert!(result.cells.iter().all(|c| c.outcome.is_ok()));
    }

    #[test]
    fn unknown_workload_names_are_an_error() {
        let err = match plan_only(&["histogram'", "histogramm"]) {
            Err(e) => e,
            Ok(_) => panic!("typo'd workload name must not be silently dropped"),
        };
        assert_eq!(err, find_workload("histogramm").unwrap_err());
        assert!(err.to_string().contains("histogramm"));
    }

    #[test]
    fn progress_announces_every_cell_start_and_finish() {
        let grid = small_campaign(3, |_| {});
        let starts = Mutex::new(Vec::new());
        let finishes = Mutex::new(Vec::new());
        let result = grid.run_with_progress(|p| match p {
            CampaignProgress::Started {
                index,
                total,
                workload,
                tool,
            } => {
                starts
                    .lock()
                    .unwrap()
                    .push((index, total, workload.to_string(), tool.to_string()))
            }
            CampaignProgress::Finished {
                done, total, cell, ..
            } => finishes.lock().unwrap().push((
                done,
                total,
                cell.workload.clone(),
                cell.tool.clone(),
            )),
        });
        let result = result.campaign();
        let mut starts = starts.into_inner().unwrap();
        let mut finishes = finishes.into_inner().unwrap();
        let n = result.cells.len();
        assert_eq!(starts.len(), n);
        assert_eq!(finishes.len(), n);
        assert!(starts.iter().all(|(_, total, _, _)| *total == n));
        // Every cell index is started exactly once...
        starts.sort();
        assert_eq!(
            starts.iter().map(|(i, _, _, _)| *i).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>()
        );
        // ...and every completion count 1..=n is announced exactly once.
        finishes.sort();
        assert_eq!(
            finishes.iter().map(|(d, _, _, _)| *d).collect::<Vec<_>>(),
            (1..=n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn step_budget_marks_over_budget_cells_without_disturbing_the_rest() {
        // A budget that every cell blows through: each cell fails on its own,
        // the grid shape survives.
        let result = small_campaign(2, |c| c.budget = CellBudget::steps(10))
            .run()
            .into_campaign();
        assert_eq!(result.cells.len(), 4);
        for cell in &result.cells {
            assert_eq!(cell.status(), "budget-exceeded", "{cell:?}");
            assert!(matches!(
                &cell.outcome,
                Err(ToolFailure::BudgetExceeded { .. })
            ));
        }
        // An unlimited budget behaves exactly like no budget.
        let unlimited = small_campaign(2, |c| c.budget = CellBudget::default())
            .run()
            .into_campaign();
        assert_eq!(
            unlimited.cells,
            small_campaign(2, |_| {}).run().into_campaign().cells
        );
    }

    #[test]
    fn validate_workload_names_rejects_the_first_unknown_name() {
        let planned = |names: &[&str]| plan_only(names).map(|grid| grid.cells());
        assert_eq!(planned(&["histogram'", "swaptions"]), Ok(10));
        assert_eq!(planned(&[]), Ok(0));
        // `histogram` and `histogram'` are *both* real workloads (the
        // Phoenix original and its alternative-input variant) — neither is a
        // typo of the other, and both must validate.
        assert_eq!(planned(&["histogram", "histogram'"]), Ok(10));
        assert_eq!(
            planned(&["histogram'", "histogramm", "bogus"]),
            Err(find_workload("histogramm").unwrap_err()),
            "the first unknown name is the one reported"
        );
        assert_eq!(
            planned(&[""]),
            Err(find_workload("").unwrap_err()),
            "empty entries from a stray comma are unknown, not ignored"
        );
    }

    #[test]
    fn pipelined_campaign_is_byte_identical_to_inline() {
        let inline = small_campaign(2, |_| {}).run().into_campaign();
        let piped = small_campaign(2, |c| c.pipeline = PipelineConfig::pipelined())
            .run()
            .into_campaign();
        assert_eq!(inline.cells, piped.cells);
        assert_eq!(inline.render(), piped.render());
    }

    #[test]
    fn budgeted_campaigns_stay_deterministic_across_thread_counts() {
        let budget = CellBudget::steps(200_000);
        let serial = small_campaign(1, |c| c.budget = budget)
            .run()
            .into_campaign();
        let parallel = small_campaign(8, |c| c.budget = budget)
            .run()
            .into_campaign();
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.render(), parallel.render());
    }
}
