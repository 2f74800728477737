//! The one planner: every cell set a run holds is requested on a [`Grid`],
//! which runs each unique cell **exactly once** on the parallel campaign
//! executor ([`crate::campaign`]) and lets every figure derive its rows from
//! the cached results.
//!
//! The figure planners (`plan_fig10`, `plan_table1`, …, in
//! [`crate::performance`] and [`crate::accuracy`]), the whole-grid
//! [`plan_campaign`](crate::campaign::plan_campaign) of `experiments
//! campaign`, and a scenario's cells and sweeps
//! ([`Scenario::grid`](crate::scenario::Scenario::grid)) all register
//! requests through [`Grid::request`] / [`Grid::request_at`]. Requests
//! deduplicate in a sorted set, and one campaign computes the union in
//! parallel. Figures are pure views: `fig10_from_grid` and friends read
//! cells out of the [`GridResult`] and never simulate anything.
//!
//! Cell order (and therefore aggregation order) is the sorted request set, so
//! a grid's rendered output is byte-identical for any thread count and any
//! planning order.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use laser_baselines::SheriffFailure;
use laser_core::{CellBudget, PipelineConfig, TopologySpec};
use laser_workloads::WorkloadSpec;

use crate::cache::CellCache;
use crate::campaign::{Campaign, CampaignProgress, CampaignResult, CellResult};
use crate::config::CampaignConfig;
use crate::runner::ExperimentScale;
use crate::tool::{ToolFailure, ToolRun, ToolSpec};

/// Why an experiment could not be derived from a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A required cell ran but failed.
    Cell {
        /// Workload name.
        workload: String,
        /// Tool key.
        tool: String,
        /// What went wrong.
        failure: ToolFailure,
    },
    /// A required cell was never planned into the grid (a planner bug).
    MissingCell {
        /// Workload name.
        workload: String,
        /// Tool key.
        tool: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Cell {
                workload,
                tool,
                failure,
            } => write!(f, "cell {workload} × {tool} failed: {failure}"),
            ExperimentError::MissingCell { workload, tool } => {
                write!(f, "cell {workload} × {tool} was not planned into the grid")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// A planned set of `(workload, tool, topology)` cells, ready to run as one
/// campaign.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The workload subset planners select from (`ExperimentScale::only`).
    only: Option<&'static [&'static str]>,
    config: CampaignConfig,
    requests: BTreeSet<(String, ToolSpec, TopologySpec)>,
    specs: BTreeMap<String, WorkloadSpec>,
}

impl Grid {
    /// An empty grid at `scale`, defaulting to one worker per available core
    /// and the flat (single-socket) topology.
    pub fn new(scale: ExperimentScale) -> Self {
        let mut grid = Grid::with_config(CampaignConfig {
            opts: scale.options(),
            ..CampaignConfig::default()
        });
        grid.only = scale.only;
        grid
    }

    /// An empty grid over the full suite under `config`: planners select
    /// workloads at `config.opts.scale` and [`Grid::request`] plans cells on
    /// `config.topology`.
    pub fn with_config(config: CampaignConfig) -> Self {
        Grid {
            only: None,
            config,
            requests: BTreeSet::new(),
            specs: BTreeMap::new(),
        }
    }

    /// Set the worker-thread count.
    ///
    /// # Panics
    /// Panics if `threads` is 0: `threads` must be at least 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        let threads = NonZeroUsize::new(threads);
        assert!(threads.is_some(), "`threads` must be at least 1");
        self.config.threads = threads;
        self
    }

    /// Bound every cell with `budget` ([`CampaignConfig::budget`]): a cell
    /// that trips it is recorded as [`ToolFailure::BudgetExceeded`], and a
    /// figure whose cells trip the budget derives to an
    /// [`ExperimentError::Cell`] instead of silently using partial data.
    pub fn with_cell_budget(mut self, budget: CellBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Deploy every LASER cell's session with `pipeline`
    /// ([`CampaignConfig::pipeline`]). The cached cells — and every figure
    /// derived from them — are byte-identical to an un-pipelined grid.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Run every cell planned through [`Grid::request`] on `topology`
    /// (default: flat). Explicit [`Grid::request_at`] cells — e.g. the
    /// cross-socket sweep, which plans the same workloads at several
    /// topologies — are unaffected. Every figure planner routes through
    /// `request`, so `experiments --topology 2s` shifts the whole grid with
    /// this one knob.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.config.topology = topology;
        self
    }

    /// Consult `cache` before simulating any cell and write finished cells
    /// back ([`CampaignConfig::cache`]). Hits return byte-for-byte what a
    /// fresh simulation would have produced, so figures derived from a
    /// cached grid are byte-identical to a cold one.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> Self {
        self.config.cache = Some(cache);
        self
    }

    /// The scale experiments will be planned and derived at.
    pub fn scale(&self) -> ExperimentScale {
        ExperimentScale {
            workload_scale: self.config.opts.scale,
            only: self.only,
        }
    }

    /// Everything the grid applies to every cell.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The topology [`Grid::request`] plans cells on.
    pub fn topology(&self) -> TopologySpec {
        self.config.topology
    }

    /// Request one cell. Requests deduplicate: planning ten figures that all
    /// need `(histogram', native)` still runs that cell once. Taking the
    /// [`WorkloadSpec`] itself (obtained from `laser_workloads::registry()` /
    /// `find`) means an unknown workload name cannot be planned at all — the
    /// typo surfaces where the spec is looked up, not as a late failure here.
    pub fn request(&mut self, workload: &WorkloadSpec, tool: ToolSpec) {
        self.request_at(workload, tool, self.config.topology);
    }

    /// Request one cell on an explicit topology, regardless of the grid's
    /// default. The cross-socket sweep uses this to plan the same workloads
    /// at every preset into one grid.
    pub fn request_at(&mut self, workload: &WorkloadSpec, tool: ToolSpec, topology: TopologySpec) {
        self.specs
            .entry(workload.name.to_string())
            .or_insert_with(|| workload.clone());
        self.requests
            .insert((workload.name.to_string(), tool, topology));
    }

    /// Number of unique cells planned so far.
    pub fn cells(&self) -> usize {
        self.requests.len()
    }

    /// The unique `(workload, tool, topology)` cells planned so far, in grid
    /// order.
    pub(crate) fn requests(&self) -> &BTreeSet<(String, ToolSpec, TopologySpec)> {
        &self.requests
    }

    /// Run every planned cell once, in parallel, and index the results.
    pub fn run(self) -> GridResult {
        self.run_with_progress(|_| {})
    }

    /// Like [`Grid::run`], streaming [`CampaignProgress`] notifications to
    /// `progress` as cells start and finish.
    pub fn run_with_progress<F>(self, progress: F) -> GridResult
    where
        F: Fn(CampaignProgress) + Sync,
    {
        let (result, _) = self.campaign().run_counting(progress);
        let scale = self.scale();
        let topology = self.config.topology;
        let index = result
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.workload.clone(), c.tool.clone()), i))
            .collect();
        GridResult {
            scale,
            topology,
            result,
            index,
        }
    }

    /// The campaign that runs this grid: every planned cell, lowered in the
    /// sorted request order, so cells of one workload share their
    /// simulations.
    pub(crate) fn campaign(&self) -> Campaign {
        let requests = self
            .requests
            .iter()
            .map(|(name, tool, topo)| (&self.specs[name], *tool, *topo));
        Campaign::from_requests(requests, self.config.clone())
    }
}

/// The cached cells of a finished grid run: every figure derives from this.
#[derive(Debug, Clone)]
pub struct GridResult {
    scale: ExperimentScale,
    topology: TopologySpec,
    result: CampaignResult,
    index: BTreeMap<(String, String), usize>,
}

impl GridResult {
    /// The scale the grid ran at.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The topology default-planned cells ran on. Figure views look their
    /// cells up here, so a `--topology 2s` grid derives every figure from
    /// the 2-socket cells without the views knowing anything changed.
    pub fn topology(&self) -> TopologySpec {
        self.topology
    }

    /// The underlying campaign result, in grid order.
    pub fn campaign(&self) -> &CampaignResult {
        &self.result
    }

    /// The underlying campaign result, in grid order, without the index.
    pub fn into_campaign(self) -> CampaignResult {
        self.result
    }

    /// The raw cell for `workload` under `tool` on the grid's default
    /// topology, if it was planned.
    pub fn cell(&self, workload: &str, tool: ToolSpec) -> Option<&CellResult> {
        self.cell_at(workload, tool, self.topology)
    }

    /// The raw cell for `workload` under `tool` on an explicit topology.
    pub fn cell_at(
        &self,
        workload: &str,
        tool: ToolSpec,
        topology: TopologySpec,
    ) -> Option<&CellResult> {
        let key = (workload.to_string(), tool.key_at(topology));
        self.index.get(&key).map(|&i| &self.result.cells[i])
    }

    /// The successful run of `workload` under `tool` on the grid's default
    /// topology.
    ///
    /// # Errors
    /// [`ExperimentError::MissingCell`] if the cell was never planned,
    /// [`ExperimentError::Cell`] if it ran but failed (including Sheriff
    /// incompatibility — use [`GridResult::sheriff_run`] where that is an
    /// expected outcome rather than an error).
    pub fn tool_run(&self, workload: &str, tool: ToolSpec) -> Result<&ToolRun, ExperimentError> {
        self.tool_run_at(workload, tool, self.topology)
    }

    /// The successful run of `workload` under `tool` on an explicit
    /// topology.
    ///
    /// # Errors
    /// As for [`GridResult::tool_run`].
    pub fn tool_run_at(
        &self,
        workload: &str,
        tool: ToolSpec,
        topology: TopologySpec,
    ) -> Result<&ToolRun, ExperimentError> {
        let cell =
            self.cell_at(workload, tool, topology)
                .ok_or_else(|| ExperimentError::MissingCell {
                    workload: workload.to_string(),
                    tool: tool.key_at(topology),
                })?;
        cell.outcome.as_ref().map_err(|f| ExperimentError::Cell {
            workload: workload.to_string(),
            tool: tool.key_at(topology),
            failure: f.clone(),
        })
    }

    /// The run of `workload` under a Sheriff `tool`, with the compatibility
    /// matrix surfaced as data: `Ok(Err(failure))` is Sheriff declining the
    /// workload (an expected result the tables print as "x"/"i"), while
    /// simulator errors and panics remain [`ExperimentError`]s.
    ///
    /// # Errors
    /// [`ExperimentError::MissingCell`] / [`ExperimentError::Cell`] as for
    /// [`GridResult::tool_run`], except `Unsupported` outcomes.
    pub fn sheriff_run(
        &self,
        workload: &str,
        tool: ToolSpec,
    ) -> Result<Result<&ToolRun, SheriffFailure>, ExperimentError> {
        let cell = self
            .cell(workload, tool)
            .ok_or_else(|| ExperimentError::MissingCell {
                workload: workload.to_string(),
                tool: tool.key(),
            })?;
        match &cell.outcome {
            Ok(run) => Ok(Ok(run)),
            Err(ToolFailure::Unsupported(failure)) => Ok(Err(*failure)),
            Err(f) => Err(ExperimentError::Cell {
                workload: workload.to_string(),
                tool: tool.key(),
                failure: f.clone(),
            }),
        }
    }

    /// Runtime of `workload` under `tool` normalized to the workload's native
    /// cell, both on the grid's default topology.
    ///
    /// # Errors
    /// Propagates missing/failed cells for either endpoint.
    pub fn normalized(&self, workload: &str, tool: ToolSpec) -> Result<f64, ExperimentError> {
        let cycles = self.tool_run(workload, tool)?.cycles;
        let native = self.tool_run(workload, ToolSpec::Native)?.cycles;
        Ok(cycles as f64 / native.max(1) as f64)
    }
}

/// Plan one figure on a grid of its own at `scale`, run it, and derive the
/// figure's view: how the unit tests reach a single planner/view pair.
#[cfg(test)]
pub(crate) fn single_figure<R>(
    scale: ExperimentScale,
    plan: impl FnOnce(&mut Grid),
    view: impl FnOnce(&GridResult) -> Result<R, ExperimentError>,
) -> Result<R, ExperimentError> {
    let mut grid = Grid::new(scale);
    plan(&mut grid);
    view(&grid.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::Emit;
    use laser_workloads::find;

    fn spec(name: &str) -> WorkloadSpec {
        find(name).expect("known workload")
    }

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            workload_scale: 0.06,
            only: Some(&["histogram'", "swaptions"]),
        }
    }

    #[test]
    #[should_panic(expected = "`threads` must be at least 1")]
    fn a_grid_on_zero_threads_is_refused() {
        let _ = Grid::new(tiny_scale()).with_threads(0);
    }

    #[test]
    fn requests_deduplicate_and_run_once() {
        let mut grid = Grid::new(tiny_scale()).with_threads(2);
        for _ in 0..3 {
            grid.request(&spec("histogram'"), ToolSpec::Native);
            grid.request(&spec("histogram'"), ToolSpec::LaserDetect);
        }
        grid.request(&spec("swaptions"), ToolSpec::Native);
        assert_eq!(grid.cells(), 3);
        let result = grid.run();
        assert_eq!(result.campaign().cells.len(), 3);
        assert!(result.tool_run("histogram'", ToolSpec::Native).is_ok());
        assert!(result.tool_run("histogram'", ToolSpec::LaserDetect).is_ok());
        let norm = result
            .normalized("histogram'", ToolSpec::LaserDetect)
            .unwrap();
        assert!(norm >= 1.0, "{norm}");
    }

    #[test]
    fn missing_cells_are_reported_not_panicked() {
        let mut grid = Grid::new(tiny_scale());
        grid.request(&spec("swaptions"), ToolSpec::Native);
        let result = grid.run();
        assert_eq!(
            result.tool_run("swaptions", ToolSpec::Vtune),
            Err(ExperimentError::MissingCell {
                workload: "swaptions".to_string(),
                tool: "vtune".to_string(),
            })
        );
    }

    #[test]
    fn sheriff_incompatibility_is_data_not_error() {
        let mut grid = Grid::new(ExperimentScale {
            workload_scale: 0.06,
            only: Some(&["dedup"]),
        });
        grid.request(&spec("dedup"), ToolSpec::SheriffDetect);
        let result = grid.run();
        // dedup is Sheriff-incompatible: sheriff_run surfaces it as data...
        assert_eq!(
            result
                .sheriff_run("dedup", ToolSpec::SheriffDetect)
                .unwrap(),
            Err(SheriffFailure::Incompatible)
        );
        // ...while tool_run treats it as a failed cell.
        assert!(matches!(
            result.tool_run("dedup", ToolSpec::SheriffDetect),
            Err(ExperimentError::Cell { .. })
        ));
    }

    /// The paper grid at scale 2, as `experiments all` plans it: 405 cells,
    /// 387 of which run a machine (Sheriff declines 18), from 284
    /// simulations. Figure 3's 160 cases are 160 of each, one simulation a
    /// case; the other 245 cells share 124. A planner or grouping change that
    /// splits a group fails here.
    #[test]
    fn sharing_runs_the_paper_grid_in_284_simulations() {
        let mut grid = Grid::with_config(CampaignConfig {
            opts: laser_workloads::BuildOptions::scaled(2.0),
            threads: NonZeroUsize::new(2),
            ..CampaignConfig::default()
        });
        for figure in crate::FIGURES.iter().filter(|f| f.in_all) {
            (figure.plan)(&mut grid);
        }
        let (result, simulations) = grid.campaign().run_counting(|_| {});
        let unsupported = result
            .cells
            .iter()
            .filter(|c| matches!(c.outcome, Err(ToolFailure::Unsupported(_))))
            .count();
        assert!(result.cells.iter().all(|c| c.status() != "error"));
        assert_eq!(result.cells.len(), 405);
        assert_eq!(result.cells.len() - unsupported, 387, "unshared runs");
        assert_eq!(simulations, 284);
    }

    #[test]
    fn grid_order_is_independent_of_planning_order() {
        let mut a = Grid::new(tiny_scale()).with_threads(1);
        a.request(&spec("swaptions"), ToolSpec::Native);
        a.request(&spec("histogram'"), ToolSpec::LaserDetect);
        a.request(&spec("histogram'"), ToolSpec::Native);
        let mut b = Grid::new(tiny_scale()).with_threads(4);
        b.request(&spec("histogram'"), ToolSpec::Native);
        b.request(&spec("swaptions"), ToolSpec::Native);
        b.request(&spec("histogram'"), ToolSpec::LaserDetect);
        let (ra, rb) = (a.run(), b.run());
        assert_eq!(ra.campaign().cells, rb.campaign().cells);
        assert_eq!(ra.campaign().render(), rb.campaign().render());
    }
}
