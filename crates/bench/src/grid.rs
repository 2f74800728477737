//! The one planner and executor: every cell set a run holds is requested on
//! a [`Grid`], which runs each unique cell **exactly once** across a thread
//! pool and lets every figure derive its rows from the results.
//!
//! The figure planners (`plan_fig10`, `plan_table1`, …, in
//! [`crate::performance`] and [`crate::accuracy`]), the whole-grid
//! [`plan_campaign`](crate::campaign::plan_campaign) of `experiments
//! campaign`, and a scenario's cells and sweeps
//! ([`Scenario::grid`](crate::scenario::Scenario::grid)) all register
//! requests through [`Grid::request`] / [`Grid::request_at`], selecting
//! workloads through the grid's one filter, [`ExperimentScale::only`].
//! Requests deduplicate in a sorted set, and [`Grid::run_with_progress`]
//! computes the union in parallel. Figures are pure views:
//! `fig10_from_grid` and friends read cells out of the [`GridResult`], which
//! finds a cell by its typed request, and never simulate anything.
//!
//! Cell order (and therefore aggregation order) is the sorted request set, so
//! a grid's rendered output is byte-identical for any thread count and any
//! planning order: every cell is an independent, deterministic simulation
//! built from owned `Send` values (see `laser_core::session`), computed by
//! any worker in any order and stored by its index. `threads = 1` is the
//! reference serial execution, `threads = N` is just faster.
//!
//! Cells that can be derived from one simulation run as one pool task: the
//! cells of one workload on one deployment are grouped by
//! `ToolSpec::simulation`. The LASER group (`laser`, `laser-detect`,
//! `laser-detect-raw`, `laser-detect-sav19`) shares one session, the native
//! group (`native` and both Sheriff modes) one native run. A worker takes a
//! whole group, announces and caches its cells one at a time, and drops what
//! they shared when the group is done; every other cell is a group of one
//! (each Figure 3 case among them). The scale-2 paper grid's 405 cells take
//! 284 simulations instead of 387, and every result is the one
//! [`ToolSpec::run`] alone would have produced (the derivations are listed on
//! `SharedRuns` in [`crate::tool`]).
//!
//! Long runs survive misbehaving cells: a panic inside a cell is caught and
//! recorded as [`ToolFailure::Panicked`], and a cell that trips the grid's
//! [`CellBudget`] ([`Grid::with_cell_budget`]) is recorded as
//! [`ToolFailure::BudgetExceeded`] — one grid entry each, not the whole
//! run. Step budgets are deterministic, so budgeted grids keep the
//! byte-identical-across-thread-counts guarantee. Each cell's
//! [`CellConfig`], lowered once from the grid's [`CampaignConfig`], is what
//! the cache lookup, the tool and the cache store all see.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use laser_baselines::SheriffFailure;
use laser_core::{CellBudget, PipelineConfig, TopologySpec};
use laser_workloads::WorkloadSpec;

use crate::cache::CellCache;
use crate::campaign::{CampaignProgress, CampaignResult, CellResult};
use crate::config::{CampaignConfig, CellConfig};
use crate::runner::ExperimentScale;
use crate::tool::{SharedRuns, ToolFailure, ToolRun, ToolSpec};

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

/// A planned set of `(workload, tool, topology)` cells, and the executor
/// that runs them.
#[derive(Debug, Clone)]
pub struct Grid {
    config: CampaignConfig,
    /// Every requested cell, in grid (aggregation) order.
    requests: BTreeSet<Request>,
    specs: BTreeMap<&'static str, WorkloadSpec>,
}

/// One requested cell: `(workload, tool, topology)`.
type Request = (&'static str, ToolSpec, TopologySpec);

impl Grid {
    /// An empty grid at `scale`, defaulting to one worker per available core
    /// and the flat (single-socket) topology.
    pub fn new(scale: ExperimentScale) -> Self {
        Grid::with_config(CampaignConfig {
            opts: scale.options(),
            only: scale.only,
            ..CampaignConfig::default()
        })
    }

    /// An empty grid under `config`: planners select workloads at
    /// `config.opts.scale` from `config.only` and [`Grid::request`] plans
    /// cells on `config.topology`.
    pub fn with_config(config: CampaignConfig) -> Self {
        Grid {
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

    /// The scale and the workload filter experiments are planned and
    /// derived at.
    pub fn scale(&self) -> ExperimentScale {
        ExperimentScale {
            workload_scale: self.config.opts.scale,
            only: self.config.only.clone(),
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
            .entry(workload.name)
            .or_insert_with(|| workload.clone());
        self.requests.insert((workload.name, tool, topology));
    }

    /// Number of unique cells planned so far.
    pub fn cells(&self) -> usize {
        self.requests.len()
    }

    /// The unique `(workload, tool, topology)` cells planned so far, in grid
    /// order.
    pub(crate) fn requests(&self) -> &BTreeSet<Request> {
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
        let (result, _) = self.run_cells(progress, SharedRuns::run);
        GridResult {
            scale: self.scale(),
            topology: self.config.topology,
            requests: self.requests.into_iter().collect(),
            result,
        }
    }

    /// The requested cells grouped by the simulation they share, each group
    /// listed with the cell that may attach repair first (its session can
    /// serve the group's detection cells), then in grid order; groups are in
    /// the grid order of their first cell.
    fn groups(cells: &[&Request]) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_simulation: BTreeMap<(&str, ToolSpec, TopologySpec), usize> = BTreeMap::new();
        for (i, &&(workload, tool, topology)) in cells.iter().enumerate() {
            match tool.simulation() {
                Some(simulation) => {
                    let g = *by_simulation
                        .entry((workload, simulation, topology))
                        .or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        });
                    groups[g].push(i);
                }
                None => groups.push(vec![i]),
            }
        }
        for group in &mut groups {
            group.sort_by_key(|&i| cells[i].1 != ToolSpec::Laser);
        }
        groups
    }

    /// Run every cell in grid order, one pool task per group of cells that
    /// share a simulation, streaming [`CampaignProgress`] notifications to
    /// `progress` as cells start and finish; `run` computes each cell the
    /// cache does not answer ([`SharedRuns::run`], or a test's stand-in that
    /// panics). Also return how many simulations the run started.
    /// Notification order depends on scheduling, the aggregation does not.
    fn run_cells<F, R>(&self, progress: F, run: R) -> (CampaignResult, usize)
    where
        F: Fn(CampaignProgress) + Sync,
        R: Fn(
                &mut SharedRuns,
                ToolSpec,
                &WorkloadSpec,
                &CellConfig,
            ) -> Result<ToolRun, ToolFailure>
            + Sync,
    {
        let cells: Vec<&Request> = self.requests.iter().collect();
        let total = cells.len();
        let done = AtomicUsize::new(0);
        let simulations = AtomicUsize::new(0);
        let cache = self.config.cache.as_deref();
        let groups = Grid::groups(&cells);
        let finished = ordered_parallel(groups.len(), self.config.worker_threads(), |g| {
            let members = &groups[g];
            let workload = &self.specs[cells[members[0]].0];
            let mut shared = SharedRuns::new(workload, members.iter().map(|&i| cells[i].1));
            let results: Vec<(usize, CellResult)> = members
                .iter()
                .map(|&i| {
                    let (_, spec, topo) = *cells[i];
                    let key = spec.key();
                    progress(CampaignProgress::Started {
                        index: i,
                        total,
                        workload: workload.name,
                        tool: &key,
                    });
                    let config: CellConfig = self.config.cell(workload.name, &key, topo);
                    let (cell, cached) = match cache.and_then(|c| c.load(&config)) {
                        Some(cell) => (cell, true),
                        None => {
                            // A panicking cell must cost one cell, not the
                            // grid: the pool would otherwise resume the
                            // panic and end the whole run. A shared
                            // simulation that panics stays unrun, so the
                            // next cell that needs it panics on its own.
                            let compute = || run(&mut shared, spec, workload, &config);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|payload| {
                                    Err(ToolFailure::Panicked {
                                        message: panic_message(payload.as_ref()),
                                    })
                                });
                            let cell = CellResult {
                                workload: workload.name.to_string(),
                                tool: config.cell_key(),
                                outcome,
                            };
                            if let Some(cache) = cache {
                                cache.store(&config, &cell);
                            }
                            (cell, false)
                        }
                    };
                    progress(CampaignProgress::Finished {
                        done: done.fetch_add(1, Ordering::Relaxed) + 1,
                        total,
                        cell: &cell,
                        cached,
                    });
                    (i, cell)
                })
                .collect();
            simulations.fetch_add(shared.simulations(), Ordering::Relaxed);
            results
        });
        // Every cell index is in exactly one group: sorted, the pairs are the
        // grid.
        let mut cells: Vec<(usize, CellResult)> = finished.into_iter().flatten().collect();
        cells.sort_unstable_by_key(|&(i, _)| i);
        let cells = cells.into_iter().map(|(_, cell)| cell).collect();
        (CampaignResult { cells }, simulations.into_inner())
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministically-ordered parallel map: compute `f(0..n)` on up to
/// `threads` workers off a shared atomic counter and return the results in
/// index order. This is the pool under every grid, and the only one: every
/// simulated figure, Figure 3 included, runs as grid cells. A panic in `f`
/// resumes on the calling thread once every worker has stopped.
fn ordered_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, n.max(1));
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Work stealing off a shared counter: each worker claims
                    // the next unclaimed index until the range is drained.
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// The cached cells of a finished grid run: every figure derives from this.
#[derive(Debug, Clone)]
pub struct GridResult {
    scale: ExperimentScale,
    topology: TopologySpec,
    /// The requests in grid order: `result.cells[i]` answers `requests[i]`.
    requests: Vec<Request>,
    result: CampaignResult,
}

impl GridResult {
    /// The scale and workload filter the grid ran at.
    pub fn scale(&self) -> &ExperimentScale {
        &self.scale
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

    /// The underlying campaign result, in grid order, without the requests.
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
        let i = self
            .requests
            .binary_search_by(|&(w, t, topo)| (w, t, topo).cmp(&(workload, tool, topology)))
            .ok()?;
        Some(&self.result.cells[i])
    }

    /// The planned cell for `workload` under `tool` on `topology`.
    fn planned(
        &self,
        workload: &str,
        tool: ToolSpec,
        topology: TopologySpec,
    ) -> Result<&CellResult, ExperimentError> {
        self.cell_at(workload, tool, topology)
            .ok_or_else(|| ExperimentError::MissingCell {
                workload: workload.to_string(),
                tool: tool.key_at(topology),
            })
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
        let cell = self.planned(workload, tool, topology)?;
        cell.outcome.as_ref().map_err(|f| ExperimentError::Cell {
            workload: workload.to_string(),
            tool: cell.tool.clone(),
            failure: f.clone(),
        })
    }

    /// The run of `workload` under a Sheriff `tool` on the grid's default
    /// topology, with the compatibility matrix surfaced as data:
    /// `Ok(Err(failure))` is Sheriff declining the workload (an expected
    /// result the tables print as "x"/"i"), while simulator errors and
    /// panics remain [`ExperimentError`]s.
    ///
    /// # Errors
    /// [`ExperimentError::MissingCell`] / [`ExperimentError::Cell`] as for
    /// [`GridResult::tool_run`], except `Unsupported` outcomes.
    pub fn sheriff_run(
        &self,
        workload: &str,
        tool: ToolSpec,
    ) -> Result<Result<&ToolRun, SheriffFailure>, ExperimentError> {
        let cell = self.planned(workload, tool, self.topology)?;
        match &cell.outcome {
            Ok(run) => Ok(Ok(run)),
            Err(ToolFailure::Unsupported(failure)) => Ok(Err(*failure)),
            Err(f) => Err(ExperimentError::Cell {
                workload: workload.to_string(),
                tool: cell.tool.clone(),
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
            only: Some(vec!["histogram'", "swaptions"]),
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
            only: Some(vec!["dedup"]),
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
        let (result, simulations) = grid.run_cells(|_| {}, SharedRuns::run);
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

    #[test]
    fn a_panicking_cell_does_not_destroy_the_campaign() {
        let mut grid = Grid::new(ExperimentScale {
            workload_scale: 0.06,
            only: None,
        })
        .with_threads(2);
        for workload in ["histogram'", "swaptions", "kmeans"] {
            grid.request(&spec(workload), ToolSpec::Native);
        }
        // A `&str` payload on swaptions and a `String` one on kmeans, so
        // both arms of `panic_message` are taken.
        let (result, _) = grid.run_cells(
            |_| {},
            |shared, spec, workload, cell| match workload.name {
                "swaptions" => panic!("deliberate test panic"),
                "kmeans" => panic!("deliberate test panic on {}", workload.name),
                _ => shared.run(spec, workload, cell),
            },
        );
        assert_eq!(result.cells.len(), 3);
        for (workload, message) in [
            ("swaptions", "deliberate test panic"),
            ("kmeans", "deliberate test panic on kmeans"),
        ] {
            let bad = result.cell(workload, "native").unwrap();
            assert_eq!(
                bad.outcome,
                Err(ToolFailure::Panicked {
                    message: message.to_string()
                })
            );
            assert_eq!(bad.status(), "panicked");
        }
        // The other cell completed normally.
        let fine = result.cell("histogram'", "native").unwrap();
        assert!(fine.outcome.is_ok());
        assert_eq!(
            Some(fine),
            grid.run().into_campaign().cell("histogram'", "native")
        );
    }

    #[test]
    fn ordered_parallel_preserves_index_order() {
        let calls = AtomicUsize::new(0);
        let out = ordered_parallel(100, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(ordered_parallel(0, 4, |i| i), Vec::<usize>::new());
    }
}
