//! Parallel experiment campaigns: a `workload × tool` grid fanned across a
//! thread pool.
//!
//! A [`Campaign`] is the unit in which the paper's evaluation actually runs:
//! 35 workloads under up to 5 tools. Every cell — one tool on one workload —
//! is an independent, deterministic simulation, and the execution stack is
//! built from owned `Send` values (see `laser_core::session`), so cells can
//! be computed by any worker in any order. Results are stored by cell index
//! and aggregated in grid order, which makes the output **byte-identical**
//! whatever the thread count: `threads = 1` is the reference serial
//! execution, `threads = N` is just faster.
//!
//! Long campaigns survive misbehaving cells: a panic inside a [`Tool`] is
//! caught per cell and recorded as [`ToolFailure::Panicked`], so one bad
//! `(workload, tool)` combination costs one grid entry, not the whole run.
//! A campaign can also bound every cell with a [`CellBudget`]
//! ([`Campaign::with_cell_budget`]): the budget rides each cell's
//! [`CellConfig`] into [`Tool::run`], and a cell that trips it is recorded
//! as [`ToolFailure::BudgetExceeded`] — again one grid entry, not the whole
//! run. Step budgets are deterministic, so budgeted campaigns keep the
//! byte-identical-across-thread-counts guarantee.
//!
//! Everything a campaign applies to every cell lives in one
//! [`CampaignConfig`]; [`Campaign::run_with_progress`] lowers it to one
//! [`CellConfig`] per cell and hands that same value to the cache lookup,
//! the tool and the cache store.
//!
//! Callers that want incremental feedback pass a progress sink to
//! [`Campaign::run_with_progress`]; cells are announced as they start and
//! complete ([`CampaignProgress`]), while the aggregated result stays
//! deterministic.
//!
//! Cells that can be derived from one simulation run as one task. A campaign
//! lowered from [`ToolSpec`] requests groups the cells of one workload on one
//! deployment by `ToolSpec::simulation`: the LASER group (`laser`,
//! `laser-detect`, `laser-detect-raw`, `laser-detect-sav19`) shares one
//! session, the native group (`native` and both Sheriff modes) one native
//! run. A pool worker takes a whole group, announces and caches its cells
//! one at a time, and drops what they shared when the group is done; every
//! other cell, and every caller-supplied [`Tool`], is a group of one. The
//! paper grid's 245 cells take 124 simulations instead of 227, and every
//! result is the one an unshared run would have produced (the derivations
//! are listed on `SharedRuns` in [`crate::tool`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use laser_core::{CellBudget, PipelineConfig, TopologySpec};
use laser_workloads::{registry, BuildOptions, WorkloadSpec};
use serde::json::Value;

use crate::cache::CellCache;
use crate::config::{CampaignConfig, CellConfig};
use crate::emit::{Column, Emit, Prec, View};
use crate::tool::{SharedRuns, Tool, ToolFailure, ToolRun, ToolSpec, DEFAULT_PANEL};
use crate::topofile::CustomTopology;

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
/// sink passed to [`Campaign::run_with_progress`].
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
        /// Whether the cell was answered from the campaign's [`CellCache`]
        /// instead of being simulated. Always `false` without a cache.
        cached: bool,
    },
}

/// A workload name passed to [`Campaign::with_workload_names`] that is not in
/// the campaign's workload set. Surfacing this as an error (instead of
/// silently dropping the name) is what keeps a typo from quietly running an
/// empty or partial grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload(pub String);

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown workload '{}' (names are case-sensitive; the alternative-input histogram \
             is \"histogram'\")",
            self.0
        )
    }
}

impl std::error::Error for UnknownWorkload {}

/// Check every name in `names` against `workloads`, rejecting the first
/// unknown one. This is the validation behind
/// [`Campaign::with_workload_names`], exposed so callers (the `experiments`
/// binary's `--only` list) can fail fast *before* any cell is simulated.
///
/// # Errors
/// Returns [`UnknownWorkload`] for the first name that matches no workload.
pub fn validate_workload_names(
    names: &[&str],
    workloads: &[WorkloadSpec],
) -> Result<(), UnknownWorkload> {
    for name in names {
        if !workloads.iter().any(|w| &w.name == name) {
            return Err(UnknownWorkload((*name).to_string()));
        }
    }
    Ok(())
}

/// A configured experiment campaign.
pub struct Campaign {
    workloads: Vec<WorkloadSpec>,
    /// Every distinct tool, with the spec it was lowered from: `None` for a
    /// caller-supplied tool, whose cells never share a simulation.
    tools: Vec<(Box<dyn Tool>, Option<ToolSpec>)>,
    /// The cells to run, as `(workload index, tool index, topology)` triples
    /// in grid (aggregation) order. A cross-product campaign is
    /// workload-major; a campaign lowered from requests lists exactly the
    /// cells the planned experiments need, which may mix topologies.
    cells: Vec<(usize, usize, TopologySpec)>,
    config: CampaignConfig,
}

impl Default for Campaign {
    /// The full suite under the default tool panel (native, LASER, VTune and
    /// both Sheriff modes), workload-major on the flat topology, one worker
    /// per available core.
    fn default() -> Self {
        let workloads = registry();
        let requests = workloads
            .iter()
            .flat_map(|w| DEFAULT_PANEL.map(|tool| (w, tool, TopologySpec::Flat)));
        Campaign::from_requests(requests, CampaignConfig::default())
    }
}

impl Campaign {
    /// A campaign over the full `workloads × tools` cross product, on the
    /// flat (single-socket) topology, under [`CampaignConfig::default`].
    pub fn new(workloads: Vec<WorkloadSpec>, tools: Vec<Box<dyn Tool>>) -> Self {
        let cells = (0..workloads.len())
            .flat_map(|w| (0..tools.len()).map(move |t| (w, t, TopologySpec::Flat)))
            .collect();
        Campaign {
            workloads,
            tools: tools.into_iter().map(|tool| (tool, None)).collect(),
            cells,
            config: CampaignConfig::default(),
        }
    }

    /// Lower a request list to a campaign under `config`: each
    /// `(workload, tool, topology)` request becomes one cell, in request
    /// order, with every distinct workload and tool instantiated once. This
    /// is how both the [`Grid`](crate::grid::Grid) and the scenario service
    /// run sparse cell sets — cross-socket sweeps next to flat cells — as one
    /// parallel campaign.
    pub fn from_requests<'a>(
        requests: impl IntoIterator<Item = (&'a WorkloadSpec, ToolSpec, TopologySpec)>,
        config: CampaignConfig,
    ) -> Self {
        let mut campaign = Campaign {
            workloads: Vec::new(),
            tools: Vec::new(),
            cells: Vec::new(),
            config,
        };
        let mut workload_index: BTreeMap<&str, usize> = BTreeMap::new();
        let mut tool_index: BTreeMap<ToolSpec, usize> = BTreeMap::new();
        for (workload, tool, topology) in requests {
            let w = *workload_index.entry(workload.name).or_insert_with(|| {
                campaign.workloads.push(workload.clone());
                campaign.workloads.len() - 1
            });
            let t = *tool_index.entry(tool).or_insert_with(|| {
                campaign.tools.push((tool.build(), Some(tool)));
                campaign.tools.len() - 1
            });
            campaign.cells.push((w, t, topology));
        }
        campaign
    }

    /// Replace the whole configuration, deploying every cell on
    /// `config.topology` (see [`Campaign::with_topology`]).
    pub fn with_config(mut self, config: CampaignConfig) -> Self {
        let topology = config.topology;
        self.config = config;
        self.with_topology(topology)
    }

    /// Restrict the campaign to the named workloads, keeping grid order.
    ///
    /// # Errors
    /// Returns [`UnknownWorkload`] for the first name that does not match any
    /// workload of this campaign; nothing is silently dropped.
    pub fn with_workload_names(mut self, names: &[&str]) -> Result<Self, UnknownWorkload> {
        validate_workload_names(names, &self.workloads)?;
        self.cells
            .retain(|&(w, _, _)| names.contains(&self.workloads[w].name));
        Ok(self)
    }

    /// Run every cell on `topology` (default: flat). Cell keys keep their
    /// bare tool names on the flat preset and gain an `@2s` / `@4s` suffix
    /// on the multi-socket ones, so sweeps over several topologies never
    /// collide.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.config.topology = topology;
        for cell in &mut self.cells {
            cell.2 = topology;
        }
        self
    }

    /// Deploy every cell on a bespoke topology instead of its preset
    /// (`--topology-file` / a scenario's `"custom_topology"`). Cell keys
    /// gain an `@layout-name` suffix and the cache fingerprints the full
    /// layout, so custom cells never alias preset ones. The override is
    /// campaign-wide: the per-cell preset axis is ignored while it is set.
    pub fn with_custom_topology(mut self, custom: Arc<CustomTopology>) -> Self {
        self.config.custom_topology = Some(custom);
        self
    }

    /// Set the build options applied to every cell.
    pub fn with_options(mut self, opts: BuildOptions) -> Self {
        self.config.opts = opts;
        self
    }

    /// Set the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads);
        self
    }

    /// Bound every cell with `budget`: a cell that trips it is recorded as
    /// [`ToolFailure::BudgetExceeded`] without disturbing the other cells.
    /// Step budgets keep campaigns deterministic across thread counts;
    /// wall-clock budgets trade that determinism for a hard time bound.
    pub fn with_cell_budget(mut self, budget: CellBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Deploy every LASER cell's session with `pipeline`: the detector moves
    /// to a worker thread so record processing overlaps the simulated
    /// quantum. Cell results — and therefore the whole aggregated campaign —
    /// are byte-identical to an un-pipelined run; only the wall-clock
    /// changes.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Consult `cache` before simulating any cell and write finished cells
    /// back to it. Hits return byte-for-byte what a fresh simulation would
    /// have produced (simulation is deterministic and the fingerprint covers
    /// the full cell config), so a cached campaign's aggregated output is
    /// identical to an uncached one — only faster. Share one `Arc` across
    /// campaigns to reuse results between runs and processes.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> Self {
        self.config.cache = Some(cache);
        self
    }

    /// Number of cells the campaign will run.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Run every cell and aggregate in grid order. The aggregation is
    /// independent of the thread count.
    pub fn run(&self) -> CampaignResult {
        self.run_with_progress(|_| {})
    }

    /// Like [`Campaign::run`], streaming [`CampaignProgress`] notifications
    /// to `progress` as cells start and finish. Notification order depends on
    /// scheduling (that is the point: callers stream progress while the run
    /// is hot), but the returned aggregation does not.
    pub fn run_with_progress<F>(&self, progress: F) -> CampaignResult
    where
        F: Fn(CampaignProgress) + Sync,
    {
        self.run_counting(progress).0
    }

    /// The cells grouped by the simulation they share, each group listed
    /// with the cell that may attach repair first (its session can serve the
    /// group's detection cells), then in grid order; groups are in the grid
    /// order of their first cell.
    fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_simulation: BTreeMap<(usize, TopologySpec, ToolSpec), usize> = BTreeMap::new();
        for (i, &(w, t, topology)) in self.cells.iter().enumerate() {
            match self.tools[t].1.and_then(|spec| spec.simulation()) {
                Some(simulation) => {
                    let g = *by_simulation
                        .entry((w, topology, simulation))
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
            group.sort_by_key(|&i| self.tools[self.cells[i].1].1 != Some(ToolSpec::Laser));
        }
        groups
    }

    /// [`Campaign::run_with_progress`], also returning how many simulations
    /// the run started.
    pub(crate) fn run_counting<F>(&self, progress: F) -> (CampaignResult, usize)
    where
        F: Fn(CampaignProgress) + Sync,
    {
        let total = self.cells.len();
        let done = AtomicUsize::new(0);
        let simulations = AtomicUsize::new(0);
        let cache = self.config.cache.as_deref();
        let groups = self.groups();
        let finished = ordered_parallel(groups.len(), self.config.worker_threads(), |g| {
            let members = &groups[g];
            let specs = members.iter().map(|&i| self.tools[self.cells[i].1].1);
            let mut shared = SharedRuns::new(&self.workloads[self.cells[members[0]].0], specs);
            let cells: Vec<(usize, CellResult)> = members
                .iter()
                .map(|&i| {
                    let (w, t, topo) = self.cells[i];
                    let workload = &self.workloads[w];
                    let (tool, spec) = &self.tools[t];
                    progress(CampaignProgress::Started {
                        index: i,
                        total,
                        workload: workload.name,
                        tool: tool.name(),
                    });
                    let config: CellConfig = self.config.cell(workload.name, tool.name(), topo);
                    let (cell, cached) = match cache.and_then(|c| c.load(&config)) {
                        Some(cell) => (cell, true),
                        None => {
                            // A panicking tool must cost one cell, not the
                            // campaign: the scoped worker would otherwise
                            // unwind and poison the whole grid. A shared
                            // simulation that panics stays unrun, so the
                            // next cell that needs it panics on its own.
                            let run = || shared.run(*spec, tool.as_ref(), workload, &config);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
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
            cells
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
/// index order. This is the executor under [`Campaign::run`]; the Figure 3
/// characterization reuses it directly because its unit of work is a test
/// case, not a `workload × tool` cell.
pub fn ordered_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.clamp(1, n.max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            #[expect(
                clippy::unwrap_used,
                reason = "lock poisoning only follows a panic already unwinding this run"
            )]
            scope.spawn(|| loop {
                // Work stealing off a shared counter: each worker claims the
                // next unclaimed index until the range is drained.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().unwrap() = Some(f(i));
            });
        }
    });

    #[expect(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "the scoped-thread join above guarantees every slot was filled exactly once"
    )]
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every index is computed"))
        .collect()
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
    use crate::tool::{LaserTool, NativeTool};
    use laser_core::LaserConfig;
    use std::sync::atomic::AtomicUsize;

    fn small_campaign(threads: usize) -> Campaign {
        Campaign::new(
            registry(),
            vec![
                Box::new(NativeTool),
                Box::new(LaserTool::new(LaserConfig::detection_only())),
            ],
        )
        .with_workload_names(&["histogram'", "swaptions"])
        .unwrap()
        .with_options(BuildOptions::scaled(0.08))
        .with_threads(threads)
    }

    #[test]
    fn grid_is_workload_major_and_complete() {
        let result = small_campaign(2).run();
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
        let result = small_campaign(4).run();
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
        let result = small_campaign(64).run();
        assert_eq!(result.cells.len(), 4);
        assert!(result.cells.iter().all(|c| c.outcome.is_ok()));
    }

    #[test]
    fn unknown_workload_names_are_an_error() {
        let err = match Campaign::new(registry(), vec![Box::new(NativeTool)])
            .with_workload_names(&["histogram'", "histogramm"])
        {
            Err(e) => e,
            Ok(_) => panic!("typo'd workload name must not be silently dropped"),
        };
        assert_eq!(err, UnknownWorkload("histogramm".to_string()));
        assert!(err.to_string().contains("histogramm"));
    }

    #[test]
    fn progress_announces_every_cell_start_and_finish() {
        let campaign = small_campaign(3);
        let starts = Mutex::new(Vec::new());
        let finishes = Mutex::new(Vec::new());
        let result = campaign.run_with_progress(|p| match p {
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
        let result = small_campaign(2)
            .with_cell_budget(CellBudget::steps(10))
            .run();
        assert_eq!(result.cells.len(), 4);
        for cell in &result.cells {
            assert_eq!(cell.status(), "budget-exceeded", "{cell:?}");
            assert!(matches!(
                &cell.outcome,
                Err(ToolFailure::BudgetExceeded { .. })
            ));
        }
        // An unlimited budget behaves exactly like no budget.
        let unlimited = small_campaign(2)
            .with_cell_budget(CellBudget::default())
            .run();
        assert_eq!(unlimited.cells, small_campaign(2).run().cells);
    }

    #[test]
    fn validate_workload_names_rejects_the_first_unknown_name() {
        let workloads = registry();
        assert_eq!(
            validate_workload_names(&["histogram'", "swaptions"], &workloads),
            Ok(())
        );
        assert_eq!(validate_workload_names(&[], &workloads), Ok(()));
        // `histogram` and `histogram'` are *both* real workloads (the
        // Phoenix original and its alternative-input variant) — neither is a
        // typo of the other, and both must validate.
        assert_eq!(
            validate_workload_names(&["histogram", "histogram'"], &workloads),
            Ok(())
        );
        assert_eq!(
            validate_workload_names(&["histogram'", "histogramm", "bogus"], &workloads),
            Err(UnknownWorkload("histogramm".to_string())),
            "the first unknown name is the one reported"
        );
        assert_eq!(
            validate_workload_names(&[""], &workloads),
            Err(UnknownWorkload(String::new())),
            "empty entries from a stray comma are unknown, not ignored"
        );
    }

    #[test]
    fn pipelined_campaign_is_byte_identical_to_inline() {
        let inline = small_campaign(2).run();
        let piped = small_campaign(2)
            .with_pipeline(PipelineConfig::pipelined())
            .run();
        assert_eq!(inline.cells, piped.cells);
        assert_eq!(inline.render(), piped.render());
    }

    #[test]
    fn budgeted_campaigns_stay_deterministic_across_thread_counts() {
        let budget = CellBudget::steps(200_000);
        let serial = small_campaign(1).with_cell_budget(budget).run();
        let parallel = small_campaign(8).with_cell_budget(budget).run();
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.render(), parallel.render());
    }

    /// A tool that panics on one workload and works on the rest.
    struct PanickyTool;

    impl Tool for PanickyTool {
        fn name(&self) -> &str {
            "panicky"
        }

        fn run(&self, spec: &WorkloadSpec, cell: &CellConfig) -> Result<ToolRun, ToolFailure> {
            if spec.name == "swaptions" {
                panic!("deliberate test panic on {}", spec.name);
            }
            NativeTool.run(spec, cell)
        }
    }

    #[test]
    fn a_panicking_cell_does_not_destroy_the_campaign() {
        let result = Campaign::new(registry(), vec![Box::new(PanickyTool)])
            .with_workload_names(&["histogram'", "swaptions", "kmeans"])
            .unwrap()
            .with_options(BuildOptions::scaled(0.06))
            .with_threads(2)
            .run();
        assert_eq!(result.cells.len(), 3);
        let bad = result.cell("swaptions", "panicky").unwrap();
        assert_eq!(
            bad.outcome,
            Err(ToolFailure::Panicked {
                message: "deliberate test panic on swaptions".to_string()
            })
        );
        assert_eq!(bad.status(), "panicked");
        // The other cells completed normally.
        assert!(result
            .cell("histogram'", "panicky")
            .unwrap()
            .outcome
            .is_ok());
        assert!(result.cell("kmeans", "panicky").unwrap().outcome.is_ok());
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
