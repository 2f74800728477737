//! The campaign executor and its result: a `workload × tool` grid fanned
//! across a thread pool.
//!
//! The paper's evaluation runs as one grid: 35 workloads under up to 5
//! tools. Every cell set — each figure, `experiments campaign`
//! ([`plan_campaign`]) and every scenario — is planned on a [`Grid`], and
//! [`Grid::run_with_progress`] lowers its sorted request set to the
//! crate-private `Campaign` executor here. Every
//! cell — one tool on one workload — is an independent, deterministic
//! simulation, and the execution stack is built from owned `Send` values
//! (see `laser_core::session`), so cells can be computed by any worker in
//! any order. Results are stored by cell index and aggregated in grid
//! order, which makes the output **byte-identical** whatever the thread
//! count: `threads = 1` is the reference serial execution, `threads = N` is
//! just faster.
//!
//! Long campaigns survive misbehaving cells: a panic inside a cell is
//! caught and recorded as [`ToolFailure::Panicked`], so one bad
//! `(workload, tool)` combination costs one grid entry, not the whole run.
//! A campaign can also bound every cell with a
//! [`CellBudget`](laser_core::CellBudget) ([`CampaignConfig::budget`]): the budget rides each cell's
//! [`CellConfig`] into [`ToolSpec::run`], and a cell that trips it is
//! recorded as [`ToolFailure::BudgetExceeded`] — again one grid entry, not
//! the whole run. Step budgets are deterministic, so budgeted campaigns keep
//! the byte-identical-across-thread-counts guarantee.
//!
//! Everything a campaign applies to every cell lives in one
//! [`CampaignConfig`]; the executor lowers it to one [`CellConfig`] per cell
//! and hands that same value to the cache lookup, the tool and the cache
//! store. A cell's tool is a [`ToolSpec`], so the `tool=` line of the cell's
//! fingerprinted config names its whole configuration.
//!
//! Callers that want incremental feedback pass a progress sink to
//! [`Grid::run_with_progress`]; cells are announced as they start and
//! complete ([`CampaignProgress`]), while the aggregated result stays
//! deterministic.
//!
//! Cells that can be derived from one simulation run as one task. A campaign
//! groups the cells of one workload on one deployment by
//! `ToolSpec::simulation`: the LASER group (`laser`,
//! `laser-detect`, `laser-detect-raw`, `laser-detect-sav19`) shares one
//! session, the native group (`native` and both Sheriff modes) one native
//! run. A pool worker takes a whole group, announces and caches its cells
//! one at a time, and drops what they shared when the group is done; every
//! other cell is a group of one (each Figure 3 case among them). The
//! scale-2 paper grid's 405 cells take 284 simulations instead of 387, and
//! every result is the one [`ToolSpec::run`] alone would have produced (the
//! derivations are listed on `SharedRuns` in [`crate::tool`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use laser_core::TopologySpec;
use laser_workloads::{registry, WorkloadSpec};
use serde::json::Value;

use crate::config::{CampaignConfig, CellConfig};
use crate::emit::{Column, Emit, Prec, View};
use crate::grid::Grid;
use crate::runner::find_workload;
use crate::tool::{SharedRuns, ToolFailure, ToolRun, ToolSpec, DEFAULT_PANEL};

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
/// registry workload (the `only` ones, when given) under the default tool
/// panel — native, LASER, VTune and both Sheriff modes — on the grid's
/// topology. The grid's sorted order is registry order, workload-major, with
/// the tools in panel order.
///
/// # Errors
/// The [`find_workload`] message for the first name in `only` that matches
/// no workload; nothing is planned then.
pub fn plan_campaign(grid: &mut Grid, only: Option<&[impl AsRef<str>]>) -> Result<(), String> {
    let workloads = match only {
        Some(names) => names
            .iter()
            .map(|name| find_workload(name.as_ref()))
            .collect::<Result<Vec<_>, _>>()?,
        None => registry(),
    };
    for workload in &workloads {
        for tool in DEFAULT_PANEL {
            grid.request(workload, tool);
        }
    }
    Ok(())
}

/// The executor behind [`Grid::run_with_progress`]: a grid's cells in
/// grid (aggregation) order, each distinct workload and tool key held once.
pub(crate) struct Campaign {
    workloads: Vec<WorkloadSpec>,
    /// Every distinct tool, with its key rendered once.
    tools: Vec<(ToolSpec, String)>,
    /// The cells to run, as `(workload index, tool index, topology)` triples
    /// in grid (aggregation) order: exactly the cells requested, which may
    /// mix topologies.
    cells: Vec<(usize, usize, TopologySpec)>,
    config: CampaignConfig,
}

impl Campaign {
    /// Lower a request list to a campaign under `config`: each
    /// `(workload, tool, topology)` request becomes one cell, in request
    /// order, with every distinct workload and tool key rendered once.
    pub(crate) fn from_requests<'a>(
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
                campaign.tools.push((tool, tool.key()));
                campaign.tools.len() - 1
            });
            campaign.cells.push((w, t, topology));
        }
        campaign
    }

    /// The cells grouped by the simulation they share, each group listed
    /// with the cell that may attach repair first (its session can serve the
    /// group's detection cells), then in grid order; groups are in the grid
    /// order of their first cell.
    fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_simulation: BTreeMap<(usize, TopologySpec, ToolSpec), usize> = BTreeMap::new();
        for (i, &(w, t, topology)) in self.cells.iter().enumerate() {
            match self.tools[t].0.simulation() {
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
            group.sort_by_key(|&i| self.tools[self.cells[i].1].0 != ToolSpec::Laser);
        }
        groups
    }

    /// Run every cell and aggregate in grid order, streaming
    /// [`CampaignProgress`] notifications to `progress` as cells start and
    /// finish; also return how many simulations the run started.
    /// Notification order depends on scheduling, the aggregation does not.
    pub(crate) fn run_counting<F>(&self, progress: F) -> (CampaignResult, usize)
    where
        F: Fn(CampaignProgress) + Sync,
    {
        self.run_cells(progress, SharedRuns::run)
    }

    /// [`Campaign::run_counting`] with `run` computing each cell the cache
    /// does not answer, in place of [`SharedRuns::run`], so a test can make
    /// a cell panic.
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
        let total = self.cells.len();
        let done = AtomicUsize::new(0);
        let simulations = AtomicUsize::new(0);
        let cache = self.config.cache.as_deref();
        let groups = self.groups();
        let finished = ordered_parallel(groups.len(), self.config.worker_threads(), |g| {
            let members = &groups[g];
            let specs = members.iter().map(|&i| self.tools[self.cells[i].1].0);
            let mut shared = SharedRuns::new(&self.workloads[self.cells[members[0]].0], specs);
            let cells: Vec<(usize, CellResult)> = members
                .iter()
                .map(|&i| {
                    let (w, t, topo) = self.cells[i];
                    let workload = &self.workloads[w];
                    let (spec, key) = &self.tools[t];
                    progress(CampaignProgress::Started {
                        index: i,
                        total,
                        workload: workload.name,
                        tool: key,
                    });
                    let config: CellConfig = self.config.cell(workload.name, key, topo);
                    let (cell, cached) = match cache.and_then(|c| c.load(&config)) {
                        Some(cell) => (cell, true),
                        None => {
                            // A panicking cell must cost one cell, not the
                            // campaign: the scoped worker would otherwise
                            // unwind and poison the whole grid. A shared
                            // simulation that panics stays unrun, so the
                            // next cell that needs it panics on its own.
                            let compute = || run(&mut shared, *spec, workload, &config);
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
/// index order. This is the pool under every grid, and the only one: every
/// simulated figure, Figure 3 included, runs as campaign cells.
fn ordered_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
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
    use laser_core::{CellBudget, PipelineConfig};
    use laser_workloads::{find, BuildOptions};
    use std::num::NonZeroUsize;
    use std::sync::atomic::AtomicUsize;

    /// `tools` on each of `workloads`, at `scale` on `threads` workers with
    /// `deploy` applied to the config, planned on a grid.
    fn campaign_with(
        workloads: &[&str],
        tools: &[ToolSpec],
        scale: f64,
        threads: usize,
        deploy: impl FnOnce(&mut CampaignConfig),
    ) -> Grid {
        let mut config = CampaignConfig {
            opts: BuildOptions::scaled(scale),
            threads: NonZeroUsize::new(threads),
            ..CampaignConfig::default()
        };
        deploy(&mut config);
        let mut grid = Grid::with_config(config);
        for workload in workloads {
            for &tool in tools {
                grid.request(&find(workload).unwrap(), tool);
            }
        }
        grid
    }

    /// [`campaign_with`] under the default deployment.
    fn campaign(workloads: &[&str], tools: &[ToolSpec], scale: f64, threads: usize) -> Grid {
        campaign_with(workloads, tools, scale, threads, |_| {})
    }

    /// Native and LASERDETECT on `histogram'` and `swaptions` at scale 0.08,
    /// `deploy` applied to the config.
    fn small_campaign(threads: usize, deploy: impl FnOnce(&mut CampaignConfig)) -> Grid {
        let tools = [ToolSpec::Native, ToolSpec::LaserDetect];
        campaign_with(&["histogram'", "swaptions"], &tools, 0.08, threads, deploy)
    }

    /// The whole campaign grid, restricted to `only`, planned on an empty
    /// grid.
    fn plan_only(only: &[&str]) -> Result<Grid, String> {
        let mut grid = Grid::with_config(CampaignConfig::default());
        plan_campaign(&mut grid, Some(only)).map(|()| grid)
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

    #[test]
    fn a_panicking_cell_does_not_destroy_the_campaign() {
        let workloads = ["histogram'", "swaptions", "kmeans"];
        let grid = campaign(&workloads, &[ToolSpec::Native], 0.06, 2);
        // A `&str` payload on swaptions and a `String` one on kmeans, so
        // both arms of `panic_message` are taken.
        let (result, _) = grid.campaign().run_cells(
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
