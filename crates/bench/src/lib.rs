//! # laser-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! LASER paper's evaluation (Section 7) from the simulated system:
//!
//! | Paper artifact | Function | Binary sub-command | Criterion bench |
//! |---|---|---|---|
//! | Figure 2 | [`characterization::fig2_layout`] | `experiments fig2` | — |
//! | Figure 3 | [`characterization::fig3_characterization`] | `experiments fig3` | `fig3_characterization` |
//! | Table 1 | [`accuracy::table1_accuracy`] | `experiments table1` | `table1_accuracy` |
//! | Table 2 | [`accuracy::table2_types`] | `experiments table2` | `table2_type` |
//! | Figure 9 | [`accuracy::fig9_threshold_sweep`] | `experiments fig9` | `fig9_threshold` |
//! | Figure 10 | [`performance::fig10_overhead`] | `experiments fig10` | `fig10_overhead` |
//! | Figure 11 | [`performance::fig11_speedups`] | `experiments fig11` | `fig11_speedup` |
//! | Figure 12 | [`performance::fig12_breakdown`] | `experiments fig12` | `fig12_breakdown` |
//! | Figure 13 | [`performance::fig13_sav_sweep`] | `experiments fig13` | `fig13_sav` |
//! | Figure 14 | [`performance::fig14_sheriff`] | `experiments fig14` | `fig14_sheriff` |
//!
//! Every table and figure is a *view over one campaign result*: a planner
//! (`plan_fig10`, `plan_table1`, …) registers the `(workload, tool)` cells
//! the experiment needs on a shared [`Grid`], the grid runs each unique cell
//! exactly once on the parallel [`Campaign`] runner, and the figure derives
//! its rows from the cached cells (`fig10_from_grid`, …). The `experiments`
//! binary plans every selected experiment into one grid, streams per-cell
//! progress to stderr while the grid is hot, and emits the aggregated results
//! as text, JSON or CSV (`--format`, see [`emit::Emit`]).
//!
//! Absolute numbers are simulated cycles, not the paper's wall-clock seconds;
//! what is expected to match is the *shape* of each result: who wins, by
//! roughly what factor, and where the crossovers fall. `EXPERIMENTS.md` at the
//! repository root records paper-reported versus measured values side by side.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod cache;
pub mod campaign;
pub mod characterization;
pub mod emit;
pub mod grid;
pub mod performance;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod tool;
pub mod topofile;
pub mod xsocket;

pub use cache::{fingerprint, CacheError, CacheStats, CellCache, CellConfig, CACHE_SALT};
pub use campaign::{
    ordered_parallel, validate_workload_names, Campaign, CampaignProgress, CampaignResult,
    CellResult, UnknownWorkload,
};
pub use emit::Emit;
pub use grid::{ExperimentError, Grid, GridResult};
pub use laser_core::{CellBudget, PipelineConfig, StopReason, TopologySpec};
pub use runner::{geomean, ExperimentScale};
pub use scenario::{AggregateFormat, Scenario, ScenarioCell, ScenarioError, Sweep};
pub use service::{run_scenario, ServiceError, ServiceOptions, ServiceSummary};
pub use tool::{
    cell_key, default_tools, FixedNativeTool, LaserTool, NativeTool, ReportedLine, SheriffTool,
    Tool, ToolFailure, ToolRun, ToolSpec, VtuneTool,
};
pub use topofile::{CustomTopology, Deployment};
pub use xsocket::{plan_xsocket, xsocket_from_grid, xsocket_sweep, XsocketReport, XsocketRow};
