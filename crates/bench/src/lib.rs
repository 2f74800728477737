//! # laser-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! LASER paper's evaluation (Section 7) from the simulated system:
//!
//! | Artifact | Planner / view | Binary sub-command |
//! |---|---|---|
//! | Figure 2 | [`characterization::fig2_layout`] | `experiments fig2` |
//! | Figure 3 | [`characterization::plan_fig3`] / [`characterization::fig3_from_grid`] | `experiments fig3` |
//! | Table 1 | [`accuracy::plan_table1`] / [`accuracy::table1_from_grid`] | `experiments table1` |
//! | Table 2 | [`accuracy::plan_table2`] / [`accuracy::table2_from_grid`] | `experiments table2` |
//! | Figure 9 | [`accuracy::plan_fig9`] / [`accuracy::fig9_from_grid`] | `experiments fig9` |
//! | Figure 10 | [`performance::plan_fig10`] / [`performance::fig10_from_grid`] | `experiments fig10` |
//! | Figure 11 | [`performance::plan_fig11`] / [`performance::fig11_from_grid`] | `experiments fig11` |
//! | Figure 12 | [`performance::plan_fig12`] / [`performance::fig12_from_grid`] | `experiments fig12` |
//! | Figure 13 | [`performance::plan_fig13`] / [`performance::fig13_from_grid`] | `experiments fig13` |
//! | Figure 14 | [`performance::plan_fig14`] / [`performance::fig14_from_grid`] | `experiments fig14` |
//! | Cross-socket sweep (beyond the paper) | [`xsocket::plan_xsocket`] / [`xsocket::xsocket_from_grid`] | `experiments xsocket` |
//! | The whole `workload × tool` grid | [`campaign::plan_campaign`] / [`CampaignResult`] | `experiments campaign` |
//!
//! Every table and figure is a *view over one campaign result*: a planner
//! (`plan_fig10`, `plan_table1`, …) registers the `(workload, tool)` cells
//! the experiment needs on a shared [`Grid`], the grid runs each unique cell
//! exactly once across its thread pool, and the figure derives its report
//! from the cached cells (`fig10_from_grid`, …). The grid is the one planner
//! and executor: `experiments campaign` ([`plan_campaign`]) and every
//! scenario ([`Scenario::grid`]) request their cells on it too, and every
//! planner selects workloads through its one filter,
//! [`ExperimentScale::only`] (what `--only` sets). Each report
//! is one table, a [`View`], which one renderer spells as text, JSON or CSV
//! (`--format`, see [`emit`]). The figures themselves are one table too:
//! [`FIGURES`] pairs each subcommand with its planner and its derivation, and
//! the `experiments` binary plans every selected figure into one grid,
//! streams per-cell progress to stderr while the grid is hot, and emits the
//! results; `experiments run` serves scenario files through
//! [`run_scenario`]. Flags and scenario keys alike reach a cell through one path —
//! [`CampaignConfig`] → [`CellConfig`] → [`ToolSpec::run`] and
//! [`fingerprint`] — described in [`config`]. The tools are one closed
//! [`ToolSpec`], so a cell's key names everything the cell runs.
//!
//! Absolute numbers are simulated cycles, not the paper's wall-clock seconds;
//! what is expected to match is the *shape* of each result: who wins, by
//! roughly what factor, and where the crossovers fall. `EXPERIMENTS.md` at the
//! repository root records paper-reported versus measured values side by side.

pub mod accuracy;
pub mod cache;
pub mod campaign;
pub mod characterization;
pub mod config;
pub mod emit;
pub mod figures;
pub mod grid;
pub mod performance;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod tool;
pub mod topofile;
pub mod xsocket;

pub use cache::{fingerprint, CacheError, CacheStats, CellCache, CACHE_SALT};
pub use campaign::{plan_campaign, CampaignProgress, CampaignResult, CellResult};
pub use config::{CampaignConfig, CellConfig};
pub use emit::{Emit, View};
pub use figures::{figure, FigureError, FigureSpec, FIGURES};
pub use grid::{ExperimentError, Grid, GridResult};
pub use laser_core::{CellBudget, PipelineConfig, StopReason, TopologySpec};
pub use runner::{find_workload, geomean, ExperimentScale};
pub use scenario::{AggregateFormat, Scenario, ScenarioError};
pub use service::{run_scenario, ServiceError, ServiceOptions, ServiceSummary};
pub use tool::{cell_key, PebsAccuracy, ReportedLine, ToolFailure, ToolRun, ToolSpec};
pub use topofile::CustomTopology;
pub use xsocket::{plan_xsocket, xsocket_from_grid, XsocketReport, XsocketRow};
