//! Declarative scenario files: the campaign-service input format.
//!
//! A scenario is a small JSON document naming the cells a campaign should
//! run — individually, or through named sweeps — plus the knobs the
//! `experiments` CLI exposes as flags (scale, worker threads, step budget,
//! pipelining, aggregate output format). `experiments run` reads scenarios
//! from files or stdin, requests their cells on a [`Grid`] and fans them
//! over its thread pool (see [`crate::service`]).
//!
//! ```json
//! {
//!   "name": "nightly-xsocket",
//!   "scale": 0.4,
//!   "threads": 4,
//!   "budget_steps": 40000000,
//!   "pipeline": true,
//!   "format": "json",
//!   "cells": [
//!     {"workload": "histogram'", "tool": "laser", "topology": "8s"}
//!   ],
//!   "sweeps": [
//!     {"kind": "xsocket"},
//!     {"kind": "grid",
//!      "workloads": ["histogram'", "swaptions"],
//!      "tools": ["native", "laser-detect"],
//!      "topologies": ["flat", "2s"]}
//!   ]
//! }
//! ```
//!
//! Parsing follows the `Cli::parse` convention: **everything** is validated
//! fail-fast — unknown keys, unknown workload/tool/topology names, malformed
//! numbers, an empty cell set — before anything simulates, and `experiments
//! run` turns a [`ScenarioError`] into exit code 2. Workload names go through the
//! same check as `experiments --only` ([`find_workload`]). The planned grid
//! ([`Scenario::grid`]) deduplicates in sorted grid order, so the aggregated
//! result of a scenario is byte-identical however its cells were spelled;
//! an `xsocket` sweep requests what `experiments xsocket` requests
//! ([`plan_xsocket`], `request_xsocket`).

use std::sync::Arc;

use laser_core::TopologySpec;
use laser_workloads::WorkloadSpec;
use serde::json::Value;

use crate::config::CampaignConfig;
use crate::emit::Emit;
use crate::grid::Grid;
use crate::runner::find_workload;
use crate::tool::ToolSpec;
use crate::topofile::CustomTopology;
use crate::xsocket::{plan_xsocket, request_xsocket};

/// A scenario file could not be parsed or validated. The message names the
/// offending field; `experiments run` prints it and exits 2 before simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError(message.into()))
}

/// An aggregate output format: what `experiments --format` selects for
/// stdout, and what a scenario can request alongside its streamed per-cell
/// lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFormat {
    /// The campaign's text table.
    Text,
    /// The campaign's JSON document (see [`crate::emit::Emit`]).
    Json,
    /// The campaign's CSV table.
    Csv,
}

impl std::str::FromStr for AggregateFormat {
    type Err = ();

    fn from_str(s: &str) -> Result<AggregateFormat, ()> {
        match s {
            "text" => Ok(AggregateFormat::Text),
            "json" => Ok(AggregateFormat::Json),
            "csv" => Ok(AggregateFormat::Csv),
            _ => Err(()),
        }
    }
}

impl AggregateFormat {
    /// `report` in this format: its text table, its JSON document or its CSV
    /// table.
    pub fn payload(&self, report: &dyn Emit) -> String {
        match self {
            AggregateFormat::Text => report.render(),
            AggregateFormat::Json => report.to_json().render(),
            AggregateFormat::Csv => report.to_csv(),
        }
    }

    /// The stable spelling used in scenario files.
    pub fn key(&self) -> &'static str {
        match self {
            AggregateFormat::Text => "text",
            AggregateFormat::Json => "json",
            AggregateFormat::Csv => "csv",
        }
    }
}

/// A parsed, validated scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name, echoed in every streamed result line.
    pub name: String,
    /// Aggregate document to append after the per-cell stream, if any.
    pub format: Option<AggregateFormat>,
    /// Every cell the `"cells"` and `"sweeps"` keys name, requested under
    /// the scenario's knobs.
    grid: Grid,
}

impl Scenario {
    /// Parse and validate a scenario document.
    ///
    /// # Errors
    /// [`ScenarioError`] on the first malformed or unknown field; nothing is
    /// silently ignored or defaulted away.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let value = match Value::parse(text) {
            Ok(value) => value,
            Err(e) => return err(format!("not valid JSON: {e}")),
        };
        Scenario::from_value(&value)
    }

    /// Validate an already-parsed JSON document as a scenario.
    ///
    /// # Errors
    /// As for [`Scenario::parse`].
    pub fn from_value(value: &Value) -> Result<Scenario, ScenarioError> {
        let pairs = match value {
            Value::Object(pairs) => pairs,
            _ => return err("top level must be an object"),
        };
        let mut name = None;
        let mut format = None;
        let mut config = CampaignConfig::evaluation();
        // The grid carries the knobs, so cells and sweeps are requested once
        // every knob is read.
        let mut requests = Vec::new();
        for (key, field) in pairs {
            match key.as_str() {
                "name" => {
                    let named = req_str(field, "name")?;
                    if named.is_empty() {
                        return err("\"name\" must not be empty");
                    }
                    name = Some(named.to_string());
                }
                "scale" => {
                    let scale = match field {
                        Value::Float(f) => *f,
                        Value::Int(i) => *i as f64,
                        _ => return err("\"scale\" must be a number"),
                    };
                    knob(key, config.set_scale(scale))?;
                }
                "threads" => knob(key, config.set_threads(req_u64(field, key)?))?,
                "budget_steps" => knob(key, config.set_budget_steps(req_u64(field, key)?))?,
                "pipeline" => match field {
                    Value::Bool(b) => config.pipeline.enabled = *b,
                    _ => return err("\"pipeline\" must be true or false"),
                },
                "format" => {
                    let name = req_str(field, "format")?;
                    format = Some(name.parse().map_err(|()| {
                        ScenarioError(format!(
                            "unknown format '{name}' (expected text, json or csv)"
                        ))
                    })?);
                }
                "custom_topology" => {
                    config.custom_topology = Some(Arc::new(
                        CustomTopology::from_value(field)
                            .map_err(|e| ScenarioError(format!("\"custom_topology\": {e}")))?,
                    ));
                }
                "cells" | "sweeps" => requests.push((key.as_str(), req_array(field, key)?)),
                other => return err(format!("unknown key \"{other}\"")),
            }
        }
        let Some(name) = name else {
            return err("missing required key \"name\"");
        };
        let mut grid = Grid::with_config(config);
        for (key, items) in requests {
            for item in items {
                match key {
                    "cells" => request_cell(&mut grid, item)?,
                    _ => request_sweep(&mut grid, item)?,
                }
            }
        }
        if grid.cells() == 0 {
            return err("scenario plans no cells (give \"cells\" and/or \"sweeps\")");
        }
        if grid.config().custom_topology.is_some()
            && grid
                .requests()
                .iter()
                .any(|(_, _, topo)| *topo != TopologySpec::Flat)
        {
            return err(
                "\"custom_topology\" replaces the topology axis; remove \"topology\"/\
                 \"topologies\" keys and xsocket sweeps",
            );
        }
        Ok(Scenario { name, format, grid })
    }

    /// The campaign knobs, filled through the same validated setters the
    /// `experiments` flags use and from the same defaults
    /// ([`CampaignConfig::evaluation`]). `"custom_topology"` — the same JSON
    /// object a topology file holds — is mutually exclusive with preset
    /// `"topology"` / `"topologies"` keys and xsocket sweeps: the override is
    /// campaign-wide, so a preset axis underneath it would only produce
    /// colliding cell keys. The cache is the host's to choose
    /// ([`crate::service::ServiceOptions`]).
    pub fn config(&self) -> &CampaignConfig {
        self.grid.config()
    }

    /// The scenario's cells, requested on a grid under its knobs and
    /// deduplicated in sorted grid order — the order the campaign aggregates
    /// in.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
}

/// Attach the scenario spelling of a knob to a rejected setter value.
fn knob(key: &str, set: Result<(), String>) -> Result<(), ScenarioError> {
    set.map_err(|why| ScenarioError(format!("\"{key}\" {why}")))
}

fn req_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, ScenarioError> {
    match value {
        Value::Str(s) => Ok(s.as_str()),
        _ => err(format!("\"{key}\" must be a string")),
    }
}

fn req_u64(value: &Value, key: &str) -> Result<u64, ScenarioError> {
    match value {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => err(format!("\"{key}\" must be a non-negative integer")),
    }
}

fn req_array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], ScenarioError> {
    match value {
        Value::Array(items) => Ok(items),
        _ => err(format!("\"{key}\" must be an array")),
    }
}

fn parse_workload(value: &Value, key: &str) -> Result<WorkloadSpec, ScenarioError> {
    find_workload(req_str(value, key)?).map_err(ScenarioError)
}

fn parse_tool(key: &str) -> Result<ToolSpec, ScenarioError> {
    ToolSpec::parse(key).ok_or_else(|| {
        ScenarioError(format!(
            "unknown tool '{key}' (expected {})",
            ToolSpec::expected_keys()
        ))
    })
}

fn parse_topology(key: &str) -> Result<TopologySpec, ScenarioError> {
    TopologySpec::parse(key)
        .ok_or_else(|| ScenarioError(format!("unknown topology '{key}' (flat, 2s, 4s, 8s)")))
}

/// Request one `"cells"` entry on `grid`.
fn request_cell(grid: &mut Grid, value: &Value) -> Result<(), ScenarioError> {
    let pairs = match value {
        Value::Object(pairs) => pairs,
        _ => return err("each cell must be an object"),
    };
    let mut workload = None;
    let mut tool = None;
    let mut topology = TopologySpec::Flat;
    for (key, field) in pairs {
        match key.as_str() {
            "workload" => workload = Some(parse_workload(field, "workload")?),
            "tool" => tool = Some(parse_tool(req_str(field, "tool")?)?),
            "topology" => topology = parse_topology(req_str(field, "topology")?)?,
            other => return err(format!("unknown cell key \"{other}\"")),
        }
    }
    match (workload, tool) {
        (Some(workload), Some(tool)) => {
            grid.request_at(&workload, tool, topology);
            Ok(())
        }
        (None, _) => err("cell is missing \"workload\""),
        (_, None) => err("cell is missing \"tool\""),
    }
}

/// Request one `"sweeps"` entry on `grid`. An `xsocket` sweep is the
/// scenario-file spelling of `experiments xsocket`: its named workloads
/// (default: the headline false-sharing set) through [`request_xsocket`],
/// or [`plan_xsocket`] itself. A `grid` sweep is an explicit cross product
/// of workloads × tools × topologies (default: `[flat]`).
fn request_sweep(grid: &mut Grid, value: &Value) -> Result<(), ScenarioError> {
    let pairs = match value {
        Value::Object(pairs) => pairs,
        _ => return err("each sweep must be an object"),
    };
    let kind = match value.get("kind") {
        Some(kind) => req_str(kind, "kind")?,
        None => return err("sweep is missing \"kind\" (xsocket or grid)"),
    };
    match kind {
        "xsocket" => {
            let mut workloads = None;
            for (key, field) in pairs {
                match key.as_str() {
                    "kind" => {}
                    "workloads" => {
                        let mut specs = Vec::new();
                        for item in req_array(field, "workloads")? {
                            specs.push(parse_workload(item, "workloads")?);
                        }
                        if specs.is_empty() {
                            return err("xsocket sweep \"workloads\" must not be empty");
                        }
                        workloads = Some(specs);
                    }
                    other => return err(format!("unknown xsocket sweep key \"{other}\"")),
                }
            }
            match workloads {
                Some(specs) => specs.iter().for_each(|spec| request_xsocket(grid, spec)),
                None => plan_xsocket(grid),
            }
            Ok(())
        }
        "grid" => {
            let mut workloads = Vec::new();
            let mut tools = Vec::new();
            let mut topologies = vec![TopologySpec::Flat];
            for (key, field) in pairs {
                match key.as_str() {
                    "kind" => {}
                    "workloads" => {
                        for item in req_array(field, "workloads")? {
                            workloads.push(parse_workload(item, "workloads")?);
                        }
                    }
                    "tools" => {
                        for item in req_array(field, "tools")? {
                            tools.push(parse_tool(req_str(item, "tools")?)?);
                        }
                    }
                    "topologies" => {
                        topologies.clear();
                        for item in req_array(field, "topologies")? {
                            topologies.push(parse_topology(req_str(item, "topologies")?)?);
                        }
                        if topologies.is_empty() {
                            return err("grid sweep \"topologies\" must not be empty");
                        }
                    }
                    other => return err(format!("unknown grid sweep key \"{other}\"")),
                }
            }
            if workloads.is_empty() {
                return err("grid sweep needs a non-empty \"workloads\" array");
            }
            if tools.is_empty() {
                return err("grid sweep needs a non-empty \"tools\" array");
            }
            for workload in &workloads {
                for &tool in &tools {
                    for &topology in &topologies {
                        grid.request_at(workload, tool, topology);
                    }
                }
            }
            Ok(())
        }
        other => err(format!("unknown sweep kind '{other}' (xsocket or grid)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentScale;
    use crate::xsocket::XSOCKET_WORKLOADS;
    use laser_core::{CellBudget, PipelineConfig};

    /// The `(workload, tool, topology)` cells `s` plans, in grid order.
    fn planned(s: &Scenario) -> Vec<(String, ToolSpec, TopologySpec)> {
        s.grid()
            .requests()
            .iter()
            .map(|&(workload, tool, topology)| (workload.to_string(), tool, topology))
            .collect()
    }

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(
            r#"{
              "name": "nightly",
              "scale": 0.25,
              "threads": 3,
              "budget_steps": 500000,
              "pipeline": true,
              "format": "csv",
              "cells": [
                {"workload": "histogram'", "tool": "laser", "topology": "8s"},
                {"workload": "swaptions", "tool": "native"}
              ],
              "sweeps": [
                {"kind": "grid", "workloads": ["kmeans"], "tools": ["native", "laser-detect-sav97"]}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(s.name, "nightly");
        assert_eq!(s.config().opts.scale, 0.25);
        assert_eq!(s.config().threads, std::num::NonZeroUsize::new(3));
        assert_eq!(s.config().budget, CellBudget::steps(500000));
        assert_eq!(s.config().pipeline, PipelineConfig::pipelined());
        assert_eq!(s.format, Some(AggregateFormat::Csv));
        let plan = planned(&s);
        assert_eq!(plan.len(), 4);
        // Sorted grid order, independent of spelling order in the file; a
        // cell's topology defaults to flat.
        assert_eq!(
            plan,
            vec![
                (
                    "histogram'".to_string(),
                    ToolSpec::Laser,
                    TopologySpec::OctoSocket
                ),
                ("kmeans".to_string(), ToolSpec::Native, TopologySpec::Flat),
                (
                    "kmeans".to_string(),
                    ToolSpec::LaserDetectSav(97),
                    TopologySpec::Flat
                ),
                (
                    "swaptions".to_string(),
                    ToolSpec::Native,
                    TopologySpec::Flat
                ),
            ]
        );
    }

    #[test]
    fn defaults_are_the_cli_defaults() {
        let s = Scenario::parse(
            r#"{"name": "one", "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
        )
        .unwrap();
        assert_eq!(s.config(), &CampaignConfig::evaluation());
        assert_eq!(s.config().opts.scale, 0.4);
        assert_eq!(s.config().threads, None);
        assert_eq!(s.config().budget, CellBudget::default());
        assert_eq!(s.config().pipeline, PipelineConfig::default());
        assert_eq!(s.format, None);
    }

    #[test]
    fn custom_topology_key_parses_and_validates_inline() {
        // The spec is the scenario spelling of `--topology-file`: the layout
        // object rides inline so parsing stays pure, and the same validation
        // runs at parse time.
        let s = Scenario::parse(
            r#"{
              "name": "fat-thin-sweep",
              "custom_topology": {
                "name": "fat-thin",
                "core_blocks": [6, 2],
                "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}
              },
              "cells": [{"workload": "swaptions", "tool": "laser-detect"}]
            }"#,
        )
        .unwrap();
        let custom = s.config().custom_topology.as_ref().unwrap();
        assert_eq!(custom.name(), "fat-thin");
        assert_eq!(custom.num_cores(), 8);
    }

    #[test]
    fn xsocket_sweep_matches_the_planner_cells() {
        let s = Scenario::parse(r#"{"name": "x", "sweeps": [{"kind": "xsocket"}]}"#).unwrap();
        let plan = planned(&s);
        // Every headline workload × 3 tools × every preset topology.
        assert_eq!(
            plan.len(),
            XSOCKET_WORKLOADS.len() * 3 * TopologySpec::ALL.len()
        );
        assert!(plan.contains(&(
            "histogram'".to_string(),
            ToolSpec::Laser,
            TopologySpec::OctoSocket
        )));
        // A restricted sweep only plans its named workloads.
        let s = Scenario::parse(
            r#"{"name": "x", "sweeps": [{"kind": "xsocket", "workloads": ["reverse_index"]}]}"#,
        )
        .unwrap();
        assert_eq!(planned(&s).len(), 3 * TopologySpec::ALL.len());
    }

    #[test]
    fn xsocket_sweep_requests_what_plan_xsocket_requests() {
        // The default workloads, and a named subset, against `experiments
        // xsocket` at the same scale restricted to the same workloads.
        let cases: [(&str, Option<&'static [&'static str]>); 2] = [
            ("", None),
            (
                r#", "workloads": ["reverse_index", "histogram'"]"#,
                Some(&["histogram'", "reverse_index"]),
            ),
        ];
        for (workloads, only) in cases {
            let s = Scenario::parse(&format!(
                r#"{{"name": "x", "scale": 0.5, "sweeps": [{{"kind": "xsocket"{workloads}}}]}}"#
            ))
            .unwrap();
            let mut planner = Grid::new(ExperimentScale {
                workload_scale: 0.5,
                only: only.map(<[_]>::to_vec),
            });
            plan_xsocket(&mut planner);
            let scenario = s.grid();
            assert_eq!(scenario.requests(), planner.requests(), "{workloads}");
            assert_eq!(
                scenario.scale().workload_scale,
                planner.scale().workload_scale
            );
        }
    }

    #[test]
    fn plan_deduplicates_across_cells_and_sweeps() {
        let s = Scenario::parse(
            r#"{
              "name": "dup",
              "cells": [
                {"workload": "kmeans", "tool": "native"},
                {"workload": "kmeans", "tool": "native"}
              ],
              "sweeps": [
                {"kind": "grid", "workloads": ["kmeans"], "tools": ["native"]}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(planned(&s).len(), 1);
    }

    #[test]
    fn every_malformed_field_fails_fast() {
        let cases: &[(&str, &str)] = &[
            ("[1,2]", "top level must be an object"),
            ("{\"name\": \"x\"", "not valid JSON"),
            (
                r#"{"cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "missing required key \"name\"",
            ),
            (r#"{"name": ""}"#, "\"name\" must not be empty"),
            (r#"{"name": "x", "bogus": 1}"#, "unknown key \"bogus\""),
            (r#"{"name": "x", "scale": "big"}"#, "must be a number"),
            (r#"{"name": "x", "scale": -0.5}"#, "positive"),
            (r#"{"name": "x", "scale": 0}"#, "positive"),
            (r#"{"name": "x", "threads": 0}"#, "at least 1"),
            (r#"{"name": "x", "threads": -2}"#, "non-negative integer"),
            (r#"{"name": "x", "budget_steps": 0}"#, "at least 1"),
            // The cut deployment knobs are unknown keys like any other.
            (r#"{"name": "x", "shards": 4}"#, "unknown key \"shards\""),
            (
                r#"{"name": "x", "driver_lag_quanta": 1}"#,
                "unknown key \"driver_lag_quanta\"",
            ),
            (r#"{"name": "x", "pipeline": 1}"#, "true or false"),
            (
                r#"{"name": "x", "format": "yaml"}"#,
                "unknown format 'yaml'",
            ),
            (r#"{"name": "x", "cells": {}}"#, "must be an array"),
            (r#"{"name": "x", "cells": [3]}"#, "cell must be an object"),
            (
                r#"{"name": "x", "cells": [{"tool": "native"}]}"#,
                "missing \"workload\"",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions"}]}"#,
                "missing \"tool\"",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "histogramm", "tool": "native"}]}"#,
                "unknown workload 'histogramm'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "nativ"}]}"#,
                "unknown tool 'nativ'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "laser-detect-sav0"}]}"#,
                "unknown tool 'laser-detect-sav0'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "native", "topology": "16s"}]}"#,
                "unknown topology '16s'",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "native", "topology": "32s"}]}"#,
                "unknown topology '32s' (flat, 2s, 4s, 8s)",
            ),
            (
                r#"{"name": "x", "cells": [{"workload": "swaptions", "tool": "native", "color": "red"}]}"#,
                "unknown cell key \"color\"",
            ),
            (r#"{"name": "x", "sweeps": [{}]}"#, "missing \"kind\""),
            (
                r#"{"name": "x", "sweeps": [{"kind": "mystery"}]}"#,
                "unknown sweep kind 'mystery'",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "grid", "workloads": ["kmeans"]}]}"#,
                "non-empty \"tools\"",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "grid", "tools": ["native"]}]}"#,
                "non-empty \"workloads\"",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "grid", "workloads": ["kmeans"], "tools": ["native"], "topologies": []}]}"#,
                "must not be empty",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "xsocket", "workloads": []}]}"#,
                "must not be empty",
            ),
            (
                r#"{"name": "x", "sweeps": [{"kind": "xsocket", "depth": 2}]}"#,
                "unknown xsocket sweep key \"depth\"",
            ),
            (r#"{"name": "x"}"#, "plans no cells"),
            (
                r#"{"name": "x", "cells": [], "sweeps": []}"#,
                "plans no cells",
            ),
            (
                r#"{"name": "x", "custom_topology": "fat-thin.json",
                    "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "\"custom_topology\": topology spec must be an object",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "fat-thin", "core_blocks": [6, 2],
                        "remote": {"remote_hitm": 1, "remote_llc": 100, "remote_dram": 310}},
                    "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "\"custom_topology\":",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "wide", "core_blocks": [33, 32],
                        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}},
                    "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "at most 64",
            ),
            // Blocks whose sum wraps `usize` to 0 once passed the cap and
            // failed every cell at run time with a division by zero.
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "wrap",
                        "core_blocks": [9223372036854775807, 9223372036854775807, 2],
                        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}},
                    "cells": [{"workload": "swaptions", "tool": "native"}]}"#,
                "at most 64",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "fat-thin", "core_blocks": [6, 2],
                        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}},
                    "cells": [{"workload": "swaptions", "tool": "native", "topology": "2s"}]}"#,
                "\"custom_topology\" replaces the topology axis",
            ),
            (
                r#"{"name": "x",
                    "custom_topology": {"name": "fat-thin", "core_blocks": [6, 2],
                        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}},
                    "sweeps": [{"kind": "xsocket"}]}"#,
                "\"custom_topology\" replaces the topology axis",
            ),
        ];
        for (text, needle) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{text} -> {e} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn hostile_documents_are_errors_not_crashes() {
        // A 100,000-deep bracket flood used to overflow the stack (an abort
        // that killed the service); lax JSON spellings used to parse.
        let flood = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let nested_name = format!(r#"{{"name": {}"x"{}}}"#, "[".repeat(200), "]".repeat(200));
        let cases: &[(&str, &str)] = &[
            (&flood, "nested deeper than 128 levels"),
            (&nested_name, "nested deeper than 128 levels"),
            (r#"{"name": "x", "scale": .5}"#, "expected a value"),
            (r#"{"name": "x", "scale": 01}"#, "leading zero"),
            (r#"{"name": "x", "threads": +2}"#, "expected a value"),
            (r#"{"name": "\u+041"}"#, "bad \\u escape"),
        ];
        for (text, needle) in cases {
            let e = Scenario::parse(text).unwrap_err().to_string();
            assert!(
                e.contains("not valid JSON") && e.contains(needle),
                "{} -> {e} (wanted {needle:?})",
                &text[..text.len().min(40)]
            );
        }
    }
}
