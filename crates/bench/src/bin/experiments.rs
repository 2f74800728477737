//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [all|campaign|fig2|fig3|table1|table2|fig9|fig10|fig11|fig12|fig13|fig14]
//!             [--scale S] [--threads N] [--only w1,w2,...] [--format text|json|csv]
//!             [--cell-budget-steps N] [--pipeline]
//! ```
//!
//! `--scale` multiplies every workload's input size (default 0.4); the paper's
//! qualitative results hold across scales, larger values just take longer.
//!
//! Every figure/table runs through the shared [`Grid`] cell cache: the driver
//! plans the union of the cells the selected experiments need, runs each
//! unique `(workload, tool)` cell exactly once on the parallel campaign
//! runner (`--threads`, default: all cores), and derives each experiment from
//! the cached cells. Per-cell progress streams to **stderr** as cells
//! complete; stdout carries only the aggregated output, which is
//! byte-identical whatever the thread count.
//!
//! `--format json` emits one JSON document per experiment (JSON Lines when
//! several are selected); `--format csv` emits one CSV table per experiment,
//! prefixed with a `# name` comment line when several are selected (fig2,
//! a layout demonstration with no tabular form, is skipped under csv).
//! `campaign` runs the full `workload × tool` grid and supports `--only` to
//! restrict the workload set.
//!
//! `--cell-budget-steps N` bounds every cell at `N` retired instructions: a
//! budget observer rides the run's event stream (LASER cells are cancelled
//! mid-flight, single-event tools are marked after completion) and an
//! over-budget cell is recorded as a `budget-exceeded` outcome without
//! disturbing the rest of the grid. Step budgets are deterministic, so the
//! output stays byte-identical whatever `--threads` is.
//!
//! `--pipeline` deploys every LASER cell with its detector stage on a worker
//! thread, overlapped with the simulated quantum behind a double-buffered
//! record channel (see `laser_core::PipelineConfig`). Pipelining raises
//! throughput when cells are fewer than worker threads; the output is
//! **byte-identical** to a non-pipelined run — CI diffs the two to prove it.
//!
//! `--shards N` shards the pipelined detector stage over `N` worker threads
//! (and implies `--pipeline`). Records route to shards by cache-line hash, so
//! every line's observation sequence is preserved and the merged output stays
//! **byte-identical** to inline and single-worker runs for every shard count —
//! CI diffs `--shards 4` against `--shards 1` to prove it.
//!
//! `--topology flat|2s|4s|8s|32s` deploys every cell's machine on a
//! socket-topology preset (4 cores per socket, threads scaled to match, multi-socket
//! placement round-robin across sockets); `flat` is the default and is
//! byte-identical to the pre-topology behaviour. fig2 and fig3 are derived
//! outside the workload grid, so a non-flat preset skips them (with a note)
//! rather than passing flat results off as multi-socket data. The `xsocket`
//! subcommand
//! sweeps the headline false-sharing workloads across *all* presets and
//! reports how the cross-socket HITM traffic — and repair's benefit — grows
//! with the socket count.
//!
//! Workload names in `--only` are validated up front: an unknown name in the
//! comma list (including an empty entry from a stray comma) is an error
//! before anything is simulated, never a silently smaller grid. Names are
//! exact — the alternative-input histogram really is called `histogram'`,
//! apostrophe included. Unknown `--topology` names are rejected the same
//! way.
//!
//! `--cache DIR` opens a persistent cell cache (`laser_bench::CellCache`):
//! every cell's full configuration is fingerprinted, previously-computed
//! cells are loaded instead of simulated, and new cells are written back for
//! the next invocation. Simulation is deterministic and the fingerprint
//! covers everything that feeds a cell, so a warm-cache rerun is
//! **byte-identical** to a cold one in every output format while simulating
//! zero cells — CI diffs the two to prove it. Cache statistics go to stderr
//! (never stdout), and `--cache-stats FILE` additionally writes them as JSON
//! to FILE.

use std::env;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use laser_bench::accuracy::{
    fig9_from_grid, fig9_thresholds, plan_fig9, plan_table1, plan_table2, table1_from_grid,
    table2_from_grid,
};
use laser_bench::characterization::{fig2_layout, fig3_characterization_on};
use laser_bench::emit::Emit;
use laser_bench::performance::{
    fig10_from_grid, fig11_from_grid, fig12_from_grid, fig13_from_grid, fig13_savs,
    fig14_from_grid, plan_fig10, plan_fig11, plan_fig12, plan_fig13, plan_fig14,
};
use laser_bench::scenario::MAX_DRIVER_LAG;
use laser_bench::xsocket::{plan_xsocket, xsocket_from_grid};
use laser_bench::{
    validate_workload_names, Campaign, CampaignProgress, CellBudget, CellCache, CustomTopology,
    ExperimentScale, Grid, GridResult, PipelineConfig, TopologySpec,
};
use laser_workloads::registry;
use serde::json::Value;

const FIGURES: &[&str] = &[
    "fig2", "fig3", "table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
];

/// Experiments beyond the paper's figures. `xsocket` is not part of `all`
/// (which regenerates exactly the paper's artifacts); it is requested by
/// name.
const EXTRAS: &[&str] = &["xsocket"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

impl Format {
    fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }
}

const USAGE: &str = "usage: experiments [all|campaign|xsocket|fig2|fig3|table1|table2|fig9|fig10|\
                     fig11|fig12|fig13|fig14] [--scale S] [--threads N] [--only w1,w2,...] \
                     [--format text|json|csv] [--cell-budget-steps N] [--pipeline] \
                     [--shards N] [--driver-lag L] [--topology flat|2s|4s|8s|32s] \
                     [--topology-file FILE]\n\
                     \n\
                     --scale S             workload input-size multiplier (default 0.4;\n\
                     \x20                     xsocket defaults to 1.0)\n\
                     --threads N           campaign worker threads (default: all cores)\n\
                     --only w1,w2,...      campaign only: restrict to the named workloads\n\
                     \x20                     (validated up front; unknown names are an error)\n\
                     --format F            stdout format: text (default), json or csv\n\
                     --cell-budget-steps N bound every cell at N retired instructions\n\
                     --pipeline            run each LASER cell's detector stage on a worker\n\
                     \x20                     thread, overlapped with the simulated quantum\n\
                     \x20                     (byte-identical output, higher throughput)\n\
                     --shards N            shard the pipelined detector over N workers\n\
                     \x20                     (implies --pipeline; line-hash routing keeps\n\
                     \x20                     the output byte-identical for every N)\n\
                     --driver-lag L        defer each quantum's PMU charge by L quantum\n\
                     \x20                     boundaries (implies --pipeline; 0, the\n\
                     \x20                     default, is byte-identical to inline; L >= 1\n\
                     \x20                     is deterministic and usually faster)\n\
                     --topology T          deploy every cell on a socket-topology preset:\n\
                     \x20                     flat (default, single socket), 2s, 4s, 8s or\n\
                     \x20                     32s (4 cores/socket, threads scaled to match);\n\
                     \x20                     xsocket always sweeps flat/2s/4s/8s\n\
                     --topology-file FILE  campaign only: deploy every cell on a bespoke\n\
                     \x20                     asymmetric layout loaded from a JSON spec\n\
                     \x20                     (validated up front; replaces --topology and\n\
                     \x20                     is fingerprinted into the cell cache)\n\
                     --cache DIR           persistent cell cache: load previously-computed\n\
                     \x20                     cells instead of simulating, write new ones\n\
                     \x20                     back (warm reruns are byte-identical and\n\
                     \x20                     simulate nothing)\n\
                     --cache-stats FILE    write cache hit/miss statistics as JSON to FILE\n\
                     \x20                     (requires --cache; stderr always gets them)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Stderr progress sink: announce each cell as a worker claims it, and again
/// — with the result — when it finishes.
fn announce(progress: CampaignProgress) {
    match progress {
        CampaignProgress::Started { workload, tool, .. } => {
            eprintln!("        ... {workload} × {tool}");
        }
        CampaignProgress::Finished {
            done,
            total,
            cell,
            cached,
        } => {
            let origin = if cached { " [cached]" } else { "" };
            match &cell.outcome {
                Ok(run) => eprintln!(
                    "[{done}/{total}] {} × {}: ok ({} cycles, {} reported{}){origin}",
                    cell.workload,
                    cell.tool,
                    run.cycles,
                    run.reported.len(),
                    if run.repair_invoked { ", repaired" } else { "" }
                ),
                Err(failure) => eprintln!(
                    "[{done}/{total}] {} × {}: {failure}{origin}",
                    cell.workload, cell.tool
                ),
            }
        }
    }
}

/// Write an aggregated payload to stdout, surfacing write failures (a full
/// disk, a closed pipe) as a clean error instead of a `print!` panic.
fn write_stdout(payload: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    out.write_all(payload.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("failed to write to stdout: {e}"))
}

#[allow(clippy::too_many_arguments)] // straight CLI-flag plumbing
fn run_campaign(
    scale: &ExperimentScale,
    threads: Option<usize>,
    only: &Option<Vec<String>>,
    budget: CellBudget,
    pipeline: PipelineConfig,
    topology: TopologySpec,
    custom: Option<Arc<CustomTopology>>,
    format: Format,
    cache: &Option<Arc<CellCache>>,
) -> Result<(), String> {
    let mut campaign = Campaign::default()
        .with_options(scale.options())
        .with_cell_budget(budget)
        .with_pipeline(pipeline)
        .with_topology(topology);
    if let Some(custom) = custom {
        campaign = campaign.with_custom_topology(custom);
    }
    if let Some(names) = only {
        // The names were validated at argument-parse time; revalidation here
        // keeps `Campaign::with_workload_names` the single source of truth.
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        campaign = campaign
            .with_workload_names(&names)
            .map_err(|e| e.to_string())?;
    }
    if let Some(n) = threads {
        campaign = campaign.with_threads(n);
    }
    if let Some(cache) = cache {
        campaign = campaign.with_cache(Arc::clone(cache));
    }
    eprintln!(
        "running {} cells on {} worker threads...",
        campaign.cells(),
        campaign.threads()
    );
    let result = campaign.run_with_progress(announce);
    match format {
        Format::Text => write_stdout(&result.render()),
        Format::Json => write_stdout(&format!("{}\n", result.to_json().render())),
        Format::Csv => write_stdout(&result.to_csv()),
    }
}

/// Experiments that do not run workloads through the grid, so a topology
/// preset cannot change them.
fn topology_independent(which: &str) -> bool {
    matches!(which, "fig2" | "fig3")
}

fn plan_one(which: &str, grid: &mut Grid) {
    match which {
        "xsocket" => plan_xsocket(grid),
        "table1" => plan_table1(grid),
        "table2" => plan_table2(grid),
        "fig9" => plan_fig9(grid),
        "fig10" => plan_fig10(grid),
        "fig11" => plan_fig11(grid),
        "fig12" => plan_fig12(grid),
        "fig13" => plan_fig13(grid, &fig13_savs()),
        "fig14" => plan_fig14(grid),
        // fig2 (a layout demonstration) and fig3 (characterization cases)
        // have no workload × tool cells.
        _ => {}
    }
}

/// Derive one experiment from the shared grid and format it. Returns the
/// stdout payload: `(text, json, csv)` selected by `format`.
fn derive_one(
    which: &str,
    grid: &Option<GridResult>,
    scale: &ExperimentScale,
    threads: usize,
    format: Format,
) -> Result<String, String> {
    let grid = |name: &str| -> Result<&GridResult, String> {
        grid.as_ref()
            .ok_or_else(|| format!("experiment {name} needs a grid (internal error)"))
    };
    let emit = |report: &dyn Emit| match format {
        Format::Text => unreachable!("text is rendered per report"),
        Format::Json => format!("{}\n", report.to_json().render()),
        Format::Csv => report.to_csv(),
    };
    let err = |e: laser_bench::ExperimentError| format!("experiment {which} failed: {e}");
    match which {
        "fig2" => match format {
            Format::Text => Ok(fig2_layout()),
            Format::Json => Ok(format!(
                "{}\n",
                Value::object()
                    .set("kind", "fig2")
                    .set("text", fig2_layout())
                    .render()
            )),
            Format::Csv => Err("fig2 is a layout demonstration with no csv form".to_string()),
        },
        "fig3" => {
            let per_category = if scale.workload_scale < 0.2 { 5 } else { 40 };
            let report = fig3_characterization_on(per_category, threads);
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "table1" => {
            let report = table1_from_grid(grid(which)?).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "table2" => {
            let report = table2_from_grid(grid(which)?).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "fig9" => {
            let report = fig9_from_grid(grid(which)?, &fig9_thresholds()).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "fig10" => {
            let report = fig10_from_grid(grid(which)?).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "fig11" => {
            let report = fig11_from_grid(grid(which)?).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "fig12" => {
            let report = fig12_from_grid(grid(which)?, 0.10).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "fig13" => {
            let report = fig13_from_grid(grid(which)?, &fig13_savs()).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "fig14" => {
            let report = fig14_from_grid(grid(which)?).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        "xsocket" => {
            let report = xsocket_from_grid(grid(which)?).map_err(err)?;
            Ok(match format {
                Format::Text => report.render(),
                _ => emit(&report),
            })
        }
        other => Err(format!("unknown experiment '{other}'")),
    }
}

fn run_figures(
    selected: &[&str],
    scale: &ExperimentScale,
    threads: Option<usize>,
    budget: CellBudget,
    pipeline: PipelineConfig,
    topology: TopologySpec,
    format: Format,
    cache: &Option<Arc<CellCache>>,
) -> Result<(), String> {
    // Resolve format incompatibilities before any cell is simulated: fig2
    // has no csv form, so an `all --format csv` run skips it (with a note)
    // instead of discarding the whole grid's work at derive time, and an
    // explicit `fig2 --format csv` fails up front.
    let selected: Vec<&str> = if format == Format::Csv && selected.contains(&"fig2") {
        if selected.len() == 1 {
            return Err("fig2 is a layout demonstration with no csv form".to_string());
        }
        eprintln!("skipping fig2: a layout demonstration with no csv form");
        selected.iter().copied().filter(|&s| s != "fig2").collect()
    } else {
        selected.to_vec()
    };

    // Same policy for the topology axis: fig2 (an allocator-layout demo) and
    // fig3 (PEBS record characterization on fixed two-thread cases) are
    // derived outside the workload grid, so a topology preset cannot apply
    // to them — skip them with a note rather than silently reporting flat
    // results as if they were 2s/4s data, and fail an explicit request.
    let selected: Vec<&str> = if topology != TopologySpec::Flat
        && selected.iter().any(|s| topology_independent(s))
    {
        if selected.iter().all(|s| topology_independent(s)) {
            return Err(format!(
                "{} is derived outside the workload grid; --topology does not apply",
                selected.join(", ")
            ));
        }
        for s in selected.iter().filter(|s| topology_independent(s)) {
            eprintln!("skipping {s}: derived outside the workload grid, --topology does not apply");
        }
        selected
            .iter()
            .copied()
            .filter(|s| !topology_independent(s))
            .collect()
    } else {
        selected
    };

    // One grid for everything selected: shared cells (every figure wants the
    // native baseline, both tables want laser-detect, ...) are planned once
    // and simulated once.
    let mut grid = Grid::new(*scale)
        .with_cell_budget(budget)
        .with_pipeline(pipeline)
        .with_topology(topology);
    if let Some(n) = threads {
        grid = grid.with_threads(n);
    }
    if let Some(cache) = cache {
        grid = grid.with_cache(Arc::clone(cache));
    }
    let grid_threads = grid.threads();
    for which in &selected {
        plan_one(which, &mut grid);
    }
    let total = grid.cells();
    let grid_result = if total > 0 {
        eprintln!("running {total} unique cells on {grid_threads} worker threads...");
        Some(grid.run_with_progress(announce))
    } else {
        None
    };

    let many = selected.len() > 1;
    for which in &selected {
        let payload = derive_one(which, &grid_result, scale, grid_threads, format)?;
        let mut block = String::new();
        match format {
            Format::Text => {
                block.push_str(&format!(
                    "==================== {which} ====================\n"
                ));
                block.push_str(&payload);
                block.push('\n');
            }
            Format::Json => block.push_str(&payload),
            Format::Csv => {
                if many {
                    block.push_str(&format!("# {which}\n"));
                }
                block.push_str(&payload);
                if many {
                    block.push('\n');
                }
            }
        }
        write_stdout(&block)?;
    }
    Ok(())
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    which: String,
    /// `--scale`, when given; each subcommand otherwise picks its default
    /// (0.4 for the figures, 1.0 for `xsocket`, whose repair trigger needs
    /// full-length contended phases to fire early enough to matter).
    scale: Option<f64>,
    threads: Option<usize>,
    only: Option<Vec<String>>,
    format: Format,
    budget: CellBudget,
    pipeline: PipelineConfig,
    topology: TopologySpec,
    /// `--topology-file FILE`: a bespoke `Topology::asymmetric` layout,
    /// loaded and validated before anything is simulated. Campaign-only,
    /// and mutually exclusive with a non-flat `--topology` preset.
    topology_file: Option<String>,
    /// `--cache DIR`: persistent cell-cache directory.
    cache: Option<String>,
    /// `--cache-stats FILE`: where to write cache statistics as JSON.
    cache_stats: Option<String>,
}

/// Why the command line was rejected.
#[derive(Debug, PartialEq)]
enum CliError {
    /// Malformed flags (or an explicit `--help`): print usage, exit 2.
    Usage,
    /// A well-formed but invalid request (e.g. an unknown `--only` name):
    /// print the message, then usage, exit 2.
    Invalid(String),
}

impl Cli {
    /// Parse and validate `args` (the command line without the program name).
    ///
    /// Validation happens *up front*, before anything is simulated: every
    /// name in an `--only` list must exist in the workload registry, so a
    /// typo is an immediate error rather than a silently smaller grid. (The
    /// registry's odd duck is the alternative-input `histogram'`, whose
    /// apostrophe is part of the name.) `--topology` names are validated the
    /// same way against the preset set.
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            which: "all".to_string(),
            scale: None,
            threads: None,
            only: None,
            format: Format::Text,
            budget: CellBudget::default(),
            pipeline: PipelineConfig::default(),
            topology: TopologySpec::Flat,
            topology_file: None,
            cache: None,
            cache_stats: None,
        };
        let mut subcommand_seen = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                        return Err(CliError::Usage);
                    };
                    cli.scale = Some(v);
                    i += 2;
                }
                "--threads" => {
                    let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                        return Err(CliError::Usage);
                    };
                    cli.threads = Some(v);
                    i += 2;
                }
                "--only" => {
                    let Some(v) = args.get(i + 1) else {
                        return Err(CliError::Usage);
                    };
                    cli.only = Some(v.split(',').map(str::to_string).collect());
                    i += 2;
                }
                "--format" => {
                    let Some(v) = args.get(i + 1).and_then(|s| Format::parse(s)) else {
                        return Err(CliError::Usage);
                    };
                    cli.format = v;
                    i += 2;
                }
                "--cell-budget-steps" => {
                    let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                        return Err(CliError::Usage);
                    };
                    cli.budget = CellBudget::steps(v);
                    i += 2;
                }
                "--pipeline" => {
                    // Set the flag in place so `--pipeline` composes with
                    // `--shards`/`--driver-lag` in either order.
                    cli.pipeline.enabled = true;
                    i += 1;
                }
                "--shards" => {
                    let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                        return Err(CliError::Usage);
                    };
                    if v == 0 {
                        return Err(CliError::Invalid("--shards must be at least 1".to_string()));
                    }
                    cli.pipeline = cli.pipeline.with_shards(v);
                    cli.pipeline.enabled = true;
                    i += 2;
                }
                "--driver-lag" => {
                    let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                        return Err(CliError::Usage);
                    };
                    if v > MAX_DRIVER_LAG {
                        return Err(CliError::Invalid(format!(
                            "--driver-lag must be at most {MAX_DRIVER_LAG}"
                        )));
                    }
                    cli.pipeline = cli.pipeline.with_driver_lag(v as usize);
                    cli.pipeline.enabled = true;
                    i += 2;
                }
                "--topology" => {
                    let Some(v) = args.get(i + 1) else {
                        return Err(CliError::Usage);
                    };
                    cli.topology = TopologySpec::parse(v).ok_or_else(|| {
                        CliError::Invalid(format!(
                            "unknown topology '{v}' (expected flat, 2s, 4s, 8s or 32s)"
                        ))
                    })?;
                    i += 2;
                }
                "--topology-file" => {
                    let Some(v) = args.get(i + 1) else {
                        return Err(CliError::Usage);
                    };
                    cli.topology_file = Some(v.clone());
                    i += 2;
                }
                "--cache" => {
                    let Some(v) = args.get(i + 1) else {
                        return Err(CliError::Usage);
                    };
                    cli.cache = Some(v.clone());
                    i += 2;
                }
                "--cache-stats" => {
                    let Some(v) = args.get(i + 1) else {
                        return Err(CliError::Usage);
                    };
                    cli.cache_stats = Some(v.clone());
                    i += 2;
                }
                "--help" | "-h" => return Err(CliError::Usage),
                flag if flag.starts_with('-') => {
                    return Err(CliError::Invalid(format!("unknown flag '{flag}'")));
                }
                name if subcommand_seen => {
                    return Err(CliError::Invalid(format!("unexpected argument '{name}'")));
                }
                name => {
                    cli.which = name.to_string();
                    subcommand_seen = true;
                    i += 1;
                }
            }
        }

        if cli.cache_stats.is_some() && cli.cache.is_none() {
            return Err(CliError::Invalid(
                "--cache-stats requires --cache".to_string(),
            ));
        }
        if cli.topology_file.is_some() {
            if cli.which != "campaign" {
                return Err(CliError::Invalid(
                    "--topology-file only applies to the campaign subcommand".to_string(),
                ));
            }
            if cli.topology != TopologySpec::Flat {
                return Err(CliError::Invalid(
                    "--topology-file replaces the topology axis; drop --topology".to_string(),
                ));
            }
        }
        if let Some(names) = &cli.only {
            if cli.which != "campaign" {
                return Err(CliError::Invalid(
                    "--only only applies to the campaign subcommand".to_string(),
                ));
            }
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            validate_workload_names(&names, &registry())
                .map_err(|e| CliError::Invalid(e.to_string()))?;
        }
        if cli.which != "campaign"
            && cli.which != "all"
            && !FIGURES.contains(&cli.which.as_str())
            && !EXTRAS.contains(&cli.which.as_str())
        {
            return Err(CliError::Usage);
        }
        Ok(cli)
    }
}

/// After a cached run: report statistics to stderr (never stdout — the
/// aggregated output must stay byte-identical, cold or warm), optionally
/// write them as JSON to the `--cache-stats` file, and surface any cache
/// write failure as a clean error.
fn finish_cache(cache: &Option<Arc<CellCache>>, stats_file: &Option<String>) -> Result<(), String> {
    let Some(cache) = cache else {
        return Ok(());
    };
    let stats = cache.stats();
    eprintln!("{}", stats.render());
    if let Some(path) = stats_file {
        std::fs::write(path, format!("{}\n", stats.to_json().render()))
            .map_err(|e| format!("failed to write cache stats to {path}: {e}"))?;
    }
    if let Some(message) = cache.write_error() {
        return Err(format!("cell cache write failed: {message}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(CliError::Usage) => return usage(),
        Err(CliError::Invalid(msg)) => {
            eprintln!("{msg}");
            return usage();
        }
    };
    let cache = match &cli.cache {
        Some(dir) => match CellCache::open(dir) {
            Ok(cache) => Some(Arc::new(cache)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let scale = ExperimentScale {
        workload_scale: cli.scale.unwrap_or(if cli.which == "xsocket" {
            1.0
        } else {
            ExperimentScale::default().workload_scale
        }),
        ..ExperimentScale::default()
    };

    // Load and validate a bespoke layout up front: a malformed file is a
    // usage-class error (exit 2), caught before anything is simulated.
    let custom = match &cli.topology_file {
        Some(path) => match CustomTopology::load(path) {
            Ok(custom) => Some(Arc::new(custom)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    if cli.which == "campaign" {
        return match run_campaign(
            &scale,
            cli.threads,
            &cli.only,
            cli.budget,
            cli.pipeline,
            cli.topology,
            custom,
            cli.format,
            &cache,
        )
        .and_then(|()| finish_cache(&cache, &cli.cache_stats))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }

    let selected: Vec<&str> = if cli.which == "all" {
        FIGURES.to_vec()
    } else {
        vec![cli.which.as_str()]
    };
    match run_figures(
        &selected,
        &scale,
        cli.threads,
        cli.budget,
        cli.pipeline,
        cli.topology,
        cli.format,
        &cache,
    )
    .and_then(|()| finish_cache(&cache, &cli.cache_stats))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_to_all_figures_inline() {
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.which, "all");
        assert_eq!(cli.format, Format::Text);
        assert!(!cli.pipeline.enabled);
        assert!(cli.budget.is_unlimited());
        assert_eq!(cli.only, None);
        assert_eq!(cli.topology, TopologySpec::Flat);
        // At most one subcommand: a second positional is named and rejected,
        // never silently run in place of the first...
        assert_eq!(
            Cli::parse(&args(&["fig10", "campaign"])).unwrap_err(),
            CliError::Invalid("unexpected argument 'campaign'".to_string())
        );
        // ...and an unknown flag is named too, not taken for a subcommand.
        assert_eq!(
            Cli::parse(&args(&["campaign", "--shard-routing", "line"])).unwrap_err(),
            CliError::Invalid("unknown flag '--shard-routing'".to_string())
        );
    }

    #[test]
    fn topology_names_are_validated_up_front() {
        // Every preset parses...
        for (name, spec) in [
            ("flat", TopologySpec::Flat),
            ("2s", TopologySpec::DualSocket),
            ("4s", TopologySpec::QuadSocket),
            ("8s", TopologySpec::OctoSocket),
            ("32s", TopologySpec::ThirtyTwoSocket),
        ] {
            let cli = Cli::parse(&args(&["campaign", "--topology", name])).unwrap();
            assert_eq!(cli.topology, spec);
        }
        // ...an unknown name is rejected before anything simulates, with the
        // valid set in the message...
        let err = Cli::parse(&args(&["campaign", "--topology", "16s"])).unwrap_err();
        match err {
            CliError::Invalid(msg) => {
                assert!(msg.contains("unknown topology '16s'"), "{msg}");
                assert!(msg.contains("flat, 2s, 4s, 8s or 32s"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // ...and a dangling flag is a usage error.
        assert_eq!(
            Cli::parse(&args(&["--topology"])).unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn xsocket_is_a_valid_subcommand_but_not_part_of_all() {
        let cli = Cli::parse(&args(&["xsocket", "--topology", "2s"])).unwrap();
        assert_eq!(cli.which, "xsocket");
        assert_eq!(cli.scale, None, "scale default resolves per subcommand");
        assert!(!FIGURES.contains(&"xsocket"), "xsocket must not join `all`");
        assert!(EXTRAS.contains(&"xsocket"));
        let cli = Cli::parse(&args(&["xsocket", "--scale", "0.5"])).unwrap();
        assert_eq!(cli.scale, Some(0.5));
    }

    #[test]
    fn pipeline_flag_enables_the_double_buffered_deployment() {
        let cli = Cli::parse(&args(&["campaign", "--pipeline", "--threads", "2"])).unwrap();
        assert!(cli.pipeline.enabled);
        assert_eq!(cli.pipeline, PipelineConfig::pipelined());
        assert_eq!(cli.threads, Some(2));
    }

    #[test]
    fn shards_flag_implies_the_pipelined_deployment() {
        // `--shards` alone pipelines with the requested worker count...
        let cli = Cli::parse(&args(&["campaign", "--shards", "4"])).unwrap();
        assert_eq!(cli.pipeline, PipelineConfig::pipelined().with_shards(4));
        // ...even for 1, so CI can diff two pipelined runs that differ only
        // in shard count.
        let cli = Cli::parse(&args(&["campaign", "--shards", "1"])).unwrap();
        assert_eq!(cli.pipeline, PipelineConfig::pipelined());
        // Flag order must not matter.
        let ab = Cli::parse(&args(&["campaign", "--pipeline", "--shards", "8"])).unwrap();
        let ba = Cli::parse(&args(&["campaign", "--shards", "8", "--pipeline"])).unwrap();
        assert_eq!(ab.pipeline, ba.pipeline);
        assert_eq!(ab.pipeline, PipelineConfig::pipelined().with_shards(8));
        // Zero shards and malformed counts are rejected up front.
        assert_eq!(
            Cli::parse(&args(&["campaign", "--shards", "0"])).unwrap_err(),
            CliError::Invalid("--shards must be at least 1".to_string())
        );
        assert_eq!(
            Cli::parse(&args(&["--shards"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["--shards", "many"])).unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn driver_lag_flag_implies_the_pipelined_deployment() {
        // A lag of 0 is the inline-identical pipeline default...
        let cli = Cli::parse(&args(&["campaign", "--driver-lag", "0"])).unwrap();
        assert_eq!(cli.pipeline, PipelineConfig::pipelined());
        // ...and lag >= 1 defers the charge-back by that many boundaries.
        let cli = Cli::parse(&args(&["campaign", "--driver-lag", "2"])).unwrap();
        assert_eq!(cli.pipeline, PipelineConfig::pipelined().with_driver_lag(2));
        assert!(cli.pipeline.enabled, "--driver-lag implies --pipeline");
        // Flag order must not matter, and it composes with --shards.
        let ab = Cli::parse(&args(&["campaign", "--driver-lag", "1", "--shards", "4"])).unwrap();
        let ba = Cli::parse(&args(&["campaign", "--shards", "4", "--driver-lag", "1"])).unwrap();
        assert_eq!(ab.pipeline, ba.pipeline);
        assert_eq!(
            ab.pipeline,
            PipelineConfig::pipelined()
                .with_shards(4)
                .with_driver_lag(1)
        );
        // Out-of-range and malformed lags are rejected up front.
        let over = (MAX_DRIVER_LAG + 1).to_string();
        assert_eq!(
            Cli::parse(&args(&["campaign", "--driver-lag", &over])).unwrap_err(),
            CliError::Invalid(format!("--driver-lag must be at most {MAX_DRIVER_LAG}"))
        );
        assert_eq!(
            Cli::parse(&args(&["--driver-lag"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["--driver-lag", "soon"])).unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn topology_file_is_campaign_only_and_replaces_the_preset_axis() {
        // The flag is stored for main() to load after parsing...
        let cli = Cli::parse(&args(&["campaign", "--topology-file", "layout.json"])).unwrap();
        assert_eq!(cli.topology_file, Some("layout.json".to_string()));
        assert_eq!(cli.topology, TopologySpec::Flat);
        // ...an explicit flat preset is redundant but harmless...
        Cli::parse(&args(&[
            "campaign",
            "--topology",
            "flat",
            "--topology-file",
            "layout.json",
        ]))
        .unwrap();
        // ...while a non-flat preset would fight the override...
        assert_eq!(
            Cli::parse(&args(&[
                "campaign",
                "--topology",
                "2s",
                "--topology-file",
                "layout.json",
            ]))
            .unwrap_err(),
            CliError::Invalid(
                "--topology-file replaces the topology axis; drop --topology".to_string()
            )
        );
        // ...figures and xsocket sweep presets, so the override is
        // campaign-only...
        assert_eq!(
            Cli::parse(&args(&["xsocket", "--topology-file", "layout.json"])).unwrap_err(),
            CliError::Invalid(
                "--topology-file only applies to the campaign subcommand".to_string()
            )
        );
        // ...and a dangling flag is a usage error.
        assert_eq!(
            Cli::parse(&args(&["--topology-file"])).unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn only_names_are_validated_before_anything_runs() {
        // The valid list parses...
        let cli = Cli::parse(&args(&["campaign", "--only", "histogram',swaptions"])).unwrap();
        assert_eq!(
            cli.only,
            Some(vec!["histogram'".to_string(), "swaptions".to_string()])
        );
        // ...a typo'd name is rejected up front, before anything simulates,
        // with a hint about the apostrophe-carrying `histogram'`...
        let err = Cli::parse(&args(&["campaign", "--only", "histogramm,swaptions"])).unwrap_err();
        match err {
            CliError::Invalid(msg) => {
                assert!(msg.contains("unknown workload 'histogramm'"), "{msg}");
                assert!(msg.contains("histogram'"), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // ...as is an empty entry from a stray comma.
        assert!(matches!(
            Cli::parse(&args(&["campaign", "--only", "swaptions,"])).unwrap_err(),
            CliError::Invalid(_)
        ));
    }

    #[test]
    fn only_outside_campaign_is_rejected() {
        assert_eq!(
            Cli::parse(&args(&["fig10", "--only", "swaptions"])).unwrap_err(),
            CliError::Invalid("--only only applies to the campaign subcommand".to_string())
        );
    }

    #[test]
    fn cache_flags_parse_and_validate() {
        let cli = Cli::parse(&args(&[
            "all",
            "--cache",
            "cells",
            "--cache-stats",
            "stats.json",
        ]))
        .unwrap();
        assert_eq!(cli.cache, Some("cells".to_string()));
        assert_eq!(cli.cache_stats, Some("stats.json".to_string()));
        // Stats without a cache make no sense and are rejected up front...
        assert_eq!(
            Cli::parse(&args(&["all", "--cache-stats", "stats.json"])).unwrap_err(),
            CliError::Invalid("--cache-stats requires --cache".to_string())
        );
        // ...and dangling flags are usage errors.
        assert_eq!(
            Cli::parse(&args(&["--cache"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["--cache-stats"])).unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn unknown_subcommands_and_malformed_flags_are_usage_errors() {
        assert_eq!(Cli::parse(&args(&["fig99"])).unwrap_err(), CliError::Usage);
        assert_eq!(
            Cli::parse(&args(&["--scale", "fast"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(Cli::parse(&args(&["--help"])).unwrap_err(), CliError::Usage);
    }
}
