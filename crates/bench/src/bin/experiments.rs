//! The experiment driver: regenerates every table and figure of the paper,
//! and serves scenario files.
//!
//! ```text
//! experiments [all|campaign|run|xsocket|fig2|fig3|table1|table2|fig9|fig10|fig11|fig12|fig13|fig14]
//!             [--scale S] [--threads N] [--only w1,w2,...] [--format text|json|csv]
//!             [--cell-budget-steps N] [--pipeline]
//!             [--topology flat|2s|4s|8s] [--topology-file FILE]
//!             [--cache DIR] [--cache-stats FILE]
//! experiments run FILE... [-] [--threads N] [--cache DIR] [--cache-stats FILE]
//! ```
//!
//! `all` and each figure subcommand follow the figure table
//! ([`laser_bench::FIGURES`]): the binary plans the cells of every selected
//! figure into one shared [`Grid`], runs each unique cell once across the
//! grid's thread pool, and derives each figure from the cached cells.
//! `campaign` plans the full `workload × tool` grid on a [`Grid`] instead
//! ([`plan_campaign`]) and prints every cell. Per-cell progress
//! and notes go to stderr; stdout carries only the aggregated output, which
//! is byte-identical whatever `--threads`, `--pipeline` or the cache's
//! temperature. ARCHITECTURE.md ("Figures are views", "Scaling axes")
//! describes the formats and every axis.
//!
//! `run` serves scenario files (`-` reads one document from stdin) through
//! [`run_scenario`]: one JSON line per cell as it lands, then a
//! `scenario-summary` line per scenario (see `laser_bench::service`). The
//! scenario sets every knob but the host's: `--threads` (the default for a
//! scenario that pins none), `--cache` and `--cache-stats`; any other flag
//! is refused. Every source is read and validated before the first one
//! runs.
//!
//! Every flag lands in one [`CampaignConfig`] through the validated setters
//! scenario files use too (see `laser_bench::config`). An out-of-range
//! value, an unknown `--only` workload, an unknown `--topology` or an
//! invalid scenario exits 2 before anything is simulated; a figure that
//! fails, an unreadable scenario file or a failed stream exits 1.

use std::env;
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use laser_bench::{
    figure, plan_campaign, run_scenario, AggregateFormat, CampaignConfig, CampaignProgress,
    CellCache, CustomTopology, FigureError, Grid, Scenario, ServiceOptions, TopologySpec, FIGURES,
};

const USAGE: &str = "usage: experiments [all|campaign|run|xsocket|fig2|fig3|table1|table2|fig9|\
                     fig10|fig11|fig12|fig13|fig14] [--scale S] [--threads N] [--only w1,w2,...] \
                     [--format text|json|csv] [--cell-budget-steps N] [--pipeline] \
                     [--topology flat|2s|4s|8s] [--topology-file FILE] [--cache DIR] \
                     [--cache-stats FILE]\n\
                     \x20      experiments run FILE... [-] [--threads N] [--cache DIR] \
                     [--cache-stats FILE]\n\
                     \n\
                     run FILE... [-]       serve scenario files (- reads one from stdin): one\n\
                     \x20                     JSON line per cell as it lands, then a summary\n\
                     \x20                     line; the scenario sets every other flag\n\
                     --scale S             workload input-size multiplier (default 0.4;\n\
                     \x20                     xsocket defaults to 1.0)\n\
                     --threads N           campaign worker threads (default: all cores;\n\
                     \x20                     with run, for scenarios that pin none)\n\
                     --only w1,w2,...      campaign only: restrict to the named workloads\n\
                     \x20                     (validated up front; unknown names are an error)\n\
                     --format F            stdout format: text (default), json or csv\n\
                     --cell-budget-steps N bound every cell at N retired instructions\n\
                     --pipeline            run the detector of each detection-only LASER\n\
                     \x20                     cell on a worker thread, overlapped with the\n\
                     \x20                     simulated quanta; repair cells stay inline\n\
                     \x20                     (byte-identical output either way)\n\
                     --topology T          deploy every cell on a socket-topology preset:\n\
                     \x20                     flat (default, single socket), 2s, 4s or 8s\n\
                     \x20                     (4 cores/socket, threads scaled to match);\n\
                     \x20                     xsocket always sweeps all four\n\
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

/// Plan every selected figure — or, for `campaign`, the whole grid — into
/// one grid and run it, then print each figure in table order, or every
/// cell.
fn run(cli: &Cli) -> Result<(), String> {
    let all = cli.which == "all";
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|f| if all { f.in_all } else { f.name == cli.which })
        .collect();
    // One grid for everything selected: shared cells (every figure wants the
    // native baseline, both tables want laser-detect, ...) are planned once
    // and simulated once.
    let mut grid = Grid::with_config(cli.config.clone());
    if cli.which == "campaign" {
        plan_campaign(&mut grid);
    }
    for figure in &selected {
        (figure.plan)(&mut grid);
    }
    if grid.cells() > 0 {
        eprintln!(
            "running {} unique cells on {} worker threads...",
            grid.cells(),
            cli.config.worker_threads()
        );
    }
    let result = grid.run_with_progress(announce);
    if cli.which == "campaign" {
        let mut payload = cli.format.payload(result.campaign());
        if cli.format == AggregateFormat::Json {
            payload.push('\n');
        }
        return write_stdout(&payload);
    }

    for figure in &selected {
        let name = figure.name;
        // A figure with no form under this command line is skipped by `all`
        // and fails a request for it alone.
        let payload = match (figure.derive)(&result, cli.format) {
            Ok(payload) => payload,
            Err(FigureError::Inapplicable(why)) if all => {
                eprintln!("skipping {name}: {why}");
                continue;
            }
            Err(FigureError::Inapplicable(why)) => return Err(format!("{name} is {why}")),
            Err(FigureError::Failed(e)) => return Err(format!("experiment {name} failed: {e}")),
        };
        let block = match cli.format {
            AggregateFormat::Text => {
                format!("==================== {name} ====================\n{payload}\n")
            }
            AggregateFormat::Json => payload + "\n",
            AggregateFormat::Csv if all => format!("# {name}\n{payload}\n"),
            AggregateFormat::Csv => payload,
        };
        write_stdout(&block)?;
    }
    Ok(())
}

/// `experiments run` reads every source before the first runs: files in
/// argument order, then stdin (`-`), each parsed as a [`Scenario`]. Each
/// then streams through [`run_scenario`] to stdout, bracketed by two stderr
/// lines and followed by the cache report.
///
/// Returns `Err((exit_code, message))`: 2 for an invalid scenario, 1 for an
/// unreadable source or a failed stream, cache or stats write.
fn serve(cli: &Cli) -> Result<(), (u8, String)> {
    let mut scenarios = Vec::new();
    let files = cli.scenarios.iter().map(Some);
    for file in files.chain(cli.stdin.then_some(None)) {
        let source = file.map_or("stdin", String::as_str);
        let text = match file {
            Some(path) => std::fs::read_to_string(path),
            None => std::io::read_to_string(std::io::stdin()),
        }
        .map_err(|e| (1, format!("failed to read {source}: {e}")))?;
        let scenario = Scenario::parse(&text).map_err(|e| (2, format!("{source}: {e}")))?;
        scenarios.push((source, scenario));
    }
    let options = ServiceOptions {
        threads: cli.config.threads,
        cache: cli.config.cache.clone(),
    };
    for (source, scenario) in &scenarios {
        let cells = scenario.grid().cells();
        eprintln!(
            "serving scenario '{}' from {source}: {cells} cells",
            scenario.name
        );
        let summary = run_scenario(scenario, &options, std::io::stdout())
            .map_err(|e| (1, format!("{source}: {e}")))?;
        eprintln!(
            "scenario '{}' done: {} cells, {} ok, {} failed, {} cached, {} simulated",
            summary.scenario,
            summary.cells,
            summary.ok,
            summary.failed,
            summary.cached,
            summary.simulated
        );
        finish_cache(cli).map_err(|e| (1, e))?;
    }
    Ok(())
}

/// Why a command line was rejected; either way the exit code is 2.
#[derive(Debug, PartialEq)]
enum CliError {
    /// Malformed flags (or an explicit `--help`): print usage.
    Usage,
    /// A well-formed but invalid request (e.g. an unknown `--only` name):
    /// print the message, then usage.
    Invalid(String),
}

/// The value of the flag just taken from `args`: the next argument, parsed
/// as `T`, or [`CliError::Usage`] when it is missing or malformed.
fn value<'a, T: FromStr>(args: &mut impl Iterator<Item = &'a String>) -> Result<T, CliError> {
    args.next()
        .and_then(|s| s.parse().ok())
        .ok_or(CliError::Usage)
}

/// Attach the flag spelling to a value a [`CampaignConfig`] setter rejected.
fn knob(flag: &str, set: Result<(), String>) -> Result<(), CliError> {
    set.map_err(|why| CliError::Invalid(format!("{flag} {why}")))
}

/// The flags a scenario file sets for itself, refused with `run`.
const SCENARIO_FLAGS: &str =
    "--scale --only --format --topology --topology-file --cell-budget-steps --pipeline";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    which: String,
    format: AggregateFormat,
    /// Every campaign knob, and `--only`'s workloads. The scale defaults per
    /// subcommand: 0.4 for the figures, 1.0 for `xsocket`, whose repair
    /// trigger needs full-length contended phases to fire early enough to
    /// matter. `custom_topology` and `cache` are filled by [`Cli::open`]
    /// from the two paths below.
    config: CampaignConfig,
    /// `--topology-file FILE`: a bespoke `Topology::asymmetric` layout,
    /// loaded and validated before anything is simulated. Campaign-only,
    /// and mutually exclusive with a non-flat `--topology` preset.
    topology_file: Option<String>,
    /// `--cache DIR`: persistent cell-cache directory.
    cache: Option<String>,
    /// `--cache-stats FILE`: where to write cache statistics as JSON.
    cache_stats: Option<String>,
    /// `run`'s scenario files, in argument order.
    scenarios: Vec<String>,
    /// `run -`: read one more scenario from stdin, after the files.
    stdin: bool,
}

impl Cli {
    /// Parse and validate `args` (the command line without the program name).
    ///
    /// Validation happens *up front*, before anything is simulated: every
    /// name in an `--only` list must exist in the workload registry, so a
    /// typo is an immediate error rather than a silently smaller grid. (The
    /// registry's odd duck is the alternative-input `histogram'`, whose
    /// apostrophe is part of the name.) `--topology` names are validated the
    /// same way against the preset set, and every numeric knob by its
    /// [`CampaignConfig`] setter.
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            which: "all".to_string(),
            format: AggregateFormat::Text,
            config: CampaignConfig::evaluation(),
            topology_file: None,
            cache: None,
            cache_stats: None,
            scenarios: Vec::new(),
            stdin: false,
        };
        let mut subcommand_seen = false;
        let mut scale_given = false;
        let mut only: Option<String> = None;
        // The first scenario-set flag, refused once the subcommand is `run`
        // (`run` with no source after it fails as such).
        let mut scenario_flag = None;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if SCENARIO_FLAGS.split(' ').any(|flag| flag == arg) {
                scenario_flag = scenario_flag.or(Some(arg));
            }
            if let (Some(flag), "run") = (scenario_flag, cli.which.as_str()) {
                return Err(CliError::Invalid(format!(
                    "{flag} does not apply to run: the scenario sets it"
                )));
            }
            let config = &mut cli.config;
            match arg.as_str() {
                "--scale" => {
                    knob(arg, config.set_scale(value(&mut args)?))?;
                    scale_given = true;
                }
                "--threads" => knob(arg, config.set_threads(value(&mut args)?))?,
                "--only" => only = Some(value(&mut args)?),
                "--format" => cli.format = value(&mut args)?,
                "--cell-budget-steps" => knob(arg, config.set_budget_steps(value(&mut args)?))?,
                "--pipeline" => config.pipeline.enabled = true,
                "--topology" => {
                    let name: String = value(&mut args)?;
                    config.topology = TopologySpec::parse(&name).ok_or_else(|| {
                        CliError::Invalid(format!(
                            "unknown topology '{name}' (expected flat, 2s, 4s or 8s)"
                        ))
                    })?;
                }
                "--topology-file" => cli.topology_file = Some(value(&mut args)?),
                "--cache" => cli.cache = Some(value(&mut args)?),
                "--cache-stats" => cli.cache_stats = Some(value(&mut args)?),
                "--help" | "-h" => return Err(CliError::Usage),
                "-" if cli.which == "run" && !cli.stdin => cli.stdin = true,
                "-" if cli.which == "run" => {
                    return Err(CliError::Invalid(
                        "- may appear at most once: stdin holds one scenario".to_string(),
                    ));
                }
                flag if flag.starts_with('-') => {
                    return Err(CliError::Invalid(format!("unknown flag '{flag}'")));
                }
                file if cli.which == "run" => cli.scenarios.push(file.to_string()),
                name if subcommand_seen => {
                    return Err(CliError::Invalid(format!("unexpected argument '{name}'")));
                }
                name => {
                    cli.which = name.to_string();
                    subcommand_seen = true;
                }
            }
        }
        if !scale_given {
            if let Some(scale) = figure(&cli.which).and_then(|f| f.scale) {
                cli.config.opts.scale = scale;
            }
        }

        if cli.which == "run" && cli.scenarios.is_empty() && !cli.stdin {
            return Err(CliError::Invalid(
                "nothing to run: give scenario files, or - for stdin".to_string(),
            ));
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
            if cli.config.topology != TopologySpec::Flat {
                return Err(CliError::Invalid(
                    "--topology-file replaces the topology axis; drop --topology".to_string(),
                ));
            }
        }
        if let Some(names) = only {
            if cli.which != "campaign" {
                return Err(CliError::Invalid(
                    "--only only applies to the campaign subcommand".to_string(),
                ));
            }
            cli.config
                .set_only(names.split(','))
                .map_err(CliError::Invalid)?;
        }
        if !["all", "campaign", "run"].contains(&cli.which.as_str()) && figure(&cli.which).is_none()
        {
            return Err(CliError::Usage);
        }
        Ok(cli)
    }

    /// Open the `--cache` directory and load the `--topology-file` layout
    /// into the config. Both are usage-class failures (exit 2), caught before
    /// anything is simulated.
    fn open(&mut self) -> Result<(), String> {
        if let Some(dir) = &self.cache {
            let cache = CellCache::open(dir).map_err(|e| e.to_string())?;
            self.config.cache = Some(Arc::new(cache));
        }
        if let Some(path) = &self.topology_file {
            self.config.custom_topology = Some(Arc::new(CustomTopology::load(path)?));
        }
        Ok(())
    }
}

/// After a cached run: report statistics to stderr (never stdout — the
/// aggregated output must stay byte-identical, cold or warm), optionally
/// write them as JSON to the `--cache-stats` file, and surface any cache
/// write failure as a clean error.
fn finish_cache(cli: &Cli) -> Result<(), String> {
    let Some(cache) = &cli.config.cache else {
        return Ok(());
    };
    let stats = cache.stats();
    eprintln!("{}", stats.render());
    if let Some(path) = &cli.cache_stats {
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
    let mut cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if let CliError::Invalid(message) = e {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = cli.open() {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    let outcome = match cli.which.as_str() {
        "run" => serve(&cli),
        // A failed campaign is a usage-class exit; a failed figure is a
        // runtime one.
        which => run(&cli)
            .and_then(|()| finish_cache(&cli))
            .map_err(|msg| (if which == "campaign" { 2 } else { 1 }, msg)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_bench::{fingerprint, CellBudget, PipelineConfig, Scenario};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_to_all_figures_inline() {
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.which, "all");
        assert_eq!(cli.format, AggregateFormat::Text);
        assert_eq!(cli.config, CampaignConfig::evaluation());
        assert!(!cli.config.pipeline.enabled);
        assert_eq!(cli.config.budget, CellBudget::default());
        assert_eq!(cli.config.only, None);
        assert_eq!(cli.config.topology, TopologySpec::Flat);
        // At most one subcommand: a second positional is named and rejected,
        // never silently run in place of the first...
        assert_eq!(
            Cli::parse(&args(&["fig10", "campaign"])).unwrap_err(),
            CliError::Invalid("unexpected argument 'campaign'".to_string())
        );
        // ...and an unknown flag is named too, not taken for a subcommand
        // (the cut deployment knobs are unknown flags like any other).
        for (flag, value) in [
            ("--shard-routing", "line"),
            ("--shards", "4"),
            ("--driver-lag", "1"),
        ] {
            assert_eq!(
                Cli::parse(&args(&["campaign", flag, value])).unwrap_err(),
                CliError::Invalid(format!("unknown flag '{flag}'"))
            );
        }
    }

    #[test]
    fn topology_names_are_validated_up_front() {
        // Every preset parses...
        for (name, spec) in [
            ("flat", TopologySpec::Flat),
            ("2s", TopologySpec::DualSocket),
            ("4s", TopologySpec::QuadSocket),
            ("8s", TopologySpec::OctoSocket),
        ] {
            let cli = Cli::parse(&args(&["campaign", "--topology", name])).unwrap();
            assert_eq!(cli.config.topology, spec);
        }
        // ...an unknown name (`32s` too: no preset exceeds the directory's
        // 64 cores) is rejected before anything simulates, with the valid
        // set in the message...
        for name in ["16s", "32s"] {
            match Cli::parse(&args(&["campaign", "--topology", name])).unwrap_err() {
                CliError::Invalid(msg) => {
                    assert!(msg.contains(&format!("unknown topology '{name}'")), "{msg}");
                    assert!(msg.contains("(expected flat, 2s, 4s or 8s)"), "{msg}");
                }
                other => panic!("expected Invalid, got {other:?}"),
            }
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
        assert_eq!(cli.config.opts.scale, 1.0, "xsocket defaults to full scale");
        assert_eq!(Cli::parse(&[]).unwrap().config.opts.scale, 0.4);
        assert!(
            !figure("xsocket").unwrap().in_all,
            "xsocket must not join `all`"
        );
        let cli = Cli::parse(&args(&["xsocket", "--scale", "0.5"])).unwrap();
        assert_eq!(cli.config.opts.scale, 0.5);
    }

    #[test]
    fn pipeline_flag_enables_the_double_buffered_deployment() {
        let cli = Cli::parse(&args(&["campaign", "--pipeline", "--threads", "2"])).unwrap();
        assert!(cli.config.pipeline.enabled);
        assert_eq!(cli.config.pipeline, PipelineConfig::pipelined());
        assert_eq!(cli.config.threads, std::num::NonZeroUsize::new(2));
    }

    #[test]
    fn topology_file_is_campaign_only_and_replaces_the_preset_axis() {
        // The flag is stored for main() to load after parsing...
        let cli = Cli::parse(&args(&["campaign", "--topology-file", "layout.json"])).unwrap();
        assert_eq!(cli.topology_file, Some("layout.json".to_string()));
        assert_eq!(cli.config.topology, TopologySpec::Flat);
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
        assert_eq!(cli.config.only, Some(vec!["histogram'", "swaptions"]));
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

    #[test]
    fn out_of_range_knobs_are_rejected_with_the_setter_message() {
        for (flag, bad, why) in [
            ("--scale", "0", "must be a positive number, got 0"),
            ("--scale", "-1", "must be a positive number, got -1"),
            ("--scale", "nan", "must be a positive number, got NaN"),
            ("--scale", "inf", "must be a positive number, got inf"),
            ("--scale", "1e300", "must be at most 1242, got 1e300"),
            ("--threads", "0", "must be at least 1"),
            ("--cell-budget-steps", "0", "must be at least 1"),
        ] {
            assert_eq!(
                Cli::parse(&args(&["campaign", flag, bad])).unwrap_err(),
                CliError::Invalid(format!("{flag} {why}")),
                "{flag} {bad}"
            );
        }
        // In range, the same flags land in the config.
        let cli = Cli::parse(&args(&["--cell-budget-steps", "9", "--threads", "1"])).unwrap();
        assert_eq!(cli.config.budget, CellBudget::steps(9));
        assert_eq!(cli.config.threads, std::num::NonZeroUsize::new(1));
        let cli = Cli::parse(&args(&["--scale", "1242"])).unwrap();
        assert_eq!(cli.config.opts.scale, laser_bench::config::MAX_SCALE);
    }

    #[test]
    fn usage_header_and_crate_docs_name_exactly_the_figure_table() {
        let mut expected: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        expected.extend(["all", "campaign", "run"]);
        expected.sort_unstable();
        // The `[a|b|...]` list after the first "experiments [".
        let subcommands = |text: &'static str| {
            let list = text.split("experiments [").nth(1).unwrap();
            let mut names: Vec<&str> = list[..list.find(']').unwrap()].split('|').collect();
            names.sort_unstable();
            names
        };
        assert_eq!(subcommands(USAGE), expected, "USAGE");
        assert_eq!(
            subcommands(include_str!("experiments.rs")),
            expected,
            "header"
        );
        // The crate docs' artifact table has one row per subcommand but `all`
        // and `run`, which serves scenario files rather than an artifact.
        let mut documented: Vec<&str> = include_str!("../lib.rs")
            .split("| `experiments ")
            .skip(1)
            .map(|row| &row[..row.find('`').unwrap()])
            .collect();
        documented.sort_unstable();
        expected.retain(|&name| name != "all" && name != "run");
        assert_eq!(documented, expected, "lib.rs artifact table");
    }

    #[test]
    fn run_sources_parse() {
        let cli = Cli::parse(&args(&["run", "a.json", "b.json"])).unwrap();
        assert_eq!(cli.which, "run");
        assert_eq!(cli.scenarios, vec!["a.json", "b.json"]);
        assert!(!cli.stdin);

        // `-` is stdin wherever it stands; the host flags land as for the
        // figures.
        let cli = Cli::parse(&args(&["run", "-", "a.json", "--threads", "2"])).unwrap();
        assert_eq!(cli.scenarios, vec!["a.json"]);
        assert!(cli.stdin);
        assert_eq!(cli.config.threads, std::num::NonZeroUsize::new(2));
    }

    #[test]
    fn run_without_a_source_or_with_two_stdins_is_rejected_up_front() {
        for list in [&["run"][..], &["run", "--cache", "dir"]] {
            assert_eq!(
                Cli::parse(&args(list)).unwrap_err(),
                CliError::Invalid(
                    "nothing to run: give scenario files, or - for stdin".to_string()
                ),
                "{list:?}"
            );
        }
        assert_eq!(
            Cli::parse(&args(&["run", "-", "a.json", "-"])).unwrap_err(),
            CliError::Invalid("- may appear at most once: stdin holds one scenario".to_string())
        );
    }

    #[test]
    fn run_refuses_every_flag_the_scenario_sets() {
        for flag in SCENARIO_FLAGS.split(' ') {
            let value: &[&str] = if flag == "--pipeline" { &[] } else { &["x"] };
            let why = CliError::Invalid(format!(
                "{flag} does not apply to run: the scenario sets it"
            ));
            // After the subcommand, before its value is even read...
            let after = [&["run", "-", flag][..], value].concat();
            assert_eq!(Cli::parse(&args(&after)).unwrap_err(), why, "{after:?}");
            // ...and before it, however well-formed the value.
            let value: &[&str] = match flag {
                "--pipeline" => &[],
                "--scale" => &["1"],
                "--cell-budget-steps" => &["5"],
                "--format" => &["json"],
                "--topology" => &["2s"],
                _ => &["swaptions"],
            };
            let before = [&[flag][..], value, &["run", "-"]].concat();
            assert_eq!(Cli::parse(&args(&before)).unwrap_err(), why, "{before:?}");
        }
    }

    #[test]
    fn run_zero_threads_are_rejected_like_the_scenario_key() {
        // Refused up front with the setter's words, not quietly raised to 1.
        assert_eq!(
            Cli::parse(&args(&["run", "-", "--threads", "0"])).unwrap_err(),
            CliError::Invalid("--threads must be at least 1".to_string())
        );
    }

    #[test]
    fn run_cache_flags_are_validated() {
        assert_eq!(
            Cli::parse(&args(&["run", "a.json", "--cache-stats", "s.json"])).unwrap_err(),
            CliError::Invalid("--cache-stats requires --cache".to_string())
        );
        let cli = Cli::parse(&args(&[
            "run",
            "a.json",
            "--cache",
            "dir",
            "--cache-stats",
            "s.json",
        ]))
        .unwrap();
        assert_eq!(cli.cache, Some("dir".to_string()));
        assert_eq!(cli.cache_stats, Some("s.json".to_string()));
    }

    #[test]
    fn run_malformed_flags_are_usage_errors() {
        assert_eq!(
            Cli::parse(&args(&["run", "--help"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["run", "-", "--threads", "many"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["run", "-", "--cache"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["run", "-", "--verbose"])).unwrap_err(),
            CliError::Invalid("unknown flag '--verbose'".to_string())
        );
    }

    /// A scenario document carrying `keys` next to one placeholder cell.
    fn scenario(keys: &str) -> Result<Scenario, laser_bench::ScenarioError> {
        Scenario::parse(&format!(
            r#"{{"name": "parity", {keys}
                "cells": [{{"workload": "histogram'", "tool": "laser"}}]}}"#
        ))
    }

    #[test]
    fn flags_and_scenario_keys_fill_the_same_config() {
        // Every knob, as (flag spelling, key spelling) of the same value.
        let knobs: &[(&[&str], &str)] = &[
            (&[], ""),
            (&["--scale", "0.25"], r#""scale": 0.25,"#),
            (&["--scale", "2"], r#""scale": 2,"#),
            (&["--threads", "3"], r#""threads": 3,"#),
            (&["--cell-budget-steps", "5000"], r#""budget_steps": 5000,"#),
            (&["--pipeline"], r#""pipeline": true,"#),
            (
                &["--threads", "2", "--pipeline", "--scale", "0.1"],
                r#""pipeline": true, "scale": 0.1, "threads": 2,"#,
            ),
        ];
        for (flags, keys) in knobs {
            let cli = Cli::parse(&args(flags)).unwrap();
            let scenario = scenario(keys).unwrap();
            assert_eq!(&cli.config, scenario.config(), "{flags:?} vs {keys}");
            let cell = |config: &CampaignConfig| {
                fingerprint(&config.cell("histogram'", "laser", TopologySpec::DualSocket))
            };
            assert_eq!(cell(&cli.config), cell(scenario.config()), "{flags:?}");
        }

        // The bespoke layout is a file behind the flag and an inline object
        // under the key: the same JSON loads to the same config either way.
        let layout = r#"{"name": "fat-thin", "core_blocks": [6, 2],
            "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#;
        let path = env::temp_dir().join(format!("laser-parity-{}.json", std::process::id()));
        std::fs::write(&path, layout).unwrap();
        let mut cli = Cli::parse(&args(&[
            "campaign",
            "--topology-file",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        cli.open().unwrap();
        let _ = std::fs::remove_file(&path);
        let keyed = scenario(&format!(r#""custom_topology": {layout},"#)).unwrap();
        assert!(cli.config.custom_topology.is_some());
        assert_eq!(&cli.config, keyed.config());
        let cell = |config: &CampaignConfig| {
            fingerprint(&config.cell("histogram'", "laser", TopologySpec::Flat))
        };
        assert_eq!(cell(&cli.config), cell(keyed.config()));

        // Every out-of-range value is rejected by both, for the same reason.
        let rejected: &[(&str, &str, &str, &str)] = &[
            ("--scale", "0", "scale", "must be a positive number, got 0"),
            (
                "--scale",
                "-0.5",
                "scale",
                "must be a positive number, got -0.5",
            ),
            (
                "--scale",
                "1e300",
                "scale",
                "must be at most 1242, got 1e300",
            ),
            ("--threads", "0", "threads", "must be at least 1"),
            (
                "--cell-budget-steps",
                "0",
                "budget_steps",
                "must be at least 1",
            ),
        ];
        for (flag, bad, key, why) in rejected {
            assert_eq!(
                Cli::parse(&args(&[flag, bad])).unwrap_err(),
                CliError::Invalid(format!("{flag} {why}"))
            );
            assert_eq!(
                scenario(&format!(r#""{key}": {bad},"#)).unwrap_err().0,
                format!("\"{key}\" {why}")
            );
        }
    }
}
