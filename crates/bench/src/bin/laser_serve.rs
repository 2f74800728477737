//! The campaign service front-end: accept scenario files, fan their cells
//! over the campaign thread pool, and stream per-cell JSON results.
//!
//! ```text
//! laser-serve [scenario.json ...] [--stdin] [--watch DIR] [--once]
//!             [--poll-ms N] [--threads N] [--cache DIR] [--cache-stats FILE]
//! ```
//!
//! Scenarios arrive three ways, combinable in one invocation:
//!
//! - **positional files** run in the order given,
//! - **`--stdin`** reads one scenario document from standard input,
//! - **`--watch DIR`** polls a directory for `*.json` scenario files and runs
//!   each new one as it appears (sorted by name within a scan, every
//!   `--poll-ms` milliseconds, default 500). `--once` performs a single scan
//!   and exits — the CI-friendly drain mode.
//!
//! Every finished cell is written to stdout as one JSON line the moment a
//! worker lands it, followed by a `scenario-summary` line per scenario (see
//! `laser_bench::service`); all diagnostics go to stderr, so the stream
//! stays machine-readable. With `--cache DIR` the persistent cell cache is
//! consulted before simulating and fed afterwards, and its statistics are
//! reported on stderr (and to `--cache-stats FILE` as JSON) after every
//! scenario — rerunning a scenario against a warm cache streams every cell
//! back with `"cached": true` and simulates nothing.
//!
//! An invalid scenario given explicitly (a file argument or `--stdin`) is a
//! fail-fast error: the message and usage go to stderr and the exit code is
//! 2, before anything simulates — the `Cli::parse` convention. In watch
//! mode a bad file is noted on stderr and skipped, so one malformed drop-in
//! cannot wedge the service. Stream, cache or stats-file write failures exit
//! with a clean nonzero status, never a panic.

use std::collections::BTreeSet;
use std::env;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use laser_bench::args::{value, CliError};
use laser_bench::{run_scenario, CellCache, Scenario, ServiceOptions};

const USAGE: &str = "usage: laser-serve [scenario.json ...] [--stdin] [--watch DIR] [--once] \
                     [--poll-ms N] [--threads N] [--cache DIR] [--cache-stats FILE]\n\
                     \n\
                     scenario.json ...  run these scenario files, in order\n\
                     --stdin            read one scenario document from standard input\n\
                     --watch DIR        poll DIR for *.json scenarios and run new ones\n\
                     \x20                 as they appear (bad files are skipped with a note)\n\
                     --once             with --watch: drain the directory once and exit\n\
                     --poll-ms N        with --watch: poll interval in milliseconds\n\
                     \x20                 (default 500)\n\
                     --threads N        default worker threads for scenarios that do not\n\
                     \x20                 pin their own (default: all cores)\n\
                     --cache DIR        persistent cell cache: consult before simulating,\n\
                     \x20                 write back after\n\
                     --cache-stats FILE write cache statistics as JSON to FILE after\n\
                     \x20                 every scenario (requires --cache)";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    files: Vec<String>,
    stdin: bool,
    watch: Option<String>,
    once: bool,
    poll_ms: u64,
    threads: Option<usize>,
    cache: Option<String>,
    cache_stats: Option<String>,
}

impl Cli {
    /// Parse and validate `args` (the command line without the program name).
    /// Flag combinations are checked up front, before anything is read or
    /// simulated.
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            files: Vec::new(),
            stdin: false,
            watch: None,
            once: false,
            poll_ms: 500,
            threads: None,
            cache: None,
            cache_stats: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--stdin" => cli.stdin = true,
                "--watch" => cli.watch = Some(value(&mut args)?),
                "--once" => cli.once = true,
                "--poll-ms" => cli.poll_ms = value(&mut args)?,
                "--threads" => cli.threads = Some(value(&mut args)?),
                "--cache" => cli.cache = Some(value(&mut args)?),
                "--cache-stats" => cli.cache_stats = Some(value(&mut args)?),
                "--help" | "-h" => return Err(CliError::Usage),
                flag if flag.starts_with('-') => {
                    return Err(CliError::Invalid(format!("unknown flag '{flag}'")));
                }
                file => cli.files.push(file.to_string()),
            }
        }
        if cli.files.is_empty() && !cli.stdin && cli.watch.is_none() {
            return Err(CliError::Invalid(
                "nothing to serve: give scenario files, --stdin or --watch DIR".to_string(),
            ));
        }
        if (cli.once || cli.poll_ms != 500) && cli.watch.is_none() {
            return Err(CliError::Invalid(
                "--once and --poll-ms only apply with --watch".to_string(),
            ));
        }
        if cli.cache_stats.is_some() && cli.cache.is_none() {
            return Err(CliError::Invalid(
                "--cache-stats requires --cache".to_string(),
            ));
        }
        Ok(cli)
    }
}

/// Run one scenario document: parse, fan over the campaign pool, stream to
/// stdout, then report cache statistics. `source` names the document in
/// diagnostics.
///
/// Returns `Err((exit_code, message))` — exit 2 for an invalid scenario,
/// exit 1 for a runtime (stream/cache/stats-file) failure.
fn serve_text(
    text: &str,
    source: &str,
    options: &ServiceOptions,
    stats_file: &Option<String>,
) -> Result<(), (u8, String)> {
    let scenario = Scenario::parse(text).map_err(|e| (2, format!("{source}: {e}")))?;
    eprintln!(
        "serving scenario '{}' from {source}: {} cells",
        scenario.name,
        scenario.plan().len()
    );
    let summary = run_scenario(&scenario, options, std::io::stdout())
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
    if let Some(cache) = &options.cache {
        eprintln!("{}", cache.stats().render());
        if let Some(path) = stats_file {
            std::fs::write(path, format!("{}\n", cache.stats().to_json().render()))
                .map_err(|e| (1, format!("failed to write cache stats to {path}: {e}")))?;
        }
    }
    Ok(())
}

fn read_scenario_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("failed to read {}: {e}", path.display()))
}

/// One sorted scan of the watch directory for `*.json` files.
fn scan_watch_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the entries are collected and sorted below before any is served"
    )]
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("failed to read watch directory {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    // Directory-entry order is platform-dependent; sorting keeps the serve
    // order of a batch of drop-ins deterministic.
    files.sort();
    Ok(files)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => return e.report(USAGE),
    };

    let cache = match cli.cache.as_ref().map(CellCache::open).transpose() {
        Ok(cache) => cache.map(Arc::new),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let options = ServiceOptions {
        threads: cli.threads,
        cache,
    };

    let fail = |(code, message): (u8, String)| {
        eprintln!("{message}");
        if code == 2 {
            eprintln!("{USAGE}");
        }
        ExitCode::from(code)
    };

    // Explicit sources first: files in argument order, then stdin. A bad
    // explicit scenario is a hard error — the caller named it on purpose.
    for file in &cli.files {
        let text = match read_scenario_file(Path::new(file)) {
            Ok(text) => text,
            Err(message) => return fail((1, message)),
        };
        if let Err(failure) = serve_text(&text, file, &options, &cli.cache_stats) {
            return fail(failure);
        }
    }
    if cli.stdin {
        let mut text = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            return fail((1, format!("failed to read stdin: {e}")));
        }
        if let Err(failure) = serve_text(&text, "stdin", &options, &cli.cache_stats) {
            return fail(failure);
        }
    }

    // Watch mode: poll for new *.json drop-ins. Malformed files are noted
    // and skipped (never re-tried: a broken file would otherwise be
    // re-reported every poll), so one bad drop-in cannot wedge the service.
    if let Some(dir) = &cli.watch {
        let dir = PathBuf::from(dir);
        let mut seen: BTreeSet<PathBuf> = BTreeSet::new();
        loop {
            let files = match scan_watch_dir(&dir) {
                Ok(files) => files,
                Err(message) => return fail((1, message)),
            };
            for path in files {
                if !seen.insert(path.clone()) {
                    continue;
                }
                let text = match read_scenario_file(&path) {
                    Ok(text) => text,
                    Err(message) => {
                        eprintln!("skipping {}: {message}", path.display());
                        continue;
                    }
                };
                let source = path.display().to_string();
                match serve_text(&text, &source, &options, &cli.cache_stats) {
                    Ok(()) => {}
                    // Validation failures skip the file; runtime failures
                    // (stream/cache writes) are fatal even in watch mode.
                    Err((2, message)) => eprintln!("skipping {source}: {message}"),
                    Err(failure) => return fail(failure),
                }
            }
            if cli.once {
                break;
            }
            std::thread::sleep(Duration::from_millis(cli.poll_ms.max(1)));
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn files_stdin_and_watch_sources_parse() {
        let cli = Cli::parse(&args(&["a.json", "b.json"])).unwrap();
        assert_eq!(cli.files, vec!["a.json", "b.json"]);
        assert!(!cli.stdin);
        assert_eq!(cli.watch, None);

        let cli = Cli::parse(&args(&["--stdin"])).unwrap();
        assert!(cli.stdin);

        let cli = Cli::parse(&args(&[
            "--watch",
            "inbox",
            "--once",
            "--poll-ms",
            "50",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(cli.watch, Some("inbox".to_string()));
        assert!(cli.once);
        assert_eq!(cli.poll_ms, 50);
        assert_eq!(cli.threads, Some(2));
    }

    #[test]
    fn no_source_is_rejected_up_front() {
        let err = Cli::parse(&[]).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("nothing to serve")),
            "{err:?}"
        );
        let err = Cli::parse(&args(&["--cache", "dir"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("nothing to serve")),
            "{err:?}"
        );
    }

    #[test]
    fn flag_combinations_are_validated() {
        let err = Cli::parse(&args(&["a.json", "--once"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("--once") && m.contains("--watch")),
            "{err:?}"
        );
        let err = Cli::parse(&args(&["a.json", "--poll-ms", "50"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("--watch")),
            "{err:?}"
        );
        let err = Cli::parse(&args(&["a.json", "--cache-stats", "s.json"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("requires --cache")),
            "{err:?}"
        );
        let cli = Cli::parse(&args(&[
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
    fn malformed_flags_are_usage_errors() {
        assert_eq!(Cli::parse(&args(&["--help"])).unwrap_err(), CliError::Usage);
        assert_eq!(
            Cli::parse(&args(&["--watch"])).unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            Cli::parse(&args(&["--poll-ms", "soon"])).unwrap_err(),
            CliError::Usage
        );
        let err = Cli::parse(&args(&["--verbose"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("unknown flag '--verbose'")),
            "{err:?}"
        );
    }
}
