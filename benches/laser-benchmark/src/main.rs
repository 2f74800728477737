//! The repository benchmark. See `README.md` beside this package for the
//! metric and workload dictionary; `BENCHMARK.json` at the repository root
//! lists the same names for the driver.
//!
//! ```text
//! laser-benchmark --workload NAME --seed N --seconds S --trace 0|1    one workload, one JSON line
//! laser-benchmark run [--seed N] [--seconds S] [--out FILE] [--spans PREFIX] [--quick] [--threads N]
//! laser-benchmark compare A.json B.json
//! laser-benchmark describe                                            the workload and metric dictionary
//! ```

mod campaign;
mod compare;
mod digest;
mod host;
mod isolated;
mod measure;
mod metrics;
mod report;
mod session;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde::json::Value;

use measure::{Options, WorkloadResult};
use workloads::{DEFAULT_SEED, WORKLOADS};

/// Seconds of timed passes per workload unless `--seconds` says otherwise;
/// `BENCHMARK.json` pins the same value as `run_seconds`.
const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "usage:
  laser-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--threads N] [--spans FILE]
  laser-benchmark run [--seed N] [--seconds S] [--out FILE] [--spans PREFIX] [--quick] [--threads N]
  laser-benchmark compare A.json B.json
  laser-benchmark describe";

/// The parsed flags shared by the one-workload form and `run`.
#[derive(Debug, Clone)]
struct Flags {
    workload: Option<String>,
    options: Options,
    out: Option<PathBuf>,
    /// Print the full result document instead of the driver's line (what
    /// `run` asks of its children).
    full: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            threads: None,
            spans: None,
        },
        out: None,
        full: false,
    };
    let options = &mut flags.options;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                let text = value()?;
                options.seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|_| format!("--seed {text}: not a whole number"))?;
            }
            "--seconds" => {
                let text = value()?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {text}: not a positive number"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--threads" => {
                let text = value()?;
                options.threads = Some(
                    text.parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("--threads {text}: not a positive whole number"))?,
                );
            }
            "--spans" => options.spans = Some(PathBuf::from(value()?)),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--quick" => options.quick = true,
            "--full-report" => flags.full = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(flags)
}

/// Run one workload in this process and print its result as the last line
/// of stdout.
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload =
        workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    eprintln!(
        "laser-benchmark: {name}, seed {:#x}, {} s, trace {}",
        flags.options.seed,
        flags.options.seconds,
        u8::from(flags.options.trace)
    );
    let result = measure::run_workload(workload, &flags.options)?;
    eprint!("{}", result.render());
    if flags.full {
        println!("{}", result.to_json().render());
    } else {
        println!("{}", result.driver_line(flags.options.trace));
    }
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a fresh child process of this binary and read back
/// its full result.
fn child_result(options: &Options, workload: &str, trace: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload, "--full-report"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        child.arg("--quick");
    }
    if let Some(threads) = options.threads {
        child.args(["--threads", &threads.to_string()]);
    }
    if let (true, Some(prefix)) = (trace, &options.spans) {
        child
            .arg("--spans")
            .arg(format!("{}.{workload}.json", prefix.display()));
    }
    // `output` waits for the child to end before returning.
    let output = child
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    let value = Value::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    WorkloadResult::from_json(&value)
}

/// Run every workload, one at a time, each twice in a fresh child process of
/// this binary — which is what makes `peak_rss_mb` a per-workload number.
/// The untraced child gives the end-to-end metrics, the traced child the
/// per-layer metrics; both must be correct.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let mut result = child_result(&flags.options, workload.name, false)?;
        let traced = child_result(&flags.options, workload.name, true)?;
        result.per_layer = traced.per_layer;
        result.correct &= traced.correct;
        result.failed_ops += traced.failed_ops;
        result.ops += traced.ops;
        result.problems.extend(traced.problems);
        results.push(result);
    }

    let mut all_good = true;
    for result in &results {
        print!("{}", result.render());
        all_good &= result.correct && result.failed_ops == 0;
    }
    println!("{}", report::VALIDATION);
    let document = Value::object()
        .set("benchmark", "laser-benchmark")
        .set("host", host::facts())
        .set("seed", flags.options.seed)
        .set("seconds", flags.options.seconds)
        .set("quick", flags.options.quick)
        .set("validation", report::VALIDATION)
        .set(
            "workloads",
            results
                .iter()
                .map(WorkloadResult::to_json)
                .collect::<Vec<Value>>(),
        );
    if let Some(path) = &flags.out {
        std::fs::write(path, format!("{}\n", document.render()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(if all_good {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Value::parse(text.trim_end()).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Print the workload and metric dictionary.
fn describe() {
    println!("workloads (load: closed loop, one client, passes back to back):");
    for w in WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name, unit, better, bound, time base):");
    for e in metrics::END_TO_END {
        println!(
            "  {:<18} {:<6} {:<6} {:<5} {:<5} {}",
            e.name,
            e.unit,
            e.better.key(),
            e.bound,
            e.base.key(),
            e.what
        );
    }
    println!("per-layer metrics (name, unit, better, what it should move):");
    for p in metrics::PER_LAYER {
        println!(
            "  {:<42} {:<6} {:<6} {}",
            p.name,
            p.unit,
            p.better.key(),
            p.moves
        );
    }
    println!("{}", report::VALIDATION);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|flags| run_all(&flags)),
        Some("compare") => compare_files(&args[1..]),
        Some("describe") => {
            describe();
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => parse_flags(&args).and_then(|flags| one_workload(&flags)),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("laser-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_form_parses() {
        let flags = parse_flags(&args(
            "--workload campaign_warm --seed 17 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(flags.workload.as_deref(), Some("campaign_warm"));
        let o = &flags.options;
        assert_eq!((o.seed, o.seconds, o.trace), (17, 10.0, true));
        assert!(!o.quick && !flags.full && o.threads.is_none());
        assert_eq!(
            parse_flags(&args("--seed 0xA5E12")).unwrap().options.seed,
            DEFAULT_SEED
        );
        assert_eq!(parse_flags(&[]).unwrap().options.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--threads 0",
            "--bogus",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` lists the benchmark's workloads and metrics for the
    /// driver; it must parse and name exactly what the code prints.
    #[test]
    fn benchmark_json_matches_the_dictionaries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Value::parse(text.trim_end()).unwrap();
        assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "round trip");

        let Value::Object(pairs) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            report::f64_of(doc.get("run_seconds").unwrap()),
            Some(DEFAULT_SECONDS)
        );

        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let listed = report::items_of(&doc, "workloads").unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, workload) in listed.iter().zip(WORKLOADS) {
            assert_eq!(text_of(entry, "name"), workload.name);
            assert_eq!(text_of(entry, "why"), workload.why);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        let listed = report::items_of(&doc, "end_to_end").unwrap();
        assert_eq!(listed.len(), metrics::END_TO_END.len());
        for (entry, def) in listed.iter().zip(metrics::END_TO_END) {
            assert_eq!(text_of(entry, "name"), def.name);
            assert_eq!(text_of(entry, "unit"), def.unit);
            assert_eq!(text_of(entry, "better"), def.better.key());
            assert_eq!(report::f64_of(entry.get("bound").unwrap()), Some(def.bound));
        }
        let listed = report::items_of(&doc, "per_layer").unwrap();
        assert_eq!(listed.len(), metrics::PER_LAYER.len());
        for (entry, def) in listed.iter().zip(metrics::PER_LAYER) {
            assert_eq!(text_of(entry, "name"), def.name);
            assert_eq!(text_of(entry, "unit"), def.unit);
            assert_eq!(text_of(entry, "better"), def.better.key());
        }
    }

    /// `--quick`: one pass at a tenth of the scale, every correctness check —
    /// digests pass to pass, pipelined against inline, the layered replay
    /// against the session, warm bytes against cold — in a few seconds.
    #[test]
    fn quick_mode_passes_every_check_on_every_workload() {
        for workload in WORKLOADS {
            let options = Options {
                seed: DEFAULT_SEED,
                seconds: 1.0,
                trace: true,
                quick: true,
                threads: None,
                spans: None,
            };
            let result = measure::run_workload(workload, &options).unwrap();
            assert!(result.correct, "{}: {:?}", workload.name, result.problems);
            assert_eq!(result.failed_ops, 0, "{}", workload.name);
            assert_eq!(result.passes, 1);
            assert!(result.ops >= 1);
            assert_eq!(result.end_to_end.len(), metrics::END_TO_END.len());
            assert_eq!(result.per_layer.len(), metrics::PER_LAYER.len());
            for (name, samples) in &result.end_to_end {
                assert!(
                    samples.iter().all(|s| s.is_finite() && *s > 0.0),
                    "{}: {name} = {samples:?}",
                    workload.name
                );
            }
            for (name, value) in &result.per_layer {
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name);
            }
            let line = Value::parse(&result.driver_line(false)).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        }
    }
}
