//! `experiments run` end to end: its stdout is what [`run_scenario`] writes
//! for the same scenario, a rerun against the cache it filled answers every
//! cell from disk, and an invalid source named anywhere on the command line
//! stops the run before any scenario streams a cell.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use laser_bench::{run_scenario, Scenario, ServiceOptions};

/// One worker, so the cell lines land in one order and compare byte for byte.
const SCENARIO: &str = r#"{"name": "run-parity", "scale": 0.06, "threads": 1, "format": "csv",
    "cells": [{"workload": "histogram'", "tool": "native"},
              {"workload": "histogram'", "tool": "laser-detect"},
              {"workload": "swaptions", "tool": "native"}]}"#;

/// A fresh directory under the temp dir holding `SCENARIO` as `good.json`.
#[expect(
    clippy::unwrap_used,
    reason = "a test helper: a failed write or spawn fails the calling test"
)]
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laser-run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.json"), SCENARIO).unwrap();
    dir
}

/// `experiments run` with `args`, in `dir`.
#[expect(
    clippy::unwrap_used,
    reason = "a test helper: a failed write or spawn fails the calling test"
)]
fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("run")
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn run_streams_what_run_scenario_writes_and_reruns_from_the_cache() {
    let dir = scratch("parity");
    let mut expected = Vec::new();
    let scenario = Scenario::parse(SCENARIO).unwrap();
    run_scenario(&scenario, &ServiceOptions::default(), &mut expected).unwrap();

    let cold = run(&dir, &["good.json"]);
    assert!(cold.status.success(), "{cold:?}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&expected)
    );
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(
        stderr.contains("serving scenario 'run-parity' from good.json: 3 cells"),
        "{stderr}"
    );
    assert!(
        stderr.contains("scenario 'run-parity' done: 3 cells, 3 ok, 0 failed"),
        "{stderr}"
    );

    // The first run fills the cache; the second is answered by it.
    let fill = run(&dir, &["good.json", "--cache", "cells"]);
    assert!(fill.status.success(), "{fill:?}");
    let warm = run(
        &dir,
        &[
            "good.json",
            "--cache",
            "cells",
            "--cache-stats",
            "stats.json",
        ],
    );
    assert!(warm.status.success(), "{warm:?}");
    let stdout = String::from_utf8_lossy(&warm.stdout);
    let cells: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains(r#""kind":"cell""#))
        .collect();
    assert_eq!(cells.len(), 3, "{stdout}");
    assert!(
        cells.iter().all(|l| l.contains(r#""cached":true"#)),
        "{stdout}"
    );
    let stats = std::fs::read_to_string(dir.join("stats.json")).unwrap();
    assert!(stats.contains(r#""simulated":0"#), "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_source_anywhere_stops_the_run_before_anything_streams() {
    let dir = scratch("failfast");
    std::fs::write(dir.join("bad.json"), r#"{"name": "bad""#).unwrap();
    let output = run(&dir, &["good.json", "bad.json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad.json: invalid scenario"), "{stderr}");
    assert!(!stderr.contains("serving scenario"), "{stderr}");
    assert!(output.stdout.is_empty(), "nothing runs");

    // An unreadable file is exit 1, also before the good one runs.
    let output = run(&dir, &["good.json", "missing.json"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("failed to read missing.json"));
    assert!(output.stdout.is_empty(), "nothing runs");

    // No source, or stdin named twice, is refused before anything is read.
    for args in [&[][..], &["-", "good.json", "-"]] {
        let output = run(&dir, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?}: nothing runs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
