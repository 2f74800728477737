//! The `experiments` binary on hostile JSON, as a `--topology-file` layout
//! or a scenario on `run -`'s stdin: a document nested 100,000 deep is an
//! invalid input (exit 2 with the parser's message), not a stack overflow
//! that aborts the process, and a layout whose core blocks overflow or a
//! tool that cannot run is an invalid input, not a campaign of failed
//! cells.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn flood() -> String {
    format!("{}{}", "[".repeat(100_000), "]".repeat(100_000))
}

fn assert_rejected(output: &Output, what: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains(needle), "{what}: {stderr}");
    assert!(output.stdout.is_empty(), "{what}: nothing runs");
}

/// `experiments campaign --topology-file` on a file holding `text`.
#[expect(
    clippy::unwrap_used,
    reason = "a test helper: a failed write or spawn fails the calling test"
)]
fn campaign_on_topology_file(tag: &str, text: &str) -> Output {
    let path = std::env::temp_dir().join(format!("laser-{tag}-topo-{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["campaign", "--topology-file"])
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    output
}

/// `experiments run -` fed `text` on stdin.
#[expect(
    clippy::unwrap_used,
    reason = "a test helper: a failed spawn or pipe fails the calling test"
)]
fn serve_on_stdin(text: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(text.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn laser_serve_rejects_a_bracket_flood_on_stdin_with_exit_2() {
    assert_rejected(
        &serve_on_stdin(&flood()),
        "experiments run -",
        "nested deeper than 128 levels",
    );
}

#[test]
fn laser_serve_rejects_a_sav_0_tool_with_exit_2() {
    // This key once parsed, and its cell panicked inside `Pmu::new` while
    // the service reported the panic and exited 0.
    let scenario = r#"{"name": "sav0", "scale": 0.1,
        "cells": [{"workload": "swaptions", "tool": "laser-detect-sav0"}]}"#;
    assert_rejected(
        &serve_on_stdin(scenario),
        "experiments run -",
        "unknown tool 'laser-detect-sav0'",
    );
}

#[test]
fn experiments_rejects_a_bracket_flood_topology_file_with_exit_2() {
    assert_rejected(
        &campaign_on_topology_file("flood", &flood()),
        "experiments --topology-file",
        "nested deeper than 128 levels",
    );
}

#[test]
fn experiments_rejects_core_blocks_that_wrap_with_exit_2() {
    // These blocks once summed to 0 cores in release builds, passed the cap
    // and failed every cell with a division by zero, at exit 0.
    let wrap = r#"{"name": "wrap", "core_blocks": [9223372036854775807, 9223372036854775807, 2],
        "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}}"#;
    assert_rejected(
        &campaign_on_topology_file("wrap", wrap),
        "experiments --topology-file",
        "at most 64",
    );
}
