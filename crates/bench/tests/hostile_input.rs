//! The binaries on hostile JSON: a document nested 100,000 deep is an
//! invalid input (exit 2 with the parser's message), not a stack overflow
//! that aborts the process.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn flood() -> String {
    format!("{}{}", "[".repeat(100_000), "]".repeat(100_000))
}

fn assert_rejected(output: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{what}: {stderr}");
    assert!(
        stderr.contains("nested deeper than 128 levels"),
        "{what}: {stderr}"
    );
}

#[test]
fn laser_serve_rejects_a_bracket_flood_on_stdin_with_exit_2() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_laser-serve"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(flood().as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert_rejected(&output, "laser-serve --stdin");
    assert!(output.stdout.is_empty());
}

#[test]
fn experiments_rejects_a_bracket_flood_topology_file_with_exit_2() {
    let path = std::env::temp_dir().join(format!("laser-flood-topo-{}.json", std::process::id()));
    std::fs::write(&path, flood()).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["campaign", "--topology-file"])
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_rejected(&output, "experiments --topology-file");
    assert!(output.stdout.is_empty());
}
