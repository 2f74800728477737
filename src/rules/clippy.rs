//! Runs `cargo clippy` over Rust snippets under this workspace's own lint
//! configuration — the `[workspace.lints]` tables of the root `Cargo.toml`
//! and the root `clippy.toml` — and reports which lints fire where.
//!
//! Each case becomes one package of a throwaway workspace under the system
//! temp directory, so a crate-level attribute or a `forbid` error in one case
//! cannot mask another. Every package also gets a copy of
//! `crates/machine/src/fasthash.rs` as `src/fasthash.rs`; a case that
//! declares `pub mod fasthash;` lints against the workspace's real
//! `FastHashMap`/`FastHashSet` aliases.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::json::Value;

/// One diagnostic: where its primary span starts and which lint fired
/// (`clippy::unwrap_used`, `unsafe_code`, or a compiler error code).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub line: i64,
    pub column: i64,
    pub lint: String,
}

/// The outcome of one `cargo clippy` run over a set of cases.
pub struct Run {
    /// Whether `cargo clippy` exited zero.
    #[allow(
        dead_code,
        reason = "read by tests/fixtures.rs, not by src/rules.rs, which both include this module"
    )]
    pub success: bool,
    /// Each case's findings, in source order. A site reported by both the
    /// library and its test harness counts once.
    pub findings: BTreeMap<String, BTreeSet<Finding>>,
}

impl Run {
    /// The lints that fired in `case`, one per site, in source order.
    pub fn lints(&self, case: &str) -> Vec<&str> {
        self.findings
            .get(case)
            .map(|f| f.iter().map(|x| x.lint.as_str()).collect())
            .unwrap_or_default()
    }
}

/// Lints every `(package name, src/lib.rs)` case with `cargo clippy
/// --all-targets`, passing `lint_args` (say `["-D", "warnings"]`) to Clippy.
pub fn clippy(cases: &[(&str, &str)], lint_args: &[&str]) -> Run {
    let scratch = Scratch::new(cases);
    let out = Command::new(env!("CARGO"))
        .current_dir(&scratch.0)
        .env_remove("RUSTFLAGS")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .env_remove("CARGO_TARGET_DIR")
        .env_remove("CLIPPY_CONF_DIR")
        .args(["clippy", "--workspace", "--all-targets", "--offline"])
        .args([
            "--keep-going",
            "--quiet",
            "--message-format=json",
            "-j",
            "2",
        ])
        .arg("--")
        .args(lint_args)
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8(out.stdout).expect("cargo's JSON is UTF-8");
    let mut findings: BTreeMap<String, BTreeSet<Finding>> = BTreeMap::new();
    for (case, finding) in stdout.lines().filter_map(parse_message) {
        findings.entry(case).or_default().insert(finding);
    }
    assert!(
        out.status.success() || !findings.is_empty(),
        "cargo clippy failed without a diagnostic:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        success: out.status.success(),
        findings,
    }
}

/// A `compiler-message` line that names a lint or error code, as the case
/// (its target's name) and the finding.
fn parse_message(line: &str) -> Option<(String, Finding)> {
    let v = Value::parse(line).ok()?;
    if v.get("reason") != Some(&Value::Str("compiler-message".into())) {
        return None;
    }
    let Some(Value::Str(case)) = v.get("target")?.get("name") else {
        return None;
    };
    let message = v.get("message")?;
    let Some(Value::Str(lint)) = message.get("code")?.get("code") else {
        return None;
    };
    let Some(Value::Array(spans)) = message.get("spans") else {
        return None;
    };
    let primary = spans
        .iter()
        .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))?;
    let (Some(Value::Int(line)), Some(Value::Int(column))) =
        (primary.get("line_start"), primary.get("column_start"))
    else {
        return None;
    };
    Some((
        case.clone(),
        Finding {
            line: *line,
            column: *column,
            lint: lint.clone(),
        },
    ))
}

/// The root of a throwaway workspace, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(cases: &[(&str, &str)]) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "laser-clippy-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |p: &str| std::fs::read_to_string(repo.join(p)).expect("read workspace file");
        let manifest = read("Cargo.toml");
        let fasthash = read("crates/machine/src/fasthash.rs");
        let write = |p: PathBuf, text: &str| {
            std::fs::create_dir_all(p.parent().expect("a file has a parent"))
                .expect("create scratch directory");
            std::fs::write(p, text).expect("write scratch file");
        };

        let members: Vec<String> = cases.iter().map(|(name, _)| format!("{name:?}")).collect();
        let mut workspace = format!(
            "[workspace]\nresolver = \"2\"\nmembers = [{}]\n\n",
            members.join(", ")
        );
        // The `[workspace.lints.*]` tables, verbatim.
        let mut in_lints = false;
        for line in manifest.lines() {
            if line.starts_with('[') {
                in_lints = line.starts_with("[workspace.lints");
            }
            if in_lints {
                workspace.push_str(line);
                workspace.push('\n');
            }
        }
        write(root.join("Cargo.toml"), &workspace);
        write(root.join("clippy.toml"), &read("clippy.toml"));
        for (name, source) in cases {
            let package = format!(
                "[package]\nname = {name:?}\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
                 [lints]\nworkspace = true\n"
            );
            write(root.join(name).join("Cargo.toml"), &package);
            write(root.join(name).join("src/lib.rs"), source);
            write(root.join(name).join("src/fasthash.rs"), &fasthash);
        }
        Scratch(root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
