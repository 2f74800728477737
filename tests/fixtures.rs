//! Whole-file fixtures for the workspace's determinism and robustness rules,
//! linted by `cargo clippy` under the root `[workspace.lints]` tables and
//! `clippy.toml` (see `src/rules.rs` for the rule-by-rule snippets).
//!
//! * every bad fixture must trigger exactly the lints it documents, as many
//!   times as pinned;
//! * every good fixture — the idioms the workspace uses instead, and reasoned
//!   `#[expect]` escapes — must lint clean;
//! * the gate's own command, `cargo clippy -- -D warnings`, must fail on a
//!   bad fixture and pass on the good ones.

use std::collections::BTreeSet;
use std::sync::OnceLock;

#[path = "../src/rules/clippy.rs"]
mod clippy;

/// Default-hashed maps and sets, named and built.
const DEFAULT_HASHER: &str = r#"use std::collections::{HashMap, HashSet};

pub struct Directory {
    pub by_pc: HashMap<u64, u32>,
}

pub fn build() -> Directory {
    let mut by_pc = HashMap::new();
    by_pc.insert(0u64, 1u32);
    let mut seen: HashSet<u64> = HashSet::with_capacity(16);
    seen.insert(7);
    let _typed = HashMap::<String, u64>::new();
    Directory { by_pc }
}
"#;

/// Iterating hash-ordered containers: a method and a `for` loop each.
const HASH_ITER: &str = r#"pub mod fasthash;

use fasthash::{FastHashMap, FastHashSet};

pub fn totals(counts: &mut FastHashMap<u64, u64>) -> u64 {
    let total = counts.values().sum();
    counts.retain(|_, n| *n > 0);
    total
}

pub fn line_sum(lines: &FastHashSet<u64>) -> u64 {
    let mut total = 0;
    for line in lines {
        total += line;
    }
    total
}
"#;

/// A raw directory listing, in both call forms: its order depends on the
/// platform and the filesystem.
const FS_ITER: &str = r#"use std::fs;
use std::path::{Path, PathBuf};

pub fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            out.push(entry.path());
        }
    }
    out
}

pub fn count_entries(dir: &Path) -> std::io::Result<usize> {
    let mut count = 0;
    for entry in dir.read_dir()? {
        entry?;
        count += 1;
    }
    Ok(count)
}
"#;

/// Host wall-clock and thread-identity reads.
const WALL_CLOCK: &str = r#"use std::time::{Instant, SystemTime};

pub fn stamp() -> (Instant, SystemTime) {
    let a = Instant::now();
    let b = SystemTime::now();
    (a, b)
}

pub fn whoami() -> std::thread::Thread {
    std::thread::current()
}
"#;

/// Panicking constructs in library code.
const PANIC: &str = r#"pub fn take(v: Option<u64>) -> u64 {
    v.unwrap()
}

pub fn need(v: Option<u64>) -> u64 {
    v.expect("value must be present")
}

pub fn boom() {
    panic!("unconditional");
}

pub fn later() {
    todo!()
}

pub fn never() {
    unimplemented!()
}
"#;

/// Unsafe code, in the library and in its tests.
const UNSAFE_CODE: &str = r#"static mut COUNTER: u64 = 0;

pub fn bump() -> u64 {
    unsafe {
        COUNTER += 1;
        COUNTER
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn even_tests_may_not_use_unsafe() {
        let x = [1u8, 2, 3];
        assert_eq!(unsafe { *x.as_ptr() }, 1);
    }
}
"#;

/// Malformed escapes: an `#[allow]` without a reason, and an `#[expect]`
/// naming a lint that does not exist, which suppresses nothing.
const BAD_ALLOW: &str = r#"#[allow(clippy::unwrap_used)]
pub fn missing_reason(v: Option<u64>) -> u64 {
    v.unwrap()
}

#[expect(clippy::no_such_lint, reason = "the lint named here does not exist")]
pub fn unknown_lint(v: Option<u64>) -> u64 {
    v.unwrap()
}
"#;

/// The idioms this workspace uses instead of the flagged ones.
const CLEAN: &str = r#"use std::collections::{BTreeMap, BTreeSet};

/// Deterministic order: BTree containers may be iterated freely.
pub fn totals(counts: &BTreeMap<u64, u64>) -> u64 {
    counts.values().sum()
}

pub fn count_lines(lines: &BTreeSet<u64>) -> usize {
    lines.iter().count()
}

/// Errors are returned, not panicked.
pub fn take(v: Option<u64>) -> Result<u64, &'static str> {
    v.ok_or("value missing")
}
"#;

/// Reasoned escapes suppress exactly their site.
const ALLOWED: &str = r#"pub mod fasthash;

use std::path::{Path, PathBuf};

#[expect(clippy::disallowed_types, reason = "this fixture demonstrates a reasoned escape")]
pub type Seeded = std::collections::HashMap<u64, u64>;

/// Lookups on the fixed-hasher alias need no escape.
pub fn hot_map() -> fasthash::FastHashMap<u64, u64> {
    let mut m = fasthash::FastHashMap::default();
    m.insert(1, 2);
    m
}

pub fn locked(v: &std::sync::Mutex<u64>) -> u64 {
    #[expect(clippy::unwrap_used, reason = "poisoning only follows an earlier panic")]
    let guard = v.lock().unwrap();
    *guard
}

pub fn sorted_listing(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    #[expect(clippy::disallowed_methods, reason = "entries are collected and sorted before use")]
    let listing = std::fs::read_dir(dir)?;
    let mut entries: Vec<_> = listing.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    Ok(entries)
}
"#;

/// Tests may unwrap, expect and panic.
const TEST_CODE: &str = r#"pub fn library_code() -> u64 {
    7
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        let mut m = BTreeMap::new();
        m.insert(1u64, 2u64);
        for (k, v) in &m {
            assert!(*k < *v);
        }
        let v = m.get(&1).copied();
        assert_eq!(v.unwrap(), 2);
        assert_eq!(v.expect("set"), super::library_code() - 5);
        if v.is_none() {
            panic!("set above");
        }
    }
}
"#;

const BAD: &[(&str, &str)] = &[
    ("default_hasher", DEFAULT_HASHER),
    ("hash_iter", HASH_ITER),
    ("fs_iter", FS_ITER),
    ("wall_clock", WALL_CLOCK),
    ("panic", PANIC),
    ("unsafe_code", UNSAFE_CODE),
    ("bad_allow", BAD_ALLOW),
];

const GOOD: &[(&str, &str)] = &[
    ("clean", CLEAN),
    ("allowed", ALLOWED),
    ("test_code", TEST_CODE),
];

/// Every fixture, linted at the configured levels in one run.
fn run() -> &'static clippy::Run {
    static RUN: OnceLock<clippy::Run> = OnceLock::new();
    RUN.get_or_init(|| clippy::clippy(&[BAD, GOOD].concat(), &[]))
}

#[test]
fn bad_fixtures_trigger_exactly_their_rules() {
    let cases: &[(&str, &[&str])] = &[
        ("default_hasher", &["clippy::disallowed_types"]),
        (
            "hash_iter",
            &["clippy::disallowed_methods", "clippy::iter_over_hash_type"],
        ),
        ("fs_iter", &["clippy::disallowed_methods"]),
        ("wall_clock", &["clippy::disallowed_methods"]),
        (
            "panic",
            &[
                "clippy::expect_used",
                "clippy::panic",
                "clippy::todo",
                "clippy::unimplemented",
                "clippy::unwrap_used",
            ],
        ),
        ("unsafe_code", &["unsafe_code"]),
        (
            "bad_allow",
            &[
                "clippy::allow_attributes",
                "clippy::allow_attributes_without_reason",
                "clippy::unwrap_used",
                "unknown_lints",
            ],
        ),
    ];
    assert_eq!(cases.len(), BAD.len());
    for (name, expected) in cases {
        let got: BTreeSet<&str> = run().lints(name).into_iter().collect();
        let want: BTreeSet<&str> = expected.iter().copied().collect();
        assert_eq!(got, want, "{name} triggered {got:?}, expected {want:?}");
    }
}

#[test]
fn bad_fixture_finding_counts_are_pinned() {
    let count = |name| run().lints(name).len();
    // Each mention of `HashMap`/`HashSet`, the import included.
    assert_eq!(count("default_hasher"), 7);
    assert_eq!(count("hash_iter"), 3);
    // One `fs::read_dir(…)` call plus one `path.read_dir()` method form.
    assert_eq!(count("fs_iter"), 2);
    assert_eq!(count("wall_clock"), 3);
    assert_eq!(count("panic"), 5);
    // Two malformed attributes, one of them twice, and the unsuppressed
    // second `unwrap`.
    assert_eq!(count("bad_allow"), 4);
}

#[test]
fn unsafe_rule_reaches_test_code() {
    // The `static mut` declaration is not itself unsafe; both blocks are,
    // the one inside `#[cfg(test)]` included.
    let findings = &run().findings["unsafe_code"];
    assert!(findings.iter().all(|f| f.lint == "unsafe_code"));
    let tests_line = UNSAFE_CODE
        .lines()
        .position(|l| l == "mod tests {")
        .expect("the fixture has a test module") as i64
        + 1;
    let lines: Vec<i64> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines.len(), 2, "{findings:?}");
    assert!(
        lines[0] < tests_line && lines[1] > tests_line,
        "{findings:?}"
    );
}

#[test]
fn good_fixtures_are_clean() {
    for (name, _) in GOOD {
        let found = run().lints(name);
        assert!(found.is_empty(), "{name} should lint clean, got: {found:?}");
    }
}

#[test]
fn check_flag_exits_nonzero_on_bad_fixture() {
    // The restriction lints are warnings; the gate's `-D warnings` is what
    // turns them into a failing exit.
    let gate = clippy::clippy(&[("panic", PANIC)], &["-D", "warnings"]);
    assert!(!gate.success);
    assert_eq!(gate.lints("panic").len(), 5);
}

#[test]
fn check_flag_exits_zero_on_clean_tree() {
    let gate = clippy::clippy(GOOD, &["-D", "warnings"]);
    assert!(gate.success, "{:?}", gate.findings);
}
