//! The workspace's determinism and robustness rules, checked as Clippy sees
//! them. The rules themselves are configuration — `[workspace.lints]` in the
//! root `Cargo.toml` and the type and method lists in `clippy.toml` — so each
//! test here lints a small snippet under that configuration and pins which
//! lints fire. A rule that silently stops firing, or starts firing on an
//! idiom the workspace relies on, fails a test instead of a code review.

mod clippy;

/// Every snippet, one throwaway package each, linted together in one run.
const CASES: &[(&str, &str)] = &[
    (
        "hash_map_new",
        "pub fn f() -> usize {
    let mut m = std::collections::HashMap::new();
    m.insert(1u64, 2u32);
    m.len()
}
",
    ),
    (
        "hash_set_with_capacity",
        "pub fn f() -> usize {
    let mut s = std::collections::HashSet::with_capacity(8);
    s.insert(1u64);
    s.len()
}
",
    ),
    (
        "hash_map_field",
        "pub struct S {
    pub m: std::collections::HashMap<u64, u32>,
}
",
    ),
    (
        "hash_map_turbofish",
        "pub fn f() -> usize {
    std::collections::HashMap::<u64, u32>::default().len()
}
",
    ),
    (
        "hash_values_on_field",
        "pub mod fasthash;

pub struct S {
    pub m: fasthash::FastHashMap<u64, u32>,
}

impl S {
    pub fn total(&self) -> u32 {
        self.m.values().sum()
    }
}
",
    ),
    (
        "hash_for_over_param",
        "pub mod fasthash;

pub fn f(region: &fasthash::FastHashSet<u32>) -> u32 {
    let mut t = 0;
    for b in region {
        t += b;
    }
    t
}
",
    ),
    (
        "fasthash_keys",
        "pub mod fasthash;

pub fn f() -> u64 {
    let mut m = fasthash::FastHashMap::default();
    m.insert(1u64, 2u32);
    m.keys().sum()
}
",
    ),
    (
        "other_hash_aliases",
        "use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;

#[expect(clippy::disallowed_types, reason = \"stands in for a third-party alias\")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

#[expect(clippy::disallowed_types, reason = \"stands in for a third-party alias\")]
pub type IndexSet<T> = std::collections::HashSet<T, BuildHasherDefault<DefaultHasher>>;

pub fn keys(m: &FxHashMap<u64, u32>) -> u64 {
    m.keys().sum()
}

pub fn each(s: &IndexSet<u32>) -> u32 {
    let mut t = 0;
    for b in s {
        t += b;
    }
    t
}
",
    ),
    (
        "btree_values",
        "pub fn f(m: &std::collections::BTreeMap<u64, u32>) -> u32 {
    let mut t = 0;
    for v in m.values() {
        t += v;
    }
    t
}
",
    ),
    (
        "hash_lookup",
        "pub mod fasthash;

pub struct S {
    pub m: fasthash::FastHashMap<u64, u32>,
}

impl S {
    pub fn g(&self) -> Option<&u32> {
        self.m.get(&1)
    }
}
",
    ),
    (
        "read_dir_method",
        "pub fn f(d: &std::path::Path) -> std::io::Result<std::fs::ReadDir> {
    d.read_dir()
}
",
    ),
    (
        "read_dir_defined",
        "pub fn read_dir(_d: &std::path::Path) -> Vec<std::path::PathBuf> {
    Vec::new()
}
",
    ),
    (
        "read_dir_expected",
        "pub fn f(d: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    #[expect(clippy::disallowed_methods, reason = \"sorted below\")]
    let entries = std::fs::read_dir(d)?;
    let mut paths = entries.map(|e| e.map(|e| e.path())).collect::<Result<Vec<_>, _>>()?;
    paths.sort();
    Ok(paths)
}
",
    ),
    (
        "system_time_thread_current",
        "pub fn f() -> (std::time::SystemTime, std::thread::ThreadId) {
    (std::time::SystemTime::now(), std::thread::current().id())
}
",
    ),
    (
        "thread_spawn",
        "pub fn f() -> std::thread::Result<()> {
    std::thread::spawn(|| {}).join()
}
",
    ),
    (
        "instant_expected",
        "#[expect(clippy::disallowed_methods, reason = \"an opt-in budget\")]
pub fn f() -> std::time::Instant {
    std::time::Instant::now()
}
",
    ),
    (
        "instant_expected_wrong_lint",
        "#[expect(clippy::panic, reason = \"names the wrong lint\")]
pub fn f() -> std::time::Instant {
    std::time::Instant::now()
}
",
    ),
    (
        "panics",
        "pub fn a(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn b() {
    panic!(\"boom\");
}

pub fn c(x: Option<u32>) -> u32 {
    x.expect(\"set\")
}
",
    ),
    (
        "unwrap_or_variants",
        "pub fn f(x: Option<u32>, y: fn() -> u32) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_else(y) + x.unwrap_or_default()
}
",
    ),
    (
        "unsafe_in_tests",
        "#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = [1u8, 2, 3];
        assert_eq!(unsafe { *x.as_ptr() }, 1);
    }
}
",
    ),
    (
        "static_mut",
        "pub static mut COUNTER: u64 = 0;

pub fn bump() {
    unsafe { COUNTER += 1 }
}
",
    ),
    ("static_shared", "pub static NAME: &str = \"x\";\n"),
    (
        "forbid_attribute",
        "#![forbid(unsafe_code)]\n\npub fn f() {}\n",
    ),
];

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::{clippy, CASES};

    /// The lints that fire in `case`, one per site, in source order.
    fn lints(case: &str) -> Vec<&'static str> {
        static RUN: OnceLock<clippy::Run> = OnceLock::new();
        RUN.get_or_init(|| clippy::clippy(CASES, &[])).lints(case)
    }

    fn assert_clean(case: &str) {
        let found = lints(case);
        assert!(found.is_empty(), "{case}: {found:?}");
    }

    #[test]
    fn default_hasher_construction_flagged() {
        assert_eq!(lints("hash_map_new"), ["clippy::disallowed_types"]);
        assert_eq!(
            lints("hash_set_with_capacity"),
            ["clippy::disallowed_types"]
        );
    }

    #[test]
    fn default_hasher_type_mention_flagged() {
        assert_eq!(lints("hash_map_field"), ["clippy::disallowed_types"]);
    }

    #[test]
    fn turbofish_default_hasher_flagged() {
        assert_eq!(lints("hash_map_turbofish"), ["clippy::disallowed_types"]);
    }

    #[test]
    fn hash_iteration_on_declared_binding_flagged() {
        assert_eq!(
            lints("hash_values_on_field"),
            ["clippy::disallowed_methods"]
        );
    }

    #[test]
    fn for_loop_over_hash_param_flagged() {
        assert_eq!(
            lints("hash_for_over_param"),
            ["clippy::iter_over_hash_type"]
        );
    }

    #[test]
    fn fasthash_alias_iteration_flagged() {
        // The workspace's own alias: a fixed hasher makes lookups
        // deterministic, not iteration order.
        assert_eq!(lints("fasthash_keys"), ["clippy::disallowed_methods"]);
    }

    #[test]
    fn fx_and_index_aliases_iteration_flagged() {
        // Any alias of a std hash container, whatever its hasher.
        assert_eq!(
            lints("other_hash_aliases"),
            ["clippy::disallowed_methods", "clippy::iter_over_hash_type"]
        );
    }

    #[test]
    fn btree_iteration_is_clean() {
        assert_clean("btree_values");
    }

    #[test]
    fn lookup_on_hash_binding_is_clean() {
        assert_clean("hash_lookup");
    }

    #[test]
    fn read_dir_method_form_flagged() {
        assert_eq!(lints("read_dir_method"), ["clippy::disallowed_methods"]);
    }

    #[test]
    fn read_dir_fn_definition_is_clean() {
        assert_clean("read_dir_defined");
    }

    #[test]
    fn allowed_read_dir_is_clean() {
        assert_clean("read_dir_expected");
    }

    #[test]
    fn system_time_and_thread_current_flagged() {
        assert_eq!(
            lints("system_time_thread_current"),
            ["clippy::disallowed_methods", "clippy::disallowed_methods"]
        );
    }

    #[test]
    fn thread_spawn_is_not_wall_clock() {
        assert_clean("thread_spawn");
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        assert_clean("instant_expected");
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        // The call still fires, and the unmet expectation is a finding too.
        assert_eq!(
            lints("instant_expected_wrong_lint"),
            [
                "unfulfilled_lint_expectations",
                "clippy::disallowed_methods"
            ]
        );
    }

    #[test]
    fn panics_in_lib_flagged() {
        assert_eq!(
            lints("panics"),
            [
                "clippy::unwrap_used",
                "clippy::panic",
                "clippy::expect_used"
            ]
        );
    }

    #[test]
    fn unwrap_or_variants_are_clean() {
        assert_clean("unwrap_or_variants");
    }

    #[test]
    fn unsafe_flagged_even_in_tests() {
        assert_eq!(lints("unsafe_in_tests"), ["unsafe_code"]);
    }

    #[test]
    fn static_mut_flagged_static_const_clean() {
        // Declaring a `static mut` is not unsafe; every access to it is.
        assert_eq!(lints("static_mut"), ["unsafe_code"]);
        assert_clean("static_shared");
    }

    #[test]
    fn forbid_attribute_is_not_flagged() {
        assert_clean("forbid_attribute");
    }
}
