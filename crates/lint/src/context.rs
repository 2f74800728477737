//! Item-context tracking on top of the token stream: which tokens live in
//! test code, what role a file plays in the workspace, and where the
//! `// lint:allow(<rule>) — <reason>` escape hatches are.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Token;
use crate::rules::RULES;
use crate::Finding;

/// What a file is *for*, derived from its workspace-relative path. Rules use
/// this to scope themselves: panics are fine in a CLI binary, wall-clock reads
/// are fine in the benchmarking harness's own binary, nothing is fine in
/// engine code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library code of an engine crate: simulation, detection, emission. The
    /// strictest role — every rule applies.
    Lib,
    /// A binary target (`src/bin/…`, `src/main.rs`, `build.rs`): process
    /// owns its stdout/stderr and may measure wall time or panic on bad
    /// input, so rules 3 and 5 do not apply.
    Bin,
    /// Test-like code: `tests/`, `benches/`, `examples/`, `fixtures/`,
    /// `tests.rs`. Only the `unsafe-code` rule applies.
    TestLike,
    /// Offline stand-ins for third-party crates under `shims/`. They mirror
    /// external APIs (which may measure wall time or assert like the real
    /// crate), so rules 3–5 do not apply; hashing and iteration rules do.
    Shim,
}

impl FileRole {
    /// Classify `path` (workspace-relative, `/`-separated).
    pub fn of_path(path: &str) -> FileRole {
        let components: Vec<&str> = path.split('/').collect();
        let file = components.last().copied().unwrap_or("");
        let dir_is = |name: &str| components.iter().rev().skip(1).any(|c| *c == name);
        if dir_is("tests") || dir_is("benches") || dir_is("examples") || dir_is("fixtures") {
            return FileRole::TestLike;
        }
        if file == "tests.rs" {
            return FileRole::TestLike;
        }
        if dir_is("bin") || file == "main.rs" || file == "build.rs" {
            return FileRole::Bin;
        }
        if components.first() == Some(&"shims") {
            return FileRole::Shim;
        }
        FileRole::Lib
    }
}

/// An in-tree `lint:allow` annotation, parsed from a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ids named in the annotation.
    pub rules: Vec<String>,
    /// Source lines the annotation covers (its own line, and — for a
    /// standalone comment — the next line that carries code).
    pub lines: Vec<u32>,
    /// Line the annotation itself is on.
    pub at_line: u32,
    pub col: u32,
    /// Whether a written reason follows the rule list.
    pub has_reason: bool,
}

/// Everything the rules need to know about one file.
pub struct FileCtx {
    pub path: String,
    pub role: FileRole,
    /// Non-comment tokens, in order.
    pub code: Vec<Token>,
    /// Parallel to `code`: true when the token is inside `#[cfg(test)]` /
    /// `#[test]` / `mod tests` regions.
    pub in_test: Vec<bool>,
    /// rule id → set of source lines where that rule is allowed.
    allowed: BTreeMap<String, BTreeSet<u32>>,
    /// Findings produced while parsing the annotations themselves
    /// (missing reason, unknown rule id).
    pub allow_findings: Vec<Finding>,
}

impl FileCtx {
    /// Lex and analyze one file.
    pub fn new(path: &str, source: &str) -> FileCtx {
        let tokens = crate::lexer::lex(source);
        let role = FileRole::of_path(path);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        let in_test = test_mask(&code);
        let (allowed, allow_findings) = collect_allows(path, &tokens, &code);
        FileCtx {
            path: path.to_string(),
            role,
            code,
            in_test,
            allowed,
            allow_findings,
        }
    }

    /// True if `rule` is allowed (annotated) on `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allowed
            .get(rule)
            .is_some_and(|lines| lines.contains(&line))
    }
}

/// Mark every token inside test-only items: an item annotated `#[cfg(test)]`
/// (or any `cfg` whose predicate mentions `test`), `#[test]`-attributed
/// functions, and `mod tests { … }` bodies.
fn test_mask(code: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        // Outer attribute `#[…]` (not the inner `#![…]` form).
        if code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
            let Some(close) = matching(code, i + 1, '[', ']') else {
                break;
            };
            if attr_is_testish(&code[i + 2..close]) {
                let end = item_end(code, close + 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        if code[i].is_ident("mod") && i + 1 < code.len() && code[i + 1].is_ident("tests") {
            let end = item_end(code, i + 2);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Does the attribute body (tokens between `#[` and `]`) gate on tests?
/// Catches `test`, `cfg(test)`, `cfg(all(test, …))`, `cfg_attr(test, …)`.
fn attr_is_testish(body: &[Token]) -> bool {
    match body.first() {
        Some(t) if t.is_ident("test") && body.len() == 1 => true,
        Some(t) if t.is_ident("cfg") || t.is_ident("cfg_attr") => {
            body.iter().any(|t| t.is_ident("test"))
        }
        _ => false,
    }
}

/// Find the matching close delimiter for the opener at `open_idx`.
fn matching(code: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Starting at `from` (just past an attribute or `mod tests`), find the index
/// of the token that ends the item: the matching `}` of its body, or a `;`
/// for body-less items. Skips over any further attributes.
fn item_end(code: &[Token], from: usize) -> usize {
    let mut i = from;
    let mut paren = 0i64;
    let mut bracket = 0i64;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                return i;
            }
            if t.is_punct('{') {
                return matching(code, i, '{', '}').unwrap_or(code.len() - 1);
            }
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Parse every `lint:allow(rule, …) — reason` annotation out of the comment
/// tokens. Returns the per-rule allowed-line sets plus findings for malformed
/// annotations (the acceptance bar: every allow carries a written reason).
fn collect_allows(
    path: &str,
    tokens: &[Token],
    code: &[Token],
) -> (BTreeMap<String, BTreeSet<u32>>, Vec<Finding>) {
    let mut allowed: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    let mut findings = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are rustdoc prose — an
        // annotation only counts in a plain comment, so documentation can
        // *talk about* the syntax without minting an allowance.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(allow) = parse_allow(t, code) else {
            continue;
        };
        if !allow.has_reason {
            findings.push(Finding {
                rule: "bad-allow",
                path: path.to_string(),
                line: allow.at_line,
                col: allow.col,
                message: "lint:allow annotation has no written reason; append `— <why this is \
                          safe>`"
                    .to_string(),
            });
        }
        for rule in &allow.rules {
            if !RULES.iter().any(|r| r.id == rule) {
                findings.push(Finding {
                    rule: "bad-allow",
                    path: path.to_string(),
                    line: allow.at_line,
                    col: allow.col,
                    message: format!("lint:allow names unknown rule `{rule}`"),
                });
                continue;
            }
            let entry = allowed.entry(rule.clone()).or_default();
            for line in &allow.lines {
                entry.insert(*line);
            }
        }
    }
    (allowed, findings)
}

/// Parse one comment token as an allow annotation, if it contains one.
fn parse_allow(comment: &Token, code: &[Token]) -> Option<Allow> {
    let text = &comment.text;
    let start = text.find("lint:allow(")?;
    let after = &text[start + "lint:allow(".len()..];
    let close = after.find(')')?;
    let rules: Vec<String> = after[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = after[close + 1..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':', '*'])
        .trim();
    // Coverage: the annotation's own line, plus — when the comment stands on
    // a line of its own — the next line that carries code.
    let mut lines = vec![comment.line];
    let own_line_has_code = code
        .iter()
        .any(|t| t.line == comment.line && t.col < comment.col);
    if !own_line_has_code {
        if let Some(next) = code.iter().map(|t| t.line).find(|&l| l > comment.line) {
            lines.push(next);
        }
    }
    Some(Allow {
        rules,
        lines,
        at_line: comment.line,
        col: comment.col,
        has_reason: !reason.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::TokenKind;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/x/src/lib.rs", src)
    }

    #[test]
    fn roles_from_paths() {
        assert_eq!(FileRole::of_path("crates/core/src/lib.rs"), FileRole::Lib);
        assert_eq!(
            FileRole::of_path("crates/bench/src/bin/experiments.rs"),
            FileRole::Bin
        );
        assert_eq!(FileRole::of_path("crates/lint/src/main.rs"), FileRole::Bin);
        assert_eq!(
            FileRole::of_path("tests/campaign_determinism.rs"),
            FileRole::TestLike
        );
        assert_eq!(
            FileRole::of_path("crates/bench/benches/fig3.rs"),
            FileRole::TestLike
        );
        assert_eq!(
            FileRole::of_path("crates/machine/src/machine/tests.rs"),
            FileRole::TestLike
        );
        assert_eq!(
            FileRole::of_path("crates/lint/fixtures/bad/panic.rs"),
            FileRole::TestLike
        );
        assert_eq!(
            FileRole::of_path("examples/quickstart.rs"),
            FileRole::TestLike
        );
        assert_eq!(FileRole::of_path("shims/rand/src/lib.rs"), FileRole::Shim);
        assert_eq!(FileRole::of_path("src/lib.rs"), FileRole::Lib);
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let c = ctx("fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn live2() {}");
        let live: Vec<&str> = c
            .code
            .iter()
            .zip(&c.in_test)
            .filter(|(t, &m)| !m && t.kind == TokenKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(live.contains(&"live"));
        assert!(live.contains(&"live2"));
        assert!(!live.contains(&"t"));
    }

    #[test]
    fn bare_mod_tests_is_masked() {
        let c = ctx("mod tests { fn helper() {} }\nfn live() {}");
        let masked: Vec<&str> = c
            .code
            .iter()
            .zip(&c.in_test)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"helper"));
        assert!(!masked.contains(&"live"));
    }

    #[test]
    fn test_attribute_masks_single_fn() {
        let c = ctx("#[test]\nfn a_test() { x(); }\nfn live() {}");
        let masked: Vec<&str> = c
            .code
            .iter()
            .zip(&c.in_test)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"a_test"));
        assert!(!masked.contains(&"live"));
    }

    #[test]
    fn cfg_all_test_is_masked() {
        let c = ctx("#[cfg(all(test, feature = \"x\"))]\nmod helpers { fn h() {} }");
        assert!(c.in_test.iter().any(|&m| m));
    }

    #[test]
    fn non_test_cfg_is_not_masked() {
        let c = ctx("#[cfg(feature = \"x\")]\nfn live() {}");
        assert!(c.in_test.iter().all(|&m| !m));
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let c = ctx("fn f() {\n    x.unwrap(); // lint:allow(panic) — infallible here\n}");
        assert!(c.is_allowed("panic", 2));
        assert!(!c.is_allowed("panic", 3));
        assert!(c.allow_findings.is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let c = ctx("// lint:allow(panic) — checked above\n\nx.unwrap();");
        assert!(c.is_allowed("panic", 3));
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let c = ctx("// lint:allow(panic)\nx.unwrap();");
        assert_eq!(c.allow_findings.len(), 1);
        assert_eq!(c.allow_findings[0].rule, "bad-allow");
    }

    #[test]
    fn allow_with_unknown_rule_is_a_finding() {
        let c = ctx("// lint:allow(no-such-rule) — whatever\nx();");
        assert_eq!(c.allow_findings.len(), 1);
        assert!(c.allow_findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn allow_lists_multiple_rules() {
        let c = ctx("// lint:allow(panic, wall-clock) — both fine here\nf();");
        assert!(c.is_allowed("panic", 2));
        assert!(c.is_allowed("wall-clock", 2));
    }

    #[test]
    fn allow_inside_string_literal_is_ignored() {
        let c = ctx("let s = \"lint:allow(panic) — nope\";\nx.unwrap();");
        assert!(!c.is_allowed("panic", 1));
        assert!(!c.is_allowed("panic", 2));
    }
}
