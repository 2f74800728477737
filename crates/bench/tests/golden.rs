//! Pinned bytes of the `experiments` binary: `all`, `xsocket` and
//! `campaign` at `--scale 0.1`, in text, json and csv, compared byte for
//! byte with the files under `tests/golden/`.
//!
//! Every pinned byte is a deliberate result. A change that moves one on
//! purpose regenerates the files and shows the move as a reviewed diff:
//!
//! ```text
//! cargo build -p laser-bench
//! for cmd in all xsocket campaign; do
//!   for fmt in text json csv; do
//!     target/debug/experiments $cmd --scale 0.1 --format $fmt \
//!       > crates/bench/tests/golden/$cmd.$fmt
//!   done
//! done
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Run `experiments <cmd> --scale 0.1 --format <fmt>` for every format and
/// compare each stdout with `tests/golden/<cmd>.<fmt>`.
fn assert_golden(cmd: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for fmt in ["text", "json", "csv"] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([cmd, "--scale", "0.1", "--format", fmt])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "experiments {cmd} --format {fmt}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let path = dir.join(format!("{cmd}.{fmt}"));
        let pinned =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if output.stdout != pinned {
            let got = String::from_utf8_lossy(&output.stdout);
            let want = String::from_utf8_lossy(&pinned);
            let (got, want): (Vec<&str>, Vec<&str>) =
                (got.lines().collect(), want.lines().collect());
            // The first differing line; past the shorter output, `<end>`.
            let line = (0..got.len().max(want.len()))
                .find(|&i| got.get(i) != want.get(i))
                .unwrap_or(got.len());
            let at = |lines: &[&str]| lines.get(line).copied().unwrap_or("<end>").to_string();
            panic!(
                "experiments {cmd} --format {fmt} differs from {} at line {}:\n  got:  {}\n  want: {}",
                path.display(),
                line + 1,
                at(&got),
                at(&want)
            );
        }
    }
}

#[test]
fn all_figures_match_their_pinned_bytes() {
    assert_golden("all");
}

#[test]
fn xsocket_matches_its_pinned_bytes() {
    assert_golden("xsocket");
}

#[test]
fn campaign_matches_its_pinned_bytes() {
    assert_golden("campaign");
}
