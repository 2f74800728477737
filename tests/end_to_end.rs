//! End-to-end integration tests spanning the whole stack: workloads →
//! machine → PEBS → detector → repair, exercised through the public API of
//! the umbrella crate.

use laser::workloads::{find, BugKind, BuildOptions};
use laser::{ContentionKind, Laser, LaserConfig};

fn opts() -> BuildOptions {
    BuildOptions::scaled(0.2)
}

#[test]
fn laser_finds_every_headline_bug() {
    // The three bugs the paper discusses most: intense false sharing in
    // histogram' and linear_regression, and the novel true sharing in dedup.
    for name in [
        "histogram'",
        "linear_regression",
        "dedup",
        "bodytrack",
        "volrend",
    ] {
        let spec = find(name).unwrap();
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&spec.build(&opts()))
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let found = spec.known_bugs.iter().any(|bug| {
            bug.lines
                .iter()
                .any(|&l| outcome.report.line(&bug.file, l).is_some())
        });
        assert!(
            found,
            "{name}: bug not reported.\n{}",
            outcome.report.render()
        );
    }
}

#[test]
fn contention_free_workloads_stay_quiet_and_cheap() {
    for name in ["blackscholes", "swaptions", "string_match", "histogram"] {
        let spec = find(name).unwrap();
        let image = spec.build(&opts());
        let native = Laser::run_native(&image).unwrap();
        assert_eq!(
            native.stats.hitm_events, 0,
            "{name} should have no contention"
        );
        let outcome = Laser::builder().build(&image).run().unwrap();
        assert!(
            outcome.report.lines.is_empty(),
            "{name}: {}",
            outcome.report.render()
        );
        assert!(outcome.repair.is_none());
        let overhead = outcome.run.cycles as f64 / native.cycles as f64;
        assert!(overhead < 1.03, "{name} overhead {overhead}");
    }
}

#[test]
fn true_sharing_bugs_are_classified_as_true_sharing() {
    for name in ["dedup", "bodytrack", "volrend"] {
        let spec = find(name).unwrap();
        let bug = &spec.known_bugs[0];
        assert_eq!(bug.kind, BugKind::TrueSharing);
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&spec.build(&opts()))
            .run()
            .unwrap();
        let reported = outcome
            .report
            .lines
            .iter()
            .filter(|l| spec.is_known_bug_location(&l.location.file, l.location.line))
            .max_by_key(|l| l.hitm_records)
            .unwrap_or_else(|| panic!("{name}: bug line missing\n{}", outcome.report.render()));
        assert_eq!(
            reported.kind,
            ContentionKind::TrueSharing,
            "{name} reported as {:?}\n{}",
            reported.kind,
            outcome.report.render()
        );
    }
}

#[test]
fn false_sharing_bugs_are_not_classified_as_true_sharing() {
    // histogram' and lu_ncb are read-write false sharing: LASER should call
    // them false sharing. linear_regression is write-write: the paper reports
    // LASER cannot conclusively type it (it must not be called true sharing).
    for (name, allow_unknown) in [
        ("histogram'", false),
        ("lu_ncb", false),
        ("linear_regression", true),
    ] {
        let spec = find(name).unwrap();
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&spec.build(&opts()))
            .run()
            .unwrap();
        let reported = outcome
            .report
            .lines
            .iter()
            .filter(|l| spec.is_known_bug_location(&l.location.file, l.location.line))
            .max_by_key(|l| l.hitm_records)
            .unwrap_or_else(|| panic!("{name}: bug line missing\n{}", outcome.report.render()));
        match reported.kind {
            ContentionKind::FalseSharing => {}
            ContentionKind::Unknown if allow_unknown => {}
            other => panic!(
                "{name} classified as {other:?}\n{}",
                outcome.report.render()
            ),
        }
    }
}

#[test]
fn online_repair_speeds_up_intense_false_sharing() {
    for name in ["histogram'", "linear_regression"] {
        let spec = find(name).unwrap();
        // Native-style (full-scale) input: online repair needs enough of the
        // run left after detection for the SSB to pay off.
        let image = spec.build(&BuildOptions::default());
        let native = Laser::run_native(&image).unwrap();
        let outcome = Laser::builder().build(&image).run().unwrap();
        assert!(outcome.repair.is_some(), "{name}: repair should trigger");
        assert!(
            outcome.run.cycles < native.cycles,
            "{name}: repaired run ({}) should beat native ({})",
            outcome.run.cycles,
            native.cycles
        );
    }
}

#[test]
fn repair_is_not_attempted_for_true_sharing_or_mild_contention() {
    for name in ["bodytrack", "reverse_index", "volrend"] {
        let spec = find(name).unwrap();
        let outcome = Laser::builder().build(&spec.build(&opts())).run().unwrap();
        assert!(
            outcome.repair.is_none(),
            "{name}: repair should not trigger ({:?})",
            outcome.repair.as_ref().map(|r| &r.plan)
        );
    }
}

#[test]
fn overhead_across_the_whole_suite_is_low_on_geometric_mean() {
    let mut ratios = Vec::new();
    for spec in laser::workloads::registry() {
        let image = spec.build(&BuildOptions::scaled(0.1));
        let native = Laser::run_native(&image).unwrap();
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        ratios.push(outcome.run.cycles as f64 / native.cycles.max(1) as f64);
    }
    let geomean = (ratios.iter().map(|v| v.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(geomean < 1.06, "suite geomean overhead {geomean}");
    assert!(
        ratios.iter().all(|&r| r < 1.35),
        "worst case too high: {ratios:?}"
    );
}

#[test]
fn manual_fixes_recover_native_performance() {
    // The fix guided by the detector's report removes (nearly) all HITM
    // traffic for the false-sharing bugs.
    for name in ["histogram'", "linear_regression", "lu_ncb"] {
        let spec = find(name).unwrap();
        let buggy = Laser::run_native(&spec.build(&opts())).unwrap();
        let fixed = Laser::run_native(&spec.build(&BuildOptions {
            fixed: true,
            ..opts()
        }))
        .unwrap();
        assert!(
            fixed.stats.hitm_events * 10 <= buggy.stats.hitm_events.max(10),
            "{name}: fix should remove HITM traffic"
        );
        assert!(
            fixed.cycles < buggy.cycles,
            "{name}: fix should not slow the program down"
        );
    }
}
