//! Cross-tool integration tests: LASER against the VTune and Sheriff models,
//! mirroring the qualitative claims of the paper's Sections 7.1–7.3.

use laser::baselines::{Sheriff, SheriffMode, Vtune};
use laser::workloads::{find, registry, BuildOptions, SheriffCompat};
use laser::{Laser, LaserConfig};

fn opts() -> BuildOptions {
    BuildOptions::scaled(0.2)
}

#[test]
fn sheriff_can_run_only_part_of_the_suite() {
    // Paper Table 1 / Section 7.3: most of the suite either crashes under
    // Sheriff or uses unsupported constructs; LASER runs everything.
    let specs = registry();
    let works = specs
        .iter()
        .filter(|s| s.sheriff == SheriffCompat::Works)
        .count();
    let broken = specs.len() - works;
    assert!(
        works >= 10,
        "some workloads must run under Sheriff ({works})"
    );
    assert!(
        broken >= 15,
        "most of the suite should not run under Sheriff ({broken})"
    );
    // And the ones that do not run really do not produce results.
    let sheriff = Sheriff;
    for spec in specs
        .iter()
        .filter(|s| s.sheriff != SheriffCompat::Works)
        .take(3)
    {
        let out = sheriff.run(spec, &opts(), SheriffMode::Detect).unwrap();
        assert!(!out.ran(), "{} should not run under Sheriff", spec.name);
    }
}

#[test]
fn laser_is_cheaper_than_vtune_across_a_mixed_subset() {
    let vtune = Vtune;
    let mut laser_norms = Vec::new();
    let mut vtune_norms = Vec::new();
    for name in ["histogram'", "kmeans", "string_match", "swaptions", "dedup"] {
        let spec = find(name).unwrap();
        let image = spec.build(&opts());
        let native = Laser::run_native(&image).unwrap();
        let laser = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        let v = vtune.run(&image).unwrap();
        laser_norms.push(laser.run.cycles as f64 / native.cycles as f64);
        vtune_norms.push(v.run.cycles as f64 / native.cycles as f64);
    }
    let geo = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let (laser_geo, vtune_geo) = (geo(&laser_norms), geo(&vtune_norms));
    assert!(
        laser_geo < vtune_geo,
        "LASER geomean {laser_geo:.3} should beat VTune {vtune_geo:.3}"
    );
    assert!(
        laser_geo < 1.10,
        "LASER geomean overhead too high: {laser_geo:.3}"
    );
    assert!(
        vtune_geo > 1.15,
        "VTune should pay for its always-on profiling: {vtune_geo:.3}"
    );
}

#[test]
fn sheriff_protect_fixes_false_sharing_it_cannot_see_while_laser_reports_it() {
    // Section 7.3: Sheriff-Protect speeds histogram'/linear_regression up by
    // isolation alone; LASER both reports and repairs them.
    let sheriff = Sheriff;
    for name in ["histogram'", "linear_regression"] {
        let spec = find(name).unwrap();
        let protect = sheriff
            .run(&spec, &opts(), SheriffMode::Protect)
            .unwrap()
            .result
            .unwrap();
        assert!(
            protect.normalized_runtime() < 1.0,
            "{name}: Sheriff-Protect should remove the false-sharing misses"
        );
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&spec.build(&opts()))
            .run()
            .unwrap();
        let found = spec.known_bugs.iter().any(|bug| {
            bug.lines
                .iter()
                .any(|&l| outcome.report.line(&bug.file, l).is_some())
        });
        assert!(found, "{name}: LASER should also *report* the bug");
    }
}

#[test]
fn sheriff_slowdown_tracks_synchronization_not_contention() {
    let sheriff = Sheriff;
    let opts = BuildOptions::scaled(0.5);
    // water_nsquared synchronizes constantly but has no contention bug;
    // linear_regression has intense contention but no synchronization.
    let water = sheriff
        .run(
            &find("water_nsquared").unwrap(),
            &opts,
            SheriffMode::Protect,
        )
        .unwrap()
        .result
        .unwrap();
    let lreg = sheriff
        .run(
            &find("linear_regression").unwrap(),
            &opts,
            SheriffMode::Protect,
        )
        .unwrap()
        .result
        .unwrap();
    assert!(
        water.normalized_runtime() > lreg.normalized_runtime() * 2.0,
        "sync-heavy {} vs sync-free {}",
        water.normalized_runtime(),
        lreg.normalized_runtime()
    );
}

#[test]
fn vtune_reports_more_locations_than_laser_for_the_same_workload() {
    // VTune applies no pipeline filtering, so it reports at least as many
    // locations (and typically more false positives) than LASERDETECT.
    for name in ["kmeans", "bodytrack"] {
        let spec = find(name).unwrap();
        let image = spec.build(&opts());
        let laser = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .unwrap();
        let vtune = Vtune.run(&image).unwrap();
        assert!(
            vtune.reported_lines.len() >= laser.report.lines.len(),
            "{name}: vtune {} < laser {}",
            vtune.reported_lines.len(),
            laser.report.lines.len()
        );
    }
}
