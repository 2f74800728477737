//! Integration tests of the detection pipeline across crates: ground-truth
//! coherence events → PEBS sampling and imprecision → driver → detector →
//! report, with both perfect and realistic hardware.

use laser::core::detect::Detector;
use laser::core::{ContentionKind, Laser, LaserConfig};
use laser::pebs::imprecision::ImprecisionParams;
use laser::pebs::HitmRecord;
use laser::workloads::{characterization_cases, find, BuildOptions, SharingPattern, WriteMode};
use laser::{Machine, MachineConfig};

/// With a perfect (noise-free) PMU, the detector's classification matches the
/// constructed sharing pattern for every category in which the records carry
/// enough information. The one exception is FSRW: the reading thread is the
/// only one whose accesses hit a remotely-Modified line, so its records alone
/// cannot reveal *which* bytes the writer touches — which is exactly why the
/// paper leans on the observation that real contention is symmetric.
#[test]
fn perfect_records_classify_every_characterization_category_correctly() {
    for case in characterization_cases()
        .into_iter()
        .filter(|c| c.filler_ops == 0 && c.label() != "FSRW")
        .take(8)
    {
        let built = case.build();
        let mut machine = Machine::new(MachineConfig::default(), &built.image);
        machine.run_to_completion().unwrap();
        let events = machine.take_hitm_events();
        assert!(!events.is_empty(), "case {} generated no HITMs", case.id);

        let config = LaserConfig {
            imprecision: ImprecisionParams::perfect(),
            ..LaserConfig::default()
        };
        let mut detector = Detector::new(&config, built.image.program(), built.image.memory_map());
        let records: Vec<HitmRecord> = events
            .iter()
            .map(|e| HitmRecord {
                pc: e.pc,
                data_addr: e.addr,
                core: e.core,
                cycle: e.cycle,
            })
            .collect();
        detector.process(&records);
        let report = detector.report(&format!("case{}", case.id), 1.0, 0.0, false);
        let top = &report.lines[0];
        let expected = match case.pattern {
            SharingPattern::TrueSharing => ContentionKind::TrueSharing,
            SharingPattern::FalseSharing => ContentionKind::FalseSharing,
        };
        assert_eq!(
            top.kind,
            expected,
            "case {} ({}, {:?}): {}",
            case.id,
            case.label(),
            case.mode,
            report.render()
        );
        // Both the writer's and the peer's PCs contribute records.
        if case.mode == WriteMode::WriteWrite {
            assert!(report
                .lines
                .iter()
                .any(|l| l.false_sharing_events + l.true_sharing_events > 0));
        }
    }
}

/// The detector's offline threshold adjustment never resurrects filtered
/// lines with higher thresholds and never drops lines with lower ones.
#[test]
fn report_lines_are_monotone_in_the_rate_threshold() {
    let spec = find("kmeans").unwrap();
    let image = spec.build(&BuildOptions::scaled(0.2));
    let outcome = Laser::builder()
        .config(LaserConfig::detection_only().with_rate_threshold(0.0))
        .build(&image)
        .run()
        .unwrap();
    let all = &outcome.report.lines;
    assert!(!all.is_empty());
    let mut previous = usize::MAX;
    for threshold in [0.0, 100.0, 1_000.0, 100_000.0, 1e12] {
        let kept = all.iter().filter(|l| l.rate_per_sec >= threshold).count();
        assert!(
            kept <= previous,
            "threshold {threshold} kept {kept} > {previous}"
        );
        previous = kept;
    }
}

/// Records from outside the application (spurious PCs) and records whose data
/// address points into a stack never reach the report, whatever their volume.
#[test]
fn spurious_records_never_produce_report_lines() {
    let spec = find("swaptions").unwrap();
    let image = spec.build(&BuildOptions::scaled(0.05));
    let config = LaserConfig::default();
    let mut detector = Detector::new(&config, image.program(), image.memory_map());
    let stack_addr = image.stack_top(0) - 128;
    let records: Vec<HitmRecord> = (0..5_000u64)
        .map(|i| {
            if i % 2 == 0 {
                // PC far outside any code mapping.
                HitmRecord {
                    pc: 0xdead_0000_0000 + i,
                    data_addr: 0x1000_0000 + i,
                    core: laser::machine::CoreId((i % 4) as usize),
                    cycle: i,
                }
            } else {
                // Valid PC but stack data address.
                HitmRecord {
                    pc: image.program().base_pc(),
                    data_addr: stack_addr,
                    core: laser::machine::CoreId((i % 4) as usize),
                    cycle: i,
                }
            }
        })
        .collect();
    let kept = detector.process(&records);
    assert_eq!(kept, 0);
    let report = detector.report("swaptions", 0.001, 0.0, false);
    assert!(report.lines.is_empty(), "{}", report.render());
    assert_eq!(report.dropped_non_code, 2_500);
    assert_eq!(report.dropped_stack, 2_500);
}

/// Running the same workload at the same seed twice produces byte-identical
/// reports; changing the seed may change sampling noise but not whether the
/// known bug is found.
#[test]
fn detection_is_reproducible_and_robust_to_the_sampling_seed() {
    let spec = find("histogram'").unwrap();
    let image = spec.build(&BuildOptions::scaled(0.2));
    let a = Laser::builder()
        .config(LaserConfig::detection_only().with_seed(1))
        .build(&image)
        .run()
        .unwrap();
    let b = Laser::builder()
        .config(LaserConfig::detection_only().with_seed(1))
        .build(&image)
        .run()
        .unwrap();
    assert_eq!(a.report, b.report);
    for seed in [2, 3, 4, 5] {
        let c = Laser::builder()
            .config(LaserConfig::detection_only().with_seed(seed))
            .build(&image)
            .run()
            .unwrap();
        let found = spec.known_bugs.iter().any(|bug| {
            bug.lines
                .iter()
                .any(|&l| c.report.line(&bug.file, l).is_some())
        });
        assert!(found, "seed {seed}: {}", c.report.render());
    }
}

/// The SAV knob trades overhead for record volume but not correctness: the
/// histogram' bug is found across a wide range of sampling rates.
#[test]
fn detection_works_across_sampling_rates() {
    let spec = find("histogram'").unwrap();
    let image = spec.build(&BuildOptions::scaled(0.25));
    let mut overheads = Vec::new();
    let native = Laser::run_native(&image).unwrap();
    for sav in [1u32, 7, 19, 31] {
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only().with_sav(sav))
            .build(&image)
            .run()
            .unwrap();
        let found = spec.known_bugs.iter().any(|bug| {
            bug.lines
                .iter()
                .any(|&l| outcome.report.line(&bug.file, l).is_some())
        });
        assert!(found, "SAV {sav}: bug missed");
        overheads.push(outcome.run.cycles as f64 / native.cycles as f64);
    }
    // SAV=1 must not be cheaper than SAV=31.
    assert!(overheads[0] >= overheads[3] * 0.999, "{overheads:?}");
}
