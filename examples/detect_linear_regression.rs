//! Detection deep-dive: run LASERDETECT (no repair) on a workload given on
//! the command line (default `linear_regression`) and dump everything the
//! detector saw — driver statistics, per-line rates and the TS/FS
//! classification evidence.

use laser::workloads::{find, registry, BuildOptions};
use laser::{Laser, LaserConfig};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "linear_regression".to_string());
    let Some(spec) = find(&name) else {
        eprintln!("unknown workload '{name}'. Available:");
        for s in registry() {
            eprintln!("  {}", s.name);
        }
        std::process::exit(2);
    };
    let image = spec.build(&BuildOptions::scaled(0.3));
    let outcome = Laser::builder()
        .config(LaserConfig::detection_only())
        .build(&image)
        .run()
        .expect("detection run succeeds");

    println!("workload: {name}");
    println!(
        "driver: {} HITM events observed, {} records sampled, {} interrupts, {} overhead cycles",
        outcome.driver_stats.events_observed,
        outcome.driver_stats.records_sampled,
        outcome.driver_stats.interrupts,
        outcome.driver_stats.overhead_cycles
    );
    println!(
        "detector: {} cycles of processing\n",
        outcome.detector_cycles
    );
    println!("{}", outcome.report.render());

    println!("known bugs in the database:");
    if spec.known_bugs.is_empty() {
        println!("  (none)");
    }
    for bug in &spec.known_bugs {
        let found = bug
            .lines
            .iter()
            .any(|&l| outcome.report.line(&bug.file, l).is_some());
        println!(
            "  {:?} at {}:{:?} -- {}",
            bug.kind,
            bug.file,
            bug.lines,
            if found { "FOUND" } else { "MISSED" }
        );
    }
}
