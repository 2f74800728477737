//! Survey the whole benchmark suite: run every workload natively and under
//! LASER (detection only) at a reduced scale and print a one-line summary per
//! workload — HITM intensity, overhead, and what was reported. A quick way to
//! see the Table 1 / Figure 10 landscape without the full experiment harness.

use laser::workloads::{registry, BuildOptions};
use laser::{Laser, LaserConfig};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.15);
    let opts = BuildOptions::scaled(scale);
    println!(
        "{:<20} {:>6} {:>10} {:>9} {:>8}  top report",
        "workload", "bugs", "HITMs", "overhead", "lines"
    );
    for spec in registry() {
        let image = spec.build(&opts);
        let native = Laser::run_native(&image).expect("native run");
        let outcome = Laser::builder()
            .config(LaserConfig::detection_only())
            .build(&image)
            .run()
            .expect("LASER run");
        let overhead = outcome.run.cycles as f64 / native.cycles.max(1) as f64;
        let top = outcome
            .report
            .lines
            .first()
            .map(|l| format!("{} ({})", l.location, l.kind))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<20} {:>6} {:>10} {:>8.2}x {:>8}  {}",
            spec.name,
            spec.known_bugs.len(),
            native.stats.hitm_events,
            overhead,
            outcome.report.lines.len(),
            top
        );
    }
}
