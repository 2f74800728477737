//! Quick start: build the `linear_regression` workload, show the allocator
//! layout of its per-thread structs (the paper's Figure 2), run it natively,
//! then run it under LASER and print the contention report.

use laser::machine::line_of;
use laser::workloads::{common::regs, find, BuildOptions};
use laser::{Laser, LaserConfig};

fn main() {
    let spec = find("linear_regression").expect("linear_regression is registered");
    let opts = BuildOptions::scaled(0.3);
    let image = spec.build(&opts);

    println!("== Figure 2: how malloc lays out the lreg_args array ==");
    for (t, thread) in image.threads().iter().enumerate() {
        let base = thread
            .regs
            .iter()
            .find(|(r, _)| *r == regs::DATA)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let straddles = line_of(base) != line_of(base + 63);
        println!(
            "  lreg_args[{t}] @ {base:#x} (line offset {:2}) {}",
            base % 64,
            if straddles {
                "-- straddles two cache lines"
            } else {
                ""
            }
        );
    }

    let native = Laser::run_native(&image).expect("native run");
    println!(
        "\nnative run: {} cycles, {} HITM events",
        native.cycles, native.stats.hitm_events
    );

    let outcome = Laser::builder()
        .config(LaserConfig::default())
        .build(&image)
        .run()
        .expect("LASER run");
    println!(
        "\n== LASER contention report ==\n{}",
        outcome.report.render()
    );
    if let Some(repair) = &outcome.repair {
        println!(
            "LASERREPAIR attached at cycle {} and buffered {} stores ({} flushes).",
            repair.triggered_at_cycle, repair.stats.buffered_stores, repair.stats.flushes
        );
    }
    println!(
        "runtime under LASER: {} cycles ({:.2}x native)",
        outcome.run.cycles,
        outcome.run.cycles as f64 / native.cycles as f64
    );
}
