//! Online-repair walk-through: run `histogram'` natively, under LASER with
//! repair disabled, and under full LASER (detection + the software-store-
//! buffer repair), then compare against the manually fixed binary — the
//! single-workload version of the paper's Figure 11.

use laser::workloads::{find, BuildOptions};
use laser::{Laser, LaserConfig};

fn main() {
    let spec = find("histogram'").expect("histogram' is registered");
    let opts = BuildOptions::scaled(0.5);
    let image = spec.build(&opts);

    let native = Laser::run_native(&image).expect("native run");
    let detect_only = Laser::builder()
        .config(LaserConfig::detection_only())
        .build(&image)
        .run()
        .expect("detection run");
    let repaired = Laser::builder()
        .config(LaserConfig::default())
        .build(&image)
        .run()
        .expect("repair run");
    let fixed_image = spec.build(&BuildOptions {
        fixed: true,
        ..opts
    });
    let manual = Laser::run_native(&fixed_image).expect("fixed run");

    let norm = |c: u64| c as f64 / native.cycles as f64;
    println!("histogram' (input that induces false sharing):");
    println!(
        "  native:                 {:>10} cycles  (1.00x)",
        native.cycles
    );
    println!(
        "  LASER, detection only:  {:>10} cycles  ({:.2}x)",
        detect_only.run.cycles,
        norm(detect_only.run.cycles)
    );
    println!(
        "  LASER with repair:      {:>10} cycles  ({:.2}x)",
        repaired.run.cycles,
        norm(repaired.run.cycles)
    );
    println!(
        "  manual padding fix:     {:>10} cycles  ({:.2}x)",
        manual.cycles,
        norm(manual.cycles)
    );

    match &repaired.repair {
        Some(summary) => {
            println!("\nrepair details:");
            println!("  triggered at cycle {}", summary.triggered_at_cycle);
            println!(
                "  instrumented {} blocks, flush at {} block(s), {:.0} stores per flush (estimate)",
                summary.plan.instrumented_blocks.len(),
                summary.plan.flush_blocks.len(),
                summary.plan.estimated_stores_per_flush
            );
            println!(
                "  {} stores buffered, {} SSB load hits, {} flushes ({} transactional)",
                summary.stats.buffered_stores,
                summary.stats.ssb_load_hits,
                summary.stats.flushes,
                summary.stats.htm_flushes
            );
        }
        None => println!("\nrepair did not trigger at this scale"),
    }
}
