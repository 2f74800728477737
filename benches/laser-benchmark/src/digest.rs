//! Output digests: what "the program's outputs are correct" is checked with.
//!
//! A digest is 64-bit FNV-1a over the `Debug` rendering of everything a run
//! produced that is simulated (never wall-clock): step and cycle counts,
//! per-core cycles, machine statistics, driver statistics, detector cycles,
//! the contention report and the repair summary. `Debug` prints floats with
//! their shortest round-trip digits, so two outcomes digest equal exactly when
//! every field is bit-equal. Digests are only ever compared within one
//! process (pass against pass, pipelined against inline, layered replay
//! against session), never stored, so a `Debug` layout change cannot make a
//! stale comparison.

use std::fmt::Write as _;

use laser_core::LaserOutcome;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a session outcome. `stage_occupancy` and
/// `elapsed_benchmark_seconds` aside — the first is wall-clock, the second is
/// derived from the cycle count — every field goes in.
pub fn of_outcome(outcome: &LaserOutcome) -> u64 {
    let mut text = String::new();
    let _ = write!(
        text,
        "{:?}|{:?}|{}|{:?}|{:?}",
        outcome.run, outcome.driver_stats, outcome.detector_cycles, outcome.report, outcome.repair
    );
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_core::{Laser, LaserConfig};
    use laser_workloads::{find, BuildOptions};

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_across_runs_and_sensitive_to_the_seed() {
        let image = find("histogram'")
            .unwrap()
            .build(&BuildOptions::scaled(0.05));
        let run = |seed: u64| {
            let config = LaserConfig::detection_only().with_sav(1).with_seed(seed);
            let outcome = Laser::builder().config(config).build(&image).run().unwrap();
            of_outcome(&outcome)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
