//! The differential oracle for [`Machine::run_draining`]: a draining run must
//! end exactly where [`Machine::run_to_completion`] ends — the same result,
//! the same memory, the same error after the same number of steps when the
//! budget cuts it short — and the batches it hands over, concatenated, must
//! be the events `run_to_completion` leaves queued, in order.
//!
//! Every registry workload on `flat`, `2s` and `8s` and the generated
//! programs of `run_ahead.rs` run at several drain thresholds, whole and cut
//! by a seeded `max_steps` that lands inside a round. Every batch is held to
//! what a round boundary allows: no fewer events than the threshold (the
//! last batch excepted) and fewer than the threshold plus the most one round
//! queued. The default threshold is also held to a fixed ceiling on the
//! scale-2 registry, the input scale of the paper grid.
//!
//! Every test here has `draining` in its path, so
//! `cargo test --release -p laser-machine draining` runs the suite at its
//! full size; a debug build keeps the scale-2 ceiling to `flat`.

use super::run_ahead::{generated_config, generated_image, registry_image, REGISTRY_SCALE};
use crate::machine::exec::DRAIN_BATCH_EVENTS;
use crate::machine::sched::tests::XorShift;
use crate::machine::*;
use crate::stats::MachineStats;
use crate::topology::{ThreadPlacement, TopologySpec};

/// Drain thresholds every case runs at: whatever a boundary finds, a few
/// events, and the default.
const THRESHOLDS: [usize; 3] = [1, 37, DRAIN_BATCH_EVENTS];

/// The most events one instruction queues: a read-modify-write is two
/// accesses, each touching at most two lines. The bound for a draining
/// run's tail, which runs one instruction per boundary.
const MOST_EVENTS_PER_STEP: usize = 4;

/// Every field of a result, comparable.
fn fields(r: &RunResult) -> (u64, &[u64], &MachineStats, u64) {
    (r.cycles, &r.per_core_cycles, &r.stats, r.steps)
}

/// Drain a fresh machine at every threshold and hold each run to
/// `run_to_completion` on the same machine: outcome, final state, events,
/// and the size of every batch. Returns the steps the run took.
fn assert_drains_like_completion(image: &WorkloadImage, config: &MachineConfig, what: &str) -> u64 {
    let mut reference = Machine::new(config.clone(), image);
    let expected = reference.run_to_completion();
    let events = reference.take_hitm_events();
    for threshold in THRESHOLDS {
        let what = format!("{what}, drained at {threshold}");
        let mut machine = Machine::new(config.clone(), image);
        let mut batches: Vec<Vec<HitmEvent>> = Vec::new();
        let outcome = machine.run_draining_at(threshold, |batch| batches.push(batch.to_vec()));
        assert_eq!(
            outcome.as_ref().err(),
            expected.as_ref().err(),
            "{what}: outcome"
        );
        if let (Ok(got), Ok(want)) = (&outcome, &expected) {
            assert_eq!(fields(got), fields(want), "{what}: result");
        }
        assert_eq!(
            fields(&machine.result()),
            fields(&reference.result()),
            "{what}: machine state"
        );
        assert!(machine.inner.mem == reference.inner.mem, "{what}: memory");
        assert!(machine.inner.pending_hitms.is_empty(), "{what}: queue left");
        assert_eq!(batches.concat(), events, "{what}: events");

        let round = machine.round_trace.most_events.max(MOST_EVENTS_PER_STEP);
        let Some((last, drained)) = batches.split_last() else {
            continue;
        };
        for (i, batch) in drained.iter().enumerate() {
            assert!(
                batch.len() >= threshold && batch.len() < threshold + round,
                "{what}: batch {i} of {} events, rounds queue up to {round}",
                batch.len()
            );
        }
        assert!(
            !last.is_empty() && last.len() < threshold + round,
            "{what}: last batch of {} events, rounds queue up to {round}",
            last.len()
        );
    }
    reference.steps()
}

/// [`assert_drains_like_completion`] on `config`, then again with a seeded
/// budget that stops the run somewhere inside.
fn assert_drains_whole_and_cut(
    image: &WorkloadImage,
    config: &MachineConfig,
    rng: &mut XorShift,
    what: &str,
) {
    let total = assert_drains_like_completion(image, config, what);
    let cut = MachineConfig {
        max_steps: rng.below(total.max(1)),
        ..config.clone()
    };
    let steps = assert_drains_like_completion(image, &cut, &format!("{what}, cut"));
    assert_eq!(
        steps, cut.max_steps,
        "{what}: the cut run stops on its budget"
    );
}

fn registry_drains_on(topology: TopologySpec) {
    let placement = if topology == TopologySpec::Flat {
        ThreadPlacement::Packed
    } else {
        ThreadPlacement::RoundRobin
    };
    let config = MachineConfig::for_topology(topology);
    for (i, spec) in laser_workloads::registry().iter().enumerate() {
        let image = registry_image(spec, REGISTRY_SCALE, 4 * topology.sockets(), placement);
        let mut rng = XorShift(0x0d7a_1e55 + i as u64);
        let what = format!("{} on {topology:?}", spec.name);
        assert_drains_whole_and_cut(&image, &config, &mut rng, &what);
    }
}

#[test]
fn draining_registry_flat_is_run_to_completion() {
    registry_drains_on(TopologySpec::Flat);
}

#[test]
fn draining_registry_2s_is_run_to_completion() {
    registry_drains_on(TopologySpec::DualSocket);
}

#[test]
fn draining_registry_8s_is_run_to_completion() {
    registry_drains_on(TopologySpec::OctoSocket);
}

#[test]
fn draining_generated_programs_is_run_to_completion() {
    let programs: u64 = if cfg!(debug_assertions) { 60 } else { 600 };
    for seed in 1..=programs {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let (config, placement) = generated_config(&mut rng);
        let threads = 1 + rng.below(3 * config.num_cores as u64).min(13) as usize;
        let mut image = generated_image(&mut rng, threads);
        image.set_thread_placement(placement);
        assert_drains_whole_and_cut(
            &image,
            &config,
            &mut rng,
            &format!("generated program {seed}"),
        );
    }
}

/// The most events a default-threshold batch may hold on the scale-2
/// registry: the threshold plus 256, where the largest batch seen is 2,185
/// (`linear_regression` on `flat`, one round of ≈ 140 events past it).
const SCALE2_CEILING: usize = DRAIN_BATCH_EVENTS + 256;

/// What the default threshold holds in practice: on the paper grid's input
/// scale, no batch is more than [`SCALE2_CEILING`] events, while a
/// contended workload's whole run queues tens of thousands.
#[test]
fn draining_holds_a_fixed_ceiling_on_the_scale_2_registry() {
    let topologies: &[TopologySpec] = if cfg!(debug_assertions) {
        &[TopologySpec::Flat]
    } else {
        &[
            TopologySpec::Flat,
            TopologySpec::DualSocket,
            TopologySpec::OctoSocket,
        ]
    };
    let mut most_queued = 0;
    for &topology in topologies {
        let placement = if topology == TopologySpec::Flat {
            ThreadPlacement::Packed
        } else {
            ThreadPlacement::RoundRobin
        };
        let config = MachineConfig::for_topology(topology);
        for spec in laser_workloads::registry() {
            let image = registry_image(&spec, 2.0, 4 * topology.sockets(), placement);
            let mut largest = 0;
            let run = Machine::new(config.clone(), &image)
                .run_draining(|batch| largest = largest.max(batch.len()))
                .unwrap();
            assert!(
                largest <= SCALE2_CEILING,
                "{} on {topology:?}: a batch of {largest} events",
                spec.name
            );
            most_queued = most_queued.max(run.stats.hitm_events);
        }
    }
    assert!(
        most_queued > 20 * SCALE2_CEILING as u64,
        "a whole run would have queued {most_queued}"
    );
}
