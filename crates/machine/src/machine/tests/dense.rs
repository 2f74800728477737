//! The dense memory path held to the map path on whole machines.
//!
//! [`Machine::new`] gives its memory and coherence directory line tables that
//! index the image's allocated data; a machine built over no extents keeps
//! every line in the tables' `BTreeMap`s, the path every access outside the
//! extents takes. The two run one image in quantum lock-step, with seeded
//! quanta and seeded external charges between them, and after every quantum
//! must agree on the run status, every core clock, every `MachineStats`
//! field, every HITM event, every thread's position and registers, and the
//! memory as read at every address either holds. The images are every
//! registry workload on `flat`, `2s` and `8s`, and `run_ahead.rs`'s
//! generated programs, including those whose private slots sit at the top of
//! the address space (map homes and wrapping accesses in the same run as
//! dense ones).
//!
//! `every_registry_access_stays_in_the_dense_part` pins what makes the tables
//! pay: every registry workload keeps all its accesses inside its allocated
//! extents, so a run leaves both tables' maps empty. With `--nocapture` it
//! prints the per-workload extent table EXPERIMENTS.md records.
//!
//! Every test here has `dense` in its path, so
//! `cargo test --release -p laser-machine dense` runs the suite at its full
//! count (the stream tests of `crate::dense` with it); a debug build keeps a
//! reduced count.

use super::run_ahead::{
    generated_config, generated_image, generated_image_with, registry_image, seeded_plan,
    REGISTRY_SCALE, STEP_CAP, WRAPPING_PRIVATE_TOP,
};
use crate::machine::XorShift;
use crate::machine::*;
use crate::mem::tests::{dense_ranges, same_contents};
use crate::topology::{ThreadPlacement, TopologySpec};

fn assert_same_state(dense: &Machine, map: &Machine, what: &str, quantum: usize) {
    assert_eq!(dense.steps(), map.steps(), "{what} q{quantum}: steps");
    assert_eq!(
        dense.per_core_cycles(),
        map.per_core_cycles(),
        "{what} q{quantum}: core clocks"
    );
    assert_eq!(dense.stats(), map.stats(), "{what} q{quantum}: stats");
    for (ti, (d, m)) in dense.threads.iter().zip(&map.threads).enumerate() {
        assert_eq!(
            (d.block, d.idx, d.halted, d.regs),
            (m.block, m.idx, m.halted, m.regs),
            "{what} q{quantum}: thread {ti}"
        );
    }
    assert!(
        same_contents(dense.memory(), map.memory()),
        "{what} q{quantum}: memory"
    );
}

/// Run `image` on a dense machine and a map-only one in quantum lock-step
/// until both finish or pass [`STEP_CAP`] steps. Returns the dense machine.
fn lockstep(image: &WorkloadImage, config: &MachineConfig, seed: u64, what: &str) -> Machine {
    let mut dense = Machine::new(config.clone(), image);
    let mut map = Machine::with_dense_extents(config.clone(), image, &[]);
    assert_eq!(
        dense_ranges(map.memory()),
        [],
        "{what}: the reference is map-only"
    );
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    // Both machines schedule alike whatever the quantum (the run-ahead suite
    // owns the small-quantum seams), so quanta here are session-sized and
    // the memory compare after each stays affordable.
    let max_quantum = [300, 3_000, 20_000][rng.below(3) as usize];
    let mut plan = seeded_plan(rng.next(), max_quantum);
    assert_same_state(&dense, &map, what, 0);
    for quantum in 1.. {
        let n = plan(&mut dense, &mut map);
        let got = dense.run_quantum(n);
        let want = map.run_quantum(n);
        assert_eq!(got.status, want.status, "{what} q{quantum}: status");
        assert_eq!(
            got.events.len(),
            want.events.len(),
            "{what} q{quantum}: HITM events"
        );
        for (i, (g, w)) in got.events.iter().zip(&want.events).enumerate() {
            assert_eq!(g, w, "{what} q{quantum}: HITM event {i}");
        }
        assert_same_state(&dense, &map, what, quantum);
        if got.status == RunStatus::Done || dense.steps() >= STEP_CAP {
            break;
        }
    }
    dense
}

fn placement_for(topology: TopologySpec) -> ThreadPlacement {
    if topology == TopologySpec::Flat {
        ThreadPlacement::Packed
    } else {
        ThreadPlacement::RoundRobin
    }
}

fn registry_on(topology: TopologySpec) {
    let config = MachineConfig::for_topology(topology);
    for (i, spec) in laser_workloads::registry().iter().enumerate() {
        let threads = 4 * topology.sockets();
        let image = registry_image(spec, REGISTRY_SCALE, threads, placement_for(topology));
        let what = format!("{} on {topology:?}", spec.name);
        let dense = lockstep(&image, &config, 1 + i as u64, &what);
        assert!(
            dense.inner.coh.tracked_lines() > 0,
            "{what}: the run touched memory"
        );
    }
}

#[test]
fn dense_registry_flat_agrees_with_the_map() {
    registry_on(TopologySpec::Flat);
}

#[test]
fn dense_registry_2s_agrees_with_the_map() {
    registry_on(TopologySpec::DualSocket);
}

#[test]
fn dense_registry_8s_agrees_with_the_map() {
    registry_on(TopologySpec::OctoSocket);
}

#[test]
fn dense_generated_programs_agree_with_the_map() {
    let programs: u64 = if cfg!(debug_assertions) { 30 } else { 300 };
    for seed in 1..=programs {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xd5e);
        let (config, placement) = generated_config(&mut rng);
        let threads = 1 + rng.below(3 * config.num_cores as u64).min(13) as usize;
        let mut image = if seed % 3 == 0 {
            // Private slots at the top of the address space: map homes and
            // wrapping accesses beside the dense shared region.
            generated_image_with(&mut rng, threads, 60, Some(WRAPPING_PRIVATE_TOP))
        } else {
            generated_image(&mut rng, threads)
        };
        image.set_thread_placement(placement);
        let what = format!("generated program {seed}");
        let dense = lockstep(&image, &config, rng.next(), &what);
        if seed % 3 != 0 {
            assert_eq!(dense.inner.coh.lines.mapped_lines(), 0, "{what}: all dense");
        }
    }
}

/// Every registry workload, on `flat` and `8s` at scale 0.1, run to the end:
/// every line it touches has a slot in a line table, so both maps end
/// empty. A workload change that moves data off the fast path fails here.
#[test]
fn every_registry_access_stays_in_the_dense_part() {
    println!("workload | topology | globals lines | heap lines | lines touched | steps");
    for topology in [TopologySpec::Flat, TopologySpec::OctoSocket] {
        let config = MachineConfig::for_topology(topology);
        for spec in &laser_workloads::registry() {
            let threads = 4 * topology.sockets();
            let image = registry_image(spec, 0.1, threads, placement_for(topology));
            let what = format!("{} on {topology:?}", spec.name);
            let mut m = Machine::new(config.clone(), &image);
            m.run_to_completion().unwrap();
            let touched = m.inner.coh.tracked_lines();
            assert!(touched > 0, "{what}: the run touched memory");
            assert_eq!(
                m.inner.coh.lines.mapped_lines(),
                0,
                "{what}: lines off the table"
            );
            assert_eq!(
                m.memory().lines.mapped_lines(),
                0,
                "{what}: bytes off the table"
            );
            let [globals, heap] = image.layout().data_extents();
            let lines = |r: std::ops::Range<u64>| (r.end - r.start) / crate::addr::CACHE_LINE_SIZE;
            println!(
                "{} | {topology:?} | {} | {} | {touched} | {}",
                spec.name,
                lines(globals),
                lines(heap),
                m.steps()
            );
        }
    }
}
