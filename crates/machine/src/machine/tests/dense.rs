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
//! extents, so a run leaves both tables' maps empty, and every L1 hit it
//! makes takes the held-line path (`MachineInner::access`). With
//! `--nocapture` it prints the per-workload extent table EXPERIMENTS.md
//! records. `dense_tables_share_every_slot` pins the invariant that path
//! rests on, and `dense_held_hits_match_the_map_case_by_case` holds it to
//! the map-only twin one access at a time: each held state × read/write, and
//! each access that is not held.
//!
//! Every test here has `dense` in its path, so
//! `cargo test --release -p laser-machine dense` runs the suite at its full
//! count (the stream tests of `crate::dense` with it); a debug build keeps a
//! reduced count.

use super::run_ahead::{
    generated_config, generated_image, generated_image_with, registry_image, seeded_plan,
    REGISTRY_SCALE, STEP_CAP, WRAPPING_PRIVATE_TOP,
};
use laser_isa::ProgramBuilder;

use crate::addr::{iter_lines_touched, line_of, CACHE_LINE_SIZE};
use crate::event::MemAccessKind;
use crate::image::ThreadSpec;
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
/// empty, and every L1 hit it makes is served on the held-line path (no
/// registry access straddles two lines). A workload change that moves data
/// off the fast path fails here.
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
            assert_eq!(
                m.inner.held_hits,
                m.stats().l1_hits,
                "{what}: every L1 hit on the held-line path"
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

/// Memory and directory are built from the same extents, so every line has
/// the same slot in both — the held-line path looks a slot up once and uses
/// it for both. Every line of every registry image's tables on `flat` and
/// `8s`, and the lines just outside each extent.
#[test]
fn dense_tables_share_every_slot() {
    for topology in [TopologySpec::Flat, TopologySpec::OctoSocket] {
        let config = MachineConfig::for_topology(topology);
        for spec in &laser_workloads::registry() {
            let threads = 4 * topology.sockets();
            let image = registry_image(spec, REGISTRY_SCALE, threads, placement_for(topology));
            let what = format!("{} on {topology:?}", spec.name);
            let m = Machine::new(config.clone(), &image);
            let (mem, coh) = (&m.inner.mem.lines, &m.inner.coh.lines);
            assert_eq!(mem.ranges(), coh.ranges(), "{what}: extents");
            assert!(!mem.ranges().is_empty(), "{what}: the image has slots");
            let edges = mem.ranges().into_iter().flat_map(|r| {
                [
                    r.start.wrapping_sub(CACHE_LINE_SIZE),
                    r.end,
                    r.end.wrapping_add(CACHE_LINE_SIZE),
                ]
            });
            for line in mem.held_lines().into_iter().chain(edges) {
                assert_eq!(mem.slot(line), coh.slot(line), "{what}: line {line:#x}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The held-line path, case by case
// ---------------------------------------------------------------------------

/// An address outside the extents of [`held_case_machines`]' image.
const OUTSIDE: Addr = 0x7000_0000_0000;

/// One access after a setup, on four cores.
struct HeldCase {
    name: &'static str,
    /// `(core, is_write)` accesses to the case's line that set its state.
    setup: &'static [(usize, bool)],
    /// Bytes into the first heap line, or `None` for [`OUTSIDE`].
    offset: Option<u64>,
    size: u8,
    core: usize,
    is_write: bool,
    /// Whether the dense machine serves it on the held-line path.
    held: bool,
}

#[rustfmt::skip]
const HELD_CASES: &[HeldCase] = &[
    HeldCase { name: "Modified by the core, read", setup: &[(0, true)], offset: Some(8), size: 8, core: 0, is_write: false, held: true },
    HeldCase { name: "Modified by the core, write", setup: &[(0, true)], offset: Some(8), size: 4, core: 0, is_write: true, held: true },
    HeldCase { name: "Shared by the core alone, read", setup: &[(0, false)], offset: Some(0), size: 1, core: 0, is_write: false, held: true },
    HeldCase { name: "Shared by the core alone, write", setup: &[(0, false)], offset: Some(56), size: 8, core: 0, is_write: true, held: true },
    HeldCase { name: "Shared with others, read", setup: &[(0, false), (2, false)], offset: Some(16), size: 2, core: 0, is_write: false, held: true },
    HeldCase { name: "Shared with others, write (LLC)", setup: &[(0, false), (2, false)], offset: Some(16), size: 8, core: 0, is_write: true, held: false },
    HeldCase { name: "Shared without the core, read (LLC)", setup: &[(1, false)], offset: Some(16), size: 8, core: 0, is_write: false, held: false },
    HeldCase { name: "Modified by another, read (HITM)", setup: &[(1, true)], offset: Some(24), size: 8, core: 0, is_write: false, held: false },
    HeldCase { name: "Modified by another, write (HITM)", setup: &[(3, true)], offset: Some(24), size: 8, core: 0, is_write: true, held: false },
    HeldCase { name: "cold, read (DRAM)", setup: &[], offset: Some(0), size: 8, core: 0, is_write: false, held: false },
    HeldCase { name: "cold, write (DRAM)", setup: &[], offset: Some(0), size: 8, core: 0, is_write: true, held: false },
    HeldCase { name: "straddling two held lines", setup: &[(0, true)], offset: Some(60), size: 8, core: 0, is_write: false, held: false },
    HeldCase { name: "Modified by the core, outside the extents", setup: &[(0, true)], offset: None, size: 8, core: 0, is_write: false, held: false },
];

/// A dense machine and its map-only twin over one image whose heap is two
/// lines, seeded with words in each, and the heap's first line.
fn held_case_machines() -> (Machine, Machine, Addr) {
    let mut b = ProgramBuilder::new("held");
    let entry = b.block("entry");
    b.switch_to(entry);
    b.halt();
    let mut image = WorkloadImage::new("held", b.finish());
    let heap = image.layout_mut().heap_alloc(128, 64).unwrap();
    image
        .layout_mut()
        .poke_bytes(heap, &0x1122_3344_5566_7788u64.to_le_bytes());
    image
        .layout_mut()
        .poke_bytes(heap + 56, &0x99aa_bbcc_ddee_ff00u64.to_le_bytes());
    image
        .layout_mut()
        .poke_bytes(heap + 64, &0x0102_0304_0506_0708u64.to_le_bytes());
    image.push_thread(ThreadSpec::new("t0", "entry"));
    let config = MachineConfig::default();
    let dense = Machine::new(config.clone(), &image);
    let map = Machine::with_dense_extents(config, &image, &[]);
    assert_eq!(line_of(heap), heap, "the heap starts a line");
    (dense, map, heap)
}

/// One access on a machine's shared state: the value and cost it returned.
fn access(
    m: &mut Machine,
    core: usize,
    addr: Addr,
    size: u8,
    is_write: bool,
    now: u64,
) -> (u64, u64) {
    let kind = if is_write {
        MemAccessKind::Store
    } else {
        MemAccessKind::Load
    };
    let value = is_write.then_some(0xfeed_f00d_0bad_cafe);
    m.inner.access(
        core,
        0x40_0000 + now,
        addr,
        size,
        is_write,
        kind,
        value,
        now,
    )
}

/// Every held state × read and write, and every access that is not held,
/// on a dense machine and its map-only twin: the same value, cost, next
/// state, statistics and HITM events, and only the dense machine's held
/// cases on the held-line path.
#[test]
fn dense_held_hits_match_the_map_case_by_case() {
    for case in HELD_CASES {
        let (mut dense, mut map, line) = held_case_machines();
        let addr = case.offset.map_or(OUTSIDE, |off| line + off);
        let what = case.name;
        for m in [&mut dense, &mut map] {
            for (now, &(core, is_write)) in case.setup.iter().enumerate() {
                for l in iter_lines_touched(addr, case.size) {
                    access(m, core, l, 8, is_write, now as u64);
                }
            }
        }
        let held_before = dense.inner.held_hits;
        let got = access(&mut dense, case.core, addr, case.size, case.is_write, 10);
        let want = access(&mut map, case.core, addr, case.size, case.is_write, 10);
        assert_eq!(got, want, "{what}: value and cost");
        assert_eq!(
            dense.inner.held_hits - held_before,
            u64::from(case.held),
            "{what}: held-line path taken"
        );
        assert_eq!(
            map.inner.held_hits, 0,
            "{what}: the map-only twin never holds"
        );
        for l in iter_lines_touched(addr, case.size) {
            assert_eq!(
                dense.inner.coh.lines.get(l),
                map.inner.coh.lines.get(l),
                "{what}: next state of {l:#x}"
            );
            assert!(
                dense.inner.coh.lines.get(l).is_some(),
                "{what}: the access touched {l:#x}"
            );
        }
        assert_eq!(dense.stats(), map.stats(), "{what}: stats");
        assert_eq!(
            dense.take_hitm_events(),
            map.take_hitm_events(),
            "{what}: HITM events"
        );
        assert!(
            same_contents(dense.memory(), map.memory()),
            "{what}: memory"
        );
        let bytes = dense.memory().read(addr, case.size);
        assert_eq!(
            bytes,
            map.memory().read(addr, case.size),
            "{what}: the bytes"
        );
        if case.is_write {
            assert_eq!(
                bytes,
                Machine::mask(0xfeed_f00d_0bad_cafe, case.size),
                "{what}: stored"
            );
        }
    }
}
