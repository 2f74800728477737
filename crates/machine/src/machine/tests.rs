use super::*;
use crate::hook::{ExecHook, HookAction, HookCtx, MemOp};
use crate::image::ThreadSpec;
use laser_isa::inst::{Operand, Reg};
use laser_isa::ProgramBuilder;

mod draining;
mod run_ahead;

/// A single thread storing 1..=n into consecutive u64 slots.
fn store_loop_image(n: u64) -> (WorkloadImage, Addr) {
    let mut b = ProgramBuilder::new("store_loop");
    b.source("store_loop.c", 1);
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    // r0 = base, r1 = i
    b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
    b.addi(Reg(0), Reg(0), 8);
    b.addi(Reg(1), Reg(1), 1);
    b.cmp_lt(Reg(2), Reg(1), Operand::Imm(n));
    b.branch(Reg(2), body, done);
    b.switch_to(done);
    b.halt();
    let program = b.finish();
    let mut image = WorkloadImage::new("store_loop", program);
    let base = image.layout_mut().heap_alloc(8 * n, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));
    (image, base)
}

/// Two threads hammering the same (or adjacent) 8-byte slots.
fn sharing_image(offset1: i64, iters: u64) -> WorkloadImage {
    let mut b = ProgramBuilder::new("sharing");
    b.source("sharing.c", 10);
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    b.load(Reg(1), Reg(0), 0, 8);
    b.addi(Reg(1), Reg(1), 1);
    b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
    b.addi(Reg(2), Reg(2), 1);
    b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
    b.branch(Reg(3), body, done);
    b.switch_to(done);
    b.halt();
    let program = b.finish();
    let mut image = WorkloadImage::new("sharing", program);
    let base = image.layout_mut().heap_alloc(64, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));
    image.push_thread(ThreadSpec::new("t1", "body").with_reg(Reg(0), base + offset1 as u64));
    image
}

#[test]
fn single_thread_executes_and_writes_memory() {
    let (image, base) = store_loop_image(16);
    let mut m = Machine::new(MachineConfig::default(), &image);
    let result = m.run_to_completion().unwrap();
    assert!(result.steps > 16 * 5);
    assert_eq!(result.stats.hitm_events, 0);
    for i in 0..16u64 {
        assert_eq!(m.read_u64(base + i * 8), i);
    }
    assert!(m.is_done());
    assert_eq!(m.thread_names(), vec!["t0"]);
}

#[test]
fn false_sharing_generates_hitm_events() {
    // Both threads write distinct words of the same cache line.
    let mut m = Machine::new(MachineConfig::default(), &sharing_image(8, 2000));
    let result = m.run_to_completion().unwrap();
    assert!(
        result.stats.hitm_events > 500,
        "expected many HITMs, got {}",
        result.stats.hitm_events
    );
    let events = m.take_hitm_events();
    assert_eq!(events.len() as u64, result.stats.hitm_events);
    // Events carry exact PCs within the program and data addresses on the
    // allocated line.
    for e in &events {
        assert!(m.program().contains_pc(e.pc));
    }
    // Draining again yields nothing.
    assert!(m.take_hitm_events().is_empty());
}

#[test]
fn separated_lines_generate_no_hitms() {
    // Second thread works 2 cache lines away: no sharing at all. Offset
    // must stay within the 64-byte allocation? Allocate separately: use
    // offset of 128 within a 192-byte object.
    let mut b = ProgramBuilder::new("no_share");
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    b.load(Reg(1), Reg(0), 0, 8);
    b.addi(Reg(1), Reg(1), 1);
    b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
    b.addi(Reg(2), Reg(2), 1);
    b.cmp_lt(Reg(3), Reg(2), Operand::Imm(1000));
    b.branch(Reg(3), body, done);
    b.switch_to(done);
    b.halt();
    let program = b.finish();
    let mut image = WorkloadImage::new("no_share", program);
    let base = image.layout_mut().heap_alloc(192, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));
    image.push_thread(ThreadSpec::new("t1", "body").with_reg(Reg(0), base + 128));
    let mut m = Machine::new(MachineConfig::default(), &image);
    let result = m.run_to_completion().unwrap();
    assert_eq!(result.stats.hitm_events, 0);
}

#[test]
fn contended_run_is_slower_than_uncontended() {
    let mut contended = Machine::new(MachineConfig::default(), &sharing_image(8, 2000));
    let c = contended.run_to_completion().unwrap();
    // Same program, but second thread's data is on its own line far away.
    let mut b = ProgramBuilder::new("sharing");
    b.source("sharing.c", 10);
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    b.load(Reg(1), Reg(0), 0, 8);
    b.addi(Reg(1), Reg(1), 1);
    b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
    b.addi(Reg(2), Reg(2), 1);
    b.cmp_lt(Reg(3), Reg(2), Operand::Imm(2000));
    b.branch(Reg(3), body, done);
    b.switch_to(done);
    b.halt();
    let program = b.finish();
    let mut image = WorkloadImage::new("sharing_fixed", program);
    let a0 = image.layout_mut().heap_alloc(64, 64).unwrap();
    let a1 = image.layout_mut().heap_alloc(64, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), a0));
    image.push_thread(ThreadSpec::new("t1", "body").with_reg(Reg(0), a1));
    let mut fixed = Machine::new(MachineConfig::default(), &image);
    let f = fixed.run_to_completion().unwrap();
    assert!(
        c.cycles > f.cycles * 2,
        "contended {} should be much slower than fixed {}",
        c.cycles,
        f.cycles
    );
}

#[test]
fn atomic_fetch_add_is_atomic_across_threads() {
    let mut b = ProgramBuilder::new("atomic_inc");
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    b.atomic_fetch_add(Reg(1), Reg(0), 0, Operand::Imm(1), 8);
    b.addi(Reg(2), Reg(2), 1);
    b.cmp_lt(Reg(3), Reg(2), Operand::Imm(500));
    b.branch(Reg(3), body, done);
    b.switch_to(done);
    b.halt();
    let program = b.finish();
    let mut image = WorkloadImage::new("atomic_inc", program);
    let counter = image.layout_mut().heap_alloc(8, 64).unwrap();
    for t in 0..4 {
        image.push_thread(ThreadSpec::new(format!("t{t}"), "body").with_reg(Reg(0), counter));
    }
    let mut m = Machine::new(MachineConfig::default(), &image);
    let result = m.run_to_completion().unwrap();
    assert_eq!(m.read_u64(counter), 4 * 500);
    assert!(result.stats.atomics >= 2000);
    // True sharing on the counter produces HITMs too.
    assert!(result.stats.hitm_events > 100);
}

#[test]
fn max_steps_guard_trips_on_infinite_loop() {
    let mut b = ProgramBuilder::new("spin");
    let body = b.block("body");
    b.switch_to(body);
    b.pause();
    b.jump(body);
    let program = b.finish();
    let mut image = WorkloadImage::new("spin", program);
    image.push_thread(ThreadSpec::new("t0", "body"));
    let config = MachineConfig {
        max_steps: 10_000,
        ..Default::default()
    };
    let mut m = Machine::new(config, &image);
    let err = m.run_to_completion().unwrap_err();
    assert_eq!(err, MachineError::MaxStepsExceeded { steps: 10_000 });
    assert!(!err.to_string().is_empty());
    // The livelocked loop is register-only, so it all runs ahead of the
    // scheduler — and still stops on exactly the budget.
    assert_eq!(m.steps(), 10_000);
    assert_eq!(m.cycles(), 5_000 * 3, "5000 × (pause 2 + jump 1)");
    // Asking again spends nothing more.
    assert_eq!(m.run_to_completion().unwrap_err(), err);
    assert_eq!(m.steps(), 10_000);
}

#[test]
fn charge_cycles_adds_overhead() {
    let (image, _) = store_loop_image(4);
    let mut m = Machine::new(MachineConfig::default(), &image);
    let before = m.cycles();
    m.charge_cycles(CoreId(0), 1000);
    assert_eq!(m.cycles(), before + 1000);
    m.charge_all_cores(10);
    assert_eq!(m.stats().injected_overhead_cycles, 1000 + 10 * 4);
}

#[test]
fn incremental_execution_reaches_same_end_state() {
    let (image, base) = store_loop_image(32);
    let mut m = Machine::new(MachineConfig::default(), &image);
    while m.run_steps(7) == RunStatus::Running {}
    assert!(m.is_done());
    for i in 0..32u64 {
        assert_eq!(m.read_u64(base + i * 8), i);
    }
}

#[test]
fn stack_pointer_register_is_initialised() {
    let (image, _) = store_loop_image(1);
    let m = Machine::new(MachineConfig::default(), &image);
    let sp = m.thread_reg(0, crate::image::STACK_POINTER_REG);
    assert!(m.memory_map().is_stack(sp));
}

#[test]
fn machine_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
}

#[test]
fn hook_can_intercept_and_service_ops() {
    use std::collections::BTreeMap;

    use crate::event::MemAccessKind;

    /// Buffers every store to the watched line and serves loads from it.
    struct TinySsb {
        watched_line: Addr,
        buffer: BTreeMap<Addr, u64>,
        intercepted: usize,
    }
    impl ExecHook for TinySsb {
        fn on_mem_op(&mut self, _ctx: &mut HookCtx<'_>, op: &MemOp) -> HookAction {
            if crate::addr::line_of(op.addr) != self.watched_line {
                return HookAction::Passthrough;
            }
            self.intercepted += 1;
            match op.kind {
                MemAccessKind::Store => {
                    self.buffer.insert(op.addr, op.store_value.unwrap_or(0));
                    HookAction::Handled {
                        load_value: None,
                        extra_cycles: 6,
                    }
                }
                MemAccessKind::Load => match self.buffer.get(&op.addr) {
                    Some(&v) => HookAction::Handled {
                        load_value: Some(v),
                        extra_cycles: 6,
                    },
                    None => HookAction::Passthrough,
                },
            }
        }
    }

    let image = sharing_image(8, 500);
    let watched = {
        // The shared allocation is the first heap allocation; recompute it.
        let mut probe = WorkloadImage::new("probe", {
            let mut b = ProgramBuilder::new("p");
            let blk = b.block("main");
            b.switch_to(blk);
            b.halt();
            b.finish()
        });
        probe.layout_mut().heap_alloc(64, 64).unwrap()
    };
    let mut m = Machine::new(MachineConfig::default(), &image);
    m.attach_hook(Box::new(TinySsb {
        watched_line: crate::addr::line_of(watched),
        buffer: BTreeMap::new(),
        intercepted: 0,
    }));
    assert!(m.has_hook());
    let result = m.run_to_completion().unwrap();
    // With every store to the contended line buffered, HITM traffic on it
    // disappears (only cold misses remain possible).
    assert!(result.stats.hook_handled_ops > 0);
    assert!(result.stats.hitm_events < 10);
    let hook = m.detach_hook();
    assert!(hook.is_some());
    assert!(!m.has_hook());
}

// ---------------------------------------------------------------------------
// Socket topology
// ---------------------------------------------------------------------------

#[test]
fn default_topology_splits_no_hitms_off_socket() {
    let image = sharing_image(0, 400);
    let mut m = Machine::new(MachineConfig::default(), &image);
    let r = m.run_to_completion().unwrap();
    assert!(r.stats.hitm_events > 0);
    assert_eq!(r.stats.hitm_remote, 0, "one socket: every HITM is local");
    assert_eq!(r.stats.hitm_local, r.stats.hitm_events);
    assert_eq!(r.stats.llc_remote_hits, 0);
    assert_eq!(r.stats.dram_remote_accesses, 0);
}

#[test]
fn dual_socket_round_robin_placement_makes_contention_cross_socket() {
    use crate::topology::{ThreadPlacement, TopologySpec};
    // Two threads hammer one line. Packed placement puts them on cores 0 and
    // 1 (same socket); round-robin puts them on cores 0 and 4 (different
    // sockets), so the same HITMs become remote and the run gets slower.
    let config = MachineConfig::for_topology(TopologySpec::DualSocket);

    let packed = {
        let image = sharing_image(0, 400);
        let mut m = Machine::new(config.clone(), &image);
        m.run_to_completion().unwrap()
    };
    assert!(packed.stats.hitm_events > 0);
    assert_eq!(packed.stats.hitm_remote, 0, "same socket: local HITMs");

    let spread = {
        let mut image = sharing_image(0, 400);
        image.set_thread_placement(ThreadPlacement::RoundRobin);
        let mut m = Machine::new(config, &image);
        m.run_to_completion().unwrap()
    };
    // Dearer transfers re-time the interleaving, so the two runs see
    // different HITM *counts* — what is pinned is where they are serviced.
    assert!(spread.stats.hitm_events > 0);
    assert_eq!(
        spread.stats.hitm_remote, spread.stats.hitm_events,
        "different sockets: every HITM crosses the interconnect"
    );
    assert!((spread.stats.remote_hitm_share() - 1.0).abs() < 1e-12);
    assert!(
        spread.cycles > packed.cycles,
        "remote HITMs are dearer: {} vs {}",
        spread.cycles,
        packed.cycles
    );
}

#[test]
fn dual_socket_dram_interleaves_homes() {
    use crate::topology::TopologySpec;
    // A single thread streaming over many lines: about half the cold misses
    // land on the remote socket's DRAM.
    let (image, _) = store_loop_image(64);
    let config = MachineConfig::for_topology(TopologySpec::DualSocket);
    let mut m = Machine::new(config, &image);
    let r = m.run_to_completion().unwrap();
    assert!(r.stats.dram_accesses >= 8);
    assert!(
        r.stats.dram_remote_accesses > 0 && r.stats.dram_remote_accesses < r.stats.dram_accesses,
        "line-interleaved homes: some local, some remote ({}/{})",
        r.stats.dram_remote_accesses,
        r.stats.dram_accesses
    );
}

#[test]
#[should_panic(expected = "latency model: pause must cost at least 1 cycle")]
fn free_instructions_are_rejected_at_construction() {
    let (image, _) = store_loop_image(4);
    let config = MachineConfig {
        latency: crate::timing::LatencyModel {
            pause: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    Machine::new(config, &image);
}

#[test]
#[should_panic(expected = "invalid machine configuration")]
fn invalid_latency_model_is_rejected_at_construction() {
    let (image, _) = store_loop_image(4);
    let config = MachineConfig {
        latency: crate::timing::LatencyModel {
            freq_hz: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    Machine::new(config, &image);
}
