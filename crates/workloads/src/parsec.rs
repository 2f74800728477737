//! The PARSEC 3.0 workloads (native-style inputs).
//!
//! The interesting ones for LASER are `bodytrack` (true sharing in the ticket
//! dispenser), `dedup` (true sharing in the lock-protected pipeline queues)
//! and `streamcluster` (insufficiently padded `work_mem`); the remainder are
//! benign kernels built from the shared templates.

use laser_isa::inst::Operand;
use laser_isa::ProgramBuilder;
use laser_machine::{ThreadSpec, WorkloadImage};

use crate::common::{
    barrier_phased, close_loop, emit_lock_acquire, emit_lock_release, locked_accumulator,
    open_loop, private_compute, regs, scaled_iters, BENIGN_DILATION, INTENSE_DILATION,
    MILD_DILATION,
};
use crate::spec::{BugKind, BuildOptions, KnownBug, SheriffCompat, Suite, WorkloadSpec};

/// All PARSEC workload specifications.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "blackscholes",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| private_compute("blackscholes", "blackscholes.c", o, 2600, 10, 8),
        },
        WorkloadSpec {
            name: "bodytrack",
            suite: Suite::Parsec,
            known_bugs: vec![KnownBug::new(
                "TicketDispenser.h",
                &[110],
                BugKind::TrueSharing,
                "TicketDispenser::getTicket(): every worker atomically increments one shared \
                 counter to claim work",
            )],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: bodytrack,
        },
        WorkloadSpec {
            name: "canneal",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| locked_accumulator("canneal", "canneal.cpp", o, 2000, 64, 8),
        },
        WorkloadSpec {
            name: "dedup",
            suite: Suite::Parsec,
            known_bugs: vec![KnownBug::new(
                "queue.c",
                &[30, 34],
                BugKind::TrueSharing,
                "each pipeline-stage queue is protected by a single lock, serialising enqueue \
                 and dequeue",
            )],
            sheriff: SheriffCompat::Incompatible,
            has_fix: true,
            build_fn: dedup,
        },
        WorkloadSpec {
            name: "facesim",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("facesim", "facesim.cpp", o, 3, 700, 8),
        },
        WorkloadSpec {
            name: "ferret",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| locked_accumulator("ferret", "ferret.c", o, 2200, 48, 6),
        },
        WorkloadSpec {
            name: "fluidanimate",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("fluidanimate", "fluidanimate.cpp", o, 4, 600, 5),
        },
        WorkloadSpec {
            name: "freqmine",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Incompatible,
            has_fix: false,
            build_fn: |o| private_compute("freqmine", "freqmine.cpp", o, 2400, 7, 16),
        },
        WorkloadSpec {
            name: "raytrace.parsec",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Incompatible,
            has_fix: false,
            build_fn: |o| {
                locked_accumulator("raytrace.parsec", "raytrace_parsec.cpp", o, 2000, 80, 10)
            },
        },
        WorkloadSpec {
            name: "streamcluster",
            suite: Suite::Parsec,
            known_bugs: vec![KnownBug::new(
                "streamcluster.cpp",
                &[985],
                BugKind::FalseSharing,
                "work_mem is padded, but with less than a 64-byte line so neighbouring \
                 threads still share lines",
            )],
            sheriff: SheriffCompat::Crash,
            has_fix: true,
            build_fn: streamcluster,
        },
        WorkloadSpec {
            name: "swaptions",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| private_compute("swaptions", "swaptions.cpp", o, 2400, 12, 8),
        },
        WorkloadSpec {
            name: "vips",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Incompatible,
            has_fix: false,
            build_fn: |o| locked_accumulator("vips", "vips.c", o, 2200, 56, 7),
        },
        WorkloadSpec {
            name: "x264",
            suite: Suite::Parsec,
            known_bugs: vec![],
            sheriff: SheriffCompat::Incompatible,
            has_fix: false,
            build_fn: x264,
        },
    ]
}

/// `bodytrack`: worker threads repeatedly call the ticket dispenser — an
/// atomic fetch-and-add on one shared counter — to claim particles, then do
/// private work. The communication is fundamental load balancing, so there is
/// nothing to repair.
fn bodytrack(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(2000, opts);
    let file = "TicketDispenser.h";
    let mut b = ProgramBuilder::new("bodytrack");
    b.source("bodytrack.cpp", 300);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "particles");
    // getTicket(): one atomic increment of the shared ticket counter.
    b.source(file, 110);
    b.atomic_fetch_add(regs::VAL, regs::SHARED, 0, Operand::Imm(1), 8);
    // Private particle processing.
    b.source("bodytrack.cpp", 310);
    b.load(regs::SCRATCH_A, regs::DATA, 0, 8);
    b.add(regs::SCRATCH_A, regs::SCRATCH_A, Operand::Reg(regs::VAL));
    b.store(Operand::Reg(regs::SCRATCH_A), regs::DATA, 0, 8);
    b.nops(8);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("bodytrack", program);
    image.set_time_dilation(MILD_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let ticket = image.layout_mut().global_alloc(64, 64);
    for t in 0..opts.threads {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let buf = image
            .layout_mut()
            .heap_alloc(64, 64)
            .expect("particle buffer");
        image.push_thread(
            ThreadSpec::new(format!("body{t}"), "entry")
                .with_reg(regs::DATA, buf)
                .with_reg(regs::SHARED, ticket)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// `dedup`: a two-stage pipeline communicating through a queue protected by a
/// single lock, so enqueue and dequeue cannot proceed in parallel and every
/// operation bounces the lock and queue-header line between cores (the novel
/// true-sharing bug of Section 7.4.2). The fixed variant models the Boost
/// lock-free queue: head and tail become independent atomic counters on
/// separate lines.
fn dedup(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(1600, opts);
    let file = "queue.c";
    let mut b = ProgramBuilder::new("dedup");

    // Producer: acquires the queue lock (or, fixed, bumps the head atomically)
    // and writes a slot.
    b.source("encoder.c", 120);
    let producer = b.block("producer");
    b.switch_to(producer);
    let (p_body, p_exit) = open_loop(&mut b, "produce");
    if opts.fixed {
        b.source(file, 80);
        b.atomic_fetch_add(regs::VAL, regs::SHARED, 64, Operand::Imm(1), 8);
        b.alu(
            laser_isa::AluOp::Rem,
            regs::VAL,
            regs::VAL,
            Operand::Imm(16),
        );
        b.alu(laser_isa::AluOp::Mul, regs::VAL, regs::VAL, Operand::Imm(8));
        b.add(regs::VAL, regs::VAL, Operand::Reg(regs::DATA2));
        b.store(Operand::Reg(regs::IV), regs::VAL, 0, 8);
    } else {
        b.source(file, 30);
        emit_lock_acquire(&mut b, "pq", regs::SHARED, 0, true);
        b.source(file, 34);
        b.mem_add(regs::SHARED, 8, Operand::Imm(1), 8); // head++
        b.load(regs::VAL, regs::SHARED, 8, 8);
        b.alu(
            laser_isa::AluOp::Rem,
            regs::VAL,
            regs::VAL,
            Operand::Imm(16),
        );
        b.alu(laser_isa::AluOp::Mul, regs::VAL, regs::VAL, Operand::Imm(8));
        b.add(regs::VAL, regs::VAL, Operand::Reg(regs::DATA2));
        b.store(Operand::Reg(regs::IV), regs::VAL, 0, 8);
        emit_lock_release(&mut b, regs::SHARED, 0);
    }
    b.source("encoder.c", 130);
    b.nops(4);
    close_loop(&mut b, p_body, p_exit, iters);
    b.halt();

    // Consumer: same queue, reads a slot under the same lock (or, fixed, bumps
    // the tail counter on its own line).
    b.source("encoder.c", 220);
    let consumer = b.block("consumer");
    b.switch_to(consumer);
    let (c_body, c_exit) = open_loop(&mut b, "consume");
    if opts.fixed {
        b.source(file, 90);
        b.atomic_fetch_add(regs::VAL, regs::SHARED, 128, Operand::Imm(1), 8);
        b.alu(
            laser_isa::AluOp::Rem,
            regs::VAL,
            regs::VAL,
            Operand::Imm(16),
        );
        b.alu(laser_isa::AluOp::Mul, regs::VAL, regs::VAL, Operand::Imm(8));
        b.add(regs::VAL, regs::VAL, Operand::Reg(regs::DATA2));
        b.load(regs::SCRATCH_A, regs::VAL, 0, 8);
    } else {
        b.source(file, 30);
        emit_lock_acquire(&mut b, "cq", regs::SHARED, 0, true);
        b.source(file, 34);
        b.mem_add(regs::SHARED, 16, Operand::Imm(1), 8); // tail++
        b.load(regs::VAL, regs::SHARED, 16, 8);
        b.alu(
            laser_isa::AluOp::Rem,
            regs::VAL,
            regs::VAL,
            Operand::Imm(16),
        );
        b.alu(laser_isa::AluOp::Mul, regs::VAL, regs::VAL, Operand::Imm(8));
        b.add(regs::VAL, regs::VAL, Operand::Reg(regs::DATA2));
        b.load(regs::SCRATCH_A, regs::VAL, 0, 8);
        emit_lock_release(&mut b, regs::SHARED, 0);
    }
    b.source("encoder.c", 230);
    b.nops(4);
    close_loop(&mut b, c_body, c_exit, iters);
    b.halt();

    let program = b.finish();
    let mut image = WorkloadImage::new("dedup", program);
    image.set_time_dilation(INTENSE_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    // Queue header: lock at +0, head at +8, tail at +16 (all one line in the
    // buggy variant); the fixed variant's counters live at +64 and +128.
    let queue = image.layout_mut().global_alloc(192, 64);
    #[expect(
        clippy::expect_used,
        reason = "workload images size their heaps to fit; allocation failure is a builder bug"
    )]
    let slots = image
        .layout_mut()
        .heap_alloc(16 * 8, 64)
        .expect("queue slots");
    for t in 0..opts.threads {
        let entry = if t % 2 == 0 { "producer" } else { "consumer" };
        image.push_thread(
            ThreadSpec::new(format!("stage{t}"), entry)
                .with_reg(regs::SHARED, queue)
                .with_reg(regs::DATA2, slots)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// `streamcluster`: per-thread scratch regions inside `work_mem` are padded,
/// but only by 32 bytes, so neighbours still share cache lines. The fix pads
/// to a full line (which, as in the paper, removes the HITM traffic without
/// changing runtime much because the access rate is modest).
fn streamcluster(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(1800, opts);
    let file = "streamcluster.cpp";
    let mut b = ProgramBuilder::new("streamcluster");
    b.source(file, 980);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "gain");
    // Private gain computation dominates each iteration …
    b.source(file, 990);
    b.load(regs::VAL, regs::DATA2, 0, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::DATA2, 0, 8);
    b.nops(16);
    // … with an occasional update of this thread's work_mem slot (shared line
    // with the neighbouring thread's slot in the buggy layout).
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(8),
    );
    b.cmp_eq(regs::COND, regs::SCRATCH_A, Operand::Imm(0));
    let touch = b.block("work_mem_touch");
    let join = b.block("work_mem_join");
    b.branch(regs::COND, touch, join);
    b.switch_to(touch);
    b.source(file, 985);
    b.mem_add(regs::DATA, 0, Operand::Imm(1), 8);
    b.jump(join);
    b.switch_to(join);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("streamcluster", program);
    image.set_time_dilation(MILD_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let stride = if opts.fixed { 64 } else { 32 };
    #[expect(
        clippy::expect_used,
        reason = "workload images size their heaps to fit; allocation failure is a builder bug"
    )]
    let work_mem = image
        .layout_mut()
        .heap_alloc(stride * opts.threads as u64 + 64, 64)
        .expect("work_mem");
    for t in 0..opts.threads {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let private = image.layout_mut().heap_alloc(64, 64).expect("private");
        image.push_thread(
            ThreadSpec::new(format!("sc{t}"), "entry")
                .with_reg(regs::DATA, work_mem + stride * t as u64)
                .with_reg(regs::DATA2, private)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// `x264`: frame threads that mostly work privately but synchronize often on
/// row-completion counters, giving it one of the higher benign HITM rates in
/// the suite (it shows up in the paper's Figure 12 overhead breakdown).
fn x264(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(2000, opts);
    let file = "x264_frame.c";
    let mut b = ProgramBuilder::new("x264");
    b.source(file, 400);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "rows");
    b.source(file, 410);
    b.load(regs::VAL, regs::DATA, 0, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 0, 8);
    b.nops(6);
    // Row-completion broadcast every 4 rows: atomic bump of a shared counter.
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(4),
    );
    b.cmp_eq(regs::COND, regs::SCRATCH_A, Operand::Imm(0));
    let sync = b.block("row_sync");
    let join = b.block("row_join");
    b.branch(regs::COND, sync, join);
    b.switch_to(sync);
    b.source(file, 455);
    b.atomic_fetch_add(regs::SCRATCH_A, regs::SHARED, 0, Operand::Imm(1), 8);
    b.jump(join);
    b.switch_to(join);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("x264", program);
    image.set_time_dilation(BENIGN_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let row_counter = image.layout_mut().global_alloc(64, 64);
    for t in 0..opts.threads {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let buf = image.layout_mut().heap_alloc(64, 64).expect("frame buffer");
        image.push_thread(
            ThreadSpec::new(format!("frame{t}"), "entry")
                .with_reg(regs::DATA, buf)
                .with_reg(regs::SHARED, row_counter)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_machine::{Machine, MachineConfig};

    fn run(image: &WorkloadImage) -> laser_machine::RunResult {
        Machine::new(MachineConfig::default(), image)
            .run_to_completion()
            .unwrap()
    }

    fn small() -> BuildOptions {
        BuildOptions::scaled(0.15)
    }

    #[test]
    fn bodytrack_ticket_dispenser_contends() {
        let r = run(&bodytrack(&small()));
        assert!(r.stats.hitm_events > 200);
        assert!(r.stats.atomics > 500);
    }

    #[test]
    fn dedup_queue_lock_contends_and_lockfree_fix_helps() {
        let buggy = run(&dedup(&small()));
        let fixed = run(&dedup(&BuildOptions {
            fixed: true,
            ..small()
        }));
        assert!(buggy.stats.hitm_events > 500);
        assert!(fixed.stats.hitm_events < buggy.stats.hitm_events);
        assert!(
            fixed.cycles < buggy.cycles,
            "lock-free queue should speed dedup up"
        );
    }

    #[test]
    fn streamcluster_padding_fix_removes_hitms_without_big_speedup() {
        let buggy = run(&streamcluster(&small()));
        let fixed = run(&streamcluster(&BuildOptions {
            fixed: true,
            ..small()
        }));
        assert!(
            buggy.stats.hitm_events > 50,
            "hitms {}",
            buggy.stats.hitm_events
        );
        assert!(fixed.stats.hitm_events < buggy.stats.hitm_events / 3);
        let speedup = buggy.cycles as f64 / fixed.cycles as f64;
        assert!(
            speedup < 1.5,
            "streamcluster fix should not be a dramatic win: {speedup}"
        );
    }

    #[test]
    fn parsec_registry_entries_build() {
        for spec in all() {
            let image = spec.build(&BuildOptions::scaled(0.05));
            assert!(!image.threads().is_empty(), "{}", spec.name);
        }
    }
}
