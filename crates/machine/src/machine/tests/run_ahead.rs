//! The differential oracle for the horizon-bounded run-ahead in
//! [`Machine::run_steps`]: two machines built from one image are driven in
//! lock-step, one through `run_steps` and one through
//! `run_steps_reference` (`n` single steps), with seeded quantum sizes and
//! seeded external charges between quanta, and must agree on everything
//! observable after every quantum.
//!
//! Besides seeded programs and every registry workload, the suite aims at
//! the seams of the parked round loop (see the `exec` module docs): a front
//! thread halting mid-round with a successor behind it, a core losing all its
//! threads in one round, quanta at the edge of the round threshold, a horizon
//! landing exactly on an active instruction, charges that reorder parked
//! cores between quanta, cores levelled to one clock, accesses that wrap
//! the address space, and a horizon before, inside, at the end of and one
//! cycle past a run of `Nop`s (which the register-only loop retires at once;
//! the generated programs emit runs of 1–24).
//!
//! Hooked machines run ahead too, inside what their hook declares (the
//! run-ahead contract of [`ExecHook`]). [`MiniSsb`] — a software store buffer
//! in miniature that declares a cost floor and its inert block entries, and
//! folds every callback it receives into a log — is driven through the same
//! lock-step over the generated programs, the seam images and the registry,
//! and aimed at the seams a hook adds: a branch whose successors differ in
//! inert-ness, an active block entry exactly at the horizon or first on a
//! new front thread, a declared floor below the machine's own, hooks swapped
//! between quanta. `FreeLine` declares nothing and must still be dispatched
//! per instruction; `NullHook` declares everything and must run like no hook
//! at all. CHANGES.md lists the mutants of the round loop each of which
//! fails this suite.
//!
//! Every test here has `run_ahead` in its path, so
//! `cargo test --release -p laser-machine run_ahead` runs the suite at its
//! full program count; a debug build keeps a reduced count.

use laser_isa::inst::{AluOp, CmpOp, Inst, MemAddr, Operand, Reg, RmwOp};
use laser_isa::program::{BlockId, Pc};
use laser_isa::ProgramBuilder;

use crate::addr::{crosses_line, line_of};
use crate::alloc::CHUNK_HEADER_BYTES;
use crate::hook::{ExecHook, HookAction, HookCtx, MemOp, NullHook};
use crate::image::ThreadSpec;
use crate::machine::sched::tests::XorShift;
use crate::machine::*;
use crate::topology::{ThreadPlacement, TopologySpec};

/// Largest quantum the seeded schedules draw.
const MAX_QUANTUM: u64 = 20_000;

/// Steps after which a lock-step run stops comparing. A few registry
/// workloads run millions of steps at any input scale; a debug build follows
/// each for this long, a release build to the end.
pub(super) const STEP_CAP: u64 = if cfg!(debug_assertions) {
    100_000
} else {
    u64::MAX
};

fn assert_same_state(fast: &Machine, slow: &Machine, what: &str, quantum: usize) {
    assert_eq!(fast.steps(), slow.steps(), "{what} q{quantum}: steps");
    assert_eq!(
        fast.per_core_cycles(),
        slow.per_core_cycles(),
        "{what} q{quantum}: core clocks"
    );
    assert_eq!(fast.stats(), slow.stats(), "{what} q{quantum}: stats");
    assert_eq!(
        MiniSsb::log_of(fast),
        MiniSsb::log_of(slow),
        "{what} q{quantum}: what the hook was called with"
    );
    for (ti, (f, s)) in fast.threads.iter().zip(&slow.threads).enumerate() {
        assert_eq!(
            (f.block, f.idx, f.halted),
            (s.block, s.idx, s.halted),
            "{what} q{quantum}: position of thread {ti}"
        );
        assert_eq!(
            f.regs, s.regs,
            "{what} q{quantum}: registers of thread {ti}"
        );
    }
}

/// Apply one seeded external charge (or none) to both machines, the way a
/// session charges driver and detector overhead between quanta.
fn charge_both(rng: &mut XorShift, fast: &mut Machine, slow: &mut Machine) {
    let cores = fast.num_cores();
    match rng.below(6) {
        0 => {
            let core = CoreId(rng.below(cores as u64) as usize);
            let cycles = rng.below(3_000);
            fast.charge_cycles(core, cycles);
            slow.charge_cycles(core, cycles);
        }
        1 => {
            let cycles = rng.below(500);
            fast.charge_all_cores(cycles);
            slow.charge_all_cores(cycles);
        }
        2 => {
            let charges: Vec<u64> = (0..cores)
                .map(|_| {
                    if rng.below(3) == 0 {
                        rng.below(2_000)
                    } else {
                        0
                    }
                })
                .collect();
            fast.charge_per_core(&charges);
            slow.charge_per_core(&charges);
        }
        _ => {}
    }
}

/// Run `fast` through `run_quantum` and `slow` through the reference loop
/// until both finish (or pass `cap` steps), comparing after every quantum
/// and the whole memory at the end. Before each quantum `plan` may charge
/// both machines and names the quantum's size; `seen` is shown every HITM
/// batch. Returns the two machines as they ended.
fn run_lockstep_capped(
    mut fast: Machine,
    mut slow: Machine,
    what: &str,
    cap: u64,
    mut plan: impl FnMut(&mut Machine, &mut Machine) -> u64,
    mut seen: impl FnMut(&[HitmEvent]),
) -> (Machine, Machine) {
    assert_same_state(&fast, &slow, what, 0);
    for quantum in 1.. {
        let n = plan(&mut fast, &mut slow);
        let yielded = fast.run_quantum(n);
        let status = slow.run_steps_reference(n);
        assert_eq!(yielded.status, status, "{what} q{quantum}: status");
        assert_eq!(
            yielded.events,
            slow.take_hitm_events(),
            "{what} q{quantum}: HITM batch"
        );
        assert_same_state(&fast, &slow, what, quantum);
        seen(&yielded.events);
        if status == RunStatus::Done || fast.steps() >= cap {
            break;
        }
    }
    assert!(
        fast.inner.mem == slow.inner.mem,
        "{what}: final memory differs"
    );
    (fast, slow)
}

/// [`run_lockstep_capped`] at [`STEP_CAP`].
fn run_lockstep_by(
    fast: Machine,
    slow: Machine,
    what: &str,
    plan: impl FnMut(&mut Machine, &mut Machine) -> u64,
    seen: impl FnMut(&[HitmEvent]),
) -> (Machine, Machine) {
    run_lockstep_capped(fast, slow, what, STEP_CAP, plan, seen)
}

/// A plan for [`run_lockstep_by`]: quanta drawn from `1..=max_quantum` and a
/// seeded external charge (or none) between quanta.
pub(super) fn seeded_plan(
    seed: u64,
    max_quantum: u64,
) -> impl FnMut(&mut Machine, &mut Machine) -> u64 {
    let mut rng = XorShift(seed | 1);
    let mut first = true;
    move |fast, slow| {
        if !std::mem::take(&mut first) {
            charge_both(&mut rng, fast, slow);
        }
        1 + rng.below(max_quantum)
    }
}

fn run_lockstep(
    fast: Machine,
    slow: Machine,
    seed: u64,
    max_quantum: u64,
    what: &str,
) -> (Machine, Machine) {
    run_lockstep_by(fast, slow, what, seeded_plan(seed, max_quantum), |_| {})
}

/// Seeded quantum ceiling: small, medium and session-sized schedules.
fn quantum_ceiling(rng: &mut XorShift) -> u64 {
    match rng.below(4) {
        0 => 8,
        1 => 300,
        2 => 3_000,
        _ => MAX_QUANTUM,
    }
}

fn lockstep_from_image(image: &WorkloadImage, config: &MachineConfig, seed: u64, what: &str) {
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let max_quantum = quantum_ceiling(&mut rng);
    run_lockstep(
        Machine::new(config.clone(), image),
        Machine::new(config.clone(), image),
        rng.next(),
        max_quantum,
        what,
    );
}

// ---------------------------------------------------------------------------
// Generated programs
// ---------------------------------------------------------------------------

const SHARED: Reg = Reg(0);
const PRIVATE: Reg = Reg(1);
const COUNTER: Reg = Reg(2);
const BOUND: Reg = Reg(3);
const COND: Reg = Reg(10);
/// Bytes of the region every thread shares (four lines).
const SHARED_BYTES: u64 = 256;
/// Distance between threads' private slots: not a multiple of the line size,
/// so neighbouring threads falsely share lines.
const PRIVATE_STRIDE: u64 = 40;

fn scratch(rng: &mut XorShift) -> Reg {
    Reg(4 + rng.below(6) as u8)
}

fn operand(rng: &mut XorShift) -> Operand {
    if rng.below(2) == 0 {
        Operand::Reg(scratch(rng))
    } else {
        Operand::Imm(rng.below(1 << 16))
    }
}

fn access_size(rng: &mut XorShift) -> u8 {
    [1, 2, 4, 8][rng.below(4) as usize]
}

/// A seeded address inside the shared region (possibly line-crossing,
/// possibly data-dependent) or the thread's private slot. May emit the
/// masking instruction a data-dependent index needs.
fn address(rng: &mut XorShift, b: &mut ProgramBuilder) -> MemAddr {
    match rng.below(4) {
        0 => MemAddr::base_offset(PRIVATE, 8 * rng.below(4) as i64),
        1 => {
            b.alu(AluOp::And, COND, scratch(rng), Operand::Imm(0xf8));
            MemAddr::indexed(SHARED, COND, 1, 0)
        }
        _ => {
            let offsets = [0, 8, 16, 56, 60, 64, 120, 124, 128, 192, 248];
            MemAddr::base_offset(SHARED, offsets[rng.below(offsets.len() as u64) as usize])
        }
    }
}

fn emit_memory_inst(rng: &mut XorShift, b: &mut ProgramBuilder) {
    let addr = address(rng, b);
    let size = access_size(rng);
    match rng.below(8) {
        0..=2 => {
            b.load_addr(scratch(rng), addr, size);
        }
        3 | 4 => {
            b.store_addr(operand(rng), addr, size);
        }
        5 => {
            let ops = [AluOp::Add, AluOp::Xor, AluOp::Or, AluOp::Sub];
            b.emit(Inst::MemRmw {
                op: ops[rng.below(4) as usize],
                addr,
                operand: operand(rng),
                size,
            });
        }
        6 => {
            let (op, expected) = match rng.below(3) {
                0 => (RmwOp::FetchAdd, None),
                1 => (RmwOp::Exchange, None),
                _ => (RmwOp::CompareExchange, Some(operand(rng))),
            };
            b.emit(Inst::AtomicRmw {
                op,
                dst: scratch(rng),
                addr,
                operand: operand(rng),
                expected,
                size,
            });
        }
        _ => {
            b.fence();
        }
    }
}

fn emit_register_inst(rng: &mut XorShift, b: &mut ProgramBuilder) {
    match rng.below(10) {
        0..=4 => {
            let ops = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Mul,
                AluOp::Div,
                AluOp::Rem,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Shr,
            ];
            b.alu(
                ops[rng.below(ops.len() as u64) as usize],
                scratch(rng),
                scratch(rng),
                operand(rng),
            );
        }
        5 | 6 => {
            b.mov(scratch(rng), operand(rng));
        }
        7 => {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            b.cmp(
                ops[rng.below(ops.len() as u64) as usize],
                scratch(rng),
                scratch(rng),
                operand(rng),
            );
        }
        8 => {
            b.pause();
        }
        _ => {
            // A run of 1–24 `Nop`s, which run-ahead retires at once.
            b.nops(1 + rng.below(24) as usize);
        }
    }
}

/// One kernel: a loop over a chain of blocks with forward, data-dependent
/// branches (so control flow depends on what the loads saw), an occasional
/// data-dependent early exit, and `mem_pct` percent memory instructions.
fn emit_kernel(rng: &mut XorShift, b: &mut ProgramBuilder, kernel: usize, mem_pct: u64) {
    let num_blocks = 2 + rng.below(4) as usize;
    let blocks: Vec<_> = (0..num_blocks)
        .map(|i| {
            let label = if i == 0 {
                format!("k{kernel}")
            } else {
                format!("k{kernel}_b{i}")
            };
            b.block(&label)
        })
        .collect();
    let latch = b.block(&format!("k{kernel}_latch"));
    let done = b.block(&format!("k{kernel}_done"));
    for (i, &block) in blocks.iter().enumerate() {
        b.switch_to(block);
        for _ in 0..rng.below(12) {
            if rng.below(100) < mem_pct {
                emit_memory_inst(rng, b);
            } else {
                emit_register_inst(rng, b);
            }
        }
        let next = blocks.get(i + 1).copied().unwrap_or(latch);
        match rng.below(10) {
            0..=3 => b.jump(next),
            4 => {
                // Early exit on a data-dependent 1-in-32 condition.
                b.alu(AluOp::And, COND, scratch(rng), Operand::Imm(0x1f));
                b.cmp_eq(COND, COND, Operand::Imm(3));
                b.branch(COND, done, next);
            }
            _ => {
                let later = i + 1 + rng.below((num_blocks - i) as u64) as usize;
                let target = blocks.get(later).copied().unwrap_or(latch);
                b.alu(AluOp::And, COND, scratch(rng), Operand::Imm(1));
                b.branch(COND, target, next);
            }
        }
    }
    b.switch_to(latch);
    b.addi(COUNTER, COUNTER, 1);
    b.cmp_lt(COND, COUNTER, Operand::Reg(BOUND));
    b.branch(COND, blocks[0], done);
    b.switch_to(done);
    b.halt();
}

/// A seeded multi-threaded image: two kernels, `threads` threads spread over
/// them with seeded trip counts (some halt almost at once), all sharing four
/// lines and falsely sharing their private slots.
pub(super) fn generated_image(rng: &mut XorShift, threads: usize) -> WorkloadImage {
    let mem_pct = [2, 10, 30, 60][rng.below(4) as usize];
    generated_image_with(rng, threads, mem_pct, None)
}

/// [`generated_image`] with a chosen share of memory instructions and,
/// optionally, the private slots moved from the heap to `private_top`
/// downwards: even threads all at `private_top`, odd thread `t` a stride
/// below per `t`.
pub(super) fn generated_image_with(
    rng: &mut XorShift,
    threads: usize,
    mem_pct: u64,
    private_top: Option<Addr>,
) -> WorkloadImage {
    let mut b = ProgramBuilder::new("generated");
    b.source("generated.c", 1);
    emit_kernel(rng, &mut b, 0, mem_pct);
    emit_kernel(rng, &mut b, 1, mem_pct);
    let mut image = WorkloadImage::new("generated", b.finish());
    let shared = image.layout_mut().heap_alloc(SHARED_BYTES + 8, 64).unwrap();
    let private = image
        .layout_mut()
        .heap_alloc(PRIVATE_STRIDE * threads as u64 + 64, 64)
        .unwrap();
    for i in 0..SHARED_BYTES / 8 {
        image.layout_mut().poke_u64(shared + 8 * i, rng.next());
    }
    let long_run = rng.below(4) == 0;
    for t in 0..threads {
        let bound = match rng.below(3) {
            0 => rng.below(3),
            _ if long_run => 100 + rng.below(400),
            _ => 5 + rng.below(60),
        };
        let slot = match private_top {
            None => private + PRIVATE_STRIDE * t as u64,
            Some(top) if t % 2 == 0 => top,
            Some(top) => top - PRIVATE_STRIDE * t as u64,
        };
        let mut spec = ThreadSpec::new(format!("t{t}"), format!("k{}", rng.below(2)))
            .with_reg(SHARED, shared)
            .with_reg(PRIVATE, slot)
            .with_reg(BOUND, bound);
        for r in 4..10 {
            spec = spec.with_reg(Reg(r), rng.next());
        }
        image.push_thread(spec);
    }
    image
}

/// A seeded machine for a generated image: 1–6 cores on one socket or the
/// dual-socket preset, with the default latencies or dearer seeded ones (so
/// the horizon's `floor` is not always 1).
pub(super) fn generated_config(rng: &mut XorShift) -> (MachineConfig, ThreadPlacement) {
    let (mut config, placement) = if rng.below(4) == 0 {
        (
            MachineConfig::for_topology(TopologySpec::DualSocket),
            ThreadPlacement::RoundRobin,
        )
    } else {
        (
            MachineConfig {
                num_cores: 1 + rng.below(6) as usize,
                ..Default::default()
            },
            ThreadPlacement::Packed,
        )
    };
    if rng.below(3) == 0 {
        config.latency.alu = 1 + rng.below(3);
        config.latency.branch = 1 + rng.below(4);
        config.latency.pause = 1 + rng.below(6);
        config.latency.fence = 1 + rng.below(25);
        config.latency.l1_hit = 1 + rng.below(6);
    }
    (config, placement)
}

#[test]
fn generated_programs_agree_with_single_steps() {
    let programs: u64 = if cfg!(debug_assertions) { 60 } else { 600 };
    for seed in 1..=programs {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let (config, placement) = generated_config(&mut rng);
        let threads = 1 + rng.below(3 * config.num_cores as u64).min(13) as usize;
        let mut image = generated_image(&mut rng, threads);
        image.set_thread_placement(placement);
        lockstep_from_image(
            &image,
            &config,
            rng.next(),
            &format!("generated program {seed}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Accesses that wrap the address space
// ---------------------------------------------------------------------------

/// Eight bytes below the top of the address space: an 8-byte access at
/// offset 0 ends on the last byte, one at offset 8 starts on it and wraps
/// into line 0.
pub(super) const WRAPPING_PRIVATE_TOP: Addr = u64::MAX - 8;

#[test]
fn wrapping_programs_agree_with_single_steps() {
    let programs: u64 = if cfg!(debug_assertions) { 8 } else { 60 };
    let mut wrapped_hitms = 0usize;
    for seed in 1..=programs {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xffff);
        let (config, placement) = generated_config(&mut rng);
        let threads = 2 + rng.below(2 * config.num_cores as u64) as usize;
        let mem_pct = [30, 60][rng.below(2) as usize];
        let mut image =
            generated_image_with(&mut rng, threads, mem_pct, Some(WRAPPING_PRIVATE_TOP));
        image.set_thread_placement(placement);
        let max_quantum = quantum_ceiling(&mut rng);
        run_lockstep_by(
            Machine::new(config.clone(), &image),
            Machine::new(config.clone(), &image),
            &format!("wrapping program {seed}"),
            seeded_plan(rng.next(), max_quantum),
            |events| {
                wrapped_hitms += events
                    .iter()
                    .filter(|e| e.addr > WRAPPING_PRIVATE_TOP && crosses_line(e.addr, e.size))
                    .count();
            },
        );
    }
    assert!(
        wrapped_hitms > 0,
        "no program contended on an access that wraps the address space"
    );
}

#[test]
fn run_ahead_charges_a_wrapping_access_for_both_its_lines() {
    let mut b = ProgramBuilder::new("wrap");
    let entry = b.block("entry");
    b.switch_to(entry);
    b.store(Operand::Imm(0x1122_3344_5566_7788), PRIVATE, 0, 8);
    b.load(Reg(4), PRIVATE, 0, 8);
    b.halt();
    let mut image = WorkloadImage::new("wrap", b.finish());
    image.push_thread(ThreadSpec::new("t0", "entry").with_reg(PRIVATE, u64::MAX - 3));
    let config = MachineConfig::default();
    let lat = config.latency.clone();
    let mut m = Machine::new(config, &image);
    assert_eq!(m.run_steps(1_000), RunStatus::Done);
    assert_eq!(m.thread_reg(0, Reg(4)), 0x1122_3344_5566_7788);
    assert_eq!(m.inner.mem.read(0, 4), 0x1122_3344, "the high half wrapped");
    let stats = m.stats();
    assert_eq!(stats.dram_accesses, 2, "the store misses on both lines");
    assert_eq!(stats.l1_hits, 2, "the load hits on both lines");
    assert_eq!(m.cycles(), lat.dram + lat.l1_hit + lat.branch);
}

// ---------------------------------------------------------------------------
// The seams of the parked round loop
// ---------------------------------------------------------------------------

/// How a thread of a seam image begins — and, but for the worker, how soon it
/// ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    /// A loop of `BOUND` trips over an atomic, a store and a load.
    Worker,
    /// Four instructions of a racy increment, then `Halt`.
    Short,
    /// Register-only instructions and a jump, then the racy increment.
    RegisterPrefix,
    /// An empty block — the thread's first instruction is the jump out of
    /// it — then the register prefix.
    JumpFirst,
    /// An atomic exchange as its very first instruction, then `Halt`.
    ActiveFirst,
    /// `Halt` at once.
    HaltNow,
}

impl Start {
    const ALL: [Start; 6] = [
        Start::Worker,
        Start::Short,
        Start::RegisterPrefix,
        Start::JumpFirst,
        Start::ActiveFirst,
        Start::HaltNow,
    ];

    fn label(self) -> &'static str {
        match self {
            Start::Worker => "worker",
            Start::Short => "short",
            Start::RegisterPrefix => "register_prefix",
            Start::JumpFirst => "jump_first",
            Start::ActiveFirst => "active_first",
            Start::HaltNow => "halt_now",
        }
    }
}

/// An image of threads that begin as `starts` says, thread `t` on core
/// `t % cores` (the packed placement), so `starts[c]`, `starts[c + cores]`, …
/// queue up on core `c` in that order. Every thread's work lands on two
/// shared words — a counter bumped atomically and one incremented racily — so
/// the order active instructions ran in is in memory and in the registers.
fn seam_image(starts: &[Start], worker_trips: u64) -> WorkloadImage {
    let mut b = ProgramBuilder::new("seams");
    b.source("seams.c", 1);
    let worker = b.block(Start::Worker.label());
    let worker_done = b.block("worker_done");
    let short = b.block(Start::Short.label());
    let register_prefix = b.block(Start::RegisterPrefix.label());
    let jump_first = b.block(Start::JumpFirst.label());
    let active_first = b.block(Start::ActiveFirst.label());
    let halt_now = b.block(Start::HaltNow.label());

    b.switch_to(worker);
    b.atomic_fetch_add(Reg(4), SHARED, 0, Operand::Imm(1), 8);
    b.store(Operand::Reg(Reg(4)), PRIVATE, 0, 8);
    b.add(Reg(5), Reg(5), Operand::Reg(Reg(4)));
    b.nop();
    b.load(Reg(6), SHARED, 8, 8);
    b.add(Reg(5), Reg(5), Operand::Reg(Reg(6)));
    b.addi(COUNTER, COUNTER, 1);
    b.cmp_lt(COND, COUNTER, Operand::Reg(BOUND));
    b.branch(COND, worker, worker_done);
    b.switch_to(worker_done);
    b.store(Operand::Reg(Reg(5)), PRIVATE, 8, 8);
    b.halt();

    b.switch_to(short);
    b.load(Reg(4), SHARED, 8, 8);
    b.addi(Reg(4), Reg(4), 1);
    b.store(Operand::Reg(Reg(4)), SHARED, 8, 8);
    b.store(Operand::Reg(Reg(4)), PRIVATE, 0, 8);
    b.halt();

    b.switch_to(register_prefix);
    b.movi(Reg(7), 3);
    b.nop();
    b.pause();
    b.addi(Reg(7), Reg(7), 5);
    b.mul(Reg(7), Reg(7), Operand::Reg(Reg(7)));
    b.jump(short);

    b.switch_to(jump_first);
    b.jump(register_prefix);

    b.switch_to(active_first);
    b.atomic_exchange(Reg(4), SHARED, 8, Operand::Reg(PRIVATE), 8);
    b.halt();

    b.switch_to(halt_now);
    b.halt();

    let mut image = WorkloadImage::new("seams", b.finish());
    let shared = image.layout_mut().heap_alloc(64, 64).unwrap();
    let private = image
        .layout_mut()
        .heap_alloc(PRIVATE_STRIDE * starts.len() as u64 + 64, 64)
        .unwrap();
    for (t, start) in starts.iter().enumerate() {
        image.push_thread(
            ThreadSpec::new(format!("t{t}"), start.label())
                .with_reg(SHARED, shared)
                .with_reg(PRIVATE, private + PRIVATE_STRIDE * t as u64)
                .with_reg(BOUND, worker_trips + t as u64 % 3),
        );
    }
    image
}

/// The size of each quantum of a seam run.
#[derive(Debug, Clone, Copy)]
enum Quanta {
    Fixed(u64),
    /// The round threshold — 8 steps per live core, which shrinks as cores
    /// run out of threads — plus this.
    Threshold(i64),
}

impl Quanta {
    const ALL: [Quanta; 8] = [
        Quanta::Fixed(1),
        Quanta::Fixed(2),
        Quanta::Threshold(-1),
        Quanta::Threshold(0),
        Quanta::Threshold(1),
        Quanta::Fixed(61),
        Quanta::Fixed(997),
        Quanta::Fixed(1 << 30),
    ];

    fn next(self, m: &Machine) -> u64 {
        match self {
            Quanta::Fixed(n) => n,
            Quanta::Threshold(delta) => {
                let threshold = exec::MIN_ROUND_STEPS_PER_CORE * m.sched.live_cores() as u64;
                threshold.saturating_add_signed(delta).max(1)
            }
        }
    }
}

/// What a seam run charges between quanta.
#[derive(Debug, Clone, Copy)]
enum Charges {
    Nothing,
    /// One core, a different one each time, is pushed past every other: a
    /// parked core's key jumps from the heap's top to its bottom.
    PushOnePastAll,
    /// Every core is raised to the latest clock: the next round starts with
    /// all keys tied on the clock and only thread indices to order them.
    LevelAll,
}

impl Charges {
    const ALL: [Charges; 3] = [Charges::Nothing, Charges::PushOnePastAll, Charges::LevelAll];

    fn apply(self, quantum: usize, fast: &mut Machine, slow: &mut Machine) {
        let latest = fast.cycles();
        match self {
            Charges::Nothing => {}
            Charges::PushOnePastAll => {
                let core = quantum % fast.num_cores();
                let cycles = latest - fast.per_core_cycles()[core] + 1 + quantum as u64 % 7;
                fast.charge_cycles(CoreId(core), cycles);
                slow.charge_cycles(CoreId(core), cycles);
            }
            Charges::LevelAll => {
                let charges: Vec<u64> = fast
                    .per_core_cycles()
                    .iter()
                    .map(|&clock| latest - clock)
                    .collect();
                fast.charge_per_core(&charges);
                slow.charge_per_core(&charges);
            }
        }
    }
}

/// Drive one seam image through every quantum size and every charge plan.
fn seam_lockstep(image: &WorkloadImage, cores: usize, what: &str) {
    let config = MachineConfig {
        num_cores: cores,
        ..Default::default()
    };
    seam_lockstep_of(|| Machine::new(config.clone(), image), what);
}

/// Drive two machines from `machine` through every quantum size and every
/// charge plan.
fn seam_lockstep_of(machine: impl Fn() -> Machine, what: &str) {
    for quanta in Quanta::ALL {
        for charges in Charges::ALL {
            let mut quantum = 0usize;
            run_lockstep_by(
                machine(),
                machine(),
                &format!("{what}, {quanta:?}, {charges:?}"),
                |fast, slow| {
                    quantum += 1;
                    charges.apply(quantum, fast, slow);
                    quanta.next(fast)
                },
                |_| {},
            );
        }
    }
}

/// A front thread halts mid-round and the thread behind it on the core takes
/// over: starting with register-only instructions, with an active one, or
/// with its own `Halt` — and that one's successor likewise.
#[test]
fn seam_a_halting_front_thread_hands_over_to_its_successor() {
    let enders = [
        Start::Short,
        Start::RegisterPrefix,
        Start::JumpFirst,
        Start::ActiveFirst,
        Start::HaltNow,
    ];
    for first in enders {
        for successor in Start::ALL {
            // Core 0: `first`, `successor`, a short worker. Core 1: a worker
            // that outlives them, then a thread that halts at once, then the
            // successor kind again behind that.
            let starts = [
                first,
                Start::Worker,
                successor,
                Start::HaltNow,
                Start::Worker,
                successor,
            ];
            seam_lockstep(
                &seam_image(&starts, 12),
                2,
                &format!("{first:?} then {successor:?}"),
            );
        }
    }
}

/// Every thread of a core halts within one round, and the core leaves the
/// heap while its neighbours are mid-run; on one, two and three cores.
#[test]
fn seam_a_core_loses_all_its_threads_in_one_round() {
    for cores in 1..=3usize {
        for enders in [
            [Start::HaltNow, Start::HaltNow, Start::HaltNow],
            [Start::Short, Start::HaltNow, Start::ActiveFirst],
            [Start::RegisterPrefix, Start::RegisterPrefix, Start::HaltNow],
        ] {
            // Core 0 gets the enders; every other core a worker and two
            // enders behind it.
            let mut starts = Vec::new();
            for (row, ender) in enders.into_iter().enumerate() {
                for core in 0..cores {
                    starts.push(if core == 0 || row > 0 {
                        ender
                    } else {
                        Start::Worker
                    });
                }
            }
            seam_lockstep(
                &seam_image(&starts, 20),
                cores,
                &format!("{enders:?} on {cores} cores"),
            );
        }
    }
}

/// Seeded seam images: up to five threads a core on one to four cores, any
/// mix of starts.
#[test]
fn seam_generated_thread_queues_agree_with_single_steps() {
    let images: u64 = if cfg!(debug_assertions) { 10 } else { 120 };
    for seed in 1..=images {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let cores = 1 + rng.below(4) as usize;
        let threads = cores + 1 + rng.below(4 * cores as u64) as usize;
        let starts: Vec<Start> = (0..threads)
            .map(|_| Start::ALL[rng.below(Start::ALL.len() as u64) as usize])
            .collect();
        seam_lockstep(
            &seam_image(&starts, 1 + rng.below(30)),
            cores,
            &format!("seam image {seed}"),
        );
    }
}

/// Two threads whose active instructions sit at known pre-clocks (every
/// register-only instruction costs one cycle here), run for every budget
/// from a fresh machine: a round over `n` steps on two live cores has its
/// horizon at clock `n / 2`, so `n = 30` puts it exactly on thread 0's load
/// (pre-clock 15), `n = 20` on thread 1's store (pre-clock 10), and later
/// rounds land on the rest. An instruction at the horizon belongs to the next
/// round.
#[test]
fn seam_a_horizon_on_an_active_pre_clock_leaves_it_for_the_next_round() {
    let mut b = ProgramBuilder::new("horizon");
    let first = b.block("first");
    let second = b.block("second");
    b.switch_to(first);
    b.nops(15);
    b.load(Reg(4), SHARED, 0, 8);
    b.nops(10);
    b.store(Operand::Reg(Reg(4)), SHARED, 8, 8);
    b.halt();
    b.switch_to(second);
    b.nops(10);
    b.store(Operand::Imm(7), SHARED, 0, 8);
    b.nops(20);
    b.load(Reg(4), SHARED, 8, 8);
    b.halt();
    let mut image = WorkloadImage::new("horizon", b.finish());
    let shared = image.layout_mut().heap_alloc(64, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "first").with_reg(SHARED, shared));
    image.push_thread(ThreadSpec::new("t1", "second").with_reg(SHARED, shared));
    let config = MachineConfig {
        num_cores: 2,
        ..Default::default()
    };
    for n in 1..=80u64 {
        let mut fast = Machine::new(config.clone(), &image);
        let mut slow = Machine::new(config.clone(), &image);
        for quantum in 1..=3 {
            assert_eq!(fast.run_steps(n), slow.run_steps_reference(n));
            assert_eq!(fast.take_hitm_events(), slow.take_hitm_events());
            assert_same_state(&fast, &slow, &format!("budget {n}"), quantum);
        }
    }
}

/// The point of parking: the round loop consults the scheduler once per
/// active instruction, not twice. On four symmetric threads — the pattern
/// that used to cost two visits — the visits of a whole run are at most its
/// active instructions plus one per core and round. With ten `Nop`s in the
/// body the bound holds too, and the register-only loop retires runs of
/// them at once.
#[test]
fn run_ahead_visits_the_scheduler_once_per_active_instruction() {
    const TRIPS: u64 = 500;
    for nops in [0, 10] {
        let mut b = ProgramBuilder::new("symmetric");
        let body = b.block("body");
        let done = b.block("done");
        b.switch_to(body);
        b.load(Reg(4), PRIVATE, 0, 8);
        b.nops(nops);
        b.addi(Reg(4), Reg(4), 3);
        b.store(Operand::Reg(Reg(4)), PRIVATE, 0, 8);
        b.addi(COUNTER, COUNTER, 1);
        b.cmp_lt(COND, COUNTER, Operand::Imm(TRIPS));
        b.branch(COND, body, done);
        b.switch_to(done);
        b.halt();
        let mut image = WorkloadImage::new("symmetric", b.finish());
        for t in 0..4 {
            let slot = image.layout_mut().heap_alloc(64, 64).unwrap();
            image.push_thread(ThreadSpec::new(format!("t{t}"), "body").with_reg(PRIVATE, slot));
        }
        // A load, a store and at the end a halt per thread.
        let active = 4 * (2 * TRIPS + 1);
        for quantum in [u64::MAX, 5_000, 300] {
            let what = format!("{nops} nops, quanta of {quantum}");
            let mut m = Machine::new(MachineConfig::default(), &image);
            while m.run_steps(quantum) == RunStatus::Running {}
            let trace = m.round_trace;
            assert!(trace.rounds > 0, "{what}: run-ahead ran");
            assert!(
                trace.visits <= active + 4 * trace.rounds,
                "{what}: {} visits for {active} active instructions in {} rounds",
                trace.visits,
                trace.rounds
            );
            if quantum == u64::MAX {
                assert!(
                    trace.visits >= active,
                    "{what}: every active instruction is a visit"
                );
            }
            assert_eq!(
                trace.nop_runs > 0,
                nops > 1,
                "{what}: {} runs of Nops retired at once",
                trace.nop_runs
            );
        }
    }
}

/// A round's horizon against a run of `Nop`s: before the run, at its first
/// `Nop`, inside it, exactly at its end and one instruction past it. One
/// core whose instructions up to the run's end all cost the round floor, so
/// a round over `n` steps has its horizon on the pre-clock of step `n` and
/// the budget binds: a run retired past the horizon would retire more steps
/// than the quantum owes. Each budget from a fresh machine, then again from
/// where the last quantum stopped, against single steps; with `alu` 1 and 2.
#[test]
fn seam_run_ahead_horizon_meets_a_nop_run() {
    const LEAD: u64 = 10;
    const RUN: u64 = 20;
    let mut b = ProgramBuilder::new("nop_run");
    let entry = b.block("entry");
    b.switch_to(entry);
    for _ in 0..LEAD {
        b.addi(Reg(4), Reg(4), 1);
    }
    b.nops(RUN as usize);
    b.store(Operand::Reg(Reg(4)), SHARED, 0, 8);
    b.nops(RUN as usize);
    b.halt();
    let mut image = WorkloadImage::new("nop_run", b.finish());
    let shared = image.layout_mut().heap_alloc(64, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "entry").with_reg(SHARED, shared));
    for floor in [1, 2] {
        let mut config = MachineConfig {
            num_cores: 1,
            ..Default::default()
        };
        config.latency.alu = floor;
        config.latency.branch = floor;
        config.latency.pause = floor;
        let budgets = [
            ("before the run", LEAD - 1),
            ("at the run's first Nop", LEAD),
            ("inside the run", LEAD + RUN / 2),
            ("at the run's end", LEAD + RUN),
            ("one past the run", LEAD + RUN + 1),
        ];
        for (what, n) in budgets {
            let what = format!("alu {floor}, horizon {what}");
            let mut fast = Machine::new(config.clone(), &image);
            let mut slow = Machine::new(config.clone(), &image);
            for quantum in 1..=4 {
                assert_eq!(fast.run_steps(n), slow.run_steps_reference(n));
                assert_eq!(fast.take_hitm_events(), slow.take_hitm_events());
                assert_same_state(&fast, &slow, &what, quantum);
            }
            assert!(fast.round_trace.rounds > 0, "{what}: run-ahead ran");
            assert!(
                fast.round_trace.nop_runs > 0,
                "{what}: a run retired at once"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Registry workloads
// ---------------------------------------------------------------------------

/// Input scale of the registry runs: every workload keeps its shape (the
/// builders floor their trip counts) at a size a debug build finishes.
pub(super) const REGISTRY_SCALE: f64 = 0.02;

/// Rebuild an image `laser-workloads` built at input scale `scale` against
/// the plain library as an image of the crate under test. The program is
/// `laser-isa`'s type on both sides; threads, initial contents and dilation
/// are copied over, and the globals and heap are allocated out to the same
/// extents, which is all `Machine::new` reads besides the memory map.
pub(super) fn registry_image(
    spec: &laser_workloads::WorkloadSpec,
    scale: f64,
    threads: usize,
    placement: ThreadPlacement,
) -> WorkloadImage {
    let theirs = spec.build(&laser_workloads::BuildOptions::scaled(scale).with_threads(threads));
    let mut image = WorkloadImage::new(theirs.name(), theirs.program().clone());
    let [globals, heap] = theirs.layout().data_extents();
    let layout = image.layout_mut();
    layout.global_alloc(globals.end - globals.start, 1);
    if heap.end > heap.start {
        // One default allocation: its chunk header, then the rest.
        layout
            .heap_alloc(heap.end - heap.start - CHUNK_HEADER_BYTES, 1)
            .unwrap();
    }
    assert_eq!(image.layout().data_extents(), [globals, heap]);
    for (addr, bytes) in theirs.layout().initial_contents() {
        image.layout_mut().poke_bytes(*addr, bytes);
    }
    for (tid, t) in theirs.threads().iter().enumerate() {
        let mut thread = ThreadSpec::new(t.name.clone(), t.entry_label.clone());
        thread.regs = t.regs.clone();
        image.push_thread(thread);
        assert_eq!(image.stack_top(tid), theirs.stack_top(tid));
    }
    image.set_time_dilation(theirs.time_dilation());
    image.set_thread_placement(placement);
    image
}

/// Every registry workload on `topology`, un-hooked or — with `hooked` —
/// under a [`MiniSsb`] that buffers an eighth of all lines and flushes at
/// every third block.
fn registry_agrees_on(topology: TopologySpec, hooked: bool) {
    let placement = if topology == TopologySpec::Flat {
        ThreadPlacement::Packed
    } else {
        ThreadPlacement::RoundRobin
    };
    let config = MachineConfig::for_topology(topology);
    for (i, spec) in laser_workloads::registry().iter().enumerate() {
        let image = registry_image(spec, REGISTRY_SCALE, 4 * topology.sockets(), placement);
        let what = format!("{} on {topology:?}", spec.name);
        if !hooked {
            lockstep_from_image(&image, &config, 1 + i as u64, &what);
            continue;
        }
        let machine = || {
            let hook = MiniSsb::new(&image, config.num_cores, 2, |block| block.0 % 3 == 0)
                .buffering(0x40, 0x1c0);
            hook.attached_to(Machine::new(config.clone(), &image))
        };
        // A buffered store may be what a spinning thread waits for: the run
        // need not end, so it is followed for a bounded number of steps.
        run_lockstep_capped(
            machine(),
            machine(),
            &format!("hooked {what}"),
            STEP_CAP.min(2_000_000),
            seeded_plan(1 + i as u64, 3_000),
            |_| {},
        );
    }
}

#[test]
fn registry_flat_agrees_with_single_steps() {
    registry_agrees_on(TopologySpec::Flat, false);
}

#[test]
fn registry_2s_agrees_with_single_steps() {
    registry_agrees_on(TopologySpec::DualSocket, false);
}

#[test]
fn registry_8s_agrees_with_single_steps() {
    registry_agrees_on(TopologySpec::OctoSocket, false);
}

#[test]
fn registry_flat_under_a_declared_hook_agrees_with_single_steps() {
    registry_agrees_on(TopologySpec::Flat, true);
}

#[test]
fn registry_8s_under_a_declared_hook_agrees_with_single_steps() {
    registry_agrees_on(TopologySpec::OctoSocket, true);
}

// ---------------------------------------------------------------------------
// Budget exactness
// ---------------------------------------------------------------------------

/// A fixed generated image with several threads per core, and its total
/// step count by the reference path.
fn budget_fixture(seed: u64) -> (WorkloadImage, MachineConfig, u64) {
    let mut rng = XorShift(seed);
    let (config, placement) = generated_config(&mut rng);
    let mut image = generated_image(&mut rng, 2 * config.num_cores + 1);
    image.set_thread_placement(placement);
    let mut reference = Machine::new(config.clone(), &image);
    while reference.run_steps_reference(10_000) == RunStatus::Running {}
    let total = reference.steps();
    (image, config, total)
}

#[test]
fn a_round_never_overshoots_its_budget() {
    for seed in [0x51ed_270b, 0x0bad_5eed, 0x1234_5678_9abc] {
        let (image, config, total) = budget_fixture(seed);
        // From a fresh machine…
        for n in 1..200u64 {
            let mut m = Machine::new(config.clone(), &image);
            let status = m.run_steps(n);
            assert_eq!(m.steps(), n.min(total), "seed {seed:#x}: run_steps({n})");
            assert_eq!(status == RunStatus::Done, n >= total);
        }
        // …and from wherever the previous quantum left one.
        let mut m = Machine::new(config, &image);
        let mut expected = 0u64;
        for n in (1..200u64).cycle() {
            expected = (expected + n).min(total);
            let status = m.run_steps(n);
            assert_eq!(m.steps(), expected, "seed {seed:#x}: cumulative at {n}");
            if status == RunStatus::Done {
                break;
            }
        }
        assert_eq!(m.steps(), total);
    }
}

#[test]
fn an_unbounded_budget_does_not_overflow_the_horizon() {
    let (image, config, total) = budget_fixture(0x0dd_ba11);
    let mut unbounded = Machine::new(config.clone(), &image);
    // Clocks far from zero: the horizon saturates instead of wrapping.
    unbounded.charge_all_cores(u64::MAX / 16);
    assert_eq!(unbounded.run_steps(u64::MAX), RunStatus::Done);
    assert_eq!(unbounded.steps(), total);

    let mut reference = Machine::new(config, &image);
    reference.charge_all_cores(u64::MAX / 16);
    while reference.run_steps_reference(10_000) == RunStatus::Running {}
    assert_same_state(&unbounded, &reference, "unbounded budget", 1);
    assert!(unbounded.inner.mem == reference.inner.mem);
}

// ---------------------------------------------------------------------------
// Hooked machines
// ---------------------------------------------------------------------------

/// Services every access to the shared region's first line for free — the
/// zero-cost action that voids the horizon bound — and charges block
/// entries, which must reach it in order. It declares nothing.
struct FreeLine {
    line: Addr,
    entries: u64,
}

impl ExecHook for FreeLine {
    fn on_mem_op(&mut self, _ctx: &mut HookCtx<'_>, op: &MemOp) -> HookAction {
        if line_of(op.addr) == self.line {
            HookAction::Handled {
                load_value: Some(self.entries),
                extra_cycles: 0,
            }
        } else {
            HookAction::Passthrough
        }
    }

    fn on_block_entry(&mut self, _ctx: &mut HookCtx<'_>, _block: BlockId) -> u64 {
        self.entries += 1;
        self.entries % 3
    }
}

/// A hook that overrides none of the run-ahead contract is dispatched per
/// instruction, as it always was: no round runs while it is attached.
#[test]
fn hooked_machines_skip_run_ahead_and_agree_with_single_steps() {
    for seed in 1..=20u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (config, placement) = generated_config(&mut rng);
        let mut image = generated_image(&mut rng, 1 + 2 * config.num_cores);
        image.set_thread_placement(placement);
        let line = line_of(image.threads()[0].regs[0].1);
        let hooked = || {
            let mut m = Machine::new(config.clone(), &image);
            m.attach_hook(Box::new(FreeLine { line, entries: 0 }));
            m
        };
        let (mut fast, mut slow) = (hooked(), hooked());
        for quantum in 1..=3 {
            let n = 1 + rng.below(400);
            assert_eq!(fast.run_steps(n), slow.run_steps_reference(n));
            assert_eq!(fast.take_hitm_events(), slow.take_hitm_events());
            assert_same_state(&fast, &slow, &format!("hooked {seed}"), quantum);
        }
        assert_eq!(
            fast.round_trace.rounds, 0,
            "hooked {seed}: a hook with no declared floor was run ahead"
        );
        // Half the seeds detach midway (a session never does, a caller may):
        // the unhooked remainder runs ahead from the hooked state.
        if seed % 2 == 0 {
            fast.detach_hook();
            slow.detach_hook();
        }
        run_lockstep(fast, slow, rng.next(), 2_000, &format!("hooked {seed}"));
    }
}

/// What a [`MiniSsb`] was called with, folded: the machine that runs ahead
/// and the one that single-steps must hand their hooks the same operations,
/// in the same order, at the same [`HookCtx::now`]. Entries of inert blocks
/// are what the contract lets a machine skip, so they are not in here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct CallLog {
    mem_ops: u64,
    serviced: u64,
    fences: u64,
    active_entries: u64,
    exits: u64,
    flushes: u64,
    digest: u64,
}

impl CallLog {
    fn fold(&mut self, ctx: &HookCtx<'_>, call: u64, args: [u64; 4]) {
        for word in [call, ctx.core().0 as u64, ctx.now()]
            .into_iter()
            .chain(args)
        {
            self.digest = (self.digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A software store buffer in miniature, with its run-ahead contract
/// declared. Stores to the lines it buffers are held per core for `cost`
/// cycles each, one slot per `(address, size)`, and written back through
/// [`HookCtx::mem_write`] at fences, thread exits, the fifth slot and the
/// entries of its flush blocks — the only block entries that are not inert.
/// A load of a buffered line is serviced from the slot it matches exactly,
/// or flushes and reads memory.
struct MiniSsb {
    /// A store or load at `addr` is serviced when
    /// `line_of(addr) & line_mask == line`.
    line: Addr,
    line_mask: Addr,
    /// What a buffered store or a buffer hit costs: the declared floor.
    cost: u64,
    /// Per `BlockId`: the buffer is flushed on entry.
    flush_blocks: Vec<bool>,
    buffers: Vec<Vec<(Addr, u8, u64)>>,
    log: CallLog,
    /// Calls for inert entries: a single-stepped machine makes them all, one
    /// that runs ahead only from its short tail.
    inert_entries: u64,
}

impl MiniSsb {
    /// A hook for `image` on `cores` cores that buffers the line thread 0's
    /// first register points into.
    fn new(
        image: &WorkloadImage,
        cores: usize,
        cost: u64,
        flushes_at: impl Fn(BlockId) -> bool,
    ) -> Self {
        let blocks = image.program().blocks().len() as u32;
        MiniSsb {
            line: line_of(image.threads()[0].regs[0].1),
            line_mask: !0,
            cost,
            flush_blocks: (0..blocks).map(|id| flushes_at(BlockId(id))).collect(),
            buffers: vec![Vec::new(); cores],
            log: CallLog::default(),
            inert_entries: 0,
        }
    }

    /// Buffer every line with `line_of(addr) & mask == line` instead.
    fn buffering(mut self, line: Addr, mask: Addr) -> Self {
        (self.line, self.line_mask) = (line, mask);
        self
    }

    fn attached_to(self, mut machine: Machine) -> Machine {
        machine.attach_hook(Box::new(self));
        machine
    }

    fn of(machine: &Machine) -> Option<&MiniSsb> {
        machine.hook()?.as_any()?.downcast_ref()
    }

    fn log_of(machine: &Machine) -> Option<CallLog> {
        MiniSsb::of(machine).map(|hook| hook.log)
    }

    fn flush(&mut self, ctx: &mut HookCtx<'_>, pc: Pc) -> u64 {
        let writes = std::mem::take(&mut self.buffers[ctx.core().0]);
        if writes.is_empty() {
            return 0;
        }
        self.log.flushes += 1;
        writes.iter().fold(3, |cycles, &(addr, size, value)| {
            cycles + ctx.mem_write(pc, addr, size, value)
        })
    }
}

impl ExecHook for MiniSsb {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn cost_floor(&self) -> u64 {
        self.cost
    }

    fn block_entry_is_inert(&self, block: BlockId) -> bool {
        !self.flush_blocks[block.0 as usize]
    }

    fn on_mem_op(&mut self, ctx: &mut HookCtx<'_>, op: &MemOp) -> HookAction {
        self.log.mem_ops += 1;
        let value = op.store_value.unwrap_or(u64::MAX);
        self.log
            .fold(ctx, 1, [op.pc, op.addr, op.size as u64, value]);
        if line_of(op.addr) & self.line_mask != self.line {
            return HookAction::Passthrough;
        }
        self.log.serviced += 1;
        let core = ctx.core().0;
        let mut extra_cycles = self.cost;
        let load_value = match op.store_value {
            Some(value) => {
                let buffer = &mut self.buffers[core];
                let slot = buffer
                    .iter_mut()
                    .find(|(addr, size, _)| (*addr, *size) == (op.addr, op.size));
                match slot {
                    Some(slot) => slot.2 = value,
                    None => buffer.push((op.addr, op.size, value)),
                }
                if buffer.len() > 4 {
                    extra_cycles += self.flush(ctx, op.pc);
                }
                None
            }
            None => {
                let hit = self.buffers[core]
                    .iter()
                    .find(|&&(addr, size, _)| (addr, size) == (op.addr, op.size));
                Some(match hit {
                    Some(&(_, _, value)) => value,
                    None => {
                        extra_cycles += self.flush(ctx, op.pc);
                        let (value, cycles) = ctx.mem_read(op.pc, op.addr, op.size);
                        extra_cycles += cycles;
                        value
                    }
                })
            }
        };
        HookAction::Handled {
            load_value,
            extra_cycles,
        }
    }

    fn on_fence(&mut self, ctx: &mut HookCtx<'_>, pc: Pc) -> u64 {
        self.log.fences += 1;
        self.log.fold(ctx, 2, [pc, 0, 0, 0]);
        self.flush(ctx, pc)
    }

    fn on_block_entry(&mut self, ctx: &mut HookCtx<'_>, block: BlockId) -> u64 {
        if !self.flush_blocks[block.0 as usize] {
            self.inert_entries += 1;
            return 0;
        }
        self.log.active_entries += 1;
        self.log.fold(ctx, 3, [block.0 as u64, 0, 0, 0]);
        self.flush(ctx, 0)
    }

    fn on_thread_exit(&mut self, ctx: &mut HookCtx<'_>) -> u64 {
        self.log.exits += 1;
        self.log.fold(ctx, 4, [0; 4]);
        self.flush(ctx, 0)
    }
}

/// The generated programs under a [`MiniSsb`] with a seeded cost (at times
/// below the machine's own floor, which [`generated_config`] raises for a
/// third of the seeds) and a seeded third of the blocks flushing: branches
/// whose two successors differ in inert-ness are everywhere.
#[test]
fn declared_hooks_run_ahead_on_generated_programs() {
    let programs: u64 = if cfg!(debug_assertions) { 40 } else { 400 };
    let (mut rounds, mut skipped, mut floors_below) = (0, 0, 0);
    for seed in 1..=programs {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x55b);
        let (config, placement) = generated_config(&mut rng);
        let threads = 1 + rng.below(3 * config.num_cores as u64).min(13) as usize;
        let mut image = generated_image(&mut rng, threads);
        image.set_thread_placement(placement);
        let cost = 1 + rng.below(3);
        let flush_seed = rng.next();
        let machine = || {
            MiniSsb::new(&image, config.num_cores, cost, |block| {
                (flush_seed >> (block.0 % 64)) & 1 == 1 && block.0 % 3 != 1
            })
            .attached_to(Machine::new(config.clone(), &image))
        };
        let max_quantum = quantum_ceiling(&mut rng);
        let (fast, slow) = run_lockstep(
            machine(),
            machine(),
            rng.next(),
            max_quantum,
            &format!("declared hook, generated program {seed}"),
        );
        floors_below += u64::from(cost < fast.hot.floor);
        rounds += fast.round_trace.rounds;
        let (fast, slow) = (MiniSsb::of(&fast).unwrap(), MiniSsb::of(&slow).unwrap());
        skipped += slow.inert_entries.saturating_sub(fast.inert_entries);
    }
    assert!(rounds > 0, "no hooked machine ran a round");
    assert!(skipped > 0, "no inert block entry was skipped");
    assert!(
        floors_below > 0,
        "no hook declared a floor below the machine's"
    );
}

/// The seam images under a [`MiniSsb`] on their shared line, for two choices
/// of flush blocks. With the first, a worker's loop branch goes back to an
/// inert entry or on to an active one, and a `JumpFirst` thread taking over
/// a core after a `Halt` starts with a jump into an active entry; with the
/// second the loop entry is the active one.
#[test]
fn seam_images_under_a_declared_hook_agree_with_single_steps() {
    let images: u64 = if cfg!(debug_assertions) { 6 } else { 60 };
    let flush_sets: [&[&str]; 2] = [
        &["worker_done", "register_prefix", "short"],
        &["worker", "short"],
    ];
    for seed in 1..=images {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x55b);
        let cores = 1 + rng.below(4) as usize;
        let threads = cores + 1 + rng.below(4 * cores as u64) as usize;
        let starts: Vec<Start> = (0..threads)
            .map(|_| Start::ALL[rng.below(Start::ALL.len() as u64) as usize])
            .collect();
        let image = seam_image(&starts, 1 + rng.below(30));
        let config = MachineConfig {
            num_cores: cores,
            ..Default::default()
        };
        for flush_set in flush_sets {
            let flushes: Vec<BlockId> = flush_set
                .iter()
                .map(|label| image.program().block_by_label(label).unwrap())
                .collect();
            seam_lockstep_of(
                || {
                    MiniSsb::new(&image, cores, 1 + seed % 2, |block| {
                        flushes.contains(&block)
                    })
                    .attached_to(Machine::new(config.clone(), &image))
                },
                &format!("hooked seam image {seed}, flushing at {flush_set:?}"),
            );
        }
    }
}

/// Two threads whose block entries sit at known pre-clocks (every
/// register-only instruction costs one cycle), for every budget from a fresh
/// machine: a round over `n` steps on two live cores has its horizon at
/// clock `n / 2`, so `n = 30` puts it exactly on thread 0's jump into the
/// flush block (pre-clock 15) and `n = 42` on thread 1's branch into it
/// (pre-clock 21, after a jump into an inert block at 10). An active entry at
/// the horizon belongs to the next round.
#[test]
fn seam_a_horizon_on_an_active_entry_leaves_it_for_the_next_round() {
    let mut b = ProgramBuilder::new("entry_horizon");
    let first = b.block("first");
    let second = b.block("second");
    let flush = b.block("flush");
    let inert = b.block("inert");
    b.switch_to(first);
    b.store(Operand::Imm(5), SHARED, 0, 8);
    b.nops(11);
    b.jump(flush);
    b.switch_to(second);
    b.store(Operand::Imm(7), SHARED, 8, 8);
    b.nops(6);
    b.jump(inert);
    b.switch_to(inert);
    b.nops(9);
    b.movi(COND, 1);
    b.branch(COND, flush, inert);
    b.switch_to(flush);
    b.nops(4);
    b.load(Reg(4), SHARED, 8, 8);
    b.halt();
    let mut image = WorkloadImage::new("entry_horizon", b.finish());
    let shared = image.layout_mut().heap_alloc(64, 64).unwrap();
    image.push_thread(ThreadSpec::new("t0", "first").with_reg(SHARED, shared));
    image.push_thread(ThreadSpec::new("t1", "second").with_reg(SHARED, shared));
    let config = MachineConfig {
        num_cores: 2,
        ..Default::default()
    };
    // The buffered stores cost 4 cycles, like the L1 hits they replace.
    let machine = || {
        MiniSsb::new(&image, 2, 4, |block| block == flush)
            .attached_to(Machine::new(config.clone(), &image))
    };
    for n in 1..=80u64 {
        let (mut fast, mut slow) = (machine(), machine());
        for quantum in 1..=3 {
            assert_eq!(fast.run_steps(n), slow.run_steps_reference(n));
            assert_eq!(fast.take_hitm_events(), slow.take_hitm_events());
            assert_same_state(&fast, &slow, &format!("budget {n}"), quantum);
        }
    }
    // The pre-clocks the budgets above are aimed at: each thread's clock
    // when it stands in front of the terminator that enters the flush block.
    let mut m = machine();
    let mut entry_pre_clocks = [None; 2];
    while m.run_steps_reference(1) == RunStatus::Running {
        for (ti, from) in [first, inert].into_iter().enumerate() {
            let thread = &m.threads[ti];
            if thread.block == from && thread.idx == m.decoded.block(from).insts().len() {
                entry_pre_clocks[ti].get_or_insert(m.per_core_cycles()[ti]);
            }
        }
    }
    assert_eq!(entry_pre_clocks, [Some(15), Some(21)]);
}

/// A hook may service operations for less than the machine's cheapest
/// instruction: the round floor is the lower of the two, or a round on
/// threads that do little but buffered stores overshoots its budget.
#[test]
fn a_hook_floor_below_the_machine_floor_bounds_the_round() {
    let mut b = ProgramBuilder::new("cheap_stores");
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    // Eight stores over four slots: the buffer never fills, so each costs
    // the hook's 1 cycle and nothing else.
    for store in 0..8 {
        b.store(Operand::Reg(COUNTER), SHARED, 8 * (store % 4), 8);
    }
    b.addi(COUNTER, COUNTER, 1);
    b.cmp_lt(COND, COUNTER, Operand::Imm(200));
    b.branch(COND, body, done);
    b.switch_to(done);
    b.halt();
    let mut image = WorkloadImage::new("cheap_stores", b.finish());
    let shared = image.layout_mut().heap_alloc(64, 64).unwrap();
    for t in 0..3 {
        image.push_thread(ThreadSpec::new(format!("t{t}"), "body").with_reg(SHARED, shared));
    }
    let mut config = MachineConfig {
        num_cores: 3,
        ..Default::default()
    };
    config.latency.alu = 4;
    config.latency.branch = 4;
    config.latency.pause = 4;
    let machine = || {
        let m = MiniSsb::new(&image, 3, 1, |block| block == done)
            .attached_to(Machine::new(config.clone(), &image));
        assert_eq!(m.hot.floor, 4);
        m
    };
    for n in [24, 25, 100, 999, 1 << 20] {
        let (mut fast, mut slow) = (machine(), machine());
        for quantum in 1.. {
            let status = fast.run_steps(n);
            assert_eq!(status, slow.run_steps_reference(n));
            assert_same_state(&fast, &slow, &format!("quanta of {n}"), quantum);
            if status == RunStatus::Done {
                break;
            }
        }
        assert!(fast.round_trace.rounds > 0);
    }
}

/// Hooks come and go between quanta: a declared hook, then a different one
/// (other flush blocks, another line, another floor), then an undeclared one
/// (no rounds while it is attached), then none. The entry table and the floor
/// are those of whatever is attached now.
#[test]
fn swapping_hooks_between_quanta_agrees_with_single_steps() {
    let programs: u64 = if cfg!(debug_assertions) { 15 } else { 150 };
    for seed in 1..=programs {
        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xa77ac4);
        let (config, placement) = generated_config(&mut rng);
        let mut image = generated_image(&mut rng, 2 * config.num_cores);
        image.set_thread_placement(placement);
        let what = format!("swapped hooks, program {seed}");
        let shared = image.threads()[0].regs[0].1;
        let mut fast = Machine::new(config.clone(), &image);
        let mut slow = Machine::new(config.clone(), &image);
        let mut quantum = 0;
        let mut run = |fast: &mut Machine, slow: &mut Machine, rng: &mut XorShift| {
            for _ in 0..1 + rng.below(3) {
                quantum += 1;
                let n = 1 + rng.below(600);
                assert_eq!(fast.run_steps(n), slow.run_steps_reference(n));
                assert_eq!(fast.take_hitm_events(), slow.take_hitm_events());
                assert_same_state(fast, slow, &what, quantum);
            }
        };
        for stage in 0..4u32 {
            for m in [&mut fast, &mut slow] {
                let cores = config.num_cores;
                let hook: Box<dyn ExecHook> = match stage {
                    0 => Box::new(MiniSsb::new(&image, cores, 2, |b| b.0 % 2 == 0)),
                    1 => Box::new(
                        MiniSsb::new(&image, cores, 1, |b| b.0 % 3 == 1)
                            .buffering(line_of(shared + 64), !0),
                    ),
                    2 => Box::new(FreeLine {
                        line: line_of(shared),
                        entries: 0,
                    }),
                    _ => {
                        m.detach_hook();
                        continue;
                    }
                };
                // Stage 1 replaces in place, stage 2 detaches first.
                if stage == 2 {
                    assert!(m.detach_hook().is_some());
                }
                m.attach_hook(hook);
            }
            let rounds = fast.round_trace.rounds;
            run(&mut fast, &mut slow, &mut rng);
            if stage == 2 {
                assert_eq!(
                    fast.round_trace.rounds, rounds,
                    "{what}: FreeLine ran ahead"
                );
            }
        }
        run_lockstep(fast, slow, rng.next(), 2_000, &what);
    }
}

/// A detached hook leaves nothing behind: the block entries it acted on are
/// register-only again, so the visits of an un-hooked run stay within its
/// active instructions plus one per core and round.
#[test]
fn run_ahead_forgets_a_detached_hooks_entries() {
    const TRIPS: u64 = 500;
    let mut b = ProgramBuilder::new("symmetric");
    let body = b.block("body");
    let done = b.block("done");
    b.switch_to(body);
    b.load(Reg(4), PRIVATE, 0, 8);
    b.addi(COUNTER, COUNTER, 1);
    b.cmp_lt(COND, COUNTER, Operand::Imm(TRIPS));
    b.branch(COND, body, done);
    b.switch_to(done);
    b.halt();
    let mut image = WorkloadImage::new("symmetric", b.finish());
    for t in 0..4 {
        let slot = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new(format!("t{t}"), "body").with_reg(PRIVATE, slot));
    }
    // A load per trip and at the end a halt per thread.
    let active = 4 * (TRIPS + 1);
    let mut m = MiniSsb::new(&image, 4, 1, |block| block == body)
        .attached_to(Machine::new(MachineConfig::default(), &image));
    m.run_steps(40);
    m.detach_hook();
    let before = m.round_trace;
    while m.run_steps(5_000) == RunStatus::Running {}
    let (rounds, visits) = (
        m.round_trace.rounds - before.rounds,
        m.round_trace.visits - before.visits,
    );
    assert!(rounds > 0);
    assert!(
        visits <= active + 4 * rounds,
        "{visits} visits for at most {active} active instructions in {rounds} rounds"
    );
}

/// `NullHook` declares that it does nothing, and a machine carrying it is an
/// un-hooked machine: the same states as single steps without a hook, in the
/// same rounds and scheduler visits as running ahead without one.
#[test]
fn a_null_hook_run_ahead_is_the_unhooked_run_ahead() {
    for seed in 1..=20u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2011);
        let (config, placement) = generated_config(&mut rng);
        let mut image = generated_image(&mut rng, 1 + 2 * config.num_cores);
        image.set_thread_placement(placement);
        let mut hooked = Machine::new(config.clone(), &image);
        hooked.attach_hook(Box::new(NullHook));
        let mut unhooked = Machine::new(config.clone(), &image);
        let mut slow = Machine::new(config.clone(), &image);
        for quantum in 1.. {
            let n = 1 + rng.below(3_000);
            let status = hooked.run_steps(n);
            assert_eq!(status, unhooked.run_steps(n));
            assert_eq!(status, slow.run_steps_reference(n));
            let events = hooked.take_hitm_events();
            assert_eq!(events, unhooked.take_hitm_events());
            assert_eq!(events, slow.take_hitm_events());
            assert_same_state(&hooked, &slow, &format!("null hook {seed}"), quantum);
            assert_eq!(
                (hooked.round_trace.rounds, hooked.round_trace.visits),
                (unhooked.round_trace.rounds, unhooked.round_trace.visits),
                "null hook {seed} q{quantum}: rounds and visits"
            );
            if status == RunStatus::Done {
                break;
            }
        }
        assert!(hooked.inner.mem == slow.inner.mem);
    }
}
