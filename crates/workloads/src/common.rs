//! Shared building blocks for the synthetic workloads: scaling, thread-runtime
//! primitives (spin locks, barriers) and the benign kernel templates used by
//! the workloads that have no contention bugs.

use laser_isa::inst::{CmpOp, Operand, Reg};
use laser_isa::program::BlockId;
use laser_isa::ProgramBuilder;
use laser_machine::{Addr, ThreadSpec, WorkloadImage};

use crate::spec::BuildOptions;

/// Register conventions used by every workload kernel.
pub mod regs {
    use laser_isa::inst::Reg;

    /// Primary (usually thread-private) data pointer.
    pub const DATA: Reg = Reg(0);
    /// Loop induction variable.
    pub const IV: Reg = Reg(2);
    /// Scratch for loop conditions.
    pub const COND: Reg = Reg(3);
    /// Pointer to shared structures (locks, barriers, global flags).
    pub const SHARED: Reg = Reg(4);
    /// Secondary data pointer.
    pub const DATA2: Reg = Reg(5);
    /// Thread id.
    pub const TID: Reg = Reg(6);
    /// Scratch registers used by the runtime helpers.
    pub const SCRATCH_A: Reg = Reg(7);
    /// Second runtime scratch register.
    pub const SCRATCH_B: Reg = Reg(8);
    /// General value scratch.
    pub const VAL: Reg = Reg(1);
}

/// Allocate `size` bytes aligned to `align` on `image`'s heap for `what`,
/// the one way a workload builder takes heap memory.
///
/// # Panics
/// If the heap cannot hold the request, naming `what`.
pub fn heap_alloc(image: &mut WorkloadImage, size: u64, align: u64, what: &str) -> Addr {
    #[expect(
        clippy::expect_used,
        reason = "workload images size their heaps to fit; allocation failure is a builder bug"
    )]
    image.layout_mut().heap_alloc(size, align).expect(what)
}

/// Scale an iteration count by the build options, with a small floor so the
/// kernel always does *some* work.
pub fn scaled_iters(base: u64, opts: &BuildOptions) -> u64 {
    ((base as f64 * opts.scale) as u64).max(8)
}

/// Default time-dilation factor for benign (uncontended) workloads: the
/// synthetic kernel stands in for a benchmark that runs several orders of
/// magnitude longer, so incidental synchronization HITMs fall below the
/// detector's 1 000 HITM/s reporting threshold, as they do in the real runs.
pub const BENIGN_DILATION: f64 = 300.0;

/// Time dilation for the workloads whose contention is intense (the paper's
/// headline bugs): hot lines stay far above the reporting and repair
/// thresholds.
pub const INTENSE_DILATION: f64 = 30.0;

/// Time dilation for workloads with mild contention (detectable, but not worth
/// automatic repair).
pub const MILD_DILATION: f64 = 60.0;

/// Emit a spin-lock acquisition of the 8-byte lock at `[lock_base + lock_off]`.
///
/// The current block is sealed with a jump into the lock loop; on return the
/// builder is positioned in the block that owns the lock. `naive` selects a
/// plain compare-and-swap loop (the poorly-scaling lock the paper's Section 2
/// describes); otherwise a test-and-test-and-set lock is emitted.
pub fn emit_lock_acquire(
    b: &mut ProgramBuilder,
    prefix: &str,
    lock_base: Reg,
    lock_off: i64,
    naive: bool,
) -> BlockId {
    let try_blk = b.block(&format!("{prefix}_try"));
    let spin_blk = b.block(&format!("{prefix}_spin"));
    let got_blk = b.block(&format!("{prefix}_got"));
    b.jump(try_blk);
    b.switch_to(try_blk);
    b.atomic_cas(
        regs::SCRATCH_A,
        lock_base,
        lock_off,
        Operand::Imm(0),
        Operand::Imm(1),
        8,
    );
    b.cmp_eq(regs::SCRATCH_B, regs::SCRATCH_A, Operand::Imm(0));
    let retry = if naive { try_blk } else { spin_blk };
    b.branch(regs::SCRATCH_B, got_blk, retry);
    b.switch_to(spin_blk);
    b.pause();
    b.load(regs::SCRATCH_A, lock_base, lock_off, 8);
    b.cmp_eq(regs::SCRATCH_B, regs::SCRATCH_A, Operand::Imm(0));
    b.branch(regs::SCRATCH_B, try_blk, spin_blk);
    b.switch_to(got_blk);
    got_blk
}

/// Emit a spin-lock release of the lock at `[lock_base + lock_off]` into the
/// current block (a plain store, which is a legal release under TSO).
pub fn emit_lock_release(b: &mut ProgramBuilder, lock_base: Reg, lock_off: i64) {
    b.store(Operand::Imm(0), lock_base, lock_off, 8);
}

/// Emit a one-shot centralized barrier over the counter at
/// `[ctr_base + ctr_off]`. The current block is sealed; on return the builder
/// is positioned in the block that runs once all `nthreads` threads arrived.
pub fn emit_barrier(
    b: &mut ProgramBuilder,
    prefix: &str,
    ctr_base: Reg,
    ctr_off: i64,
    nthreads: u64,
) -> BlockId {
    let wait_blk = b.block(&format!("{prefix}_wait"));
    let done_blk = b.block(&format!("{prefix}_done"));
    b.atomic_fetch_add(regs::SCRATCH_A, ctr_base, ctr_off, Operand::Imm(1), 8);
    b.jump(wait_blk);
    b.switch_to(wait_blk);
    b.pause();
    b.load(regs::SCRATCH_A, ctr_base, ctr_off, 8);
    b.cmp(
        CmpOp::Ge,
        regs::SCRATCH_B,
        regs::SCRATCH_A,
        Operand::Imm(nthreads),
    );
    b.branch(regs::SCRATCH_B, done_blk, wait_blk);
    b.switch_to(done_blk);
    done_blk
}

/// Emit a counted loop skeleton: creates `head`/`body`/`exit` blocks, seals
/// the current block into the head, initialises the induction variable and
/// positions the builder at the start of the body. The caller emits the body
/// and must finish it with [`close_loop`].
pub fn open_loop(b: &mut ProgramBuilder, prefix: &str) -> (BlockId, BlockId) {
    let body = b.block(&format!("{prefix}_body"));
    let exit = b.block(&format!("{prefix}_exit"));
    b.movi(regs::IV, 0);
    b.jump(body);
    b.switch_to(body);
    (body, exit)
}

/// Close a loop opened with [`open_loop`]: increments the induction variable,
/// tests it against `iters` and branches back to `body` or on to `exit`,
/// leaving the builder positioned at `exit`.
pub fn close_loop(b: &mut ProgramBuilder, body: BlockId, exit: BlockId, iters: u64) {
    b.addi(regs::IV, regs::IV, 1);
    b.cmp_lt(regs::COND, regs::IV, Operand::Imm(iters));
    b.branch(regs::COND, body, exit);
    b.switch_to(exit);
}

/// A benign data-parallel kernel: each thread iterates over a private,
/// cache-line-aligned working set, with `compute_ops` arithmetic filler per
/// iteration. Produces no inter-thread sharing at all. Used for blackscholes,
/// swaptions, string_match and friends.
pub fn private_compute(
    name: &str,
    file: &str,
    opts: &BuildOptions,
    base_iters: u64,
    compute_ops: usize,
    private_slots: u64,
) -> WorkloadImage {
    let iters = scaled_iters(base_iters, opts);
    let mut b = ProgramBuilder::new(name);
    b.source(file, 10);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "main");
    b.source(file, 20);
    // Touch a rotating private slot: load, update, store.
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(private_slots.max(1)),
    );
    b.alu(
        laser_isa::AluOp::Mul,
        regs::SCRATCH_A,
        regs::SCRATCH_A,
        Operand::Imm(8),
    );
    b.add(regs::SCRATCH_A, regs::SCRATCH_A, Operand::Reg(regs::DATA));
    b.load(regs::VAL, regs::SCRATCH_A, 0, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::SCRATCH_A, 0, 8);
    b.source(file, 21);
    b.nops(compute_ops);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new(name, program);
    image.set_time_dilation(BENIGN_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    for t in 0..opts.threads {
        let buf = heap_alloc(
            &mut image,
            8 * private_slots.max(1),
            64,
            "heap space for private buffers",
        );
        image.push_thread(
            ThreadSpec::new(format!("worker{t}"), "entry")
                .with_reg(regs::DATA, buf)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// A benign phase-parallel kernel: `phases` rounds of private work separated
/// by centralized barriers. The barrier counters are the only shared state, so
/// the workload has a little benign true sharing per phase — far below the
/// detector's reporting threshold, as in the real barrier-based Splash2x
/// codes.
pub fn barrier_phased(
    name: &str,
    file: &str,
    opts: &BuildOptions,
    phases: usize,
    base_iters_per_phase: u64,
    compute_ops: usize,
) -> WorkloadImage {
    let iters = scaled_iters(base_iters_per_phase, opts);
    let nthreads = opts.threads as u64;
    let mut b = ProgramBuilder::new(name);
    b.source(file, 5);
    let entry = b.block("entry");
    b.switch_to(entry);
    for p in 0..phases {
        b.source(file, 30 + p as u32 * 10);
        let (body, exit) = open_loop(&mut b, &format!("phase{p}"));
        b.load(regs::VAL, regs::DATA, 0, 8);
        b.addi(regs::VAL, regs::VAL, 1);
        b.store(Operand::Reg(regs::VAL), regs::DATA, 0, 8);
        b.nops(compute_ops);
        close_loop(&mut b, body, exit, iters);
        b.source(file, 31 + p as u32 * 10);
        emit_barrier(
            &mut b,
            &format!("bar{p}"),
            regs::SHARED,
            (p as i64) * 64,
            nthreads,
        );
    }
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new(name, program);
    image.set_time_dilation(BENIGN_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let barrier_area = image
        .layout_mut()
        .global_alloc(64 * phases.max(1) as u64, 64);
    for t in 0..opts.threads {
        let buf = heap_alloc(&mut image, 64, 64, "heap space");
        image.push_thread(
            ThreadSpec::new(format!("worker{t}"), "entry")
                .with_reg(regs::DATA, buf)
                .with_reg(regs::SHARED, barrier_area)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// A benign task-parallel kernel: mostly private work, with a shared
/// accumulator protected by a test-and-test-and-set lock taken once every
/// `lock_period` iterations. Models the light, correctly-synchronized sharing
/// of ferret/canneal-style codes.
pub fn locked_accumulator(
    name: &str,
    file: &str,
    opts: &BuildOptions,
    base_iters: u64,
    lock_period: u64,
    compute_ops: usize,
) -> WorkloadImage {
    let iters = scaled_iters(base_iters, opts);
    let mut b = ProgramBuilder::new(name);
    b.source(file, 8);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "main");
    b.source(file, 40);
    b.load(regs::VAL, regs::DATA, 0, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 0, 8);
    b.nops(compute_ops);
    // if (iv % lock_period == 0) { lock; shared_sum += 1; unlock; }
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(lock_period.max(1)),
    );
    b.cmp_eq(regs::COND, regs::SCRATCH_A, Operand::Imm(0));
    let lock_path = b.block("lock_path");
    let join = b.block("join");
    b.branch(regs::COND, lock_path, join);
    b.switch_to(lock_path);
    b.source(file, 50);
    emit_lock_acquire(&mut b, "acc", regs::SHARED, 0, false);
    b.load(regs::VAL, regs::SHARED, 64, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::SHARED, 64, 8);
    emit_lock_release(&mut b, regs::SHARED, 0);
    b.jump(join);
    b.switch_to(join);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new(name, program);
    image.set_time_dilation(BENIGN_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    // Lock on its own line at +0, accumulator on the next line at +64.
    let shared = image.layout_mut().global_alloc(128, 64);
    for t in 0..opts.threads {
        let buf = heap_alloc(&mut image, 64, 64, "heap space");
        image.push_thread(
            ThreadSpec::new(format!("worker{t}"), "entry")
                .with_reg(regs::DATA, buf)
                .with_reg(regs::SHARED, shared)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_machine::{Machine, MachineConfig};

    fn opts() -> BuildOptions {
        BuildOptions {
            scale: 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn scaled_iters_has_floor() {
        assert_eq!(scaled_iters(1000, &BuildOptions::default()), 1000);
        assert_eq!(scaled_iters(1000, &BuildOptions::scaled(0.5)), 500);
        assert_eq!(scaled_iters(10, &BuildOptions::scaled(0.0001)), 8);
    }

    #[test]
    #[should_panic(expected = "a buffer past the heap's end")]
    fn a_heap_allocation_that_does_not_fit_panics_naming_it() {
        let mut image = private_compute("pc", "pc.c", &opts(), 500, 4, 4);
        heap_alloc(&mut image, 1 << 40, 64, "a buffer past the heap's end");
    }

    #[test]
    fn private_compute_runs_without_hitms() {
        let image = private_compute("pc", "pc.c", &opts(), 500, 4, 4);
        let mut m = Machine::new(MachineConfig::default(), &image);
        let r = m.run_to_completion().unwrap();
        assert_eq!(r.stats.hitm_events, 0);
        assert!(r.stats.instructions > 1000);
    }

    #[test]
    fn barrier_phased_synchronizes_all_threads() {
        let image = barrier_phased("bp", "bp.c", &opts(), 3, 200, 2);
        let mut m = Machine::new(MachineConfig::default(), &image);
        let r = m.run_to_completion().unwrap();
        // Some benign true sharing on the barrier counters, but little.
        assert!(r.stats.atomics >= 3 * 4);
        assert!(r.stats.hitm_events < r.stats.instructions / 20);
    }

    #[test]
    fn locked_accumulator_is_mutually_exclusive() {
        let image = locked_accumulator("la", "la.c", &opts(), 400, 16, 2);
        let mut m = Machine::new(MachineConfig::default(), &image);
        m.run_to_completion().unwrap();
        // The shared accumulator (at shared+64) holds exactly the number of
        // lock-protected increments: ceil(iters / 16) per thread.
        let iters = scaled_iters(400, &opts());
        let expected: u64 = 4 * iters.div_ceil(16);
        let shared_base = laser_machine::image::GLOBALS_START;
        assert_eq!(m.read_u64(shared_base + 64), expected);
    }
}
