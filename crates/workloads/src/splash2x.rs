//! The Splash2x workloads.
//!
//! `lu_ncb` carries the new false-sharing bug LASER found on its main matrix,
//! and `volrend` the true sharing on the global queue-counter lock; the rest
//! are benign barrier- or lock-structured kernels.

use laser_isa::inst::Operand;
use laser_isa::ProgramBuilder;
use laser_machine::{ThreadSpec, WorkloadImage};

use crate::common::{
    barrier_phased, close_loop, emit_lock_acquire, emit_lock_release, locked_accumulator,
    open_loop, private_compute, regs, scaled_iters, INTENSE_DILATION, MILD_DILATION,
};
use crate::spec::{BugKind, BuildOptions, KnownBug, SheriffCompat, Suite, WorkloadSpec};

/// All Splash2x workload specifications.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "barnes",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("barnes", "barnes.c", o, 3, 650, 7),
        },
        WorkloadSpec {
            name: "fft",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("fft", "fft.c", o, 2, 900, 6),
        },
        WorkloadSpec {
            name: "fmm",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("fmm", "fmm.c", o, 3, 700, 8),
        },
        WorkloadSpec {
            name: "lu_cb",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| barrier_phased("lu_cb", "lu_cb.c", o, 3, 750, 6),
        },
        WorkloadSpec {
            name: "lu_ncb",
            suite: Suite::Splash2x,
            known_bugs: vec![KnownBug::new(
                "lu_ncb.c",
                &[140],
                BugKind::FalseSharing,
                "the non-contiguous-block layout of the `a` matrix places different threads' \
                 boundary elements in the same cache line",
            )],
            sheriff: SheriffCompat::Works,
            has_fix: true,
            build_fn: lu_ncb,
        },
        WorkloadSpec {
            name: "ocean_cp",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("ocean_cp", "ocean_cp.c", o, 4, 550, 5),
        },
        WorkloadSpec {
            name: "ocean_ncp",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| barrier_phased("ocean_ncp", "ocean_ncp.c", o, 4, 550, 5),
        },
        WorkloadSpec {
            name: "radiosity",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: false,
            build_fn: |o| locked_accumulator("radiosity", "radiosity.c", o, 2000, 72, 7),
        },
        WorkloadSpec {
            name: "radix",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| barrier_phased("radix", "radix.c", o, 2, 800, 4),
        },
        WorkloadSpec {
            name: "raytrace.splash2x",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| {
                locked_accumulator("raytrace.splash2x", "raytrace_splash.c", o, 2100, 64, 9)
            },
        },
        WorkloadSpec {
            name: "volrend",
            suite: Suite::Splash2x,
            known_bugs: vec![KnownBug::new(
                "volrend.c",
                &[210],
                BugKind::TrueSharing,
                "the lock protecting the Global->Queue counter is taken by every thread for \
                 every work item",
            )],
            sheriff: SheriffCompat::Crash,
            has_fix: true,
            build_fn: volrend,
        },
        WorkloadSpec {
            name: "water_nsquared",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: water_nsquared,
        },
        WorkloadSpec {
            name: "water_spatial",
            suite: Suite::Splash2x,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| private_compute("water_spatial", "water_spatial.c", o, 2400, 9, 16),
        },
    ]
}

/// `lu_ncb`: each thread factorises a column block of the shared `a` matrix.
/// The non-contiguous-block layout packs the blocks back to back, so the last
/// line of thread *t*'s block is the first line of thread *t+1*'s. The manual
/// fix (and, coincidentally, the layout shift LASER's presence causes —
/// modelled by `layout_perturbation`) aligns each block to a cache line.
fn lu_ncb(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(2200, opts);
    let file = "lu_ncb.c";
    let mut b = ProgramBuilder::new("lu_ncb");
    b.source(file, 130);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "daxpy");
    // Update a rotating element of this thread's block; the first element sits
    // on the line shared with the previous thread's block.
    b.source(file, 140);
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(6),
    );
    b.alu(
        laser_isa::AluOp::Mul,
        regs::SCRATCH_A,
        regs::SCRATCH_A,
        Operand::Imm(8),
    );
    b.add(regs::SCRATCH_A, regs::SCRATCH_A, Operand::Reg(regs::DATA));
    b.mem_add(regs::SCRATCH_A, 0, Operand::Imm(3), 8);
    b.source(file, 150);
    b.nops(5);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("lu_ncb", program);
    image.set_time_dilation(INTENSE_DILATION);
    // Either the manual fix or the incidental layout shift caused by running
    // under a tool aligns each thread's block to its own cache lines.
    let aligned = opts.fixed || opts.layout_perturbation > 0;
    let block_bytes: u64 = 48; // 6 elements of 8 bytes
    if aligned {
        for t in 0..opts.threads {
            #[expect(
                clippy::expect_used,
                reason = "workload images size their heaps to fit; allocation failure is a builder bug"
            )]
            let block = image.layout_mut().heap_alloc(64, 64).expect("a block");
            image.push_thread(
                ThreadSpec::new(format!("lu{t}"), "entry")
                    .with_reg(regs::DATA, block)
                    .with_reg(regs::TID, t as u64),
            );
        }
    } else {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let a = image
            .layout_mut()
            .heap_alloc(block_bytes * opts.threads as u64 + 64, 1)
            .expect("a matrix");
        for t in 0..opts.threads {
            image.push_thread(
                ThreadSpec::new(format!("lu{t}"), "entry")
                    .with_reg(regs::DATA, a + block_bytes * t as u64)
                    .with_reg(regs::TID, t as u64),
            );
        }
    }
    image
}

/// `volrend`: every work item bumps the `Global->Queue` counter under a naive
/// spin lock. The fixed variant batches the increments with a single atomic
/// every eight items, which cuts the HITM rate by an order of magnitude but —
/// as the paper observes — does not change runtime meaningfully.
fn volrend(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(1700, opts);
    let file = "volrend.c";
    let mut b = ProgramBuilder::new("volrend");
    b.source(file, 200);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "rays");
    // Private ray work.
    b.source(file, 205);
    b.load(regs::VAL, regs::DATA, 0, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 0, 8);
    b.nops(6);
    if opts.fixed {
        // Batched atomic increment: once every 8 rays.
        b.alu(
            laser_isa::AluOp::Rem,
            regs::SCRATCH_A,
            regs::IV,
            Operand::Imm(8),
        );
        b.cmp_eq(regs::COND, regs::SCRATCH_A, Operand::Imm(0));
        let bump = b.block("bump");
        let join = b.block("join");
        b.branch(regs::COND, bump, join);
        b.switch_to(bump);
        b.source(file, 215);
        b.atomic_fetch_add(regs::SCRATCH_A, regs::SHARED, 64, Operand::Imm(8), 8);
        b.jump(join);
        b.switch_to(join);
    } else {
        b.source(file, 210);
        emit_lock_acquire(&mut b, "queue", regs::SHARED, 0, true);
        b.mem_add(regs::SHARED, 64, Operand::Imm(1), 8);
        emit_lock_release(&mut b, regs::SHARED, 0);
    }
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("volrend", program);
    image.set_time_dilation(MILD_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let queue = image.layout_mut().global_alloc(128, 64);
    for t in 0..opts.threads {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let buf = image.layout_mut().heap_alloc(64, 64).expect("ray buffer");
        image.push_thread(
            ThreadSpec::new(format!("vol{t}"), "entry")
                .with_reg(regs::DATA, buf)
                .with_reg(regs::SHARED, queue)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// `water_nsquared`: mostly private molecular updates with an occasional
/// lock-protected global accumulation; synchronization-heavy enough that the
/// Sheriff execution model (which pays at every lock) slows it dramatically,
/// while LASER does not.
fn water_nsquared(opts: &BuildOptions) -> WorkloadImage {
    locked_accumulator("water_nsquared", "water_nsquared.c", opts, 2600, 12, 4)
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
    fn lu_ncb_false_shares_until_aligned() {
        let buggy = run(&lu_ncb(&small()));
        assert!(
            buggy.stats.hitm_events > 300,
            "hitms {}",
            buggy.stats.hitm_events
        );
        let fixed = run(&lu_ncb(&BuildOptions {
            fixed: true,
            ..small()
        }));
        assert!(fixed.stats.hitm_events < buggy.stats.hitm_events / 10);
        assert!(fixed.cycles < buggy.cycles);
        // The incidental layout shift from running under a tool has the same
        // effect as the manual fix (the paper's 30% observation).
        let perturbed = run(&lu_ncb(&BuildOptions {
            layout_perturbation: 32,
            ..small()
        }));
        assert!(perturbed.stats.hitm_events < buggy.stats.hitm_events / 10);
    }

    #[test]
    fn volrend_lock_contends_and_batching_reduces_hitms() {
        let buggy = run(&volrend(&small()));
        let fixed = run(&volrend(&BuildOptions {
            fixed: true,
            ..small()
        }));
        assert!(buggy.stats.hitm_events > 200);
        assert!(fixed.stats.hitm_events < buggy.stats.hitm_events / 4);
    }

    #[test]
    fn water_nsquared_synchronizes_frequently() {
        let r = run(&water_nsquared(&small()));
        assert!(r.stats.atomics > 100, "locks should be taken often");
    }

    #[test]
    fn splash2x_registry_entries_build() {
        for spec in all() {
            let image = spec.build(&BuildOptions::scaled(0.05));
            assert!(!image.threads().is_empty(), "{}", spec.name);
        }
    }
}
