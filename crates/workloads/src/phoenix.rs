//! The Phoenix 1.0 workloads (paper Section 7, Table 1).
//!
//! Phoenix contributes the paper's two headline false-sharing cases
//! (`linear_regression` and the alternative-input `histogram'`), the
//! true-sharing-rich `kmeans`, and the mild `reverse_index` / `word_count`
//! cases, plus three contention-free kernels.

use laser_isa::inst::Operand;
use laser_isa::ProgramBuilder;
use laser_machine::{ThreadSpec, WorkloadImage};

use crate::common::{
    self, close_loop, open_loop, private_compute, regs, scaled_iters, INTENSE_DILATION,
    MILD_DILATION,
};
use crate::spec::{BugKind, BuildOptions, KnownBug, SheriffCompat, Suite, WorkloadSpec};

/// All Phoenix workload specifications (including the `histogram'`
/// alternative-input configuration).
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "histogram",
            suite: Suite::Phoenix,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| histogram(o, false),
        },
        WorkloadSpec {
            name: "histogram'",
            suite: Suite::Phoenix,
            known_bugs: vec![KnownBug::new(
                "histogram.c",
                &[52, 53],
                BugKind::FalseSharing,
                "per-thread bucket counters of different threads packed into one cache line",
            )],
            sheriff: SheriffCompat::Works,
            has_fix: true,
            build_fn: |o| histogram(o, true),
        },
        WorkloadSpec {
            name: "kmeans",
            suite: Suite::Phoenix,
            known_bugs: vec![KnownBug::new(
                "kmeans.c",
                &[60, 70],
                BugKind::FalseSharing,
                "migratory contention on main-thread-allocated sum objects and the global \
                 `modified` flag written redundantly by every thread",
            )],
            sheriff: SheriffCompat::Works,
            has_fix: true,
            build_fn: kmeans,
        },
        WorkloadSpec {
            name: "linear_regression",
            suite: Suite::Phoenix,
            known_bugs: vec![KnownBug::new(
                "linear_regression.c",
                &[45, 46, 47],
                BugKind::FalseSharing,
                "per-thread lreg_args structs straddle cache lines because the allocator does \
                 not 64-byte-align the array (Figure 2)",
            )],
            sheriff: SheriffCompat::Works,
            has_fix: true,
            build_fn: linear_regression,
        },
        WorkloadSpec {
            name: "matrix_multiply",
            suite: Suite::Phoenix,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| private_compute("matrix_multiply", "matrix_multiply.c", o, 2200, 6, 16),
        },
        WorkloadSpec {
            name: "pca",
            suite: Suite::Phoenix,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| private_compute("pca", "pca.c", o, 2600, 8, 32),
        },
        WorkloadSpec {
            name: "reverse_index",
            suite: Suite::Phoenix,
            known_bugs: vec![KnownBug::new(
                "reverse_index.c",
                &[88],
                BugKind::FalseSharing,
                "the per-thread use_len[] counters share a cache line",
            )],
            sheriff: SheriffCompat::Works,
            has_fix: true,
            build_fn: |o| {
                packed_counter_kernel("reverse_index", "reverse_index.c", 88, o, 1800, 10, 6)
            },
        },
        WorkloadSpec {
            name: "string_match",
            suite: Suite::Phoenix,
            known_bugs: vec![],
            sheriff: SheriffCompat::Works,
            has_fix: false,
            build_fn: |o| private_compute("string_match", "string_match.c", o, 3000, 10, 8),
        },
        WorkloadSpec {
            name: "word_count",
            suite: Suite::Phoenix,
            known_bugs: vec![],
            sheriff: SheriffCompat::Crash,
            has_fix: true,
            build_fn: |o| packed_counter_kernel("word_count", "word_count.c", 71, o, 1500, 10, 10),
        },
    ]
}

/// `linear_regression`: each thread owns a 64-byte `lreg_args` struct, but the
/// array of structs is not cache-line aligned, so every struct straddles two
/// lines and neighbouring threads contend. At -O3 the accumulators live in
/// registers and are *stored* back every iteration, producing the write-write
/// sharing the paper describes (which is also why the HITM records are too
/// imprecise for LASER to name the contention type).
fn linear_regression(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(2500, opts);
    let file = "linear_regression.c";
    let mut b = ProgramBuilder::new("linear_regression");
    b.source(file, 40);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "points");
    // Read the next point from the thread-private points array (no sharing).
    b.source(file, 43);
    b.load(regs::VAL, regs::DATA2, 0, 8);
    b.add(regs::VAL, regs::VAL, Operand::Reg(regs::IV));
    // Store the five accumulator fields SX, SY, SXX, SYY, SXY (struct offsets
    // 24..64). The struct base (regs::DATA) is not line-aligned, so some of
    // these land in the neighbouring thread's line.
    b.source(file, 45);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 24, 8);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 32, 8);
    b.source(file, 46);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 40, 8);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 48, 8);
    b.source(file, 47);
    b.store(Operand::Reg(regs::VAL), regs::DATA, 56, 8);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("linear_regression", program);
    image.set_time_dilation(INTENSE_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    // One malloc for the whole args array. The fixed variant aligns it to a
    // cache line (the 17x manual fix); the default layout leaves it offset by
    // the allocator's chunk header, as in Figure 2.
    let struct_size = 64u64;
    let align = if opts.fixed { 64 } else { 1 };
    #[expect(
        clippy::expect_used,
        reason = "workload images size their heaps to fit; allocation failure is a builder bug"
    )]
    let args_array = image
        .layout_mut()
        .heap_alloc(struct_size * opts.threads as u64, align)
        .expect("args array");
    for t in 0..opts.threads {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let points = image.layout_mut().heap_alloc(512, 64).expect("points");
        image.push_thread(
            ThreadSpec::new(format!("lreg{t}"), "entry")
                .with_reg(regs::DATA, args_array + t as u64 * struct_size)
                .with_reg(regs::DATA2, points)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// `histogram` / `histogram'`: every thread increments private bucket
/// counters with memory-destination adds. With the default input the
/// per-thread buckets sit on separate cache lines; the alternative input
/// (`histogram'`) packs all threads' hot buckets into one line.
fn histogram(opts: &BuildOptions, alternative_input: bool) -> WorkloadImage {
    let iters = scaled_iters(2800, opts);
    let file = "histogram.c";
    let buckets_per_thread = 4u64;
    let mut b = ProgramBuilder::new("histogram");
    b.source(file, 50);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "pixels");
    // bucket = iv % buckets_per_thread; counters[bucket]++
    b.source(file, 52);
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(buckets_per_thread),
    );
    b.alu(
        laser_isa::AluOp::Mul,
        regs::SCRATCH_A,
        regs::SCRATCH_A,
        Operand::Imm(8),
    );
    b.add(regs::SCRATCH_A, regs::SCRATCH_A, Operand::Reg(regs::DATA));
    b.source(file, 53);
    b.mem_add(regs::SCRATCH_A, 0, Operand::Imm(1), 8);
    b.source(file, 55);
    b.nops(2);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new(
        if alternative_input {
            "histogram'"
        } else {
            "histogram"
        },
        program,
    );
    image.set_time_dilation(if alternative_input {
        INTENSE_DILATION
    } else {
        common::BENIGN_DILATION
    });
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let per_thread_bytes = buckets_per_thread * 8;
    if alternative_input && !opts.fixed {
        // All threads' counters in one packed allocation: 32 bytes per
        // thread, two threads per 64-byte line.
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let packed = image
            .layout_mut()
            .heap_alloc(per_thread_bytes * opts.threads as u64, 1)
            .expect("packed counters");
        for t in 0..opts.threads {
            image.push_thread(
                ThreadSpec::new(format!("hist{t}"), "entry")
                    .with_reg(regs::DATA, packed + t as u64 * per_thread_bytes)
                    .with_reg(regs::TID, t as u64),
            );
        }
    } else {
        // Default input / fixed variant: each thread's counters on their own
        // cache line.
        for t in 0..opts.threads {
            #[expect(
                clippy::expect_used,
                reason = "workload images size their heaps to fit; allocation failure is a builder bug"
            )]
            let buf = image.layout_mut().heap_alloc(64, 64).expect("counters");
            image.push_thread(
                ThreadSpec::new(format!("hist{t}"), "entry")
                    .with_reg(regs::DATA, buf)
                    .with_reg(regs::TID, t as u64),
            );
        }
    }
    image
}

/// `kmeans`: worker threads accumulate into per-cluster "sum" objects that the
/// main thread allocated back-to-back on the heap (migratory read-write
/// sharing that also false-shares across neighbouring objects) and redundantly
/// set the global `modified` flag every iteration (true sharing). The manual
/// fix batches the flag update and gives each thread stack-local sums.
fn kmeans(opts: &BuildOptions) -> WorkloadImage {
    let iters = scaled_iters(2200, opts);
    let file = "kmeans.c";
    let clusters = 8u64;
    let mut b = ProgramBuilder::new("kmeans");
    b.source(file, 55);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "points");
    // sum_obj = sums[(iv + tid) % clusters]; sum_obj->total += iv
    b.source(file, 60);
    b.add(regs::SCRATCH_A, regs::IV, Operand::Reg(regs::TID));
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::SCRATCH_A,
        Operand::Imm(clusters),
    );
    b.alu(
        laser_isa::AluOp::Mul,
        regs::SCRATCH_A,
        regs::SCRATCH_A,
        Operand::Imm(32),
    );
    b.add(regs::SCRATCH_A, regs::SCRATCH_A, Operand::Reg(regs::DATA));
    b.mem_add(regs::SCRATCH_A, 0, Operand::Imm(1), 8);
    if opts.fixed {
        // Fixed variant: the `modified` flag is cached in a register and only
        // written once per outer pass (modelled as once every 64 iterations),
        // and the sums above are thread-local stack objects.
        b.source(file, 72);
        b.alu(
            laser_isa::AluOp::Rem,
            regs::SCRATCH_A,
            regs::IV,
            Operand::Imm(64),
        );
        b.cmp_eq(regs::COND, regs::SCRATCH_A, Operand::Imm(0));
        let flag_blk = b.block("flag");
        let join = b.block("flag_join");
        b.branch(regs::COND, flag_blk, join);
        b.switch_to(flag_blk);
        b.store(Operand::Imm(1), regs::SHARED, 0, 8);
        b.jump(join);
        b.switch_to(join);
    } else {
        // Redundant write of the global flag every iteration (true sharing).
        b.source(file, 70);
        b.mem_add(regs::SHARED, 0, Operand::Imm(0), 8);
    }
    b.source(file, 75);
    b.nops(3);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new("kmeans", program);
    image.set_time_dilation(INTENSE_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let modified_flag = image.layout_mut().global_alloc(8, 8);
    for t in 0..opts.threads {
        // Each worker gets its own run of sum objects; in the buggy variant
        // they are packed 32-byte heap objects (allocated by the main thread),
        // in the fixed variant they are cache-line-aligned "stack" objects.
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let sums = if opts.fixed {
            image
                .layout_mut()
                .heap_alloc(clusters * 64, 64)
                .expect("sums")
        } else {
            image
                .layout_mut()
                .heap_alloc(clusters * 32, 1)
                .expect("sums")
        };
        image.push_thread(
            ThreadSpec::new(format!("kmeans{t}"), "entry")
                .with_reg(regs::DATA, sums)
                .with_reg(regs::SHARED, modified_flag)
                .with_reg(regs::TID, t as u64),
        );
    }
    image
}

/// A mild packed-counter kernel used for `reverse_index` and `word_count`:
/// each thread bumps its own slot of a shared, unpadded array every
/// `update_period` iterations. Clearly detectable false sharing, but not
/// intense enough to be worth automatic repair (the paper reports a 4 % /
/// no-op speedup from padding).
fn packed_counter_kernel(
    name: &'static str,
    file: &'static str,
    bug_line: u32,
    opts: &BuildOptions,
    base_iters: u64,
    update_period: u64,
    compute_ops: usize,
) -> WorkloadImage {
    let iters = scaled_iters(base_iters, opts);
    let mut b = ProgramBuilder::new(name);
    b.source(file, 10);
    let entry = b.block("entry");
    b.switch_to(entry);
    let (body, exit) = open_loop(&mut b, "main");
    b.source(file, 20);
    b.load(regs::VAL, regs::DATA2, 0, 8);
    b.addi(regs::VAL, regs::VAL, 1);
    b.store(Operand::Reg(regs::VAL), regs::DATA2, 0, 8);
    b.nops(compute_ops);
    // if (iv % update_period == 0) use_len[tid]++
    b.alu(
        laser_isa::AluOp::Rem,
        regs::SCRATCH_A,
        regs::IV,
        Operand::Imm(update_period.max(1)),
    );
    b.cmp_eq(regs::COND, regs::SCRATCH_A, Operand::Imm(0));
    let bump = b.block("bump");
    let join = b.block("join");
    b.branch(regs::COND, bump, join);
    b.switch_to(bump);
    b.source(file, bug_line);
    b.mem_add(regs::DATA, 0, Operand::Imm(1), 8);
    // The real benchmarks merge into the global index under a lock from time
    // to time; the occasional atomic also gives Sheriff-Detect's twin
    // comparison a synchronization point to sample at.
    b.source(file, bug_line + 30);
    b.atomic_fetch_add(regs::SCRATCH_A, regs::SHARED, 0, Operand::Imm(1), 8);
    b.jump(join);
    b.switch_to(join);
    close_loop(&mut b, body, exit, iters);
    b.halt();
    let program = b.finish();

    let mut image = WorkloadImage::new(name, program);
    image.set_time_dilation(MILD_DILATION);
    if opts.layout_perturbation > 0 {
        image.layout_mut().perturb_heap(opts.layout_perturbation);
    }
    let merge_counter = image.layout_mut().global_alloc(64, 64);
    if opts.fixed {
        // Manual fix: pad each counter to its own cache line.
        for t in 0..opts.threads {
            #[expect(
                clippy::expect_used,
                reason = "workload images size their heaps to fit; allocation failure is a builder bug"
            )]
            let slot = image.layout_mut().heap_alloc(64, 64).expect("use_len");
            #[expect(
                clippy::expect_used,
                reason = "workload images size their heaps to fit; allocation failure is a builder bug"
            )]
            let private = image.layout_mut().heap_alloc(64, 64).expect("private");
            image.push_thread(
                ThreadSpec::new(format!("{name}{t}"), "entry")
                    .with_reg(regs::DATA, slot)
                    .with_reg(regs::DATA2, private)
                    .with_reg(regs::SHARED, merge_counter)
                    .with_reg(regs::TID, t as u64),
            );
        }
    } else {
        #[expect(
            clippy::expect_used,
            reason = "workload images size their heaps to fit; allocation failure is a builder bug"
        )]
        let use_len = image
            .layout_mut()
            .heap_alloc(8 * opts.threads as u64, 1)
            .expect("use_len array");
        for t in 0..opts.threads {
            #[expect(
                clippy::expect_used,
                reason = "workload images size their heaps to fit; allocation failure is a builder bug"
            )]
            let private = image.layout_mut().heap_alloc(64, 64).expect("private");
            image.push_thread(
                ThreadSpec::new(format!("{name}{t}"), "entry")
                    .with_reg(regs::DATA, use_len + 8 * t as u64)
                    .with_reg(regs::DATA2, private)
                    .with_reg(regs::SHARED, merge_counter)
                    .with_reg(regs::TID, t as u64),
            );
        }
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
    fn linear_regression_false_shares_and_fix_removes_it() {
        let buggy = run(&linear_regression(&small()));
        assert!(
            buggy.stats.hitm_events > 500,
            "hitms {}",
            buggy.stats.hitm_events
        );
        let fixed = run(&linear_regression(&BuildOptions {
            fixed: true,
            ..small()
        }));
        assert!(fixed.stats.hitm_events < buggy.stats.hitm_events / 20);
        assert!(
            fixed.cycles < buggy.cycles / 2,
            "fix should give a large speedup"
        );
    }

    #[test]
    fn histogram_default_input_is_clean_but_alternative_contends() {
        let default_input = run(&histogram(&small(), false));
        assert_eq!(default_input.stats.hitm_events, 0);
        let alt = run(&histogram(&small(), true));
        assert!(alt.stats.hitm_events > 300);
        let alt_fixed = run(&histogram(
            &BuildOptions {
                fixed: true,
                ..small()
            },
            true,
        ));
        assert!(alt_fixed.stats.hitm_events < alt.stats.hitm_events / 20);
    }

    #[test]
    fn kmeans_has_true_sharing_and_fix_reduces_it() {
        let buggy = run(&kmeans(&small()));
        assert!(buggy.stats.hitm_events > 500);
        let fixed = run(&kmeans(&BuildOptions {
            fixed: true,
            ..small()
        }));
        assert!(fixed.stats.hitm_events < buggy.stats.hitm_events / 2);
        assert!(fixed.cycles < buggy.cycles);
    }

    #[test]
    fn reverse_index_contention_is_mild() {
        let o = small();
        let buggy = run(&packed_counter_kernel(
            "reverse_index",
            "reverse_index.c",
            88,
            &o,
            1800,
            6,
            6,
        ));
        let fixed = run(&packed_counter_kernel(
            "reverse_index",
            "reverse_index.c",
            88,
            &BuildOptions { fixed: true, ..o },
            1800,
            6,
            6,
        ));
        assert!(buggy.stats.hitm_events > 50);
        // Padding removes the use_len false sharing; the (legitimate) merge
        // counter contention present in both variants remains.
        assert!(fixed.stats.hitm_events * 4 < buggy.stats.hitm_events * 3);
        // Mild: the fix helps, but by much less than linear_regression's.
        let speedup = buggy.cycles as f64 / fixed.cycles as f64;
        assert!(speedup > 0.95 && speedup < 2.0, "speedup {speedup}");
    }

    #[test]
    fn phoenix_registry_entries_build() {
        for spec in all() {
            let image = spec.build(&BuildOptions::scaled(0.05));
            assert_eq!(image.threads().len(), 4, "{}", spec.name);
        }
    }
}
