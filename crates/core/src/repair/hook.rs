//! The SSB instrumentation hook — LASERREPAIR's Pintool (paper Section 6).
//!
//! [`SsbHook`] implements the machine's [`ExecHook`] interface and applies a
//! [`RepairPlan`] online: instrumented stores are diverted into the executing
//! core's [`SoftwareStoreBuffer`], instrumented loads consult the buffer, and
//! the buffer is flushed — atomically, inside a hardware transaction — at the
//! plan's flush blocks, at fences/atomics, at thread exit, and pre-emptively
//! when it outgrows the transaction capacity.

use laser_isa::program::{BlockId, Pc, INST_BYTES};
use laser_machine::htm::HtmOutcome;
use laser_machine::{ExecHook, HookAction, HookCtx, Machine, MemAccessKind, MemOp};

use super::plan::RepairPlan;
use super::ssb::{SoftwareStoreBuffer, SsbLookup};

/// Per-operation instrumentation costs in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbCosts {
    /// Cost of buffering one store.
    pub store: u64,
    /// Cost of an SSB lookup on a load.
    pub load: u64,
    /// Cost of a speculative-alias runtime check.
    pub alias_check: u64,
    /// Fixed cost of initiating a flush (on top of the transaction and the
    /// writes themselves).
    pub flush_base: u64,
}

impl Default for SsbCosts {
    fn default() -> Self {
        SsbCosts {
            store: 6,
            load: 6,
            alias_check: 2,
            flush_base: 12,
        }
    }
}

/// Counters describing what the instrumentation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsbStats {
    /// Stores diverted into the SSB.
    pub buffered_stores: u64,
    /// Loads fully satisfied from the SSB.
    pub ssb_load_hits: u64,
    /// Instrumented loads that fell through to shared memory.
    pub ssb_load_misses: u64,
    /// Speculative-alias checks executed.
    pub speculative_checks: u64,
    /// Speculative loads that actually aliased a buffered store (forcing a
    /// flush).
    pub misspeculations: u64,
    /// Flush operations executed.
    pub flushes: u64,
    /// Flushes that committed inside a hardware transaction.
    pub htm_flushes: u64,
    /// Flushes that fell back to a fenced, non-transactional path.
    pub fallback_flushes: u64,
    /// Pre-emptive flushes triggered by the buffer outgrowing the transaction
    /// capacity.
    pub preemptive_flushes: u64,
}

/// Number of SSB entries beyond which a pre-emptive flush is inserted (the L1
/// associativity of the paper's machine).
pub const PREEMPTIVE_FLUSH_ENTRIES: usize = 8;

/// [`PcClasses`] bit: the PC is in [`RepairPlan::ssb_stores`].
const SSB_STORE: u8 = 1;
/// [`PcClasses`] bit: the PC is in [`RepairPlan::ssb_loads`].
const SSB_LOAD: u8 = 2;
/// [`PcClasses`] bit: the PC is in [`RepairPlan::speculative_loads`].
const SPECULATIVE_LOAD: u8 = 4;

/// What the plan says about every PC, as one byte of membership bits per
/// instruction slot over the hull of the plan's three PC sets: the hook
/// classifies a memory operation by indexing instead of walking the sets.
/// (A read-modify-write PC is both a store and a load.)
#[derive(Debug)]
struct PcClasses {
    /// PC of `classes[0]`; `classes[i]` is the instruction at
    /// `base + i * INST_BYTES`.
    base: Pc,
    classes: Vec<u8>,
}

impl PcClasses {
    fn of(plan: &RepairPlan) -> Self {
        let sets = [
            (&plan.ssb_stores, SSB_STORE),
            (&plan.ssb_loads, SSB_LOAD),
            (&plan.speculative_loads, SPECULATIVE_LOAD),
        ];
        let base = sets.iter().filter_map(|(set, _)| set.first()).min();
        let last = sets.iter().filter_map(|(set, _)| set.last()).max();
        let (Some(&base), Some(&last)) = (base, last) else {
            return PcClasses {
                base: 0,
                classes: Vec::new(),
            };
        };
        let mut classes = vec![0u8; ((last - base) / INST_BYTES) as usize + 1];
        for (set, bit) in sets {
            for pc in set {
                debug_assert!((pc - base).is_multiple_of(INST_BYTES));
                classes[((pc - base) / INST_BYTES) as usize] |= bit;
            }
        }
        PcClasses { base, classes }
    }

    /// The membership bits of `pc`; 0 for a PC outside the table or between
    /// two instruction slots.
    #[inline]
    fn of_pc(&self, pc: Pc) -> u8 {
        let offset = pc.wrapping_sub(self.base);
        if !offset.is_multiple_of(INST_BYTES) {
            return 0;
        }
        usize::try_from(offset / INST_BYTES)
            .ok()
            .and_then(|slot| self.classes.get(slot))
            .copied()
            .unwrap_or(0)
    }
}

/// The online-repair instrumentation tool.
///
/// The hook owns its statistics outright (no `Rc<RefCell<..>>` sharing), so a
/// machine carrying it remains `Send`; the system reads the final counters
/// back through [`ExecHook::as_any`] downcasting once the run finishes.
pub struct SsbHook {
    plan: RepairPlan,
    classes: PcClasses,
    costs: SsbCosts,
    buffers: Vec<SoftwareStoreBuffer>,
    stats: SsbStats,
}

impl std::fmt::Debug for SsbHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsbHook")
            .field("instrumented_blocks", &self.plan.instrumented_blocks.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SsbHook {
    /// Create the hook for `num_cores` cores, applying `plan`.
    pub fn new(plan: RepairPlan, num_cores: usize) -> Self {
        SsbHook::with_costs(plan, num_cores, SsbCosts::default())
    }

    /// Create the hook with explicit instrumentation costs.
    pub fn with_costs(plan: RepairPlan, num_cores: usize, costs: SsbCosts) -> Self {
        SsbHook {
            classes: PcClasses::of(&plan),
            plan,
            costs,
            buffers: (0..num_cores).map(|_| SoftwareStoreBuffer::new()).collect(),
            stats: SsbStats::default(),
        }
    }

    /// The `SsbHook` attached to `machine`, if that is what its hook is: how
    /// the counters are read while the machine owns the hook.
    pub fn attached_to(machine: &Machine) -> Option<&SsbHook> {
        machine.hook()?.as_any()?.downcast_ref()
    }

    /// The instrumentation counters so far.
    pub fn stats(&self) -> SsbStats {
        self.stats
    }

    /// The plan being applied.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    fn flush(&mut self, ctx: &mut HookCtx<'_>, pc: Pc) -> u64 {
        let core = ctx.core().0;
        if self.buffers[core].is_empty() {
            return 0;
        }
        let writes = self.buffers[core].drain_writes();
        self.stats.flushes += 1;
        let mut cycles = self.costs.flush_base;
        match ctx.htm_flush(pc, &writes) {
            HtmOutcome::Committed { cycles: c } => {
                self.stats.htm_flushes += 1;
                cycles += c;
            }
            HtmOutcome::CapacityAborted => {
                // Fall back to a fenced, write-at-a-time flush.
                self.stats.fallback_flushes += 1;
                for (addr, size, value) in &writes {
                    cycles += ctx.mem_write(pc, *addr, *size, *value);
                }
                cycles += ctx.latency().fence;
            }
        }
        cycles
    }
}

impl ExecHook for SsbHook {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// The cheapest serviced operation: a buffered store, an SSB load or an
    /// alias check that finds nothing. With every cost at least 1 the
    /// machine runs ahead between this hook's operations; a zero cost makes
    /// it dispatch per instruction.
    fn cost_floor(&self) -> u64 {
        let costs = self.costs;
        costs.store.min(costs.load).min(costs.alias_check)
    }

    /// Only the plan's flush blocks do anything on entry, and the plan does
    /// not change after construction.
    fn block_entry_is_inert(&self, block: BlockId) -> bool {
        !self.plan.flush_blocks.contains(&block)
    }

    fn on_mem_op(&mut self, ctx: &mut HookCtx<'_>, op: &MemOp) -> HookAction {
        let core = ctx.core().0;
        let class = self.classes.of_pc(op.pc);
        match op.kind {
            MemAccessKind::Store if class & SSB_STORE != 0 => {
                self.buffers[core].put(op.addr, op.size, op.store_value.unwrap_or(0));
                self.stats.buffered_stores += 1;
                let mut extra = self.costs.store;
                if self.buffers[core].len() > PREEMPTIVE_FLUSH_ENTRIES {
                    self.stats.preemptive_flushes += 1;
                    extra += self.flush(ctx, op.pc);
                }
                HookAction::Handled {
                    load_value: None,
                    extra_cycles: extra,
                }
            }
            MemAccessKind::Load if class & SSB_LOAD != 0 => {
                let mut extra = self.costs.load;
                let value = match self.buffers[core].lookup(op.addr, op.size) {
                    SsbLookup::Hit(v) => {
                        self.stats.ssb_load_hits += 1;
                        v
                    }
                    SsbLookup::Miss => {
                        self.stats.ssb_load_misses += 1;
                        let (v, c) = ctx.mem_read(op.pc, op.addr, op.size);
                        extra += c;
                        v
                    }
                    SsbLookup::Partial => {
                        self.stats.ssb_load_hits += 1;
                        let (mem, c) = ctx.mem_read(op.pc, op.addr, op.size);
                        extra += c;
                        self.buffers[core].merge(op.addr, op.size, mem)
                    }
                };
                HookAction::Handled {
                    load_value: Some(value),
                    extra_cycles: extra,
                }
            }
            MemAccessKind::Load if class & SPECULATIVE_LOAD != 0 => {
                // Runtime aliasing check: if the speculation fails (the load
                // address overlaps a buffered store) the SSB is flushed and the
                // load proceeds against memory.
                self.stats.speculative_checks += 1;
                let mut extra = self.costs.alias_check;
                if self.buffers[core].overlaps(op.addr, op.size) {
                    self.stats.misspeculations += 1;
                    extra += self.flush(ctx, op.pc);
                }
                let (v, c) = ctx.mem_read(op.pc, op.addr, op.size);
                HookAction::Handled {
                    load_value: Some(v),
                    extra_cycles: extra + c,
                }
            }
            _ => HookAction::Passthrough,
        }
    }

    fn on_fence(&mut self, ctx: &mut HookCtx<'_>, pc: Pc) -> u64 {
        self.flush(ctx, pc)
    }

    fn on_block_entry(&mut self, ctx: &mut HookCtx<'_>, block: BlockId) -> u64 {
        if self.plan.flush_blocks.contains(&block) {
            // Attribute the flush to the block's entry; the PC value is only
            // used for HITM attribution of the flush's own stores.
            self.flush(ctx, 0)
        } else {
            0
        }
    }

    fn on_thread_exit(&mut self, ctx: &mut HookCtx<'_>) -> u64 {
        self.flush(ctx, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::{MachineConfig, ThreadSpec, WorkloadImage};

    fn ssb_stats(m: &Machine) -> SsbStats {
        SsbHook::attached_to(m).expect("SsbHook attached").stats()
    }

    /// Two threads false-sharing one line through a counted loop. Returns the
    /// image, the contending store PC and the shared allocation's address.
    fn fs_image(iters: u64) -> (WorkloadImage, Pc, u64) {
        let mut b = ProgramBuilder::new("fs");
        b.source("fs.c", 7);
        let entry = b.block("entry");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.movi(Reg(2), 0);
        b.jump(body);
        b.switch_to(body);
        b.load(Reg(1), Reg(0), 0, 8);
        b.addi(Reg(1), Reg(1), 1);
        b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(iters));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let store_pc = program.pc_of(body, 2);
        let mut image = WorkloadImage::new("fs", program);
        let base = image.layout_mut().heap_alloc(64, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "entry").with_reg(Reg(0), base));
        image.push_thread(ThreadSpec::new("t1", "entry").with_reg(Reg(0), base + 8));
        (image, store_pc, base)
    }

    #[test]
    fn ssb_repair_removes_hitms_and_preserves_results() {
        let iters = 2000;
        let (image, store_pc, base) = fs_image(iters);

        // Native run for comparison.
        let mut native = Machine::new(MachineConfig::default(), &image);
        let native_result = native.run_to_completion().unwrap();
        assert!(native_result.stats.hitm_events > 1000);

        // Repaired run.
        let plan = RepairPlan::analyze(image.program(), &[store_pc], 4.0, 12).expect("plan exists");
        assert!(plan.profitable);
        let hook = SsbHook::new(plan, 4);
        let mut repaired = Machine::new(MachineConfig::default(), &image);
        repaired.attach_hook(Box::new(hook));
        let repaired_result = repaired.run_to_completion().unwrap();

        // The counters end with the same values (single-threaded semantics
        // preserved: each thread increments its own slot `iters` times).
        for t in 0..2u64 {
            let a = native.read_u64(base + t * 8);
            let b = repaired.read_u64(base + t * 8);
            assert_eq!(a, b, "memory mismatch at slot {t}");
            assert_eq!(a, iters);
        }

        // Contention is gone and the program is faster.
        assert!(repaired_result.stats.hitm_events < native_result.stats.hitm_events / 10);
        assert!(repaired_result.cycles < native_result.cycles);

        let s = ssb_stats(&repaired);
        assert!(s.buffered_stores >= 2 * iters);
        assert!(s.flushes >= 2);
        assert!(s.htm_flushes >= 1);
        assert!(s.ssb_load_hits > 0);
    }

    #[test]
    fn buffer_is_flushed_at_thread_exit() {
        // One thread, one buffered store, no loop: the final value must still
        // reach memory because the exit flush writes it back.
        let mut b = ProgramBuilder::new("once");
        b.source("once.c", 1);
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(body);
        b.store(Operand::Imm(42), Reg(0), 0, 8);
        b.jump(exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let store_pc = program.pc_of(body, 0);
        let mut image = WorkloadImage::new("once", program);
        let base = image.layout_mut().heap_alloc(8, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));

        let plan = RepairPlan::analyze(image.program(), &[store_pc], 0.0, 12).unwrap();
        let hook = SsbHook::new(plan, 4);
        let mut m = Machine::new(MachineConfig::default(), &image);
        m.attach_hook(Box::new(hook));
        m.run_to_completion().unwrap();
        assert_eq!(m.read_u64(base), 42);
        assert!(ssb_stats(&m).flushes >= 1);
    }

    #[test]
    fn preemptive_flush_bounds_buffer_growth() {
        // A thread storing to 32 different words before any flush point would
        // overflow the transaction capacity; pre-emptive flushes keep it legal.
        let mut b = ProgramBuilder::new("wide");
        b.source("wide.c", 1);
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(body);
        for i in 0..32 {
            b.store(Operand::Imm(i as u64 + 1), Reg(0), i * 64, 8);
        }
        b.jump(exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish();
        let pcs: Vec<Pc> = (0..32).map(|i| program.pc_of(body, i)).collect();
        let mut image = WorkloadImage::new("wide", program);
        let base = image.layout_mut().heap_alloc(64 * 33, 64).unwrap();
        image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));

        let plan = RepairPlan::analyze(image.program(), &pcs, 0.0, 12).unwrap();
        let hook = SsbHook::new(plan, 4);
        let mut m = Machine::new(MachineConfig::default(), &image);
        m.attach_hook(Box::new(hook));
        m.run_to_completion().unwrap();
        for i in 0..32u64 {
            assert_eq!(m.read_u64(base + i * 64), i + 1);
        }
        let s = ssb_stats(&m);
        assert!(s.preemptive_flushes > 0);
        // Every flush stayed within transaction capacity or fell back safely.
        assert_eq!(s.flushes, s.htm_flushes + s.fallback_flushes);
    }

    /// A load PC in both load sets is an SSB load: the alias check is for
    /// loads that may skip the buffer, and this one must not.
    #[test]
    fn a_load_in_both_load_sets_consults_the_ssb() {
        let (image, store_pc, _) = fs_image(200);
        let mut plan = RepairPlan::analyze(image.program(), &[store_pc], 4.0, 12).unwrap();
        assert_eq!(plan.ssb_loads.len(), 1);
        plan.speculative_loads = plan.ssb_loads.clone();
        let mut m = Machine::new(MachineConfig::default(), &image);
        m.attach_hook(Box::new(SsbHook::new(plan, 4)));
        m.run_to_completion().unwrap();
        let s = ssb_stats(&m);
        assert_eq!(s.speculative_checks, 0);
        assert_eq!(s.ssb_load_hits + s.ssb_load_misses, 2 * 200);
    }

    /// The PC table against the three sets it was built from: on the plans
    /// real sessions attach, and on doctored ones (PCs in several sets, sets
    /// at the program's two ends, no PCs at all), every PC from 8 bytes under
    /// the program to 8 bytes past it — unaligned ones included — and a few
    /// far outside classifies as the sets' `contains` say.
    #[test]
    fn the_pc_table_classifies_like_the_plans_sets() {
        for case in super::super::tests::repaired_cases() {
            let program = case.image.program();
            let (base, end) = (program.base_pc(), program.end_pc());
            let mut overlapping = case.plan.clone();
            overlapping.ssb_loads.extend(&case.plan.ssb_stores);
            overlapping.speculative_loads.extend(&case.plan.ssb_loads);
            let mut ends = case.plan.clone();
            ends.ssb_stores = [base].into();
            ends.ssb_loads.clear();
            ends.speculative_loads = [base, end - INST_BYTES].into();
            let mut empty = case.plan.clone();
            empty.ssb_stores.clear();
            empty.ssb_loads.clear();
            empty.speculative_loads.clear();
            for plan in [&case.plan, &overlapping, &ends, &empty] {
                let classes = PcClasses::of(plan);
                let far = [0, 1, INST_BYTES, u64::MAX, u64::MAX - INST_BYTES + 1];
                for pc in (base - 8..=end + 8).chain(far) {
                    let mut expected = 0;
                    for (set, bit) in [
                        (&plan.ssb_stores, SSB_STORE),
                        (&plan.ssb_loads, SSB_LOAD),
                        (&plan.speculative_loads, SPECULATIVE_LOAD),
                    ] {
                        if set.contains(&pc) {
                            expected |= bit;
                        }
                    }
                    assert_eq!(classes.of_pc(pc), expected, "{}: pc {pc:#x}", case.what);
                }
            }
        }
    }
}
