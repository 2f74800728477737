//! LASERREPAIR's static analysis: which instructions get the SSB treatment
//! and where flushes go (paper Sections 5.3 and 5.4).
//!
//! Given the PCs LASERDETECT implicated in false sharing, the analysis:
//!
//! 1. finds the basic blocks containing those PCs;
//! 2. chooses a flush block that **post-dominates** the contending blocks and
//!    lies *outside* the contended loop (Figure 7: a flush at the loop exit
//!    rather than once per iteration);
//! 3. instruments every memory operation in the blocks between the contending
//!    code and the flush (all stores must use the SSB to preserve TSO;
//!    loads may speculatively skip it per the alias analysis);
//! 4. estimates the dynamic stores-per-flush ratio and declines to repair when
//!    it is too low (fences/atomics inside the region force frequent flushes —
//!    "fundamental contention in the program that LASERREPAIR cannot repair")
//!    or when the region is too complex to analyse precisely (the `lu_ncb`
//!    case).

use std::collections::BTreeSet;

use laser_isa::alias::AliasSpeculation;
use laser_isa::cfg::Cfg;
use laser_isa::dom::PostDominators;
use laser_isa::program::{BlockId, Pc, Program};

/// Static loop trip-count guess used by the profitability estimate.
const ASSUMED_LOOP_ITERATIONS: f64 = 100.0;

/// The instrumentation plan LASERREPAIR derives for one contention site.
#[derive(Debug, Clone)]
pub struct RepairPlan {
    /// Basic blocks whose memory operations are instrumented.
    pub instrumented_blocks: BTreeSet<BlockId>,
    /// Blocks on whose entry the SSB is flushed.
    pub flush_blocks: BTreeSet<BlockId>,
    /// Store PCs redirected into the SSB.
    pub ssb_stores: BTreeSet<Pc>,
    /// Load PCs that must consult the SSB.
    pub ssb_loads: BTreeSet<Pc>,
    /// Load PCs that may skip the SSB after a runtime aliasing check.
    pub speculative_loads: BTreeSet<Pc>,
    /// Fence-like instructions (fences, atomics) inside the region; each one
    /// forces a flush when executed.
    pub fences_in_region: usize,
    /// Estimated dynamic stores buffered per flush.
    pub estimated_stores_per_flush: f64,
    /// Whether the repair is estimated to be profitable and precise enough to
    /// attempt.
    pub profitable: bool,
}

impl RepairPlan {
    /// Analyse `program` around `contending_pcs`. Returns `None` if none of
    /// the PCs can be mapped to a basic block or no valid flush point exists.
    pub fn analyze(
        program: &Program,
        contending_pcs: &[Pc],
        min_stores_per_flush: f64,
        max_plan_blocks: usize,
    ) -> Option<RepairPlan> {
        let mut contending_blocks: Vec<BlockId> = Vec::new();
        for &pc in contending_pcs {
            if let Some(slot) = program.slot_of(pc) {
                if !contending_blocks.contains(&slot.block) {
                    contending_blocks.push(slot.block);
                }
            }
        }
        if contending_blocks.is_empty() {
            return None;
        }
        let cfg = Cfg::build(program);
        let pdom = PostDominators::compute(&cfg);

        // Candidate flush points: blocks that post-dominate every contending
        // block. Prefer one outside the contended loop, i.e. from which no
        // contending block is reachable again.
        let candidates = pdom.common_post_dominators(&contending_blocks);
        let outside: Vec<BlockId> = candidates
            .iter()
            .copied()
            .filter(|c| !contending_blocks.contains(c))
            .filter(|c| {
                let reach = cfg.reachable_from(&[*c]);
                !contending_blocks.iter().any(|b| reach.contains(b))
            })
            .collect();
        let flush_block = pdom.nearest(&outside).or_else(|| {
            let non_contending: Vec<BlockId> = candidates
                .iter()
                .copied()
                .filter(|c| !contending_blocks.contains(c))
                .collect();
            pdom.nearest(&non_contending)
        })?;

        // Region: blocks on a path from the contending blocks to the flush
        // point (exclusive). All their memory operations are instrumented.
        let forward = cfg.reachable_from(&contending_blocks);
        let backward = cfg.reaching(&[flush_block]);
        let mut region: BTreeSet<BlockId> = forward.intersection(&backward).copied().collect();
        region.remove(&flush_block);
        for b in &contending_blocks {
            region.insert(*b);
        }

        // Collect instrumented memory operations and fences.
        let mut ssb_stores = BTreeSet::new();
        let mut fences_in_region = 0usize;
        let mut store_count = 0usize;
        for &bid in &region {
            let block = program.block(bid);
            for (i, inst) in block.insts.iter().enumerate() {
                let pc = program.pc_of(bid, i);
                if inst.is_fence_like() {
                    fences_in_region += 1;
                    continue;
                }
                if inst.is_store() {
                    ssb_stores.insert(pc);
                    store_count += 1;
                }
            }
        }
        let alias = AliasSpeculation::analyze(program, &region);

        let estimated_stores_per_flush = if fences_in_region > 0 {
            store_count as f64 / fences_in_region as f64
        } else {
            store_count as f64 * ASSUMED_LOOP_ITERATIONS
        };
        let profitable = estimated_stores_per_flush >= min_stores_per_flush
            && region.len() <= max_plan_blocks
            && store_count > 0;

        Some(RepairPlan {
            instrumented_blocks: region,
            flush_blocks: [flush_block].into_iter().collect(),
            ssb_stores,
            ssb_loads: alias.ssb_loads,
            speculative_loads: alias.speculative_loads,
            fences_in_region,
            estimated_stores_per_flush,
            profitable,
        })
    }

    /// True if `pc` is instrumented in any way by this plan.
    pub fn instruments_pc(&self, pc: Pc) -> bool {
        self.ssb_stores.contains(&pc)
            || self.ssb_loads.contains(&pc)
            || self.speculative_loads.contains(&pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;

    /// A classic false-sharing loop: load/increment/store inside a counted
    /// loop, followed by an exit block.
    fn loop_program() -> (Program, Pc, BlockId, BlockId) {
        let mut b = ProgramBuilder::new("loop");
        b.source("loop.c", 10);
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
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(1000));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let p = b.finish();
        let store_pc = p.pc_of(body, 2);
        (p, store_pc, body, exit)
    }

    #[test]
    fn flush_is_placed_at_the_loop_exit() {
        let (p, store_pc, body, exit) = loop_program();
        let plan = RepairPlan::analyze(&p, &[store_pc], 4.0, 12).unwrap();
        assert!(plan.flush_blocks.contains(&exit));
        assert!(!plan.flush_blocks.contains(&body));
        assert!(plan.instrumented_blocks.contains(&body));
        assert!(!plan.instrumented_blocks.contains(&exit));
        assert!(plan.ssb_stores.contains(&store_pc));
        // The load of the same base register must also use the SSB.
        assert_eq!(plan.ssb_loads.len(), 1);
        assert!(plan.profitable);
        assert!(plan.estimated_stores_per_flush > 10.0);
        assert!(plan.instruments_pc(store_pc));
    }

    #[test]
    fn fences_in_the_region_make_repair_unprofitable() {
        // The contending store sits inside a small critical section: an
        // atomic acquire and release surround it in the same loop body.
        let mut b = ProgramBuilder::new("locked");
        b.source("locked.c", 5);
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(body);
        b.atomic_cas(Reg(4), Reg(5), 0, Operand::Imm(0), Operand::Imm(1), 8);
        b.store(Operand::Imm(1), Reg(0), 0, 8);
        b.atomic_exchange(Reg(4), Reg(5), 0, Operand::Imm(0), 8);
        b.addi(Reg(2), Reg(2), 1);
        b.cmp_lt(Reg(3), Reg(2), Operand::Imm(100));
        b.branch(Reg(3), body, exit);
        b.switch_to(exit);
        b.halt();
        let p = b.finish();
        let store_pc = p.pc_of(body, 1);
        let plan = RepairPlan::analyze(&p, &[store_pc], 4.0, 12).unwrap();
        assert_eq!(plan.fences_in_region, 2);
        assert!(plan.estimated_stores_per_flush < 4.0);
        assert!(!plan.profitable);
    }

    #[test]
    fn oversized_regions_are_declined() {
        let (p, store_pc, ..) = loop_program();
        let plan = RepairPlan::analyze(&p, &[store_pc], 4.0, 0).unwrap();
        assert!(!plan.profitable);
    }

    #[test]
    fn unknown_pcs_yield_no_plan() {
        let (p, ..) = loop_program();
        assert!(RepairPlan::analyze(&p, &[0xdead_beef], 4.0, 12).is_none());
        assert!(RepairPlan::analyze(&p, &[], 4.0, 12).is_none());
    }
}
