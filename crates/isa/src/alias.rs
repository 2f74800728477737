//! Simplified speculative alias analysis (paper Section 5.3).
//!
//! To reduce the number of loads that must consult the software store buffer,
//! LASERREPAIR "assumes loads using a register unused by any store do not
//! alias. Such loads do not require SSB modification. To validate this
//! speculation, an aliasing check is inserted between the def and use of each
//! load address". This module performs the static half of that analysis: it
//! partitions the loads of an instrumented region into those that must use the
//! SSB and those that may speculatively skip it (subject to a runtime check).

use std::collections::{BTreeMap, BTreeSet};

use crate::program::{BlockId, Pc, Program};
use crate::Reg;

/// Result of the speculative alias analysis over an instrumented region.
#[derive(Debug, Clone, Default)]
pub struct AliasSpeculation {
    /// Loads that may skip the SSB, pending a runtime aliasing check.
    pub speculative_loads: BTreeSet<Pc>,
    /// Loads that must always go through the SSB.
    pub ssb_loads: BTreeSet<Pc>,
    /// Base registers used by stores in the region; a runtime check compares a
    /// speculative load's address against addresses formed from these.
    pub store_base_regs: BTreeSet<Reg>,
    /// For each speculative load, the number of uses sharing its address
    /// definition (multiple uses of one def need only one check).
    pub checks_required: BTreeMap<Pc, usize>,
}

impl AliasSpeculation {
    /// Analyse the loads and stores of `region` (a set of basic blocks of
    /// `program`).
    ///
    /// A load is *speculative* (may skip the SSB) when its base register is
    /// not used as the base register of any store in the region; otherwise it
    /// must consult the SSB.
    pub fn analyze(program: &Program, region: &BTreeSet<BlockId>) -> Self {
        let mut store_base_regs: BTreeSet<Reg> = BTreeSet::new();
        // First pass: collect store address registers.
        for &bid in region {
            let block = program.block(bid);
            for inst in &block.insts {
                if inst.is_store() {
                    if let Some(addr) = inst.mem_addr() {
                        for r in addr.regs() {
                            store_base_regs.insert(r);
                        }
                    }
                }
            }
        }
        // Second pass: classify loads and count checks per base register def.
        let mut speculative_loads = BTreeSet::new();
        let mut ssb_loads = BTreeSet::new();
        let mut checks_required = BTreeMap::new();
        let mut uses_per_base: BTreeMap<(BlockId, Reg), usize> = BTreeMap::new();
        for &bid in region {
            let block = program.block(bid);
            for (i, inst) in block.insts.iter().enumerate() {
                if !inst.is_load() {
                    continue;
                }
                let pc = program.pc_of(bid, i);
                // RMWs always go through the SSB: they are also stores.
                if inst.is_store() {
                    ssb_loads.insert(pc);
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by is_load() just above; every load carries an address"
                )]
                let addr = inst.mem_addr().expect("loads have addresses");
                let aliases_store = addr.regs().iter().any(|r| store_base_regs.contains(r));
                if aliases_store {
                    ssb_loads.insert(pc);
                } else {
                    speculative_loads.insert(pc);
                    let key = (bid, addr.base);
                    *uses_per_base.entry(key).or_insert(0) += 1;
                }
            }
        }
        // Multiple uses of the same def require only one check: attribute the
        // check count to each speculative load for cost accounting.
        for &bid in region {
            let block = program.block(bid);
            for (i, inst) in block.insts.iter().enumerate() {
                if !inst.is_load() || inst.is_store() {
                    continue;
                }
                let pc = program.pc_of(bid, i);
                if !speculative_loads.contains(&pc) {
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by is_load() just above; every load carries an address"
                )]
                let addr = inst.mem_addr().expect("loads have addresses");
                let uses = uses_per_base.get(&(bid, addr.base)).copied().unwrap_or(1);
                checks_required.insert(pc, usize::max(1, uses));
            }
        }
        AliasSpeculation {
            speculative_loads,
            ssb_loads,
            store_base_regs,
            checks_required,
        }
    }

    /// Total number of runtime alias checks needed (one per distinct address
    /// definition, not per use).
    pub fn num_checks(&self) -> usize {
        // one check per (block, base reg) group == number of distinct values
        // in checks_required divided by uses; approximate as number of groups.
        let mut groups: BTreeSet<usize> = BTreeSet::new();
        let mut count = 0usize;
        for &uses in self.checks_required.values() {
            // Each group of `uses` loads contributes exactly one check; we
            // count 1/uses per load and sum.
            groups.insert(uses);
            count += 1;
        }
        // Conservative: if we cannot reconstruct exact grouping, assume one
        // check per speculative load with shared-def discounting applied by
        // the caller. Here: count distinct defs as ceil(sum over loads of
        // 1/uses).
        let mut acc = 0f64;
        for &uses in self.checks_required.values() {
            acc += 1.0 / uses as f64;
        }
        let exact = acc.round() as usize;
        if exact == 0 && count > 0 {
            1
        } else {
            exact
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{Operand, Reg};

    #[test]
    fn loads_with_store_base_regs_need_ssb() {
        let mut b = ProgramBuilder::new("alias");
        let blk = b.block("b");
        b.switch_to(blk);
        // store via r0; load via r0 (must SSB); load via r5 (speculative)
        b.store(Operand::Imm(1), Reg(0), 0, 8);
        b.load(Reg(1), Reg(0), 8, 8);
        b.load(Reg(2), Reg(5), 0, 8);
        b.load(Reg(3), Reg(5), 8, 8);
        b.halt();
        let p = b.finish();
        let region: BTreeSet<BlockId> = [blk].into_iter().collect();
        let spec = AliasSpeculation::analyze(&p, &region);
        let base = p.base_pc();
        assert!(spec.ssb_loads.contains(&(base + 4)));
        assert!(spec.speculative_loads.contains(&(base + 8)));
        assert!(spec.speculative_loads.contains(&(base + 12)));
        assert!(spec.store_base_regs.contains(&Reg(0)));
        assert!(!spec.store_base_regs.contains(&Reg(5)));
        // Two speculative loads sharing one def (r5): one check.
        assert_eq!(spec.num_checks(), 1);
    }

    #[test]
    fn rmw_loads_always_use_ssb() {
        let mut b = ProgramBuilder::new("alias-rmw");
        let blk = b.block("b");
        b.switch_to(blk);
        b.atomic_fetch_add(Reg(1), Reg(7), 0, Operand::Imm(1), 8);
        b.halt();
        let p = b.finish();
        let region: BTreeSet<BlockId> = [blk].into_iter().collect();
        let spec = AliasSpeculation::analyze(&p, &region);
        assert_eq!(spec.ssb_loads.len(), 1);
        assert!(spec.speculative_loads.is_empty());
    }

    #[test]
    fn empty_region_is_empty_result() {
        let mut b = ProgramBuilder::new("empty");
        let blk = b.block("b");
        b.switch_to(blk);
        b.halt();
        let p = b.finish();
        let _ = p;
        let spec = AliasSpeculation::analyze(&p, &BTreeSet::new());
        assert!(spec.speculative_loads.is_empty());
        assert!(spec.ssb_loads.is_empty());
        assert_eq!(spec.num_checks(), 0);
    }
}
