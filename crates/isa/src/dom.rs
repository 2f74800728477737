//! Post-dominator analysis.
//!
//! LASERREPAIR places software-store-buffer flush operations so that they
//! *post-dominate* the instrumented basic blocks (Section 5.3), which
//! minimises the dynamic number of flushes (e.g. one flush at a loop exit
//! rather than one per iteration). This module implements the classic
//! iterative data-flow formulation of post-dominators; programs in this
//! reproduction have tens of blocks so the simple algorithm is plenty.

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::program::BlockId;

fn intersect_all(sets: &[BTreeSet<usize>], members: &[usize], universe: usize) -> BTreeSet<usize> {
    let mut iter = members.iter();
    let first = match iter.next() {
        Some(&p) => p,
        None => return (0..universe).collect(),
    };
    let mut acc = sets[first].clone();
    for &p in iter {
        acc = acc.intersection(&sets[p]).copied().collect();
    }
    acc
}

/// Post-dominator sets, computed against a virtual exit node that every
/// `Halt` block flows into.
///
/// Block `a` post-dominates `b` iff every path from `b` to a thread exit
/// passes through `a`.
#[derive(Debug, Clone)]
pub struct PostDominators {
    // pdom[b] over indices 0..n (real blocks) plus n = virtual exit.
    pdom: Vec<BTreeSet<usize>>,
    n: usize,
}

impl PostDominators {
    /// Compute post-dominators for every block of the CFG.
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let virtual_exit = n;
        // successors in the reverse problem = CFG successors, with Halt blocks
        // additionally flowing to the virtual exit.
        let exit_set: BTreeSet<usize> = cfg.exit_blocks().iter().map(|b| b.0 as usize).collect();
        let universe: BTreeSet<usize> = (0..=n).collect();
        let mut pdom: Vec<BTreeSet<usize>> = vec![universe; n + 1];
        pdom[virtual_exit] = BTreeSet::from([virtual_exit]);
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                let mut succs: Vec<usize> = cfg
                    .successors(BlockId(b as u32))
                    .iter()
                    .map(|s| s.0 as usize)
                    .collect();
                if exit_set.contains(&b) {
                    succs.push(virtual_exit);
                }
                let mut new = intersect_all(&pdom, &succs, n + 1);
                new.insert(b);
                if new != pdom[b] {
                    pdom[b] = new;
                    changed = true;
                }
            }
        }
        PostDominators { pdom, n }
    }

    /// True if `a` post-dominates `b`.
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.pdom[b.0 as usize].contains(&(a.0 as usize))
    }

    /// Blocks that post-dominate **all** of `blocks` (excluding the virtual
    /// exit). This is the candidate set for flush placement.
    pub fn common_post_dominators(&self, blocks: &[BlockId]) -> Vec<BlockId> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let mut acc = self.pdom[blocks[0].0 as usize].clone();
        for b in &blocks[1..] {
            acc = acc
                .intersection(&self.pdom[b.0 as usize])
                .copied()
                .collect();
        }
        let mut v: Vec<BlockId> = acc
            .into_iter()
            .filter(|&i| i < self.n)
            .map(|i| BlockId(i as u32))
            .collect();
        v.sort();
        v
    }

    /// Among `candidates`, pick the post-dominator "closest" to the given
    /// blocks: the candidate that is post-dominated by every other candidate.
    /// Returns `None` if `candidates` is empty.
    pub fn nearest(&self, candidates: &[BlockId]) -> Option<BlockId> {
        candidates
            .iter()
            .copied()
            .find(|&c| {
                candidates
                    .iter()
                    .all(|&other| self.post_dominates(other, c))
            })
            .or_else(|| candidates.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::Reg;
    use crate::program::Program;

    /// Diamond: entry -> {left, right} -> join -> exit(halt)
    fn diamond() -> (Program, BlockId, BlockId, BlockId, BlockId, BlockId) {
        let mut b = ProgramBuilder::new("diamond");
        let entry = b.block("entry");
        let left = b.block("left");
        let right = b.block("right");
        let join = b.block("join");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.cmp_eq(Reg(1), Reg(0), 0u64.into());
        b.branch(Reg(1), left, right);
        b.switch_to(left);
        b.nop();
        b.jump(join);
        b.switch_to(right);
        b.nop();
        b.jump(join);
        b.switch_to(join);
        b.nop();
        b.jump(exit);
        b.switch_to(exit);
        b.halt();
        (b.finish(), entry, left, right, join, exit)
    }

    #[test]
    fn post_dominators_of_diamond() {
        let (p, entry, left, right, join, exit) = diamond();
        let cfg = Cfg::build(&p);
        let pdom = PostDominators::compute(&cfg);
        assert!(pdom.post_dominates(join, entry));
        assert!(pdom.post_dominates(join, left));
        assert!(pdom.post_dominates(exit, entry));
        assert!(!pdom.post_dominates(left, entry));
        assert!(!pdom.post_dominates(right, entry));
        let common = pdom.common_post_dominators(&[left, right]);
        assert!(common.contains(&join));
        assert!(common.contains(&exit));
        assert!(!common.contains(&left));
        assert_eq!(pdom.nearest(&common), Some(join));
    }

    #[test]
    fn loop_flush_point_is_exit_block() {
        // entry -> head; head -> {body, after}; body -> head; after: halt
        // The nearest common post-dominator of {body} that is outside the loop
        // is `after`, mirroring the paper's Figure 7 (flush at loop exit).
        let mut b = ProgramBuilder::new("loop");
        let entry = b.block("entry");
        let head = b.block("head");
        let body = b.block("body");
        let after = b.block("after");
        b.switch_to(entry);
        b.movi(Reg(1), 0);
        b.jump(head);
        b.switch_to(head);
        b.cmp_lt(Reg(2), Reg(1), 100u64.into());
        b.branch(Reg(2), body, after);
        b.switch_to(body);
        b.addi(Reg(1), Reg(1), 1);
        b.jump(head);
        b.switch_to(after);
        b.halt();
        let p = b.finish();
        let cfg = Cfg::build(&p);
        let pdom = PostDominators::compute(&cfg);
        let common = pdom.common_post_dominators(&[body]);
        // body is trivially its own post-dominator; but `after` must also be
        // in the set and is the right place for a flush outside the loop.
        assert!(common.contains(&after));
        assert!(pdom.post_dominates(after, entry));
        assert!(pdom.post_dominates(after, head));
    }

    #[test]
    fn empty_candidates_have_no_nearest() {
        let (p, ..) = diamond();
        let cfg = Cfg::build(&p);
        let pdom = PostDominators::compute(&cfg);
        assert!(pdom.nearest(&[]).is_none());
        assert!(pdom.common_post_dominators(&[]).is_empty());
    }
}
