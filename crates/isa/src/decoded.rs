//! Pre-decoded programs for the dispatch hot loop.
//!
//! [`Program`] is the canonical, analysis-friendly
//! representation: blocks own `Vec<Inst>`, PCs are computed on demand from the
//! block-start table, and lookups go through two indirections. That is fine
//! for the static analyses but wasteful in a simulator that fetches hundreds
//! of millions of instructions: every fetch re-derives a PC it could have
//! known at load time.
//!
//! [`DecodedProgram`] is the execution-friendly form: one flat `(Inst, Pc)`
//! array per block, PCs precomputed once, terminators paired with their PCs.
//! Instructions are `Copy`, so a fetch is a single bounds-checked indexed copy
//! out of a flat slice — no PC arithmetic, no second indirection, and no
//! borrow held into the program while the instruction executes.
//!
//! A block also records, for each instruction, how many consecutive `Nop`s
//! start there ([`DecodedBlock::nop_run`]), so the simulator can retire a
//! run of compute filler in one step of its loop instead of one per `Nop`.

use crate::inst::{Inst, Terminator};
use crate::program::{BlockId, Pc, Program};

/// One pre-decoded instruction: the instruction and its precomputed PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInst {
    /// The instruction.
    pub inst: Inst,
    /// Its program counter.
    pub pc: Pc,
}

/// A basic block in execution form: flat instruction array plus terminator,
/// all PCs precomputed.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    insts: Box<[DecodedInst]>,
    /// For each instruction, the number of consecutive `Nop`s starting
    /// there: 0 for any other instruction.
    nop_runs: Box<[u32]>,
    term: Terminator,
    term_pc: Pc,
}

impl DecodedBlock {
    /// Number of non-terminator instructions.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// The pre-decoded instructions, in block order.
    pub fn insts(&self) -> &[DecodedInst] {
        &self.insts
    }

    /// The number of consecutive [`Inst::Nop`]s starting at instruction
    /// `idx`: 0 if it is not a `Nop`, and at most the instructions left
    /// before the terminator.
    ///
    /// # Panics
    /// Panics if `idx` is not an instruction index of the block.
    #[inline]
    pub fn nop_run(&self, idx: usize) -> u32 {
        self.nop_runs[idx]
    }

    /// The block's terminator.
    pub fn term(&self) -> Terminator {
        self.term
    }

    /// The terminator's PC.
    pub fn term_pc(&self) -> Pc {
        self.term_pc
    }
}

/// A program pre-decoded into per-block flat instruction arrays.
///
/// Built once per machine (see `DecodedProgram::decode`); the simulator keeps
/// it next to the [`Program`] it was decoded from and fetches exclusively
/// from this form.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    blocks: Box<[DecodedBlock]>,
}

impl DecodedProgram {
    /// Decode `program` into execution form.
    pub fn decode(program: &Program) -> Self {
        let blocks = program
            .blocks()
            .iter()
            .map(|b| {
                let insts = b
                    .insts
                    .iter()
                    .enumerate()
                    .map(|(i, inst)| DecodedInst {
                        inst: *inst,
                        pc: program.pc_of(b.id, i),
                    })
                    .collect();
                let mut nop_runs = vec![0u32; b.insts.len()];
                for i in (0..b.insts.len()).rev() {
                    if b.insts[i] == Inst::Nop {
                        nop_runs[i] = 1 + nop_runs.get(i + 1).copied().unwrap_or(0);
                    }
                }
                DecodedBlock {
                    insts,
                    nop_runs: nop_runs.into_boxed_slice(),
                    term: b.term,
                    term_pc: program.pc_of(b.id, b.insts.len()),
                }
            })
            .collect();
        DecodedProgram { blocks }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The decoded block for `id`.
    ///
    /// # Panics
    /// Panics if the id does not belong to the decoded program.
    pub fn block(&self, id: BlockId) -> &DecodedBlock {
        &self.blocks[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{Operand, Reg};

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new("decoded-test");
        let entry = b.block("entry");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.load(Reg(1), Reg(0), 0, 8);
        b.addi(Reg(1), Reg(1), 1);
        b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
        b.jump(exit);
        b.switch_to(exit);
        b.halt();
        b.finish()
    }

    #[test]
    fn decode_matches_program_layout() {
        let p = two_block_program();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.num_blocks(), p.blocks().len());
        for block in p.blocks() {
            let db = d.block(block.id);
            assert_eq!(db.num_insts(), block.insts.len());
            for (i, di) in db.insts().iter().enumerate() {
                assert_eq!(di.inst, block.insts[i]);
                assert_eq!(di.pc, p.pc_of(block.id, i));
            }
            assert_eq!(db.term(), block.term);
            assert_eq!(db.term_pc(), p.pc_of(block.id, block.insts.len()));
        }
    }

    #[test]
    fn nop_runs_count_the_nops_ahead() {
        let mut b = ProgramBuilder::new("nop-runs");
        let entry = b.block("entry");
        let empty = b.block("empty");
        b.switch_to(entry);
        b.nops(3);
        b.addi(Reg(1), Reg(1), 1);
        b.nop();
        b.addi(Reg(1), Reg(1), 1);
        b.nops(2);
        b.jump(empty);
        b.switch_to(empty);
        b.halt();
        let d = DecodedProgram::decode(&b.finish());
        let runs = |id| {
            let blk = d.block(id);
            (0..blk.num_insts())
                .map(|i| blk.nop_run(i))
                .collect::<Vec<_>>()
        };
        assert_eq!(runs(entry), [3, 2, 1, 0, 1, 0, 2, 1]);
        assert_eq!(runs(empty), [0u32; 0]);
    }

    #[test]
    fn decoded_pcs_agree_with_iter_pcs() {
        let p = two_block_program();
        let d = DecodedProgram::decode(&p);
        for (pc, slot) in p.iter_pcs() {
            let db = d.block(slot.block);
            let got = if slot.inst_index == db.num_insts() {
                db.term_pc()
            } else {
                db.insts()[slot.inst_index].pc
            };
            assert_eq!(got, pc);
        }
    }
}
