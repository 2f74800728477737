//! Programs, basic blocks, program counters and source maps.

use std::collections::BTreeMap;
use std::fmt;

use crate::inst::{Inst, Terminator};

/// A program counter. PCs are byte addresses inside the simulated
/// application's code region; consecutive instructions are 4 bytes apart.
pub type Pc = u64;

/// Size of an encoded instruction in bytes. PCs of adjacent instructions
/// differ by this amount, which is what the "adjacent PC" tolerance of the
/// paper's Figure 3 characterization refers to.
pub const INST_BYTES: u64 = 4;

/// Identifier of a basic block within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A source-code location (file and line) associated with an instruction.
///
/// LASERDETECT aggregates HITM records by source line, so the mapping from PC
/// to `SourceLoc` plays the role of DWARF line tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceLoc {
    /// Source file name.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
}

impl SourceLoc {
    /// Create a source location.
    pub fn new(file: impl Into<String>, line: u32) -> Self {
        SourceLoc {
            file: file.into(),
            line,
        }
    }

    /// The `file:line` rendering used throughout reports.
    pub fn label(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A basic block: a straight-line sequence of instructions ended by a single
/// terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// This block's id.
    pub id: BlockId,
    /// Human-readable label (unique within the program).
    pub label: String,
    /// Non-terminator instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.insts.len() + 1
    }

    /// A block always contains at least its terminator.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Where a PC points within a program: which block, and which instruction
/// index inside it (`inst_index == insts.len()` denotes the terminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcSlot {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Index within the block; equal to the instruction count for the
    /// terminator slot.
    pub inst_index: usize,
}

/// A complete program: a set of basic blocks with assigned PCs and a source
/// map.
///
/// Programs are immutable once built (see
/// [`ProgramBuilder`](crate::builder::ProgramBuilder)); the repair tool
/// produces *instrumentation plans* that the simulator applies at execution
/// time rather than mutating the program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    blocks: Vec<BasicBlock>,
    base_pc: Pc,
    /// Flattened PC layout: `layout[i]` is the slot of the instruction at
    /// `base_pc + i * INST_BYTES`.
    layout: Vec<PcSlot>,
    /// First PC of each block.
    block_start: Vec<Pc>,
    /// Source location per flattened instruction index.
    src: Vec<Option<SourceLoc>>,
    label_index: BTreeMap<String, BlockId>,
}

impl Program {
    /// Construct a program from its parts. Used by the builder; prefer
    /// [`ProgramBuilder`](crate::builder::ProgramBuilder).
    pub(crate) fn from_parts(
        name: String,
        blocks: Vec<BasicBlock>,
        base_pc: Pc,
        src_per_slot: Vec<Vec<Option<SourceLoc>>>,
    ) -> Self {
        let mut layout = Vec::new();
        let mut block_start = Vec::with_capacity(blocks.len());
        let mut src = Vec::new();
        let mut label_index = BTreeMap::new();
        for (bi, block) in blocks.iter().enumerate() {
            block_start.push(base_pc + layout.len() as u64 * INST_BYTES);
            label_index.insert(block.label.clone(), block.id);
            for i in 0..block.len() {
                layout.push(PcSlot {
                    block: block.id,
                    inst_index: i,
                });
                src.push(src_per_slot[bi].get(i).cloned().flatten());
            }
        }
        Program {
            name,
            blocks,
            base_pc,
            layout,
            block_start,
            src,
            label_index,
        }
    }

    /// Program name (the "binary" name used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lowest PC of the program's code.
    pub fn base_pc(&self) -> Pc {
        self.base_pc
    }

    /// One-past-the-highest PC of the program's code.
    pub fn end_pc(&self) -> Pc {
        self.base_pc + self.layout.len() as u64 * INST_BYTES
    }

    /// Total number of instructions (including terminators).
    pub fn num_insts(&self) -> usize {
        self.layout.len()
    }

    /// All basic blocks, ordered by id.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Access a block by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this program.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Look up a block by its label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.label_index.get(label).copied()
    }

    /// PC of the first instruction of `block`.
    pub fn block_entry_pc(&self, block: BlockId) -> Pc {
        self.block_start[block.0 as usize]
    }

    /// The slot (block and index) a PC refers to, if it is in range and
    /// aligned.
    pub fn slot_of(&self, pc: Pc) -> Option<PcSlot> {
        if pc < self.base_pc || !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        let idx = ((pc - self.base_pc) / INST_BYTES) as usize;
        self.layout.get(idx).copied()
    }

    /// True if `pc` points at an instruction of this program.
    pub fn contains_pc(&self, pc: Pc) -> bool {
        self.slot_of(pc).is_some()
    }

    /// The non-terminator instruction at `pc`, or `None` for terminator slots
    /// and out-of-range PCs.
    pub fn inst_at(&self, pc: Pc) -> Option<&Inst> {
        let slot = self.slot_of(pc)?;
        let block = self.block(slot.block);
        block.insts.get(slot.inst_index)
    }

    /// The terminator at `pc`, if `pc` refers to a terminator slot.
    pub fn terminator_at(&self, pc: Pc) -> Option<&Terminator> {
        let slot = self.slot_of(pc)?;
        let block = self.block(slot.block);
        if slot.inst_index == block.insts.len() {
            Some(&block.term)
        } else {
            None
        }
    }

    /// Source location recorded for the instruction at `pc`.
    pub fn source_of(&self, pc: Pc) -> Option<&SourceLoc> {
        if pc < self.base_pc || !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        let idx = ((pc - self.base_pc) / INST_BYTES) as usize;
        self.src.get(idx).and_then(|s| s.as_ref())
    }

    /// PC of the instruction at index `inst_index` (counting the terminator as
    /// the last index) of `block`.
    pub fn pc_of(&self, block: BlockId, inst_index: usize) -> Pc {
        self.block_start[block.0 as usize] + inst_index as u64 * INST_BYTES
    }

    /// Iterate over every `(pc, block, inst_index)` triple of the program.
    pub fn iter_pcs(&self) -> impl Iterator<Item = (Pc, PcSlot)> + '_ {
        self.layout
            .iter()
            .enumerate()
            .map(move |(i, slot)| (self.base_pc + i as u64 * INST_BYTES, *slot))
    }

    /// All PCs whose source location equals `loc`.
    pub fn pcs_for_source(&self, loc: &SourceLoc) -> Vec<Pc> {
        self.iter_pcs()
            .filter(|(pc, _)| self.source_of(*pc) == Some(loc))
            .map(|(pc, _)| pc)
            .collect()
    }

    /// Render the program as text (a tiny disassembler).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for block in &self.blocks {
            let _ = writeln!(out, "{} ({}):", block.label, block.id);
            for (i, inst) in block.insts.iter().enumerate() {
                let pc = self.pc_of(block.id, i);
                let _ = writeln!(out, "  {pc:#08x}: {inst}");
            }
            let pc = self.pc_of(block.id, block.insts.len());
            let _ = writeln!(out, "  {pc:#08x}: {}", block.term);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{Operand, Reg};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        b.source("tiny.c", 1);
        let entry = b.block("entry");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.load(Reg(1), Reg(0), 0, 8);
        b.source("tiny.c", 2);
        b.store(Operand::Reg(Reg(1)), Reg(0), 8, 8);
        b.jump(exit);
        b.switch_to(exit);
        b.halt();
        b.finish()
    }

    #[test]
    fn pcs_are_sequential_and_aligned() {
        let p = tiny_program();
        let pcs: Vec<_> = p.iter_pcs().map(|(pc, _)| pc).collect();
        assert_eq!(pcs.len(), p.num_insts());
        for w in pcs.windows(2) {
            assert_eq!(w[1] - w[0], INST_BYTES);
        }
        assert_eq!(pcs[0], p.base_pc());
        assert_eq!(p.end_pc(), pcs[pcs.len() - 1] + INST_BYTES);
    }

    #[test]
    fn slot_and_inst_lookup() {
        let p = tiny_program();
        let entry = p.block_by_label("entry").unwrap();
        let pc0 = p.block_entry_pc(entry);
        assert!(p.contains_pc(pc0));
        assert!(p.inst_at(pc0).unwrap().is_load());
        assert!(p.inst_at(pc0 + INST_BYTES).unwrap().is_store());
        // Terminator slot returns None from inst_at but Some from terminator_at.
        let term_pc = pc0 + 2 * INST_BYTES;
        assert!(p.inst_at(term_pc).is_none());
        assert!(p.terminator_at(term_pc).is_some());
        // Unaligned and out-of-range PCs.
        assert!(p.slot_of(pc0 + 1).is_none());
        assert!(p.slot_of(p.end_pc()).is_none());
        assert!(p.slot_of(p.base_pc().wrapping_sub(INST_BYTES)).is_none());
    }

    #[test]
    fn source_map_tracks_lines() {
        let p = tiny_program();
        let entry = p.block_by_label("entry").unwrap();
        let pc0 = p.block_entry_pc(entry);
        assert_eq!(p.source_of(pc0).unwrap().line, 1);
        assert_eq!(p.source_of(pc0 + INST_BYTES).unwrap().line, 2);
        let line1 = SourceLoc::new("tiny.c", 1);
        assert_eq!(p.pcs_for_source(&line1), vec![pc0]);
    }

    #[test]
    fn disassembly_mentions_every_block() {
        let p = tiny_program();
        let text = p.disassemble();
        assert!(text.contains("entry"));
        assert!(text.contains("exit"));
        assert!(text.contains("halt"));
    }

    #[test]
    fn source_loc_label() {
        let loc = SourceLoc::new("a.c", 42);
        assert_eq!(loc.label(), "a.c:42");
        assert_eq!(format!("{loc}"), "a.c:42");
    }
}
