//! An ergonomic builder for constructing [`Program`]s.
//!
//! The synthetic workloads in `laser-workloads` use this builder to express
//! the kernels of Phoenix / Parsec / Splash2x benchmarks. The builder tracks a
//! "current source location" so that consecutive instructions can share a
//! source line, exactly as compiled code does.

use crate::inst::{AluOp, CmpOp, Inst, MemAddr, Operand, Reg, RmwOp, Terminator};
use crate::program::{BasicBlock, BlockId, Pc, Program, SourceLoc};

/// Default base PC for application code (mirrors the traditional ELF text
/// segment base).
pub const DEFAULT_BASE_PC: Pc = 0x0040_0000;

struct PendingBlock {
    label: String,
    insts: Vec<Inst>,
    srcs: Vec<Option<SourceLoc>>,
    term: Option<Terminator>,
    term_src: Option<SourceLoc>,
}

/// Incrementally builds a [`Program`].
///
/// Blocks are declared up front with [`ProgramBuilder::block`] (so forward
/// branches can reference them), filled in with instruction-emitting methods
/// after [`ProgramBuilder::switch_to`], and sealed with a terminator
/// ([`jump`](ProgramBuilder::jump), [`branch`](ProgramBuilder::branch) or
/// [`halt`](ProgramBuilder::halt)).
///
/// # Example
///
/// ```
/// use laser_isa::builder::ProgramBuilder;
/// use laser_isa::inst::{Operand, Reg};
///
/// // for (r1 = 0; r1 < 10; r1++) { *r0 += 1 }
/// let mut b = ProgramBuilder::new("loop");
/// let head = b.block("head");
/// let body = b.block("body");
/// let exit = b.block("exit");
/// b.switch_to(head);
/// b.movi(Reg(1), 0);
/// b.jump(body);
/// b.switch_to(body);
/// b.load(Reg(2), Reg(0), 0, 8);
/// b.addi(Reg(2), Reg(2), 1);
/// b.store(Operand::Reg(Reg(2)), Reg(0), 0, 8);
/// b.addi(Reg(1), Reg(1), 1);
/// b.cmp_lt(Reg(3), Reg(1), Operand::Imm(10));
/// b.branch(Reg(3), body, exit);
/// b.switch_to(exit);
/// b.halt();
/// let p = b.finish();
/// assert!(p.num_insts() > 7);
/// ```
pub struct ProgramBuilder {
    name: String,
    base_pc: Pc,
    blocks: Vec<PendingBlock>,
    current: Option<usize>,
    current_src: Option<SourceLoc>,
}

impl ProgramBuilder {
    /// Start building a program called `name` at the default base PC.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            base_pc: DEFAULT_BASE_PC,
            blocks: Vec::new(),
            current: None,
            current_src: None,
        }
    }

    /// Override the base PC of the program's code region.
    pub fn with_base_pc(mut self, base_pc: Pc) -> Self {
        self.base_pc = base_pc;
        self
    }

    /// Set the source location attached to subsequently emitted instructions.
    pub fn source(&mut self, file: &str, line: u32) -> &mut Self {
        self.current_src = Some(SourceLoc::new(file, line));
        self
    }

    /// Declare a new basic block and return its id. The block can be filled in
    /// later; declaring before use allows forward branches.
    pub fn block(&mut self, label: &str) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(PendingBlock {
            label: label.to_string(),
            insts: Vec::new(),
            srcs: Vec::new(),
            term: None,
            term_src: None,
        });
        id
    }

    /// Make `block` the target of subsequent instruction-emitting calls.
    ///
    /// # Panics
    /// Panics if the block id was not created by this builder.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            (block.0 as usize) < self.blocks.len(),
            "block {block} does not belong to this builder"
        );
        self.current = Some(block.0 as usize);
    }

    /// The block currently being filled.
    pub fn current_block(&self) -> Option<BlockId> {
        self.current.map(|i| BlockId(i as u32))
    }

    fn cur(&mut self) -> &mut PendingBlock {
        #[expect(
            clippy::expect_used,
            reason = "builder misuse is a workload-definition bug; fail fast at build time"
        )]
        let idx = self
            .current
            .expect("switch_to must be called before emitting instructions");
        &mut self.blocks[idx]
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Self {
        let src = self.current_src.clone();
        let b = self.cur();
        assert!(b.term.is_none(), "cannot emit into a sealed block");
        b.insts.push(inst);
        b.srcs.push(src);
        self
    }

    // --- memory ---

    /// `dst = load size bytes from [base + offset]`.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64, size: u8) -> &mut Self {
        self.emit(Inst::Load {
            dst,
            addr: MemAddr::base_offset(base, offset),
            size,
        })
    }

    /// `dst = load size bytes from addr`.
    pub fn load_addr(&mut self, dst: Reg, addr: MemAddr, size: u8) -> &mut Self {
        self.emit(Inst::Load { dst, addr, size })
    }

    /// `store size bytes of src to [base + offset]`.
    pub fn store(&mut self, src: Operand, base: Reg, offset: i64, size: u8) -> &mut Self {
        self.emit(Inst::Store {
            src,
            addr: MemAddr::base_offset(base, offset),
            size,
        })
    }

    /// `store size bytes of src to addr`.
    pub fn store_addr(&mut self, src: Operand, addr: MemAddr, size: u8) -> &mut Self {
        self.emit(Inst::Store { src, addr, size })
    }

    /// Atomic fetch-and-add of `operand` to `[base + offset]`; old value in `dst`.
    pub fn atomic_fetch_add(
        &mut self,
        dst: Reg,
        base: Reg,
        offset: i64,
        operand: Operand,
        size: u8,
    ) -> &mut Self {
        self.emit(Inst::AtomicRmw {
            op: RmwOp::FetchAdd,
            dst,
            addr: MemAddr::base_offset(base, offset),
            operand,
            expected: None,
            size,
        })
    }

    /// Atomic exchange of `operand` with `[base + offset]`; old value in `dst`.
    pub fn atomic_exchange(
        &mut self,
        dst: Reg,
        base: Reg,
        offset: i64,
        operand: Operand,
        size: u8,
    ) -> &mut Self {
        self.emit(Inst::AtomicRmw {
            op: RmwOp::Exchange,
            dst,
            addr: MemAddr::base_offset(base, offset),
            operand,
            expected: None,
            size,
        })
    }

    /// Atomic compare-and-swap: if `[base + offset] == expected` store
    /// `operand`; old value in `dst`.
    pub fn atomic_cas(
        &mut self,
        dst: Reg,
        base: Reg,
        offset: i64,
        expected: Operand,
        operand: Operand,
        size: u8,
    ) -> &mut Self {
        self.emit(Inst::AtomicRmw {
            op: RmwOp::CompareExchange,
            dst,
            addr: MemAddr::base_offset(base, offset),
            operand,
            expected: Some(expected),
            size,
        })
    }

    /// Non-atomic memory-destination add (`add [base + offset], operand`),
    /// the shape compilers emit for shared-counter increments.
    pub fn mem_add(&mut self, base: Reg, offset: i64, operand: Operand, size: u8) -> &mut Self {
        self.mem_rmw(AluOp::Add, base, offset, operand, size)
    }

    /// Non-atomic memory-destination read-modify-write with an arbitrary ALU
    /// operation.
    pub fn mem_rmw(
        &mut self,
        op: AluOp,
        base: Reg,
        offset: i64,
        operand: Operand,
        size: u8,
    ) -> &mut Self {
        self.emit(Inst::MemRmw {
            op,
            addr: MemAddr::base_offset(base, offset),
            operand,
            size,
        })
    }

    /// A full memory fence.
    pub fn fence(&mut self) -> &mut Self {
        self.emit(Inst::Fence)
    }

    /// A spin-loop `pause` hint.
    pub fn pause(&mut self) -> &mut Self {
        self.emit(Inst::Pause)
    }

    /// A no-op (compute filler).
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Inst::Nop)
    }

    /// Emit `n` no-ops. The Section 3.1 characterization tests vary loop-body
    /// length with this.
    pub fn nops(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            self.nop();
        }
        self
    }

    // --- register ops ---

    /// `dst = src` (register or immediate).
    pub fn mov(&mut self, dst: Reg, src: Operand) -> &mut Self {
        self.emit(Inst::Mov { dst, src })
    }

    /// `dst = imm`.
    pub fn movi(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.mov(dst, Operand::Imm(imm))
    }

    /// `dst = op(lhs, rhs)`.
    pub fn alu(&mut self, op: AluOp, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.emit(Inst::Alu { op, dst, lhs, rhs })
    }

    /// `dst = lhs + rhs`.
    pub fn add(&mut self, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.alu(AluOp::Add, dst, lhs, rhs)
    }

    /// `dst = lhs + imm`.
    pub fn addi(&mut self, dst: Reg, lhs: Reg, imm: u64) -> &mut Self {
        self.add(dst, lhs, Operand::Imm(imm))
    }

    /// `dst = lhs - rhs`.
    pub fn sub(&mut self, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.alu(AluOp::Sub, dst, lhs, rhs)
    }

    /// `dst = lhs * rhs`.
    pub fn mul(&mut self, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.alu(AluOp::Mul, dst, lhs, rhs)
    }

    /// `dst = cmp(lhs, rhs)`.
    pub fn cmp(&mut self, op: CmpOp, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.emit(Inst::Cmp { op, dst, lhs, rhs })
    }

    /// `dst = lhs < rhs`.
    pub fn cmp_lt(&mut self, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.cmp(CmpOp::Lt, dst, lhs, rhs)
    }

    /// `dst = lhs == rhs`.
    pub fn cmp_eq(&mut self, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.cmp(CmpOp::Eq, dst, lhs, rhs)
    }

    /// `dst = lhs != rhs`.
    pub fn cmp_ne(&mut self, dst: Reg, lhs: Reg, rhs: Operand) -> &mut Self {
        self.cmp(CmpOp::Ne, dst, lhs, rhs)
    }

    // --- terminators ---

    fn seal(&mut self, term: Terminator) {
        let src = self.current_src.clone();
        let b = self.cur();
        assert!(b.term.is_none(), "block already sealed");
        b.term = Some(term);
        b.term_src = src;
    }

    /// Seal the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.seal(Terminator::Jump(target));
    }

    /// Seal the current block with a conditional branch on `cond != 0`.
    pub fn branch(&mut self, cond: Reg, if_true: BlockId, if_false: BlockId) {
        self.seal(Terminator::Branch {
            cond,
            if_true,
            if_false,
        });
    }

    /// Seal the current block by halting the thread.
    pub fn halt(&mut self) {
        self.seal(Terminator::Halt);
    }

    /// Finish building and produce the immutable [`Program`].
    ///
    /// # Panics
    /// Panics if any declared block was left without a terminator.
    pub fn finish(self) -> Program {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        let mut srcs = Vec::with_capacity(self.blocks.len());
        for (i, pending) in self.blocks.into_iter().enumerate() {
            #[expect(
                clippy::panic,
                reason = "builder misuse is a workload-definition bug; fail fast at build time"
            )]
            let term = pending
                .term
                .unwrap_or_else(|| panic!("block '{}' was never sealed", pending.label));
            let mut block_srcs = pending.srcs;
            block_srcs.push(pending.term_src);
            blocks.push(BasicBlock {
                id: BlockId(i as u32),
                label: pending.label,
                insts: pending.insts,
                term,
            });
            srcs.push(block_srcs);
        }
        assert!(
            !blocks.is_empty(),
            "a program must contain at least one block"
        );
        Program::from_parts(self.name, blocks, self.base_pc, srcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn builds_blocks_in_declaration_order() {
        let mut b = ProgramBuilder::new("order");
        let first = b.block("first");
        let second = b.block("second");
        b.switch_to(second);
        b.halt();
        b.switch_to(first);
        b.nop();
        b.jump(second);
        let p = b.finish();
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.blocks()[0].label, "first");
        assert_eq!(p.blocks()[1].label, "second");
        assert_eq!(p.block_by_label("second"), Some(second));
        assert_eq!(p.block_by_label("first"), Some(first));
    }

    #[test]
    #[should_panic(expected = "never sealed")]
    fn unsealed_block_panics() {
        let mut b = ProgramBuilder::new("bad");
        let blk = b.block("open");
        b.switch_to(blk);
        b.nop();
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already sealed")]
    fn double_seal_panics() {
        let mut b = ProgramBuilder::new("bad");
        let blk = b.block("b");
        b.switch_to(blk);
        b.halt();
        b.halt();
    }

    #[test]
    fn source_attaches_to_following_instructions() {
        let mut b = ProgramBuilder::new("src");
        let blk = b.block("b");
        b.switch_to(blk);
        b.source("f.c", 7);
        b.nop();
        b.source("f.c", 9);
        b.nop();
        b.halt();
        let p = b.finish();
        let pc0 = p.block_entry_pc(blk);
        assert_eq!(p.source_of(pc0).unwrap().line, 7);
        assert_eq!(p.source_of(pc0 + 4).unwrap().line, 9);
        // terminator inherits line 9
        assert_eq!(p.source_of(pc0 + 8).unwrap().line, 9);
    }

    #[test]
    fn custom_base_pc() {
        let mut b = ProgramBuilder::new("base").with_base_pc(0x1000);
        let blk = b.block("b");
        b.switch_to(blk);
        b.halt();
        let p = b.finish();
        assert_eq!(p.base_pc(), 0x1000);
    }

    #[test]
    fn atomic_helpers_emit_rmw() {
        let mut b = ProgramBuilder::new("atomics");
        let blk = b.block("b");
        b.switch_to(blk);
        b.atomic_fetch_add(Reg(1), Reg(0), 0, Operand::Imm(1), 8);
        b.atomic_exchange(Reg(2), Reg(0), 8, Operand::Imm(1), 4);
        b.atomic_cas(Reg(3), Reg(0), 16, Operand::Imm(0), Operand::Imm(1), 8);
        b.halt();
        let p = b.finish();
        let insts: Vec<_> = p.blocks()[0].insts.iter().collect();
        assert_eq!(insts.len(), 3);
        assert!(insts.iter().all(|i| matches!(i, Inst::AtomicRmw { .. })));
    }

    #[test]
    fn nops_emits_requested_count() {
        let mut b = ProgramBuilder::new("nops");
        let blk = b.block("b");
        b.switch_to(blk);
        b.nops(17);
        b.halt();
        let p = b.finish();
        assert_eq!(p.blocks()[0].insts.len(), 17);
    }
}
