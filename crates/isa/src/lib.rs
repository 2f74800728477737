//! # laser-isa
//!
//! A small RISC-like instruction set, program representation and the static
//! analyses the LASER system needs.
//!
//! The LASER paper (HPCA 2016) operates on x86 binaries, but only uses a few
//! properties of them: every instruction has a program counter (PC), loads and
//! stores have discoverable access sizes ("load/store sets"), and a control
//! flow graph can be recovered for the repair tool's flush-placement analysis.
//! This crate provides exactly those properties over a compact, explicit
//! instruction set that the `laser-machine` simulator executes.
//!
//! ## Contents
//!
//! * [`inst`] — instructions, registers, operands and addressing modes.
//! * [`program`] — basic blocks, programs, PCs and source maps.
//! * [`builder`] — an ergonomic [`builder::ProgramBuilder`] used by the
//!   synthetic workloads.
//! * [`cfg`](mod@cfg) — control-flow graph construction.
//! * [`dom`] — dominator and post-dominator trees (used to place SSB flushes).
//! * [`memsets`] — load/store set extraction ("binary analysis" in the paper).
//! * [`alias`] — the simplified speculative alias analysis of Section 5.3.
//!
//! ## Example
//!
//! ```
//! use laser_isa::builder::ProgramBuilder;
//! use laser_isa::inst::{Operand, Reg};
//!
//! let mut b = ProgramBuilder::new("counter");
//! b.source("counter.c", 10);
//! let body = b.block("body");
//! let done = b.block("done");
//! b.switch_to(body);
//! b.load(Reg(1), Reg(0), 0, 8); // r1 = *r0
//! b.addi(Reg(1), Reg(1), 1); // r1 += 1
//! b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8); // *r0 = r1
//! b.jump(done);
//! b.switch_to(done);
//! b.halt();
//! let program = b.finish();
//! assert_eq!(program.num_insts(), 5);
//! ```

pub mod alias;
pub mod builder;
pub mod cfg;
pub mod decoded;
pub mod dom;
pub mod inst;
pub mod memsets;
pub mod program;

pub use builder::ProgramBuilder;
pub use cfg::Cfg;
pub use decoded::{DecodedBlock, DecodedInst, DecodedProgram};
pub use inst::{AluOp, CmpOp, Inst, MemAddr, Operand, Reg, RmwOp, Terminator};
pub use memsets::MemAccessSets;
pub use program::{BasicBlock, BlockId, Pc, Program, SourceLoc};
