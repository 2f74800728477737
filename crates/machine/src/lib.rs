//! # laser-machine
//!
//! An execution-driven multicore simulator that stands in for the paper's
//! 4-core Intel Haswell testbed.
//!
//! The LASER system only observes the machine through a few interfaces, and
//! this crate reproduces each of them:
//!
//! * a **MESI-style coherence directory** ([`coherence`]) that detects *HITM*
//!   accesses — a core touching a line that is Modified in a remote cache —
//!   which are the raw events Haswell's PEBS facility samples;
//! * a **cycle cost model** ([`timing`]) so that removing HITMs translates
//!   into speedups, as in the paper's evaluation;
//! * a **virtual memory map** ([`memmap`]) equivalent to `/proc/<pid>/maps`,
//!   which LASERDETECT's filtering stages parse;
//! * a **heap allocator model** ([`alloc`]) whose layout decisions can place
//!   two threads' data in one cache line (the paper's Figure 2);
//! * **hardware transactional memory** ([`htm`]) used by LASERREPAIR to flush
//!   its software store buffer atomically;
//! * a **dynamic instrumentation hook** ([`hook`]) standing in for Pin: a tool
//!   can intercept the memory operations of chosen PCs and service them
//!   itself (this is how the software store buffer is attached online).
//!
//! The simulator executes programs written in the
//! [`laser-isa`](../laser_isa/index.html) instruction set, one instruction at
//! a time, always advancing the core with the smallest local clock; this
//! yields deterministic, seed-controlled interleavings with per-core cycle
//! accounting.
//!
//! ## Example
//!
//! ```
//! use laser_isa::{ProgramBuilder, Reg, Operand};
//! use laser_machine::image::{WorkloadImage, ThreadSpec};
//! use laser_machine::machine::{Machine, MachineConfig};
//!
//! // Two threads incrementing counters that share a cache line => HITMs.
//! let mut b = ProgramBuilder::new("fs");
//! let body = b.block("body");
//! let done = b.block("done");
//! b.switch_to(body);
//! b.source("fs.c", 3);
//! b.load(Reg(1), Reg(0), 0, 8);
//! b.addi(Reg(1), Reg(1), 1);
//! b.store(Operand::Reg(Reg(1)), Reg(0), 0, 8);
//! b.addi(Reg(2), Reg(2), 1);
//! b.cmp_lt(Reg(3), Reg(2), Operand::Imm(1000));
//! b.branch(Reg(3), body, done);
//! b.switch_to(done);
//! b.halt();
//! let program = b.finish();
//!
//! let mut image = WorkloadImage::new("fs", program);
//! let base = image.layout_mut().heap_alloc(64, 1).unwrap();
//! image.push_thread(ThreadSpec::new("t0", "body").with_reg(Reg(0), base));
//! image.push_thread(ThreadSpec::new("t1", "body").with_reg(Reg(0), base + 8));
//!
//! let mut machine = Machine::new(MachineConfig::default(), &image);
//! let result = machine.run_to_completion().unwrap();
//! assert!(result.stats.hitm_events > 0);
//! ```

pub mod addr;
pub mod alloc;
pub mod coherence;
pub mod event;
pub mod fasthash;
pub mod hook;
pub mod htm;
pub mod image;
pub mod machine;
pub mod mem;
pub mod memmap;
pub mod stats;
pub mod timing;
pub mod topology;

pub use addr::{line_of, line_offset, Addr, CACHE_LINE_SIZE};
pub use coherence::CoherenceDirectory;
pub use event::{HitmEvent, MemAccessKind};
pub use hook::{ExecHook, HookAction, HookCtx, MemOp};
pub use image::{ThreadSpec, WorkloadImage};
pub use machine::{CoreId, Machine, MachineConfig, QuantumYield, RunResult, RunStatus};
pub use memmap::{MemoryMap, PcClass, Region, RegionKind};
pub use stats::MachineStats;
pub use timing::{LatencyError, LatencyModel};
pub use topology::{
    ResolvedClass, SocketLatency, ThreadPlacement, Topology, TopologyError, TopologySpec,
};
