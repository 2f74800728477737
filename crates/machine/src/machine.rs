//! The multicore execution engine.
//!
//! [`Machine`] executes a [`WorkloadImage`] instruction by instruction. At
//! every step the runnable thread whose core has the smallest local clock
//! executes one instruction and advances its core's clock by the cost of that
//! instruction; this yields deterministic interleavings that naturally model
//! the ping-pong timing of contended cache lines, because a core stalled on a
//! 90-cycle HITM transfer falls behind and the other cores run ahead.
//!
//! External agents (the PEBS driver, the detector process, instrumentation)
//! inject their overhead with [`Machine::charge_cycles`]; that is how the
//! reproduction accounts for tool overhead in the paper's Figures 10–14.
//!
//! The engine is split into focused submodules:
//!
//! * `inner` — `MachineInner`, the memory/coherence state shared with hooks;
//! * `sched` — per-thread state and the smallest-clock scheduling decision;
//! * `exec` — the fetch/execute loop (`run_steps`: equivalent to `n` single
//!   steps, with register-only instructions run ahead of the scheduler and
//!   one scheduling decision per memory operation) and operand evaluation;
//! * `dispatch` — hook attachment and dispatch (the Pin substitute).
//!
//! A `Machine` owns everything it needs (no shared interior mutability), so a
//! fully configured machine — hook included — is `Send` and whole runs can be
//! fanned out across worker threads by `laser-bench`'s campaign runner.

use std::fmt;

use serde::{Deserialize, Serialize};

use laser_isa::decoded::DecodedProgram;
use laser_isa::inst::NUM_REGS;
use laser_isa::program::Program;

use crate::addr::Addr;
use crate::coherence::CoherenceDirectory;
use crate::event::HitmEvent;
use crate::image::{WorkloadImage, STACK_POINTER_REG};
use crate::mem::SparseMemory;
use crate::memmap::MemoryMap;
use crate::stats::MachineStats;
use crate::timing::{HotLatency, LatencyModel};
use crate::topology::Topology;

mod dispatch;
mod exec;
mod inner;
mod sched;
#[cfg(test)]
mod tests;

use dispatch::HookSlot;
pub(crate) use inner::MachineInner;
use sched::{CoreSched, ThreadCtx};

/// Identifier of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Configuration of the simulated machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores (the paper's machine has 4, hyper-threading disabled).
    pub num_cores: usize,
    /// The latency model.
    pub latency: LatencyModel,
    /// The socket topology: core-to-socket mapping and cross-socket costs.
    /// The default single-socket topology reproduces the pre-topology flat
    /// cost model byte-identically.
    pub topology: Topology,
    /// Upper bound on executed instructions before
    /// [`Machine::run_to_completion`] or [`Machine::run_draining`] gives up.
    pub max_steps: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cores: 4,
            latency: LatencyModel::default(),
            topology: Topology::single_socket(),
            max_steps: 400_000_000,
        }
    }
}

impl MachineConfig {
    /// The machine a [`crate::topology::TopologySpec`] preset describes: 4
    /// cores per socket with the preset's topology, everything else default.
    pub fn for_topology(spec: crate::topology::TopologySpec) -> Self {
        MachineConfig {
            num_cores: spec.num_cores(),
            topology: spec.topology(),
            ..Default::default()
        }
    }
}

/// Status returned by incremental execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Some thread still has work to do.
    Running,
    /// Every thread has halted.
    Done,
}

/// What one quantum of execution produced: the run status plus the batch of
/// ground-truth HITM events the quantum generated.
///
/// [`Machine::run_quantum`] *yields* the event batch instead of leaving it
/// inside the machine to be polled in place ([`Machine::take_hitm_events`]).
/// Yielding makes the quantum a self-contained unit of work that can be handed
/// to a concurrent consumer — the record channel feeding `laser-core`'s
/// pipelined session stage — without the consumer ever needing a reference to
/// the machine.
#[derive(Debug)]
pub struct QuantumYield {
    /// Whether any thread still has work after this quantum.
    pub status: RunStatus,
    /// The HITM events generated during the quantum, in machine order.
    pub events: Vec<HitmEvent>,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Wall-clock cycles of the run: the maximum over all core clocks.
    pub cycles: u64,
    /// Final per-core cycle counts.
    pub per_core_cycles: Vec<u64>,
    /// Execution statistics.
    pub stats: MachineStats,
    /// Instructions executed.
    pub steps: u64,
}

/// Errors produced by the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The configured step budget was exhausted before every thread halted
    /// (most likely a livelocked spin loop in the workload).
    MaxStepsExceeded {
        /// The step budget that was exhausted.
        steps: u64,
    },
    /// A thread's entry label does not exist in the program.
    UnknownEntryLabel(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::MaxStepsExceeded { steps } => {
                write!(f, "machine did not finish within {steps} steps")
            }
            MachineError::UnknownEntryLabel(l) => write!(f, "unknown thread entry label '{l}'"),
        }
    }
}

impl std::error::Error for MachineError {}

/// The simulated multicore machine.
pub struct Machine {
    config: MachineConfig,
    program: Program,
    /// The program in execution form: flat per-block `(Inst, Pc)` arrays,
    /// decoded once at construction. `step()` fetches exclusively from this.
    decoded: DecodedProgram,
    map: MemoryMap,
    threads: Vec<ThreadCtx>,
    core_cycles: Vec<u64>,
    /// The incremental scheduling structure (see [`sched`]); keeps the
    /// smallest-clock decision O(1) per step.
    sched: CoreSched,
    inner: MachineInner,
    hook: HookSlot,
    steps: u64,
    time_dilation: f64,
    /// The latencies `step()` charges directly, hoisted out of the hot loop
    /// at construction time (`Copy` — no per-instruction clone).
    hot: HotLatency,
    /// How often the round loop ran and consulted the scheduler.
    #[cfg(test)]
    round_trace: exec::RoundTrace,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("program", &self.program.name())
            .field("threads", &self.threads.len())
            .field("steps", &self.steps)
            .field("cycles", &self.cycles())
            .finish()
    }
}

impl Machine {
    /// Load a workload image onto a fresh machine.
    ///
    /// # Panics
    /// Panics if a thread's entry label does not exist in the program, if the
    /// image declares no threads, or if the configuration's latency model or
    /// topology fail validation (zero clock frequency, non-monotone latency
    /// ladder, remote transfers cheaper than local ones) — rejecting nonsense
    /// cost models at construction time instead of producing corrupt rates
    /// downstream.
    pub fn new(config: MachineConfig, image: &WorkloadImage) -> Self {
        assert!(
            !image.threads().is_empty(),
            "workload image declares no threads"
        );
        #[expect(
            clippy::panic,
            reason = "configuration is validated before any simulation starts; a bad config must abort the run"
        )]
        if let Err(e) = config.topology.validate(&config.latency) {
            panic!("invalid machine configuration: {e}");
        }
        let program = image.program().clone();
        let mut mem = SparseMemory::new();
        for (addr, bytes) in image.layout().initial_contents() {
            mem.write_bytes(*addr, bytes);
        }
        let mut threads = Vec::new();
        for (tid, spec) in image.threads().iter().enumerate() {
            #[expect(
                clippy::panic,
                reason = "an unknown entry label is a workload-definition bug; fail fast at machine construction"
            )]
            let entry = program
                .block_by_label(&spec.entry_label)
                .unwrap_or_else(|| panic!("unknown thread entry label '{}'", spec.entry_label));
            let mut regs = [0u64; NUM_REGS];
            for (r, v) in &spec.regs {
                regs[r.0 as usize] = *v;
            }
            regs[STACK_POINTER_REG.0 as usize] = image.stack_top(tid);
            threads.push(ThreadCtx {
                name: spec.name.clone(),
                core: config
                    .topology
                    .place_thread(tid, config.num_cores, image.thread_placement()),
                block: entry,
                idx: 0,
                regs,
                halted: false,
            });
        }
        let inner = MachineInner {
            mem,
            coh: CoherenceDirectory::new(config.num_cores),
            stats: MachineStats::default(),
            pending_hitms: Vec::new(),
            latency: config.latency.clone(),
            sockets: config.topology.socket_table(config.num_cores),
            topology: config.topology.clone(),
        };
        let thread_cores: Vec<usize> = threads.iter().map(|t| t.core).collect();
        Machine {
            core_cycles: vec![0; config.num_cores],
            map: image.memory_map().clone(),
            time_dilation: image.time_dilation(),
            hot: HotLatency::from(&config.latency),
            decoded: DecodedProgram::decode(&program),
            sched: CoreSched::new(&thread_cores, config.num_cores),
            program,
            threads,
            inner,
            hook: HookSlot::default(),
            steps: 0,
            config,
            #[cfg(test)]
            round_trace: exec::RoundTrace::default(),
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The process memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.map
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.num_cores
    }

    /// The socket topology the machine runs on.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// The latency model charging the machine's accesses.
    pub fn latency(&self) -> &LatencyModel {
        &self.config.latency
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The machine's wall-clock: the maximum core cycle count.
    pub fn cycles(&self) -> u64 {
        self.core_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Per-core cycle counts.
    pub fn per_core_cycles(&self) -> &[u64] {
        &self.core_cycles
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &MachineStats {
        &self.inner.stats
    }

    /// The workload's time-dilation factor.
    pub fn time_dilation(&self) -> f64 {
        self.time_dilation
    }

    /// Simulated elapsed time in seconds of the *full-size* benchmark:
    /// cycles, converted at the clock frequency, times the dilation factor.
    pub fn elapsed_benchmark_seconds(&self) -> f64 {
        self.config.latency.cycles_to_seconds(self.cycles()) * self.time_dilation
    }

    /// Drain the HITM events generated since the last call. This is how the
    /// PMU model pulls ground-truth coherence events out of the machine.
    ///
    /// The machine queues one event per HITM and never drops any itself: the
    /// queue is the caller's to drain. A session drains it every quantum
    /// ([`Machine::run_quantum`]), and a whole run that reads its events as
    /// they come, or not at all, drains it at round boundaries
    /// ([`Machine::run_draining`]). Calling this once after
    /// [`Machine::run_to_completion`] holds the whole run's events at once,
    /// which only tests and small cases do.
    pub fn take_hitm_events(&mut self) -> Vec<HitmEvent> {
        // Leave a buffer sized to the batch just yielded, so a contended run
        // does not regrow the queue from empty every quantum.
        let next = Vec::with_capacity(self.inner.pending_hitms.len());
        std::mem::replace(&mut self.inner.pending_hitms, next)
    }

    /// Run one quantum of up to `steps` instructions and *yield* the HITM
    /// events it generated (equivalent to [`Machine::run_steps`] — itself
    /// equivalent to `steps` single steps — followed by
    /// [`Machine::take_hitm_events`], as one operation).
    ///
    /// The yielded batch is a plain owned value: a session hands it to the
    /// driver, whose sampled records can then go down a channel to a detector
    /// running concurrently with the next quantum.
    pub fn run_quantum(&mut self, steps: u64) -> QuantumYield {
        let status = self.run_steps(steps);
        QuantumYield {
            status,
            events: self.take_hitm_events(),
        }
    }

    /// Inject externally-caused cycles (driver interrupts, detector work
    /// stealing the core, instrumentation overhead) onto one core.
    pub fn charge_cycles(&mut self, core: CoreId, cycles: u64) {
        self.core_cycles[core.0] += cycles;
        self.inner.stats.injected_overhead_cycles += cycles;
        self.sched.reposition(&self.core_cycles, core.0);
    }

    /// Inject externally-caused cycles onto every core.
    pub fn charge_all_cores(&mut self, cycles: u64) {
        // A uniform charge shifts every scheduler key equally, so the heap's
        // relative order is untouched — no per-core maintenance needed.
        for c in self.core_cycles.iter_mut() {
            *c += cycles;
            self.inner.stats.injected_overhead_cycles += cycles;
        }
    }

    /// Inject a whole vector of externally-caused per-core charges in one
    /// pass — `charges[i]` cycles onto core `i` (the driver accumulates a
    /// batch's interrupt and copy overhead per core and applies it here):
    /// equivalent to one [`Machine::charge_cycles`] call per non-zero entry,
    /// but with a single scheduler fix-up per charged core. Charges are
    /// additive, so the machine state after this call is identical to the
    /// state after the individual calls in any order.
    pub fn charge_per_core(&mut self, charges: &[u64]) {
        debug_assert!(charges.len() <= self.core_cycles.len());
        for (core, &cycles) in charges.iter().enumerate() {
            if cycles > 0 {
                self.core_cycles[core] += cycles;
                self.inner.stats.injected_overhead_cycles += cycles;
                self.sched.reposition(&self.core_cycles, core);
            }
        }
    }

    /// Read a 64-bit word from simulated memory (for tests and examples).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.inner.mem.read(addr, 8)
    }

    /// The simulated memory as it stands (two machines that performed the
    /// same writes compare equal).
    pub fn memory(&self) -> &SparseMemory {
        &self.inner.mem
    }

    /// Snapshot the result so far.
    pub fn result(&self) -> RunResult {
        RunResult {
            cycles: self.cycles(),
            per_core_cycles: self.core_cycles.clone(),
            stats: self.inner.stats.clone(),
            steps: self.steps,
        }
    }
}
